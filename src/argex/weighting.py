"""Local Mutual Information weighting of raw counts.

An observed triple count is compared against the count expected if
target, relation, and filler were independent; the weight is
``ln(observed/expected) * observed`` (natural log; another base would
rescale scores without changing rankings), clipped at zero. Triples that are
no more frequent than chance therefore vanish from the weighted space.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import ConsistencyError, UndefinedModelError
from .tensor import (
    CooccurrenceTensor,
    Triple,
    format_score,
    parse_tsv,
    read_artifact,
    sorted_triples,
    write_artifact,
)
from .tokens import ARG, VERB_LINK, canonical_checker, is_inverse


def lmi(observed: int, expected: float) -> float:
    """ln(observed/expected) * observed, with the 0*ln(0) limit as 0."""
    if observed < 0 or expected < 0:
        raise ValueError("counts must be non-negative")
    if observed == 0:
        return 0.0
    if expected == 0:
        # Any stored triple forces positive marginals, so this cannot happen
        # for counts drawn from a real tensor.
        raise ConsistencyError("observed > 0 with expected == 0")
    return math.log(observed / expected) * observed


@dataclass
class WeightedTensor:
    """Positive-LMI scores per triple, plus provenance of the source counts."""

    scores: dict[Triple, float] = field(default_factory=dict)
    source_hash: str = ""

    def __len__(self) -> int:
        return len(self.scores)

    def entries(self) -> Iterator[tuple[Triple, float]]:
        for key in sorted_triples(self.scores):
            yield key, self.scores[key]

    def to_tsv(self) -> str:
        scores = self.scores
        return "".join([
            f"{key[0]}\t{key[1]}\t{key[2]}\t{format_score(scores[key])}\n" for key in sorted_triples(scores)
        ])

    def save(self, path: str, sidecar: dict[str, str] | None = None) -> str:
        meta = {
            "entries": str(len(self.scores)),
            "source_hash": self.source_hash,
            **(sidecar or {}),
        }
        return write_artifact(path, self.to_tsv(), meta)

    @classmethod
    def load(cls, path: str) -> "WeightedTensor":
        text, meta = read_artifact(path)
        weighted = cls(source_hash=meta.get("source_hash", ""))
        check = canonical_checker()

        def row(t: str, r: str, f: str, score: str) -> None:
            weighted.scores[(check(t), r, check(f))] = float(score)

        parse_tsv(path, text, 4, row)
        return weighted


def weight_tensor(tensor: CooccurrenceTensor) -> WeightedTensor:
    """Score every triple; keep only strictly positive weights.

    The expected count of a triple is the count under full independence
    of its three coordinates, from the target, relation and filler
    marginals, which are summed in one pass here. ``source_hash`` is the
    one the counts were loaded with (empty for counts built in memory).
    """
    counts = tensor.counts
    targets: dict[str, int] = {}
    relations: dict[str, int] = {}
    fillers: dict[str, int] = {}
    for (t, r, f), count in counts.items():
        targets[t] = targets.get(t, 0) + count
        relations[r] = relations.get(r, 0) + count
        fillers[f] = fillers.get(f, 0) + count
    n = sum(targets.values())
    if n <= 0:
        raise UndefinedModelError("cannot weight an empty tensor")
    # each coordinate's share of n, divided once per distinct value
    p_target = {t: c / n for t, c in targets.items()}
    p_relation = {r: c / n for r, c in relations.items()}
    p_filler = {f: c / n for f, c in fillers.items()}
    observed = list(counts.values())
    expected = [n * p_target[t] * p_relation[r] * p_filler[f] for t, r, f in counts]
    if min(observed) > 0 and min(expected) > 0:
        # lmi() without its checks, which these minima have passed
        values = map(operator.mul, map(math.log, map(operator.truediv, observed, expected)), observed)
    else:
        values = map(lmi, observed, expected)
    scores = {key: value for key, value in zip(counts, values) if value > 0.0}
    return WeightedTensor(scores, tensor.source_hash)


def default_collapse_relations(triples: Iterable[Triple]) -> frozenset[str]:
    """All direct dependency relations of ``triples``: no inverses, no synthetic VERB link."""
    relations = {r for (_, r, _) in triples}
    return frozenset(r for r in relations if not is_inverse(r) and r != VERB_LINK)


def collapse_relations(
    tensor: CooccurrenceTensor, relation_filter: frozenset[str] | None = None
) -> CooccurrenceTensor:
    """Sum counts over relations into the single ARG pseudo-relation.

    The default filter keeps direct dependency relations only, so each arc
    contributes exactly once per (target, filler) pair. Marginals are those
    of the collapsed tensor itself; ``source_hash`` is the input's.
    """
    if relation_filter is None:
        relation_filter = default_collapse_relations(tensor.counts)
    counts: dict[Triple, int] = {}
    get = counts.get
    for (t, r, f), count in tensor.counts.items():
        if r in relation_filter:
            key = (t, ARG, f)
            counts[key] = get(key, 0) + count
    return CooccurrenceTensor(counts, tensor.source_hash)


def max_over_relations(
    weighted: WeightedTensor, relation_filter: frozenset[str] | None = None
) -> WeightedTensor:
    """Alternative ARG scoring: each pair keeps its best per-relation score.

    Where collapse_relations pools counts before weighting, this takes the
    already-weighted tensor and ranks a (target, filler) pair by the
    maximum score it reaches under any single kept relation.
    """
    if relation_filter is None:
        relation_filter = default_collapse_relations(weighted.scores)
    out = WeightedTensor(source_hash=weighted.source_hash)
    for (t, r, f), score in weighted.scores.items():
        if r not in relation_filter:
            continue
        key = (t, ARG, f)
        if score > out.scores.get(key, 0.0):
            out.scores[key] = score
    return out
