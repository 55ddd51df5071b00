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
from typing import Iterable

from .artifacts import format_score, write_artifact
from .errors import UndefinedModelError
from .tensor import CooccurrenceTensor, Triple
from .tokens import ARG, VERB_LINK, is_inverse


class WeightedTensor:
    """Positive-LMI scores per triple, plus provenance of the source counts."""

    __slots__ = ("scores", "source_hash")

    def __init__(self, scores: dict[Triple, float] | None = None, source_hash: str = ""):
        self.scores = {} if scores is None else scores
        self.source_hash = source_hash

    def __len__(self) -> int:
        return len(self.scores)

    def to_tsv(self) -> str:
        scores = self.scores
        return "".join([
            f"{key[0]}\t{key[1]}\t{key[2]}\t{format_score(scores[key])}\n" for key in sorted(scores)
        ])

    def save(self, path: str, sidecar: dict[str, str] | None = None) -> str:
        # no stage writes a weighted tensor (the ARG rankings go to the deps
        # space's arg.tsv); perfbench/traced.py still does
        meta = {
            "entries": str(len(self.scores)),
            "source_hash": self.source_hash,
            **(sidecar or {}),
        }
        return write_artifact(path, self.to_tsv(), meta)


def weight_tensor(tensor: CooccurrenceTensor) -> WeightedTensor:
    """Score every triple; keep only strictly positive weights.

    The expected count of a triple is the count under full independence
    of its three coordinates, from the target, relation and filler
    marginals, which are summed in one pass here. Every count must be
    positive, as a counted or loaded tensor's are. ``source_hash`` is the
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
    values = map(operator.mul, map(math.log, map(operator.truediv, observed, expected)), observed)
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
