"""Binary-selection evaluation over the two psycholinguistic task shapes.

Each item yields two condition scores from the same model; the model is
correct when the congruent (or normal) condition strictly outscores the
other. Ties count as incorrect but are tallied separately, since the
unstructured variants tie by construction on role-reversal items.
Items with out-of-vocabulary tokens are skipped, never imputed, and
coverage is reported alongside accuracy.
"""

from __future__ import annotations

import bisect
import csv
import enum
import io
import json
import math
from collections import Counter
from typing import NamedTuple, Sequence

from .artifacts import format_score
from .config import TASK_BICKNELL_ACC1, TASK_BICKNELL_ACC2, TASK_CHOW
from .datasets import BicknellItem, BicknellMode, ChowItem
from .errors import EmptyPrototypeError
from .expectation import (
    Composition,
    ModelVariant,
    SlotQuery,
    VariantKind,
    map_slot,
    prefix_prototypes,
)
from .space import SparseVector, WeightedSpace, vector_of
from .stats import chi_square_vs_chance, wilcoxon_rank_sum
from .tokens import Token


# Condition labels per task, in (a, b) order: a is the condition the
# model should prefer.
CONDITION_LABELS = {
    TASK_BICKNELL_ACC1: ("congruent", "incongruent"),
    TASK_BICKNELL_ACC2: ("congruent", "incongruent"),
    TASK_CHOW: ("normal", "reversed"),
}


class BicknellSlots(NamedTuple):
    """Dependency relations the two pair-task inputs are queried through.

    With the config's defaults, the agent noun is queried through the
    subject-object link (its typical co-arguments), the verb through its
    object slot; both prototype the patient position.
    """

    agent: str
    verb: str


class ChowSlots(NamedTuple):
    """Inverse relations for the role-reversal inputs.

    Nouns are queried for their typical predicates: with the config's
    defaults, the agent through the inverted subject relation, the
    patient through the inverted object relation.
    """

    agent: str
    patient: str


class Outcome(enum.Enum):
    WIN = "win"
    LOSS = "loss"
    TIE = "tie"


class EvalPair(NamedTuple):
    item_id: str
    score_a: float
    score_b: float
    degenerate_a: bool
    degenerate_b: bool
    correct: Outcome


class EvalReport:
    """One cell's scored pairs and skipped items, and the counts and tests derived from them."""

    __slots__ = (
        "task", "variant", "n_items", "n_failed", "pairs", "skipped",
        "n_scored", "n_wins", "n_ties", "n_degenerate", "n_oov_skipped",
        "accuracy", "coverage", "all_ties", "chi_square", "wilcoxon",
    )

    def __init__(
        self,
        task: str,
        variant: ModelVariant,
        n_items: int,
        n_failed: int,
        pairs: list[EvalPair] | None = None,
        skipped: list[tuple[str, str]] | None = None,
    ):
        self.task, self.variant, self.n_items, self.n_failed = task, variant, n_items, n_failed
        self.pairs = pairs = [] if pairs is None else pairs
        self.skipped = [] if skipped is None else skipped
        self.n_scored = n_scored = len(pairs)
        self.n_oov_skipped = self.n_items - n_scored - self.n_failed
        self.n_wins = sum(1 for p in pairs if p.correct is Outcome.WIN)
        self.n_ties = sum(1 for p in pairs if p.correct is Outcome.TIE)
        self.n_degenerate = sum(1 for p in pairs if p.degenerate_a or p.degenerate_b)
        self.accuracy = self.n_wins / n_scored if n_scored else None
        self.coverage = (self.n_items - self.n_oov_skipped) / self.n_items if self.n_items else None
        self.all_ties = bool(n_scored) and self.n_ties == n_scored
        self.chi_square = chi_square_vs_chance(self.n_wins, n_scored) if n_scored else None
        self.wilcoxon = (
            wilcoxon_rank_sum([p.score_a for p in pairs], [p.score_b for p in pairs]) if n_scored else None
        )

    def summary_line(self) -> str:
        acc = "n/a" if self.accuracy is None else f"{self.accuracy:.3f}"
        cov = "n/a" if self.coverage is None else f"{100.0 * self.coverage:.0f}%"
        note = " [all ties]" if self.all_ties else ""
        return (
            f"{self.task} {self.variant.label} accuracy {acc} "
            f"({self.n_wins}/{self.n_scored} correct, {self.n_ties} ties, "
            f"coverage {cov}){note}"
        )


def _missing_tokens(space: WeightedSpace, tokens: Sequence[Token]) -> list[str]:
    missing = sorted({t.canonical for t in tokens if t.canonical not in space.vocabulary})
    return missing


def _bicknell_task(mode: BicknellMode) -> str:
    return TASK_BICKNELL_ACC1 if mode is BicknellMode.ACC1 else TASK_BICKNELL_ACC2


def _bicknell_conditions(items: Sequence[BicknellItem], kind: VariantKind, slots: BicknellSlots):
    """Per item: (item_id, tokens that must be in vocabulary, (inputs,
    candidate) of condition a, the same of condition b)."""
    slot_agent = map_slot(kind, slots.agent)
    slot_verb = map_slot(kind, slots.verb)
    for item in items:
        required = [
            item.agent_congruent,
            item.agent_incongruent,
            item.verb,
            item.patient_congruent,
            item.patient_incongruent,
        ]
        verb = SlotQuery(item.verb, slot_verb)
        inputs_a = (SlotQuery(item.agent_congruent, slot_agent), verb)
        inputs_b = (SlotQuery(item.agent_incongruent, slot_agent), verb)
        yield (
            item.item_id,
            required,
            (inputs_a, item.patient_congruent),
            (inputs_b, item.patient_incongruent),
        )


def _chow_conditions(items: Sequence[ChowItem], kind: VariantKind, slots: ChowSlots):
    slot_agent = map_slot(kind, slots.agent)
    slot_patient = map_slot(kind, slots.patient)
    for item in items:
        required = [item.verb, item.noun1, item.noun2]
        normal = (SlotQuery(item.noun1, slot_agent), SlotQuery(item.noun2, slot_patient))
        rev = (SlotQuery(item.noun1, slot_patient), SlotQuery(item.noun2, slot_agent))
        yield (item.item_id, required, (normal, item.verb), (rev, item.verb))


# -- scoring kernels ----------------------------------------------------
#
# The grid never builds a composed vector. Its norms and its dot with a
# candidate are folded straight from the two leaf prototypes, with the
# same floating-point operations in the same order as ``sum_vectors([a,
# b])`` or ``multiply_vectors(a, b)``, then ``SparseVector.norm`` and
# ``cosine``: each coordinate gets its single add or multiply (the sum's
# first add, 0.0 + s, is s itself), and every sum is a left fold in
# increasing dimension order. The only extra terms are +0.0, where
# ``multiply_vectors`` drops a product that underflows to zero; adding
# +0.0 to a non-negative sum changes no bit.


def _composed_norms(a: SparseVector, b: SparseVector) -> tuple[float, float]:
    """|a+b| and |a*b| from one merge walk over the two sorted supports."""
    a_ids, a_scores, b_ids, b_scores = a.ids, a.scores, b.ids, b.scores
    n_a, n_b = len(a_ids), len(b_ids)
    sq_sum = sq_prod = 0.0
    i = j = 0
    while i < n_a and j < n_b:
        x, y = a_ids[i], b_ids[j]
        if x == y:
            s, t = a_scores[i], b_scores[j]
            u = s + t
            p = s * t
            sq_sum += u * u
            sq_prod += p * p
            i += 1
            j += 1
        elif x < y:
            s = a_scores[i]
            sq_sum += s * s
            i += 1
        else:
            t = b_scores[j]
            sq_sum += t * t
            j += 1
    for s in a_scores[i:]:
        sq_sum += s * s
    for t in b_scores[j:]:
        sq_sum += t * t
    return math.sqrt(sq_sum), math.sqrt(sq_prod)


def _candidate_dots(c: SparseVector, a: SparseVector, b: SparseVector) -> tuple[float, float]:
    """c.(a+b) and c.(a*b) from one walk over c's dimensions.

    Each dimension of ``c`` is looked up in ``a`` and ``b`` by binary
    search, as ``SparseVector.dot`` does.
    """
    a_ids, a_scores, b_ids, b_scores = a.ids, a.scores, b.ids, b.scores
    n_a, n_b = len(a_ids), len(b_ids)
    search = bisect.bisect_left
    dot_sum = dot_prod = 0.0
    i = j = 0
    for dim, score in zip(c.ids, c.scores):
        i = search(a_ids, dim, i)
        j = search(b_ids, dim, j)
        if i < n_a and a_ids[i] == dim:
            s = a_scores[i]
            i += 1
            if j < n_b and b_ids[j] == dim:
                t = b_scores[j]
                j += 1
                dot_sum += score * (s + t)
                dot_prod += score * (s * t)
            else:
                dot_sum += score * s
        elif j < n_b and b_ids[j] == dim:
            dot_sum += score * b_scores[j]
            j += 1
    return dot_sum, dot_prod


def _cosine(dot: float, norm_c: float, norm_v: float) -> tuple[float, bool]:
    """``cosine`` from its parts: (value, degenerate)."""
    if norm_c == 0.0 or norm_v == 0.0:
        return 0.0, True
    return min(1.0, max(0.0, dot / (norm_c * norm_v))), False


def _per_k(k_values, first: dict, second: dict, kernel, *head) -> dict:
    """``kernel(*head, first[k], second[k])`` at every k, run once per
    distinct pair of snapshots: past the length of a ranking,
    ``prefix_prototypes`` hands out the same snapshot for every larger k."""
    out = {}
    a = b = result = None
    for k in k_values:
        if first[k] is not a or second[k] is not b:
            a, b = first[k], second[k]
            result = kernel(*head, a, b)
        out[k] = result
    return out


def _condition_scores(space: WeightedSpace, memo: dict, condition, k_values) -> dict:
    """Per k, the (SUM, MULT) cosines of one (inputs, candidate) condition.

    ``memo`` holds the leaf snapshots by query, the composed norms by
    input pair and the scores by condition. The three kinds of key are
    tuples nested to different depths, so no two of different kinds
    compare equal: the first field of a query (Token, slot) is a Token,
    of an input pair (query, query) a query, and of a condition (input
    pair, candidate) an input pair.
    """
    scores = memo.get(condition)
    if scores is None:
        inputs, candidate = condition
        first, second = memo[inputs[0]], memo[inputs[1]]
        norms = memo.get(inputs)
        if norms is None:
            norms = memo[inputs] = _per_k(k_values, first, second, _composed_norms)
        row = vector_of(space, candidate.canonical)
        dots = _per_k(k_values, first, second, _candidate_dots, row)
        scores = memo[condition] = {
            k: (_cosine(dots[k][0], row.norm, norms[k][0]), _cosine(dots[k][1], row.norm, norms[k][1]))
            for k in k_values
        }
    return scores


def evaluate_grid(
    space: WeightedSpace,
    kind: VariantKind,
    items,
    task: str,
    compositions: Sequence[Composition],
    k_values: Sequence[int],
    slots: BicknellSlots | ChowSlots,
    index=None,
) -> dict[tuple[Composition, int], EvalReport]:
    """Score one task for one variant kind at every (composition, k).

    Leaf prototypes are shared across the items of the call: each
    distinct leaf query is looked up once, and its ranking walked once
    over the sorted k values (``prefix_prototypes``). Items are scored
    grouped by their sorted leaf queries, so that items sharing leaves
    run close together, and every leaf is dropped after the last item
    that uses it; use counts are taken before scoring. For each distinct
    input pair and k, one merge walk gives the norms of both the sum
    and the product, and for each distinct condition one walk over the
    candidate's row gives both dots. No composed vector is built. Pairs
    and skip reasons come back in dataset order, and the results equal
    the per-cell path run from scratch, bit for bit: ``build_prototype``
    per input, ``compose`` and ``score_filler``.

    ``index`` overrides the ranking source; vectors always come from
    ``space``.
    """
    if not k_values:
        raise ValueError("k_values must be non-empty")
    if task == TASK_CHOW:
        conditions = _chow_conditions(items, kind, slots)
    elif task in (TASK_BICKNELL_ACC1, TASK_BICKNELL_ACC2):
        conditions = _bicknell_conditions(items, kind, slots)
    else:
        raise ValueError(f"unknown task {task!r}")
    cells = {
        (comp, k): ModelVariant(kind, k, comp) for comp in compositions for k in k_values
    }
    k_sorted = sorted(set(k_values))
    # Per item in dataset order: (item_id, skip reason or None, scores of
    # condition a, scores of condition b); scores are filled in below.
    outcomes: list[tuple] = []
    todo = []
    uses: Counter = Counter()
    for item_id, required, cond_a, cond_b in conditions:
        missing = _missing_tokens(space, required)
        if missing:
            outcomes.append((item_id, "oov: " + " ".join(missing), None, None))
            continue
        queries = tuple(dict.fromkeys(cond_a[0] + cond_b[0]))
        # the memo entries the item reads: leaves, input pairs, conditions
        keys = queries + tuple(dict.fromkeys((cond_a[0], cond_b[0], cond_a, cond_b)))
        uses.update(keys)
        group = sorted((query.input.canonical, query.slot) for query in queries)
        todo.append((group, len(outcomes), item_id, queries, keys, cond_a, cond_b))
        outcomes.append(None)
    todo.sort(key=lambda entry: (entry[0], entry[1]))

    memo: dict = {}
    n_failed = 0
    for _, position, item_id, queries, keys, cond_a, cond_b in todo:
        reason = None
        for query in queries:
            leaf = memo.get(query)
            if leaf is None:
                try:
                    leaf = prefix_prototypes(space, kind, query, k_sorted, index=index)
                except EmptyPrototypeError as exc:
                    leaf = f"empty prototype: {exc.query}"
                memo[query] = leaf
            if isinstance(leaf, str):
                reason = leaf
                break
        if reason is None:
            outcomes[position] = (
                item_id,
                None,
                _condition_scores(space, memo, cond_a, k_sorted),
                _condition_scores(space, memo, cond_b, k_sorted),
            )
        else:
            n_failed += 1
            outcomes[position] = (item_id, reason, None, None)
        for key in keys:
            uses[key] -= 1
            if not uses[key]:
                memo.pop(key, None)

    skipped = [(item_id, reason) for item_id, reason, _, _ in outcomes if reason is not None]
    scored = [(item_id, a, b) for item_id, reason, a, b in outcomes if reason is None]
    reports = {}
    for (comp, k), variant in cells.items():
        which = 0 if comp is Composition.SUM else 1
        pairs = []
        for item_id, scores_a, scores_b in scored:
            (value_a, degenerate_a), (value_b, degenerate_b) = scores_a[k][which], scores_b[k][which]
            if value_a > value_b:
                correct = Outcome.WIN
            elif value_a == value_b:
                correct = Outcome.TIE
            else:
                correct = Outcome.LOSS
            pairs.append(EvalPair(item_id, value_a, value_b, degenerate_a, degenerate_b, correct))
        reports[(comp, k)] = EvalReport(task, variant, len(outcomes), n_failed, pairs, list(skipped))
    return reports


def run_bicknell(
    space: WeightedSpace,
    variant: ModelVariant,
    items: Sequence[BicknellItem],
    mode: BicknellMode,
    slots: BicknellSlots,
    index=None,
) -> EvalReport:
    """Score triple pairs: the patient is the candidate, agent and verb
    are the expectation inputs. Condition a is the congruent one."""
    cell = (variant.composition, variant.k)
    return evaluate_grid(
        space, variant.kind, items, _bicknell_task(mode), [cell[0]], [cell[1]], slots, index
    )[cell]


def run_chow(
    space: WeightedSpace,
    variant: ModelVariant,
    items: Sequence[ChowItem],
    slots: ChowSlots,
    index=None,
) -> EvalReport:
    """Score role reversal: the verb is the candidate; the normal
    condition reads noun1 as agent and noun2 as patient, the reversed
    condition swaps the slot assignment while keeping column order."""
    cell = (variant.composition, variant.k)
    return evaluate_grid(
        space, variant.kind, items, TASK_CHOW, [cell[0]], [cell[1]], slots, index
    )[cell]


# -- serialization -------------------------------------------------------


_COUNTS = ("n_items", "n_scored", "n_wins", "n_ties", "n_degenerate", "n_oov_skipped", "n_failed")


def report_to_dict(report: EvalReport, provenance: dict[str, str] | None = None) -> dict:
    labels = CONDITION_LABELS[report.task]
    out = {
        "task": report.task,
        "variant": {
            "kind": report.variant.kind.value,
            "k": report.variant.k,
            "composition": report.variant.composition.value,
        },
        "conditions": list(labels),
        "counts": {name: getattr(report, name) for name in _COUNTS},
        "accuracy": report.accuracy,
        "coverage": report.coverage,
        "all_ties": report.all_ties,
        "chi_square": None if report.chi_square is None else report.chi_square._asdict(),
        "wilcoxon": None if report.wilcoxon is None else report.wilcoxon._asdict(),
        "items": [
            {
                "item_id": p.item_id,
                "score_a": p.score_a,
                "score_b": p.score_b,
                "degenerate_a": p.degenerate_a,
                "degenerate_b": p.degenerate_b,
                "outcome": p.correct.value,
            }
            for p in report.pairs
        ],
        "skipped": [{"item_id": i, "reason": r} for i, r in report.skipped],
    }
    if provenance:
        out["provenance"] = dict(sorted(provenance.items()))
    return out


def report_to_json(report: EvalReport, provenance: dict[str, str] | None = None) -> str:
    return json.dumps(report_to_dict(report, provenance), sort_keys=True, indent=2) + "\n"


def per_item_csv(report: EvalReport) -> str:
    """One row per scored condition; feeds score-distribution plots."""
    label_a, label_b = CONDITION_LABELS[report.task]
    out = io.StringIO()
    # an item id holding a comma or a quote is quoted; every other field is written as it is
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("item_id", "condition", "score", "degenerate"))
    for p in report.pairs:
        writer.writerow((p.item_id, label_a, format_score(p.score_a), int(p.degenerate_a)))
        writer.writerow((p.item_id, label_b, format_score(p.score_b), int(p.degenerate_b)))
    return out.getvalue()


def per_k_csv(reports: Sequence[EvalReport]) -> str:
    """One row per (k, variant) accuracy; feeds the accuracy-vs-k plot."""
    out = io.StringIO()
    out.write("k,task,kind,composition,accuracy,n_ties,n_degenerate,coverage\n")
    for r in reports:
        acc = "" if r.accuracy is None else format_score(r.accuracy)
        cov = "" if r.coverage is None else format_score(r.coverage)
        out.write(
            f"{r.variant.k},{r.task},{r.variant.kind.value},{r.variant.composition.value},"
            f"{acc},{r.n_ties},{r.n_degenerate},{cov}\n"
        )
    return out.getvalue()
