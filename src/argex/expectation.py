"""Role prototypes and their composition.

A prototype for a slot query (input token, slot relation) is the
unweighted coordinate-wise sum of the vectors of the k most typical
fillers of that slot. Prototypes from several inputs are combined with
vector sum or pointwise multiplication, and a candidate filler is
scored by cosine against the combined expectation.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .config import Composition, VariantKind
from .errors import ConfigError, EmptyPrototypeError, OutOfVocabularyError, SpaceMismatchError
from .space import (
    CosineResult,
    SparseVector,
    VectorSum,
    WeightedSpace,
    cosine,
    multiply_vectors,
    sum_vectors,
    vector_of,
)
from .tokens import ARG, Token, WINDOW


class _Variant(NamedTuple):
    kind: VariantKind
    k: int
    composition: Composition


class ModelVariant(_Variant):
    """One model: an immutable tuple whose k is checked whenever one
    is made, ``_make`` and ``_replace`` included."""

    __slots__ = ()

    def __new__(cls, kind: VariantKind, k: int, composition: Composition):
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        return super().__new__(cls, kind, k, composition)

    @classmethod
    def _make(cls, iterable) -> "ModelVariant":
        return cls(*iterable)

    @property
    def label(self) -> str:
        return f"{self.kind.value}-{self.composition.value}-k{self.k}"


def map_slot(kind: VariantKind, slot: str) -> str:
    """Map a dataset slot label into the variant's index relation.

    DEPS keeps the slot as given; the unstructured variants discard it
    in favor of their single pseudo-relation.
    """
    if kind is VariantKind.BOA:
        return ARG
    if kind is VariantKind.BOW:
        return WINDOW
    return slot


class SlotQuery(NamedTuple):
    input: Token
    slot: str

    def __str__(self) -> str:
        return f"({self.input.canonical}, {self.slot})"


class Prototype(NamedTuple):
    """An expectation vector and the space it was built in."""

    vector: SparseVector
    space_id: str
    # leaf prototypes: the ranked (canonical) fillers actually summed, with scores
    fillers: tuple[tuple[str, float], ...] = ()


def _check_slot(kind: VariantKind, slot: str) -> None:
    if kind is VariantKind.BOA and slot != ARG:
        raise ConfigError(f"BOA queries must use the {ARG} relation, got {slot!r}")
    if kind is VariantKind.BOW and slot != WINDOW:
        raise ConfigError(f"BOW queries must use the {WINDOW} relation, got {slot!r}")
    if kind is VariantKind.DEPS and slot in (ARG, WINDOW):
        raise ConfigError(f"DEPS queries need a dependency relation, got {slot!r}")


def build_prototype(
    space: WeightedSpace,
    variant: ModelVariant,
    query: SlotQuery,
    index=None,
) -> Prototype:
    """Sum the vectors of the top-k fillers of (query.input, query.slot).

    ``index`` overrides the ranking source, by default ``space`` itself;
    vectors always come from ``space``.
    """
    _check_slot(variant.kind, query.slot)
    target = query.input.canonical
    if target not in space.vocabulary:
        raise OutOfVocabularyError(query.input)
    ranking = (index or space).ranking(target, query.slot)
    if not ranking:
        raise EmptyPrototypeError(str(query))
    fillers = ranking[:variant.k]
    vector = sum_vectors([vector_of(space, filler) for filler, _ in fillers])
    return Prototype(vector=vector, space_id=space.space_id, fillers=fillers)


def prefix_prototypes(
    space: WeightedSpace,
    kind: VariantKind,
    query: SlotQuery,
    k_values: Sequence[int],
    index=None,
) -> dict[int, SparseVector]:
    """The prototype vector of ``query`` at every k, from one walk of its ranking.

    Top-k is prefix-stable, so the fillers are added to one running sum
    in ranking order and a snapshot is taken at each k (in increasing
    order). Each snapshot equals ``build_prototype(...).vector`` at that
    k bit for bit; the checks and errors are the same too.
    """
    if any(k < 1 for k in k_values):
        raise ValueError("k must be >= 1")
    _check_slot(kind, query.slot)
    if query.input.canonical not in space.vocabulary:
        raise OutOfVocabularyError(query.input)
    ranking = (index or space).ranking(query.input.canonical, query.slot)
    if not ranking:
        raise EmptyPrototypeError(str(query))
    total = VectorSum()
    added = 0
    snapshot = None
    out: dict[int, SparseVector] = {}
    for k in sorted(set(k_values)):
        stop = min(k, len(ranking))
        if snapshot is None or stop > added:
            for filler, _ in ranking[added:stop]:
                total.add(vector_of(space, filler))
            added = stop
            snapshot = total.snapshot()
        out[k] = snapshot
    return out


def compose(p1: Prototype, p2: Prototype, op: Composition) -> Prototype:
    if p1.space_id != p2.space_id:
        raise SpaceMismatchError(
            f"cannot compose prototypes from different spaces "
            f"({p1.space_id[:12]}.. vs {p2.space_id[:12]}..)"
        )
    if op is Composition.SUM:
        vector = sum_vectors([p1.vector, p2.vector])
    else:
        vector = multiply_vectors(p1.vector, p2.vector)
    return Prototype(vector=vector, space_id=p1.space_id)


def score_filler(space: WeightedSpace, composed: Prototype, candidate: Token) -> CosineResult:
    """Cosine between the candidate's vector and the expectation vector."""
    if composed.space_id != space.space_id:
        raise SpaceMismatchError("prototype was built in a different space")
    return cosine(vector_of(space, candidate.canonical), composed.vector)
