"""The stage modules' records: their checks, their immutability, and the memo keys they make."""

import itertools

import pytest

from argex.conll import ColumnConfig
from argex.datasets import BicknellItem, BicknellMode, ChowItem, load_bicknell, load_chow
from argex.errors import ConfigError
from argex.evaluation import (
    BicknellSlots,
    ChowSlots,
    EvalPair,
    EvalReport,
    Outcome,
    _bicknell_conditions,
    _chow_conditions,
)
from argex.expectation import Composition, ModelVariant, Prototype, SlotQuery, VariantKind
from argex.space import EMPTY_VECTOR
from argex.tokens import Token
from argex.weighting import WeightedTensor

from conftest import BICKNELL_SLOTS, CHOW_SLOTS

DOG, CAT, SEE = Token("dog", "n"), Token("cat", "n"), Token("see", "v")
VARIANT = ModelVariant(VariantKind.DEPS, 10, Composition.SUM)

# one of each immutable record
FROZEN = [
    ColumnConfig(form=1, lemma=2, pos=3, head=6, relation=7),
    BicknellItem("b1", DOG, CAT, SEE, CAT, DOG),
    ChowItem("c1", SEE, DOG, CAT),
    VARIANT,
    SlotQuery(DOG, "sbj"),
    Prototype(EMPTY_VECTOR, "space id"),
    BicknellSlots("VERB", "obj"),
    ChowSlots("sbj_inv", "obj_inv"),
    EvalPair("b1", 0.5, 0.25, False, False, Outcome.WIN),
]


class TestModelVariant:
    @pytest.mark.parametrize("make", [
        lambda: ModelVariant(VariantKind.DEPS, 0, Composition.SUM),
        lambda: ModelVariant(kind=VariantKind.DEPS, k=0, composition=Composition.SUM),
        lambda: ModelVariant._make((VariantKind.DEPS, 0, Composition.SUM)),
        lambda: VARIANT._replace(k=0),
    ], ids=["positional", "keywords", "_make", "_replace"])
    def test_k_below_one_is_refused_however_the_variant_is_made(self, make):
        with pytest.raises(ConfigError, match="k must be >= 1, got 0"):
            make()

    def test_a_replaced_variant_is_a_variant(self):
        changed = VARIANT._replace(k=20)
        assert type(changed) is ModelVariant
        assert changed == ModelVariant(VariantKind.DEPS, 20, Composition.SUM)
        assert changed.label == "deps-sum-k20"

    def test_a_slot_query_prints_its_token_and_slot(self):
        assert str(SlotQuery(DOG, "sbj_inv")) == "(dog-n, sbj_inv)"


class TestFrozenRecords:
    @pytest.mark.parametrize("record", FROZEN, ids=lambda record: type(record).__name__)
    def test_attribute_writes_are_refused(self, record):
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert record == type(record)._make(record)

    @pytest.mark.parametrize("record", FROZEN, ids=lambda record: type(record).__name__)
    def test_equal_and_hashed_by_value(self, record):
        copy = type(record)(*record)
        assert copy == record and copy is not record
        assert record._replace(**{record._fields[0]: None}) != record
        if not isinstance(record, Prototype):  # its vector compares by value and is never hashed
            assert hash(copy) == hash(record)


class TestMutableRecords:
    def test_each_record_gets_its_own_containers(self):
        assert WeightedTensor().scores == {} and WeightedTensor().scores is not WeightedTensor().scores
        first, second = EvalReport("chow", VARIANT, 0, 0), EvalReport("chow", VARIANT, 0, 0)
        assert (first.pairs, first.skipped) == ([], []) and first.pairs is not second.pairs


class TestMemoKeys:
    """``evaluate_grid`` keeps leaf queries, input pairs and conditions in one memo."""

    def test_keys_of_different_kinds_never_compare_equal(self, fixture_paths):
        acc1 = load_bicknell(fixture_paths["bicknell_acc1"], BicknellMode.ACC1)
        acc2 = load_bicknell(fixture_paths["bicknell_acc2"], BicknellMode.ACC2)
        chow = load_chow(fixture_paths["chow50"])
        # tokens whose lemmas are slot labels, and slot labels that are canonical tokens
        odd = [BicknellItem("odd", Token("obj", "n"), Token("VERB", "n"), Token("obj", "v"), DOG, CAT)]
        odd_slots = BicknellSlots("dog-n", "obj")
        conditions = [
            condition
            for kind in VariantKind
            for items, task_conditions, slots in (
                (acc1 + acc2, _bicknell_conditions, BICKNELL_SLOTS),
                (odd, _bicknell_conditions, odd_slots),
                (chow, _chow_conditions, CHOW_SLOTS),
            )
            for _, _, *pair_of_conditions in task_conditions(items, kind, slots)
            for condition in pair_of_conditions
        ]
        keys = {
            "query": {query for inputs, _ in conditions for query in inputs},
            "input pair": {inputs for inputs, _ in conditions},
            "condition": set(conditions),
        }
        assert all(len(of_kind) > 1 for of_kind in keys.values())
        for (kind_a, keys_a), (kind_b, keys_b) in itertools.combinations(keys.items(), 2):
            for a, b in itertools.product(keys_a, keys_b):
                assert a != b, (kind_a, a, kind_b, b)
        memo = dict.fromkeys(itertools.chain(*keys.values()))
        assert len(memo) == sum(map(len, keys.values()))
