"""Weighting against an exact-arithmetic oracle.

The oracle forms observed/expected as an exact Fraction and evaluates
the logarithm with 50-digit mpmath, so its scores are correct to far
beyond float64 precision.
"""

import math
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from argex.errors import ConsistencyError, UndefinedModelError
from argex.space import build_space
from argex.tensor import CooccurrenceTensor, read_artifact
from argex.tokens import ARG
from argex.weighting import (
    WeightedTensor,
    collapse_relations,
    format_score,
    lmi,
    max_over_relations,
    weight_tensor,
)

mpmath.mp.dps = 50


def marginals(tensor: CooccurrenceTensor) -> tuple[Counter, Counter, Counter, int]:
    """Target, relation and filler sums and the grand total, straight from the counts."""
    targets, relations, fillers = Counter(), Counter(), Counter()
    for (t, r, f), count in tensor.counts.items():
        targets[t] += count
        relations[r] += count
        fillers[f] += count
    return targets, relations, fillers, sum(tensor.counts.values())


def oracle_scores(tensor: CooccurrenceTensor, log_base=None) -> dict:
    """Positive-LMI scores via exact ratios and 50-digit logs."""
    scores = {}
    targets, relations, fillers, n = marginals(tensor)
    for (t, r, f), observed in tensor.counts.items():
        ratio = Fraction(observed * n * n) / Fraction(targets[t] * relations[r] * fillers[f])
        if ratio <= 1:
            continue  # lmi <= 0 is pruned
        log = mpmath.log(mpmath.mpf(ratio.numerator) / mpmath.mpf(ratio.denominator))
        if log_base is not None:
            log = log / mpmath.log(log_base)
        scores[(t, r, f)] = log * observed
    return scores


def thirty_triple_tensor() -> CooccurrenceTensor:
    """30 triples with uneven counts; some land on or below the chance line."""
    counts = {}
    targets = [f"{t}-n" for t in ("ant", "bee", "cow", "dog", "elk")]
    fillers = [f"{f}-v" for f in ("ask", "buy", "cut")]
    relations = ["sbj", "obj"]
    count = 0
    for i, t in enumerate(targets):
        for r in relations:
            for j, f in enumerate(fillers):
                count += 1
                counts[(t, r, f)] = (i * 7 + j * 3 + count) % 13 + 1
    tensor = CooccurrenceTensor(counts)
    assert len(tensor) == 30
    return tensor


class TestAgainstOracle:
    def test_thirty_triples_match_to_1e9_relative(self):
        tensor = thirty_triple_tensor()
        weighted = weight_tensor(tensor)
        oracle = oracle_scores(tensor)
        assert set(weighted.scores) == set(oracle)
        for key, expected in oracle.items():
            got = weighted.scores[key]
            assert abs(got - float(expected)) <= 1e-9 * abs(float(expected)), key

    def test_prunes_exactly_the_nonpositive_triples(self):
        tensor = thirty_triple_tensor()
        weighted = weight_tensor(tensor)
        targets, relations, fillers, n = marginals(tensor)
        for (t, r, f), observed in tensor.counts.items():
            ratio = Fraction(observed * n * n) / Fraction(targets[t] * relations[r] * fillers[f])
            assert ((t, r, f) in weighted.scores) == (ratio > 1)

    def test_random_tensors_match_oracle(self):
        import random

        rng = random.Random(99)
        nouns = [f"n{i}-n" for i in range(8)]
        verbs = [f"v{i}-v" for i in range(4)]
        for _ in range(5):
            counts = {}
            for _ in range(60):
                key = (rng.choice(nouns), rng.choice(["sbj", "obj", "nmod"]), rng.choice(verbs))
                counts[key] = counts.get(key, 0) + rng.randint(1, 20)
            tensor = CooccurrenceTensor(counts)
            weighted = weight_tensor(tensor)
            oracle = oracle_scores(tensor)
            assert set(weighted.scores) == set(oracle)
            for key, expected in oracle.items():
                assert abs(weighted.scores[key] - float(expected)) <= 1e-9 * abs(float(expected))

    def test_rank_one_tensor_is_pruned_entirely(self):
        # counts(t, r, f) = a_t * b_r * c_f makes observed == expected exactly,
        # so every weight is ln(1) * observed = 0 and nothing survives.
        a = {"ant": 1, "bee": 2, "cow": 3}
        b = {"sbj": 1, "obj": 2}
        c = {"ask": 1, "buy": 2, "cut": 4}
        tensor = CooccurrenceTensor({
            (f"{t}-n", r, f"{f}-v"): at * br * cf
            for t, at in a.items() for r, br in b.items() for f, cf in c.items()
        })
        weighted = weight_tensor(tensor)
        assert len(weighted) == 0

    def test_rankings_are_invariant_to_log_base(self):
        tensor = thirty_triple_tensor()
        natural = oracle_scores(tensor)
        base2 = oracle_scores(tensor, log_base=2)
        assert set(natural) == set(base2)
        implemented = weight_tensor(tensor)

        def ranking(scores):
            by_slot = {}
            for (t, r, f), s in scores.items():
                by_slot.setdefault((t, r), []).append((f, float(s)))
            return {
                slot: [f for f, _ in sorted(pairs, key=lambda p: (-p[1], p[0]))]
                for slot, pairs in by_slot.items()
            }

        assert ranking(natural) == ranking(base2) == ranking(implemented.scores)


class TestPrimitives:
    def test_weight_hand_value(self):
        dog, cat, see = "dog-n", "cat-n", "see-v"
        tensor = CooccurrenceTensor({(see, "sbj", dog): 2, (see, "obj", cat): 3})
        # expected = n * (target/n) * (relation/n) * (filler/n), with n = 5
        expected_sbj = 5 * (5 / 5) * (2 / 5) * (2 / 5)
        expected_obj = 5 * (5 / 5) * (3 / 5) * (3 / 5)
        assert weight_tensor(tensor).scores == {
            (see, "sbj", dog): pytest.approx(2 * math.log(2 / expected_sbj), rel=1e-12),
            (see, "obj", cat): pytest.approx(3 * math.log(3 / expected_obj), rel=1e-12),
        }

    def test_lmi_zero_observed(self):
        assert lmi(0, 5.0) == 0.0

    def test_lmi_rejects_inconsistent_input(self):
        with pytest.raises(ConsistencyError):
            lmi(3, 0.0)
        with pytest.raises(ValueError):
            lmi(-1, 1.0)

    def test_weight_tensor_rejects_empty(self):
        with pytest.raises(UndefinedModelError):
            weight_tensor(CooccurrenceTensor())

    def test_over_expected_triple_dropped(self):
        a, b = "a-n", "b-n"
        x, y = "x-v", "y-v"
        tensor = CooccurrenceTensor({(a, "r", x): 1, (a, "r", y): 9, (b, "r", x): 9})
        weighted = weight_tensor(tensor)
        assert (a, "r", x) not in weighted.scores
        assert (a, "r", y) in weighted.scores
        assert (b, "r", x) in weighted.scores


class TestFormatScore:
    @pytest.mark.parametrize(
        "value",
        [0.1, 1 / 3, 2.5, 1e-300, 1e300, 3.141592653589793, 123456789.123456789],
    )
    def test_round_trips_exactly(self, value):
        assert float(format_score(value)) == value

    def test_zero(self):
        assert format_score(0.0) == "0"

    @given(st.floats())
    def test_printf_form_matches_the_format_spec(self, value):
        # writers render whole rows through SCORE_FORMAT; the bytes must be those of ".17g"
        assert format_score(value) == format(value, ".17g")


class TestSave:
    def test_save_writes_sorted_exact_scores_and_their_source(self, tmp_path):
        weighted = weight_tensor(CooccurrenceTensor(thirty_triple_tensor().counts, source_hash="abc"))
        path = str(tmp_path / "w.tsv")
        digest = weighted.save(path, {"rank_mode": "collapsed"})
        text, meta = read_artifact(path)
        rows = [line.split("\t") for line in text.splitlines()]
        assert [((t, r, f), float(score)) for t, r, f, score in rows] == sorted(weighted.scores.items())
        assert meta == {
            "entries": str(len(weighted)),
            "source_hash": "abc",
            "rank_mode": "collapsed",
            "content_hash": digest,
        }


class TestArgCollapse:
    def build(self):
        dog, cat, see = "dog-n", "cat-n", "see-v"
        tensor = CooccurrenceTensor({
            (see, "sbj", dog): 2,
            (dog, "sbj_inv", see): 2,
            (see, "obj", cat): 3,
            (cat, "obj_inv", see): 3,
            (dog, "VERB", cat): 1,
            (cat, "VERB_inv", dog): 1,
            (see, "nmod", dog): 4,
            (cat, "nmod", dog): 1,
        })
        return tensor, dog, cat, see

    def test_default_collapse_keeps_direct_relations_only(self):
        tensor, dog, cat, see = self.build()
        collapsed = collapse_relations(tensor)
        assert {r for (_, r, _) in collapsed.counts} == {ARG}
        assert collapsed.counts.get((see, ARG, dog), 0) == 6  # sbj 2 + nmod 4
        assert collapsed.counts.get((see, ARG, cat), 0) == 3
        assert collapsed.counts.get((cat, ARG, dog), 0) == 1
        assert collapsed.counts.get((dog, ARG, cat), 0) == 0  # VERB link excluded
        assert collapsed.total == 10

    def test_explicit_filter(self):
        tensor, dog, cat, see = self.build()
        collapsed = collapse_relations(tensor, frozenset({"sbj"}))
        assert collapsed.counts.get((see, ARG, dog), 0) == 2
        assert collapsed.total == 2

    def test_collapse_of_empty_tensor_is_empty(self):
        assert collapse_relations(CooccurrenceTensor()).total == 0

    def test_max_over_relations(self):
        weighted = WeightedTensor()
        dog, cat, see = "dog-n", "cat-n", "see-v"
        weighted.scores[(see, "sbj", dog)] = 5.0
        weighted.scores[(see, "nmod", dog)] = 3.0
        weighted.scores[(see, "obj", cat)] = 2.0
        weighted.scores[(dog, "sbj_inv", see)] = 9.0  # ignored: inverse
        weighted.scores[(dog, "VERB", cat)] = 9.0  # ignored: synthetic link
        arg = max_over_relations(weighted)
        assert arg.scores == {(see, ARG, dog): 5.0, (see, ARG, cat): 2.0}

    def test_collapsed_and_max_rankings_can_differ(self):
        # Pooling counts before weighting is not the same model as taking
        # the best single-relation score; verify both paths run and produce
        # an ARG ranking for the same target.
        tensor, dog, cat, see = self.build()
        pooled = weight_tensor(collapse_relations(tensor))
        best = max_over_relations(weight_tensor(tensor))
        pooled_index = build_space(pooled, []).index
        best_index = build_space(best, []).index
        key = (see, ARG)
        assert key in pooled_index.keys()
        assert key in best_index.keys()

    def test_both_rankings_name_the_count_tensor_on_disk(self, tmp_path):
        tensor, *_ = self.build()
        path = str(tmp_path / "deps.tensor.tsv")
        digest = tensor.save(path)
        loaded = CooccurrenceTensor.load(path)
        assert weight_tensor(loaded).source_hash == digest
        assert weight_tensor(collapse_relations(loaded)).source_hash == digest
        assert max_over_relations(weight_tensor(loaded)).source_hash == digest
