"""Evaluation bookkeeping: tie policy, skipping, reports, sweeps."""

import csv
import functools
import io
import json
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argex import evaluation
from argex.datasets import BicknellItem, BicknellMode, ChowItem, load_bicknell, load_chow
from argex.errors import EmptyPrototypeError
from argex.evaluation import (
    Outcome,
    TASK_BICKNELL_ACC1,
    TASK_BICKNELL_ACC2,
    TASK_CHOW,
    _candidate_dots,
    _composed_norms,
    _cosine,
    evaluate_grid,
    per_item_csv,
    per_k_csv,
    report_to_dict,
    report_to_json,
    run_bicknell,
    run_chow,
)
from argex.expectation import (
    Composition,
    ModelVariant,
    SlotQuery,
    VariantKind,
    build_prototype,
    compose,
    map_slot,
    prefix_prototypes,
    score_filler,
)
from argex.space import SparseVector, cosine, multiply_vectors, sum_vectors
from argex.tokens import Token, VERB_LINK, inverse, parse_canonical

from conftest import BICKNELL_SLOTS, CHOW_SLOTS, random_corpus_text, spaces_from_text, vector_from_pairs


@pytest.fixture(scope="module")
def bicknell_setup(fixture_paths):
    text = open(fixture_paths["bicknell_corpus"], encoding="utf-8").read()
    deps_space, window_space = spaces_from_text(text, threshold=3)
    acc1 = load_bicknell(fixture_paths["bicknell_acc1"], mode=BicknellMode.ACC1)
    acc2 = load_bicknell(fixture_paths["bicknell_acc2"], mode=BicknellMode.ACC2)
    return deps_space, window_space, acc1, acc2


@pytest.fixture(scope="module")
def chow_setup(fixture_paths):
    text = open(fixture_paths["chow_corpus"], encoding="utf-8").read()
    deps_space, window_space = spaces_from_text(text, threshold=3)
    items = load_chow(fixture_paths["chow50"])
    return deps_space, window_space, items


DEPS_SUM = ModelVariant(VariantKind.DEPS, 20, Composition.SUM)
BOW_SUM = ModelVariant(VariantKind.BOW, 20, Composition.SUM)
BOA_SUM = ModelVariant(VariantKind.BOA, 20, Composition.SUM)
BOA_MULT = ModelVariant(VariantKind.BOA, 20, Composition.MULT)


def expectation(space, variant, inputs, candidate, index=None):
    """One condition's score the slow way: a prototype per input, folded
    left by ``compose``, and the candidate's cosine with the result."""
    prototypes = [build_prototype(space, variant, query, index=index) for query in inputs]
    combined = functools.reduce(lambda p, q: compose(p, q, variant.composition), prototypes)
    return score_filler(space, combined, candidate)


class TestRunBicknell:
    def test_deps_sum_sweeps_the_engineered_items(self, bicknell_setup):
        deps_space, _, acc1, acc2 = bicknell_setup
        for items, mode in ((acc1, BicknellMode.ACC1), (acc2, BicknellMode.ACC2)):
            report = run_bicknell(deps_space, DEPS_SUM, items, mode, BICKNELL_SLOTS)
            assert report.n_items == 10
            assert report.n_scored == 10
            assert report.n_wins == 10
            assert report.accuracy == 1.0
            assert report.coverage == 1.0
            assert report.n_ties == 0
            assert not report.all_ties

    def test_bow_lands_mid_band_on_acc2(self, bicknell_setup):
        _, window_space, _, acc2 = bicknell_setup
        report = run_bicknell(window_space, BOW_SUM, acc2, BicknellMode.ACC2, BICKNELL_SLOTS)
        assert report.n_scored == 10
        assert report.accuracy == 0.5
        # the distractor bigrams decide exactly which half the model gets
        outcomes = {p.item_id: p.correct for p in report.pairs}
        for j in range(1, 6):
            assert outcomes[f"b{j:02d}"] is Outcome.WIN
        for j in range(6, 11):
            assert outcomes[f"b{j:02d}"] is Outcome.LOSS

    def test_accuracy_times_scored_is_win_count(self, bicknell_setup):
        deps_space, window_space, acc1, acc2 = bicknell_setup
        for space, variant, items, mode in (
            (deps_space, DEPS_SUM, acc1, BicknellMode.ACC1),
            (window_space, BOW_SUM, acc2, BicknellMode.ACC2),
        ):
            report = run_bicknell(space, variant, items, mode, BICKNELL_SLOTS)
            assert report.accuracy * report.n_scored == report.n_wins

    def test_boa_fails_items_when_agents_head_no_arcs(self, bicknell_setup):
        deps_space, _, _, acc2 = bicknell_setup
        report = run_bicknell(deps_space, BOA_SUM, acc2, BicknellMode.ACC2, BICKNELL_SLOTS)
        assert report.n_failed == 10
        assert report.n_scored == 0
        assert report.accuracy is None
        assert report.chi_square is None
        assert report.wilcoxon is None
        assert all("empty prototype" in reason for _, reason in report.skipped)

    def test_oov_items_are_skipped_with_reason(self, bicknell_setup):
        deps_space, _, _, acc2 = bicknell_setup
        ghost = BicknellItem(
            "ghost",
            Token("zzz", "n"),
            acc2[0].agent_incongruent,
            acc2[0].verb,
            Token("yyy", "n"),
            Token("yyy", "n"),
        )
        report = run_bicknell(deps_space, DEPS_SUM, list(acc2) + [ghost], BicknellMode.ACC2, BICKNELL_SLOTS)
        assert report.n_items == 11
        assert report.n_oov_skipped == 1
        assert report.coverage == 10 / 11
        (item_id, reason) = report.skipped[0]
        assert item_id == "ghost"
        assert reason == "oov: yyy-n zzz-n"  # sorted, deduplicated

    def test_item_order_does_not_change_results(self, bicknell_setup):
        deps_space, _, _, acc2 = bicknell_setup
        report_fwd = run_bicknell(deps_space, DEPS_SUM, acc2, BicknellMode.ACC2, BICKNELL_SLOTS)
        shuffled = list(acc2)
        random.Random(5).shuffle(shuffled)
        report_shuf = run_bicknell(deps_space, DEPS_SUM, shuffled, BicknellMode.ACC2, BICKNELL_SLOTS)
        assert report_fwd.accuracy == report_shuf.accuracy
        by_id_fwd = {p.item_id: (p.score_a, p.score_b) for p in report_fwd.pairs}
        by_id_shuf = {p.item_id: (p.score_a, p.score_b) for p in report_shuf.pairs}
        assert by_id_fwd == by_id_shuf
        # items are scored grouped by leaf; the report keeps dataset order
        items = list(acc2)
        # copies that share leaves with the originals, scattered among them
        items += [it._replace(item_id=f"{it.item_id}-copy") for it in acc2]
        # one OOV item and one whose agent (a verb) has no VERB-link fillers
        items.append(acc2[3]._replace(item_id="ghost", patient_congruent=Token("zzz", "n")))
        items.append(acc2[5]._replace(item_id="verbal", agent_congruent=acc2[0].verb))
        random.Random(11).shuffle(items)
        report = run_bicknell(deps_space, DEPS_SUM, items, BicknellMode.ACC2, BICKNELL_SLOTS)
        reasons = dict(report.skipped)
        assert reasons["ghost"].startswith("oov: ")
        assert reasons["verbal"].startswith("empty prototype: ")
        assert [p.item_id for p in report.pairs] == [
            it.item_id for it in items if it.item_id not in reasons]
        assert [item_id for item_id, _ in report.skipped] == [
            it.item_id for it in items if it.item_id in reasons]
        by_id = {p.item_id: (p.score_a, p.score_b) for p in report.pairs}
        for it in acc2:
            assert by_id[f"{it.item_id}-copy"] == by_id[it.item_id]

    def test_scores_match_direct_expectation_calls(self, bicknell_setup):
        deps_space, _, _, acc2 = bicknell_setup
        report = run_bicknell(deps_space, DEPS_SUM, acc2, BicknellMode.ACC2, BICKNELL_SLOTS)
        item = acc2[0]
        pair = next(p for p in report.pairs if p.item_id == item.item_id)
        slot_agent = map_slot(VariantKind.DEPS, VERB_LINK)
        slot_verb = map_slot(VariantKind.DEPS, "obj")
        direct_a = expectation(
            deps_space,
            DEPS_SUM,
            [SlotQuery(item.agent_congruent, slot_agent), SlotQuery(item.verb, slot_verb)],
            item.patient_congruent,
        )
        assert pair.score_a == direct_a.value


class TestRunChow:
    def test_deps_wins_every_item(self, chow_setup):
        deps_space, _, items = chow_setup
        report = run_chow(deps_space, DEPS_SUM, items, CHOW_SLOTS)
        assert report.n_items == 50
        assert report.n_wins == 50
        assert report.accuracy == 1.0
        assert report.chi_square.statistic == pytest.approx(50.0)

    def test_unstructured_variants_tie_every_item(self, chow_setup):
        deps_space, window_space, items = chow_setup
        for space, variant in ((deps_space, BOA_SUM), (window_space, BOW_SUM)):
            report = run_chow(space, variant, items, CHOW_SLOTS)
            assert report.n_ties == 50
            assert report.all_ties
            assert report.accuracy == 0.0
            for pair in report.pairs:
                assert pair.score_a == pair.score_b  # bit-exact

    def test_boa_mult_ties_degenerate(self, chow_setup):
        deps_space, _, items = chow_setup
        report = run_chow(deps_space, BOA_MULT, items, CHOW_SLOTS)
        assert report.all_ties
        # disjoint noun rows make every MULT expectation empty
        assert report.n_degenerate == 50

    def test_reversed_condition_swaps_slots_not_columns(self, chow_setup):
        deps_space, _, items = chow_setup
        item = items[0]
        report = run_chow(deps_space, DEPS_SUM, [item], CHOW_SLOTS)
        pair = report.pairs[0]
        slot_agent = inverse("sbj")
        slot_patient = inverse("obj")
        direct_normal = expectation(
            deps_space,
            DEPS_SUM,
            [SlotQuery(item.noun1, slot_agent), SlotQuery(item.noun2, slot_patient)],
            item.verb,
        )
        direct_reversed = expectation(
            deps_space,
            DEPS_SUM,
            [SlotQuery(item.noun1, slot_patient), SlotQuery(item.noun2, slot_agent)],
            item.verb,
        )
        assert pair.score_a == direct_normal.value
        assert pair.score_b == direct_reversed.value

    def test_wilcoxon_over_condition_scores(self, chow_setup):
        deps_space, _, items = chow_setup
        report = run_chow(deps_space, DEPS_SUM, items, CHOW_SLOTS)
        # normal scores are all 1.0, reversed all 0.0: W is the sum of the
        # top 50 ranks of 100
        assert report.wilcoxon.statistic == sum(range(51, 101))


class TestKSweep:
    def test_one_report_per_k(self, chow_setup):
        deps_space, _, items = chow_setup
        k_values = [10, 20, 30, 40, 50]
        grid = evaluate_grid(deps_space, VariantKind.DEPS, items, TASK_CHOW, [Composition.SUM], k_values,
                             CHOW_SLOTS)
        assert list(grid) == [(Composition.SUM, k) for k in k_values]
        reports = list(grid.values())
        assert [r.variant for r in reports] == [ModelVariant(VariantKind.DEPS, k, Composition.SUM) for k in k_values]
        assert all(r.task == TASK_CHOW for r in reports)
        assert all(r.accuracy == 1.0 for r in reports)

    def test_bicknell_sweep_reports_its_mode(self, bicknell_setup):
        deps_space, _, _, acc2 = bicknell_setup
        grid = evaluate_grid(deps_space, VariantKind.DEPS, acc2, TASK_BICKNELL_ACC2, [Composition.SUM], [10, 20],
                             BICKNELL_SLOTS)
        assert [r.task for r in grid.values()] == [TASK_BICKNELL_ACC2] * 2

    def test_empty_k_values_rejected(self, chow_setup):
        deps_space, _, items = chow_setup
        with pytest.raises(ValueError):
            evaluate_grid(deps_space, VariantKind.DEPS, items, TASK_CHOW, [Composition.SUM], [], CHOW_SLOTS)


class TestSerialization:
    def test_report_json_round_trips(self, chow_setup):
        deps_space, _, items = chow_setup
        report = run_chow(deps_space, DEPS_SUM, items, CHOW_SLOTS)
        text = report_to_json(report, provenance={"space_id": deps_space.space_id})
        assert text.endswith("\n")
        data = json.loads(text)
        assert data["task"] == "chow"
        assert data["counts"]["n_wins"] == 50
        assert data["variant"] == {"kind": "deps", "k": 20, "composition": "sum"}
        assert data["provenance"]["space_id"] == deps_space.space_id
        assert len(data["items"]) == 50

    def test_json_is_deterministic(self, chow_setup):
        deps_space, _, items = chow_setup
        report = run_chow(deps_space, DEPS_SUM, items, CHOW_SLOTS)
        assert report_to_json(report) == report_to_json(report)

    def test_report_dict_counts_are_consistent(self, bicknell_setup):
        deps_space, _, _, acc2 = bicknell_setup
        report = run_bicknell(deps_space, DEPS_SUM, acc2, BicknellMode.ACC2, BICKNELL_SLOTS)
        data = report_to_dict(report)
        counts = data["counts"]
        assert counts["n_items"] == counts["n_scored"] + counts["n_oov_skipped"] + counts["n_failed"]

    def test_per_item_csv_shape(self, chow_setup):
        deps_space, _, items = chow_setup
        report = run_chow(deps_space, DEPS_SUM, items, CHOW_SLOTS)
        lines = per_item_csv(report).strip().split("\n")
        assert lines[0] == "item_id,condition,score,degenerate"
        assert len(lines) == 1 + 2 * 50  # one row per condition
        assert lines[1].startswith("c01,normal,")
        assert lines[2].startswith("c01,reversed,")

    def test_per_item_csv_reads_back_ids_with_commas_and_quotes(self, chow_setup):
        deps_space, _, items = chow_setup
        odd_ids = {0: "c,1", 1: 'say "hi"', 2: '"', 3: ","}
        renamed = [item._replace(item_id=odd_ids.get(i, item.item_id)) for i, item in enumerate(items)]

        def csv_of(cell_items):
            grid = evaluate_grid(deps_space, VariantKind.DEPS, cell_items, TASK_CHOW, [Composition.SUM], [20],
                                 CHOW_SLOTS)
            return per_item_csv(grid[(Composition.SUM, 20)])

        text = csv_of(renamed)
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert {len(row) for row in rows} == {4}
        assert [row[0] for row in rows[1::2]] == [item.item_id for item in renamed]
        # rows of plain ids keep the bytes they had before any id was quoted
        plain = csv_of(items).split("\n")
        assert text.split("\n")[2 * len(odd_ids) + 1:] == plain[2 * len(odd_ids) + 1:]

    def test_per_k_csv_shape(self, chow_setup):
        deps_space, _, items = chow_setup
        grid = evaluate_grid(deps_space, VariantKind.DEPS, items, TASK_CHOW, [Composition.SUM], [10, 20],
                             CHOW_SLOTS)
        lines = per_k_csv(list(grid.values())).strip().split("\n")
        assert lines[0] == "k,task,kind,composition,accuracy,n_ties,n_degenerate,coverage"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "10"


class TestChowItemWithEqualNouns:
    def test_equal_nouns_tie_for_deps_too(self, chow_setup):
        deps_space, _, items = chow_setup
        item = items[0]
        twin = ChowItem("twin", item.verb, item.noun1, item.noun1)
        report = run_chow(deps_space, DEPS_SUM, [twin], CHOW_SLOTS)
        pair = report.pairs[0]
        assert pair.correct is Outcome.TIE
        assert pair.score_a == pair.score_b


def _from_scratch(space, variant, task, items, index):
    """One grid cell the slow way: ``expectation`` per condition.

    Returns the pairs, the skip list and (n_items, n_failed), in the
    report's own terms.
    """
    if task == TASK_CHOW:
        slots = CHOW_SLOTS
        agent = map_slot(variant.kind, slots.agent)
        patient = map_slot(variant.kind, slots.patient)
        conditions = [
            (it.item_id, [it.verb, it.noun1, it.noun2],
             ([SlotQuery(it.noun1, agent), SlotQuery(it.noun2, patient)], it.verb),
             ([SlotQuery(it.noun1, patient), SlotQuery(it.noun2, agent)], it.verb))
            for it in items
        ]
    else:
        slots = BICKNELL_SLOTS
        agent = map_slot(variant.kind, slots.agent)
        verb = map_slot(variant.kind, slots.verb)
        conditions = [
            (it.item_id,
             [it.agent_congruent, it.agent_incongruent, it.verb,
              it.patient_congruent, it.patient_incongruent],
             ([SlotQuery(it.agent_congruent, agent), SlotQuery(it.verb, verb)], it.patient_congruent),
             ([SlotQuery(it.agent_incongruent, agent), SlotQuery(it.verb, verb)], it.patient_incongruent))
            for it in items
        ]
    pairs, skipped, n_failed = [], [], 0
    for item_id, required, (inputs_a, cand_a), (inputs_b, cand_b) in conditions:
        missing = sorted({t.canonical for t in required if t.canonical not in space.vocabulary})
        if missing:
            skipped.append((item_id, "oov: " + " ".join(missing)))
            continue
        try:
            a = expectation(space, variant, inputs_a, cand_a, index=index)
            b = expectation(space, variant, inputs_b, cand_b, index=index)
        except EmptyPrototypeError as exc:
            skipped.append((item_id, f"empty prototype: {exc.query}"))
            n_failed += 1
            continue
        outcome = (Outcome.WIN if a.value > b.value
                   else Outcome.TIE if a.value == b.value else Outcome.LOSS)
        pairs.append((item_id, a.value, b.value, a.degenerate, b.degenerate, outcome))
    return pairs, skipped, (len(items), n_failed)


@pytest.fixture(scope="module")
def grid_worlds(bicknell_setup, chow_setup):
    """Per world: the (kind, space, index override) models and token pools.

    The fixture spaces have engineered items and empty slots but
    rankings of at most 8 fillers; the random corpus adds rankings of
    many lengths, so k lands on both sides of what is available.
    """
    worlds = {}
    for name, (deps_space, window_space, *_) in (
        ("bicknell", bicknell_setup),
        ("chow", chow_setup),
        ("random", spaces_from_text(random_corpus_text(7, 150))),
    ):
        models = [
            (VariantKind.DEPS, deps_space, None),
            (VariantKind.BOA, deps_space, None),
            (VariantKind.BOA, window_space, deps_space),  # boa_space=window
            (VariantKind.BOW, window_space, None),
        ]
        tokens = sorted(parse_canonical(t) for t in deps_space.vocabulary)
        nouns = [t for t in tokens if t.pos == "n"] + [Token("zzz", "n")]
        verbs = [t for t in tokens if t.pos == "v"] + [Token("zzz", "v")]
        worlds[name] = (models, nouns, verbs)
    return worlds


@st.composite
def grid_cases(draw):
    task = draw(st.sampled_from([TASK_BICKNELL_ACC1, TASK_BICKNELL_ACC2, TASK_CHOW]))
    world = draw(st.sampled_from(["fixture", "random"]))
    if world == "fixture":
        world = "chow" if task == TASK_CHOW else "bicknell"
    model = draw(st.integers(min_value=0, max_value=3))
    n_items = draw(st.integers(min_value=1, max_value=4))
    picks = draw(st.lists(st.integers(min_value=0, max_value=10**6),
                          min_size=5 * n_items, max_size=5 * n_items))
    k_values = draw(st.lists(st.one_of(st.integers(min_value=1, max_value=12),
                                       st.integers(min_value=13, max_value=60)),
                             min_size=1, max_size=6))
    compositions = draw(st.permutations([Composition.SUM, Composition.MULT]))
    return task, world, model, picks, k_values, compositions


class TestEvaluateGrid:
    @given(case=grid_cases())
    @settings(max_examples=150, deadline=None)
    def test_grid_equals_the_per_cell_path(self, grid_worlds, case):
        task, world, model, picks, k_values, compositions = case
        models, nouns, verbs = grid_worlds[world]
        kind, space, index = models[model]
        items = []
        for i in range(0, len(picks), 5):
            n = [nouns[p % len(nouns)] for p in picks[i:i + 4]]
            v = verbs[picks[i + 4] % len(verbs)]
            item_id = f"i{i // 5}"
            if task == TASK_CHOW:
                items.append(ChowItem(item_id, v, n[0], n[1]))
            elif task == TASK_BICKNELL_ACC1:  # shared agent
                items.append(BicknellItem(item_id, n[0], n[0], v, n[1], n[2]))
            else:  # shared patient
                items.append(BicknellItem(item_id, n[0], n[1], v, n[2], n[2]))
        slots = CHOW_SLOTS if task == TASK_CHOW else BICKNELL_SLOTS
        grid = evaluate_grid(space, kind, items, task, compositions, k_values, slots, index=index)
        assert set(grid) == {(c, k) for c in compositions for k in k_values}
        for (comp, k), report in grid.items():
            variant = ModelVariant(kind, k, comp)
            assert report.variant == variant and report.task == task
            pairs, skipped, (n, n_failed) = _from_scratch(space, variant, task, items, index)
            got = [(p.item_id, p.score_a, p.score_b, p.degenerate_a, p.degenerate_b, p.correct)
                   for p in report.pairs]
            assert got == pairs
            assert report.skipped == skipped
            assert (report.n_items, report.n_failed) == (n, n_failed)


# -- the fused kernels of evaluate_grid --------------------------------

# tiny scores make products (and squares) underflow to zero
SCORES = st.one_of(
    st.floats(min_value=1e-6, max_value=1e6),
    st.sampled_from([1e-200, 3e-170, 5e-324, 1.0, 2.0]),
)


@st.composite
def kernel_operands(draw):
    """Leaves a and b with disjoint, nested, equal or overlapping
    supports (either may be empty), and a candidate that may be absent
    (empty) or have zero norm while non-empty."""
    dims = st.lists(st.integers(0, 40), unique=True, max_size=25)
    a_ids = draw(dims)
    shape = draw(st.sampled_from(["overlap", "disjoint", "nested", "equal"]))
    if shape == "disjoint":
        b_ids = [d + 41 for d in draw(dims)]
    elif shape == "nested":
        b_ids = draw(st.lists(st.sampled_from(a_ids), unique=True)) if a_ids else []
    elif shape == "equal":
        b_ids = list(a_ids)
    else:
        b_ids = draw(dims)
    c_shape = draw(st.sampled_from(["any", "absent", "zero-norm"]))
    c_ids = [] if c_shape == "absent" else draw(st.lists(st.integers(0, 85), unique=True, max_size=30))

    def vector(ids, scores):
        return vector_from_pairs(zip(ids, draw(st.lists(scores, min_size=len(ids), max_size=len(ids)))))

    c_scores = st.sampled_from([1e-200, 5e-324]) if c_shape == "zero-norm" else SCORES
    return vector(a_ids, SCORES), vector(b_ids, SCORES), vector(c_ids, c_scores)


def _bits(result):
    value, degenerate = result
    return value.hex(), degenerate


class TestScoringKernels:
    @given(operands=kernel_operands())
    @settings(max_examples=400, deadline=None)
    def test_kernels_equal_built_vectors_and_cosine_bit_for_bit(self, operands):
        a, b, c = operands
        added, multiplied = sum_vectors([a, b]), multiply_vectors(a, b)
        norm_sum, norm_prod = _composed_norms(a, b)
        assert norm_sum.hex() == added.norm.hex()
        assert norm_prod.hex() == multiplied.norm.hex()
        dot_sum, dot_prod = _candidate_dots(c, a, b)
        assert dot_sum.hex() == c.dot(added).hex()
        assert dot_prod.hex() == c.dot(multiplied).hex()
        assert _bits(_cosine(dot_sum, c.norm, norm_sum)) == _bits(cosine(c, added))
        assert _bits(_cosine(dot_prod, c.norm, norm_prod)) == _bits(cosine(c, multiplied))

    def test_zero_norm_candidate_and_underflowing_product_are_degenerate(self):
        a = SparseVector((1, 2), (1e-200, 1.0))
        b = SparseVector((1, 3), (1e-200, 1.0))
        assert multiply_vectors(a, b) == SparseVector()  # 1e-400 underflows to 0
        assert _composed_norms(a, b)[1] == 0.0
        c = SparseVector((1,), (1e-200,))
        assert c.norm == 0.0 and len(c.ids) == 1
        assert _cosine(0.0, c.norm, 1.0) == (0.0, True)


class TestLeafSharing:
    def test_each_leaf_is_walked_once_and_dropped_after_its_last_use(
        self, bicknell_setup, monkeypatch
    ):
        """One call walks each distinct leaf query once, and at every
        walk no leaf is alive that no later kernel call reads."""
        deps_space, _, _, acc2 = bicknell_setup
        items = list(acc2) + [it._replace(item_id=f"{it.item_id}-copy") for it in acc2]
        items += [acc2[i]._replace(item_id=f"mix{i}", verb=acc2[(i + 3) % len(acc2)].verb)
                  for i in range(len(acc2))]
        random.Random(3).shuffle(items)
        walks = []  # per prefix_prototypes call: (query, leaves alive just before it)
        alive = {}  # query -> weak references to its snapshots
        reads = []  # per kernel call: the queries whose snapshots it read

        def live():
            return {q for q, refs in alive.items() if any(r() is not None for r in refs)}

        def counting_prefix(space, kind, query, k_values, index=None):
            walks.append((query, live(), len(reads)))
            leaf = prefix_prototypes(space, kind, query, k_values, index=index)
            alive[query] = [weakref.ref(v) for v in leaf.values()]
            return leaf

        def reading(kernel):
            def wrapped(*vectors):
                owners = {id(r()): q for q, refs in alive.items() for r in refs if r() is not None}
                reads.append({owners[id(v)] for v in vectors[-2:]})
                return kernel(*vectors)
            return wrapped

        monkeypatch.setattr(evaluation, "prefix_prototypes", counting_prefix)
        monkeypatch.setattr(evaluation, "_composed_norms", reading(_composed_norms))
        monkeypatch.setattr(evaluation, "_candidate_dots", reading(_candidate_dots))
        grid = evaluate_grid(deps_space, VariantKind.DEPS, items, TASK_BICKNELL_ACC2,
                             [Composition.SUM, Composition.MULT], [1, 2, 5, 20], BICKNELL_SLOTS)
        assert all(r.n_failed == 0 and r.n_scored == len(items) for r in grid.values())

        walked = [query for query, _, _ in walks]
        slots = BICKNELL_SLOTS
        distinct = {SlotQuery(t, s) for it in items
                    for t, s in ((it.agent_congruent, slots.agent),
                                 (it.agent_incongruent, slots.agent), (it.verb, slots.verb))}
        assert sorted(walked, key=str) == sorted(distinct, key=str)  # each exactly once
        for query, held, position in walks:
            later = set().union(*reads[position:])
            assert held <= later, f"{sorted(map(str, held - later))} held after their last use"
        assert not live()
