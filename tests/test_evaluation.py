"""Evaluation bookkeeping: tie policy, skipping, reports, sweeps."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argex.datasets import BicknellItem, BicknellMode, ChowItem, load_bicknell, load_chow
from argex.errors import EmptyPrototypeError
from argex.evaluation import (
    BicknellSlots,
    ChowSlots,
    Outcome,
    TASK_BICKNELL_ACC1,
    TASK_BICKNELL_ACC2,
    TASK_CHOW,
    evaluate_grid,
    k_sweep,
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
    expectation_update,
    map_slot,
)
from argex.tokens import Token, VERB_LINK, inverse, parse_canonical

from conftest import random_corpus_text, spaces_from_text


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


class TestRunBicknell:
    def test_deps_sum_sweeps_the_engineered_items(self, bicknell_setup):
        deps_space, _, acc1, acc2 = bicknell_setup
        for items, mode in ((acc1, BicknellMode.ACC1), (acc2, BicknellMode.ACC2)):
            report = run_bicknell(deps_space, DEPS_SUM, items, mode)
            assert report.n_items == 10
            assert report.n_scored == 10
            assert report.n_wins == 10
            assert report.accuracy == 1.0
            assert report.coverage == 1.0
            assert report.n_ties == 0
            assert not report.all_ties

    def test_bow_lands_mid_band_on_acc2(self, bicknell_setup):
        _, window_space, _, acc2 = bicknell_setup
        report = run_bicknell(window_space, BOW_SUM, acc2, BicknellMode.ACC2)
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
            report = run_bicknell(space, variant, items, mode)
            assert report.accuracy * report.n_scored == report.n_wins

    def test_boa_fails_items_when_agents_head_no_arcs(self, bicknell_setup):
        deps_space, _, _, acc2 = bicknell_setup
        report = run_bicknell(deps_space, BOA_SUM, acc2, BicknellMode.ACC2)
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
        report = run_bicknell(deps_space, DEPS_SUM, list(acc2) + [ghost], BicknellMode.ACC2)
        assert report.n_items == 11
        assert report.n_oov_skipped == 1
        assert report.coverage == 10 / 11
        (item_id, reason) = report.skipped[0]
        assert item_id == "ghost"
        assert reason == "oov: yyy-n zzz-n"  # sorted, deduplicated

    def test_item_order_does_not_change_results(self, bicknell_setup):
        deps_space, _, _, acc2 = bicknell_setup
        report_fwd = run_bicknell(deps_space, DEPS_SUM, acc2, BicknellMode.ACC2)
        shuffled = list(acc2)
        random.Random(5).shuffle(shuffled)
        report_shuf = run_bicknell(deps_space, DEPS_SUM, shuffled, BicknellMode.ACC2)
        assert report_fwd.accuracy == report_shuf.accuracy
        by_id_fwd = {p.item_id: (p.score_a, p.score_b) for p in report_fwd.pairs}
        by_id_shuf = {p.item_id: (p.score_a, p.score_b) for p in report_shuf.pairs}
        assert by_id_fwd == by_id_shuf

    def test_scores_match_direct_expectation_calls(self, bicknell_setup):
        deps_space, _, _, acc2 = bicknell_setup
        report = run_bicknell(deps_space, DEPS_SUM, acc2, BicknellMode.ACC2)
        item = acc2[0]
        pair = next(p for p in report.pairs if p.item_id == item.item_id)
        slot_agent = map_slot(VariantKind.DEPS, VERB_LINK)
        slot_verb = map_slot(VariantKind.DEPS, "obj")
        direct_a = expectation_update(
            deps_space,
            DEPS_SUM,
            [SlotQuery(item.agent_congruent, slot_agent), SlotQuery(item.verb, slot_verb)],
            item.patient_congruent,
        )
        assert pair.score_a == direct_a.score


class TestRunChow:
    def test_deps_wins_every_item(self, chow_setup):
        deps_space, _, items = chow_setup
        report = run_chow(deps_space, DEPS_SUM, items)
        assert report.n_items == 50
        assert report.n_wins == 50
        assert report.accuracy == 1.0
        assert report.chi_square.statistic == pytest.approx(50.0)

    def test_unstructured_variants_tie_every_item(self, chow_setup):
        deps_space, window_space, items = chow_setup
        for space, variant in ((deps_space, BOA_SUM), (window_space, BOW_SUM)):
            report = run_chow(space, variant, items)
            assert report.n_ties == 50
            assert report.all_ties
            assert report.accuracy == 0.0
            for pair in report.pairs:
                assert pair.score_a == pair.score_b  # bit-exact

    def test_boa_mult_ties_degenerate(self, chow_setup):
        deps_space, _, items = chow_setup
        report = run_chow(deps_space, BOA_MULT, items)
        assert report.all_ties
        # disjoint noun rows make every MULT expectation empty
        assert report.n_degenerate == 50

    def test_reversed_condition_swaps_slots_not_columns(self, chow_setup):
        deps_space, _, items = chow_setup
        item = items[0]
        report = run_chow(deps_space, DEPS_SUM, [item])
        pair = report.pairs[0]
        slot_agent = inverse("sbj")
        slot_patient = inverse("obj")
        direct_normal = expectation_update(
            deps_space,
            DEPS_SUM,
            [SlotQuery(item.noun1, slot_agent), SlotQuery(item.noun2, slot_patient)],
            item.verb,
        )
        direct_reversed = expectation_update(
            deps_space,
            DEPS_SUM,
            [SlotQuery(item.noun1, slot_patient), SlotQuery(item.noun2, slot_agent)],
            item.verb,
        )
        assert pair.score_a == direct_normal.score
        assert pair.score_b == direct_reversed.score

    def test_wilcoxon_over_condition_scores(self, chow_setup):
        deps_space, _, items = chow_setup
        report = run_chow(deps_space, DEPS_SUM, items)
        # normal scores are all 1.0, reversed all 0.0: W is the sum of the
        # top 50 ranks of 100
        assert report.wilcoxon.statistic == sum(range(51, 101))


class TestKSweep:
    def test_one_report_per_k(self, chow_setup):
        deps_space, _, items = chow_setup
        reports = k_sweep(
            deps_space, DEPS_SUM, items, [10, 20, 30, 40, 50], TASK_CHOW
        )
        assert [r.variant.k for r in reports] == [10, 20, 30, 40, 50]
        assert all(r.task == TASK_CHOW for r in reports)
        assert all(r.accuracy == 1.0 for r in reports)

    def test_bicknell_sweep_requires_mode(self, bicknell_setup):
        deps_space, _, _, acc2 = bicknell_setup
        reports = k_sweep(
            deps_space,
            DEPS_SUM,
            acc2,
            [10, 20],
            TASK_BICKNELL_ACC2,
            mode=BicknellMode.ACC2,
        )
        assert len(reports) == 2

    def test_empty_k_values_rejected(self, chow_setup):
        deps_space, _, items = chow_setup
        with pytest.raises(ValueError):
            k_sweep(deps_space, DEPS_SUM, items, [], TASK_CHOW)


class TestSerialization:
    def test_report_json_round_trips(self, chow_setup):
        deps_space, _, items = chow_setup
        report = run_chow(deps_space, DEPS_SUM, items)
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
        report = run_chow(deps_space, DEPS_SUM, items)
        assert report_to_json(report) == report_to_json(report)

    def test_report_dict_counts_are_consistent(self, bicknell_setup):
        deps_space, _, _, acc2 = bicknell_setup
        report = run_bicknell(deps_space, DEPS_SUM, acc2, BicknellMode.ACC2)
        data = report_to_dict(report)
        counts = data["counts"]
        assert counts["n_items"] == counts["n_scored"] + counts["n_oov_skipped"] + counts["n_failed"]

    def test_per_item_csv_shape(self, chow_setup):
        deps_space, _, items = chow_setup
        report = run_chow(deps_space, DEPS_SUM, items)
        lines = per_item_csv(report).strip().split("\n")
        assert lines[0] == "item_id,condition,score,degenerate"
        assert len(lines) == 1 + 2 * 50  # one row per condition
        assert lines[1].startswith("c01,normal,")
        assert lines[2].startswith("c01,reversed,")

    def test_per_k_csv_shape(self, chow_setup):
        deps_space, _, items = chow_setup
        reports = k_sweep(deps_space, DEPS_SUM, items, [10, 20], TASK_CHOW)
        lines = per_k_csv(reports).strip().split("\n")
        assert lines[0] == "k,task,kind,composition,accuracy,n_ties,n_degenerate,coverage"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "10"


class TestChowItemWithEqualNouns:
    def test_equal_nouns_tie_for_deps_too(self, chow_setup):
        deps_space, _, items = chow_setup
        item = items[0]
        twin = ChowItem("twin", item.verb, item.noun1, item.noun1)
        report = run_chow(deps_space, DEPS_SUM, [twin])
        pair = report.pairs[0]
        assert pair.correct is Outcome.TIE
        assert pair.score_a == pair.score_b


def _from_scratch(space, variant, task, items, index):
    """One grid cell the slow way: ``expectation_update`` per condition.

    Returns the pairs, the skip list and (n_items, n_failed), in the
    report's own terms.
    """
    if task == TASK_CHOW:
        slots = ChowSlots()
        agent = map_slot(variant.kind, slots.agent)
        patient = map_slot(variant.kind, slots.patient)
        conditions = [
            (it.item_id, [it.verb, it.noun1, it.noun2],
             ([SlotQuery(it.noun1, agent), SlotQuery(it.noun2, patient)], it.verb),
             ([SlotQuery(it.noun1, patient), SlotQuery(it.noun2, agent)], it.verb))
            for it in items
        ]
    else:
        slots = BicknellSlots()
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
        missing = sorted({t.canonical for t in required if t.canonical not in space})
        if missing:
            skipped.append((item_id, "oov: " + " ".join(missing)))
            continue
        try:
            a = expectation_update(space, variant, inputs_a, cand_a, index=index)
            b = expectation_update(space, variant, inputs_b, cand_b, index=index)
        except EmptyPrototypeError as exc:
            skipped.append((item_id, f"empty prototype: {exc.query}"))
            n_failed += 1
            continue
        outcome = (Outcome.WIN if a.score > b.score
                   else Outcome.TIE if a.score == b.score else Outcome.LOSS)
        pairs.append((item_id, a.score, b.score, a.degenerate, b.degenerate, outcome))
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
            (VariantKind.BOA, window_space, deps_space.index),  # boa_space=window
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
    def test_grid_equals_per_cell_expectation_update(self, grid_worlds, case):
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
        grid = evaluate_grid(space, kind, items, task, compositions, k_values, index=index)
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
