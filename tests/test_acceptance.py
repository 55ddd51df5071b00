"""Acceptance suite: eight verifiable promises the package must keep.

Each test prints one [PASS]/[FAIL] line (visible with `pytest -s` or
`-rP`) and enforces its stated tolerance and, where bounded, runtime.
Pinned values in criterion 8 were captured from the first run whose
statistics were verified against independent reference implementations,
and must reproduce exactly thereafter.

Run with: python3 -m pytest tests/test_acceptance.py -v
"""

import contextlib
import functools
import json
import math
import operator
import os
import random
import time
from collections import Counter

import pytest
import scipy.stats

from argex.cli import main as cli_main
from argex.datasets import BicknellMode, load_bicknell, load_chow
from argex.evaluation import Outcome, run_bicknell, run_chow
from argex.expectation import Composition, ModelVariant, VariantKind
from argex.space import (
    SparseVector,
    cosine,
    load_space,
    multiply_vectors,
    save_space,
    sum_vectors,
)
from argex.stats import chi_square_sf, chi_square_vs_chance, rank_data, wilcoxon_rank_sum
from argex.tensor import CooccurrenceTensor
from argex.tokens import VERB_LINK, WINDOW
from argex.weighting import weight_tensor

from conftest import (
    BICKNELL_SLOTS,
    CHOW_SLOTS,
    REPO_ROOT,
    dependency_counts,
    parse_text,
    random_corpus_text,
    spaces_from_text,
    vocabulary,
    window_counts,
)
from test_corpus import naive_dependency, naive_vocabulary, naive_window, tensor_counts
from test_weighting import oracle_scores, thirty_triple_tensor


@contextlib.contextmanager
def criterion(number: int, title: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"
        print(f"[PASS] criterion {number}: {title} ({elapsed:.2f}s < {budget_s:.0f}s)")
    else:
        print(f"[PASS] criterion {number}: {title} ({elapsed:.2f}s)")


@pytest.fixture(scope="module", autouse=True)
def repo_cwd():
    old = os.getcwd()
    os.chdir(REPO_ROOT)
    yield
    os.chdir(old)


def test_criterion_1_counting_oracle_equivalence():
    with criterion(1, "counting oracle equivalence on 3 corpora", budget_s=5.0):
        for seed, n_sentences, threshold in [(101, 50, 1), (202, 240, 2), (303, 500, 2)]:
            corpus = parse_text(random_corpus_text(seed, n_sentences))
            vocab = vocabulary(corpus, threshold)
            assert vocab.entries == naive_vocabulary(corpus, threshold)
            deps = dependency_counts(corpus, vocab)
            assert tensor_counts(deps) == naive_dependency(corpus, vocab.entries)
            window = window_counts(corpus, vocab)
            assert tensor_counts(window) == naive_window(corpus, vocab.entries)


def test_criterion_2_plmi_against_high_precision_recount():
    with criterion(2, "PLMI matches 50-digit recomputation within 1e-9", budget_s=1.0):
        tensor = thirty_triple_tensor()
        assert len(tensor) == 30
        weighted = weight_tensor(tensor)
        oracle = oracle_scores(tensor)
        assert set(weighted.scores) == set(oracle)
        for triple, score in weighted.scores.items():
            expected = float(oracle[triple])
            assert score > 0.0
            assert abs(score - expected) <= 1e-9 * abs(expected)

        # O = E exactly: rank-one counts leave nothing above expectation
        rank_one = CooccurrenceTensor({
            (t, r, f): i * j * k
            for i, t in enumerate(("dog-n", "cat-n"), start=1)
            for j, r in enumerate(("sbj", "obj"), start=1)
            for k, f in enumerate(("eat-v", "see-v", "pet-v"), start=1)
        })
        assert len(weight_tensor(rank_one)) == 0

        # O < E: the common triple is under-expected and must be dropped
        a, b, c = "dog-n", "cat-n", "fox-n"
        under = CooccurrenceTensor({(a, "sbj", b): 1, (a, "obj", c): 9, (c, "sbj", b): 9})
        kept = weight_tensor(under)
        assert (a, "sbj", b) not in kept.scores


def _random_vector(rng: random.Random) -> SparseVector:
    dims = rng.sample(range(40), rng.randint(0, 9))
    return SparseVector.from_pairs((d, rng.uniform(1e-6, 1e6)) for d in dims)


def test_criterion_3_cosine_and_composition_algebra():
    with criterion(3, "vector algebra laws on 1200 random vectors", budget_s=10.0):
        rng = random.Random(424242)
        vectors = [_random_vector(rng) for _ in range(1200)]
        for a, b in zip(vectors, vectors[1:]):
            forward = cosine(a, b)
            assert forward == cosine(b, a)  # symmetric bit for bit
            assert 0.0 <= forward.value <= 1.0
            scaled = SparseVector(a.ids, tuple(s * 7.5 for s in a.scores))
            assert abs(cosine(scaled, b).value - forward.value) <= 1e-12

            summed = sum_vectors([a, b])
            assert set(summed.ids) == set(a.ids) | set(b.ids)
            assert summed == sum_vectors([b, a])  # commutes bit for bit

            product = multiply_vectors(a, b)
            assert set(product.ids) == set(a.ids) & set(b.ids)
            assert product == multiply_vectors(b, a)


def test_criterion_4_unstructured_models_tie_under_role_reversal(fixture_paths):
    with criterion(4, "BOA and BOW tie on all 50 role-reversal items", budget_s=5.0):
        text = open(fixture_paths["chow_corpus"], encoding="utf-8").read()
        deps_space, window_space = spaces_from_text(text, threshold=3)
        items = load_chow(fixture_paths["chow50"])
        assert len(items) == 50
        for space, kind in ((deps_space, VariantKind.BOA), (window_space, VariantKind.BOW)):
            for composition in (Composition.SUM, Composition.MULT):
                variant = ModelVariant(kind, 20, composition)
                report = run_chow(space, variant, items, CHOW_SLOTS)
                assert report.n_scored == 50
                for pair in report.pairs:
                    assert abs(pair.score_a - pair.score_b) < 1e-12
                assert report.all_ties
                assert "[all ties]" in report.summary_line()


def _naive_plmi(counts: Counter) -> dict:
    n = sum(counts.values())
    tm, rm, fm = Counter(), Counter(), Counter()
    for (t, r, f), c in counts.items():
        tm[t] += c
        rm[r] += c
        fm[f] += c
    out = {}
    for (t, r, f), observed in counts.items():
        expected = tm[t] * rm[r] * fm[f] / (n * n)
        if observed > expected:
            out[(t, r, f)] = observed * math.log(observed / expected)
    return out


def _naive_vector(weighted: dict, token: str) -> dict:
    return {(r, f): s for (t, r, f), s in weighted.items() if t == token}


def _naive_prototype(weighted: dict, target: str, relation: str, k: int) -> dict:
    fillers = [(f, s) for (t, r, f), s in weighted.items() if t == target and r == relation]
    fillers.sort(key=lambda pair: (-pair[1], pair[0]))
    prototype: dict = {}
    for filler, _ in fillers[:k]:
        for dim, score in _naive_vector(weighted, filler).items():
            prototype[dim] = prototype.get(dim, 0.0) + score
    return prototype


def _fold(values) -> float:
    """A plain left fold: builtin sum() of floats is compensated from
    Python 3.12 on, so it would round differently per interpreter."""
    return functools.reduce(operator.add, values, 0.0)


def _naive_cosine(a: dict, b: dict) -> float:
    na = math.sqrt(_fold(a[d] * a[d] for d in sorted(a)))
    nb = math.sqrt(_fold(b[d] * b[d] for d in sorted(b)))
    if na == 0.0 or nb == 0.0:
        return 0.0
    dot = _fold(a[d] * b[d] for d in sorted(set(a) & set(b)))
    return min(1.0, max(0.0, dot / (na * nb)))


def _brute_force_score(weighted, agent, verb, patient, slot_agent, slot_verb, k):
    proto_agent = _naive_prototype(weighted, agent.canonical, slot_agent, k)
    proto_verb = _naive_prototype(weighted, verb.canonical, slot_verb, k)
    composed = dict(proto_agent)
    for dim, score in proto_verb.items():
        composed[dim] = composed.get(dim, 0.0) + score
    return _naive_cosine(composed, _naive_vector(weighted, patient.canonical))


def test_criterion_5_deps_discriminates_where_bow_cannot(fixture_paths):
    with criterion(5, "DEPS-SUM 10/10 strict wins, BOW in [0.3, 0.7], brute-force verified", budget_s=10.0):
        text = open(fixture_paths["bicknell_corpus"], encoding="utf-8").read()
        deps_space, window_space = spaces_from_text(text, threshold=3)
        items = load_bicknell(fixture_paths["bicknell_acc2"], mode=BicknellMode.ACC2)
        assert len(items) == 10

        k = 20
        deps_report = run_bicknell(
            deps_space, ModelVariant(VariantKind.DEPS, k, Composition.SUM), items, BicknellMode.ACC2,
            BICKNELL_SLOTS,
        )
        assert deps_report.n_scored == 10
        for pair in deps_report.pairs:
            assert pair.correct is Outcome.WIN
            assert pair.score_a > pair.score_b
        assert deps_report.accuracy == 1.0

        bow_report = run_bicknell(
            window_space, ModelVariant(VariantKind.BOW, k, Composition.SUM), items, BicknellMode.ACC2,
            BICKNELL_SLOTS,
        )
        assert bow_report.n_scored == 10
        assert 0.3 <= bow_report.accuracy <= 0.7

        # brute force: recount, reweight, rebuild prototypes, rescore
        corpus = parse_text(text)
        vocab = vocabulary(corpus, 3)
        deps_weighted = _naive_plmi(naive_dependency(corpus, vocab.entries))
        window_weighted = _naive_plmi(naive_window(corpus, vocab.entries))
        deps_pairs = {p.item_id: p for p in deps_report.pairs}
        bow_pairs = {p.item_id: p for p in bow_report.pairs}
        for item in items:
            expected_a = _brute_force_score(
                deps_weighted, item.agent_congruent, item.verb, item.patient_congruent,
                VERB_LINK, "obj", k,
            )
            expected_b = _brute_force_score(
                deps_weighted, item.agent_incongruent, item.verb, item.patient_congruent,
                VERB_LINK, "obj", k,
            )
            pair = deps_pairs[item.item_id]
            assert math.isclose(pair.score_a, expected_a, rel_tol=1e-12, abs_tol=1e-15)
            assert math.isclose(pair.score_b, expected_b, rel_tol=1e-12, abs_tol=1e-15)
            assert expected_a > expected_b

            expected_a = _brute_force_score(
                window_weighted, item.agent_congruent, item.verb, item.patient_congruent,
                WINDOW, WINDOW, k,
            )
            expected_b = _brute_force_score(
                window_weighted, item.agent_incongruent, item.verb, item.patient_congruent,
                WINDOW, WINDOW, k,
            )
            pair = bow_pairs[item.item_id]
            assert math.isclose(pair.score_a, expected_a, rel_tol=1e-12, abs_tol=1e-15)
            assert math.isclose(pair.score_b, expected_b, rel_tol=1e-12, abs_tol=1e-15)


def test_criterion_6_statistics_against_reference_implementations():
    with criterion(6, "chi-square within 1e-10, Wilcoxon within 1e-9, exact ranks"):
        for i in range(20):
            x = 0.01 * (1.9 ** i)
            assert abs(chi_square_sf(x) - scipy.stats.chi2.sf(x, 1)) <= 1e-10

        named = chi_square_vs_chance(62, 100)
        assert abs(named.statistic - 5.76) <= 1e-12
        assert abs(named.p_value - 0.0164) <= 5e-5
        assert abs(named.p_value - scipy.stats.chi2.sf(5.76, 1)) <= 1e-10

        rng = random.Random(987654)
        for sample in range(100):
            n_a = rng.randint(2, 35)
            n_b = rng.randint(2, 35)
            pool = list(range(rng.randint(2, 6))) if sample % 2 else None
            if pool:
                a = [float(rng.choice(pool)) for _ in range(n_a)]
                b = [float(rng.choice(pool)) for _ in range(n_b)]
                if len(set(a) | set(b)) < 2:
                    a[0] += 1.0
            else:
                a = [rng.uniform(-5, 5) for _ in range(n_a)]
                b = [rng.uniform(-5, 5) for _ in range(n_b)]
            ranks = rank_data(a + b)
            total = len(a) + len(b)
            assert sum(ranks) == total * (total + 1) / 2  # exactly

            mine = wilcoxon_rank_sum(a, b)
            ref = scipy.stats.mannwhitneyu(
                a, b, method="asymptotic", use_continuity=True, alternative="two-sided"
            )
            expected_w = ref.statistic + n_a * (n_a + 1) / 2
            assert abs(mine.statistic - expected_w) <= 1e-9
            assert abs(mine.p_value - ref.pvalue) <= 1e-9 * max(1.0, abs(ref.pvalue))


def _build_pipeline(conf: str, out: str, task: str, kinds: tuple[str, ...]) -> None:
    assert cli_main(["ingest", "-c", conf, "--out-dir", out]) == 0
    assert cli_main(["weight", "-c", conf, "--out-dir", out]) == 0
    for kind in kinds:
        code = cli_main(
            ["eval", "-c", conf, "--out-dir", out, "--task", task, "--kind", kind, "--k", "20"]
        )
        assert code == 0


def _walk_bytes(root: str) -> dict[str, bytes]:
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_criterion_7_determinism_round_trip_prefix_stability(tmp_path):
    with criterion(7, "byte-identical reruns, bit-exact archives, prefix-stable top-k"):
        dir_a = str(tmp_path / "a")
        dir_b = str(tmp_path / "b")
        for out in (dir_a, dir_b):
            _build_pipeline("configs/bicknell.conf", out, "bicknell-acc2", ("deps",))
        files_a = _walk_bytes(dir_a)
        files_b = _walk_bytes(dir_b)
        assert files_a.keys() == files_b.keys()
        for rel in files_a:
            assert files_a[rel] == files_b[rel], rel

        space = load_space(os.path.join(dir_a, "deps.space"))
        copy_dir = str(tmp_path / "copy.space")
        save_space(space, copy_dir)
        original = _walk_bytes(os.path.join(dir_a, "deps.space"))
        copied = _walk_bytes(copy_dir)
        assert original == copied
        reloaded = load_space(copy_dir)
        assert reloaded.rows.keys() == space.rows.keys()
        for target, row in space.rows.items():
            other = reloaded.rows[target]
            assert row.ids == other.ids
            assert row.scores == other.scores  # bit-exact floats

        window = load_space(os.path.join(dir_a, "window.space"))
        probes = [
            (space, "arrest-v", "obj"),
            (space, "policeman-n", VERB_LINK),
            (space, "arrest-v", "ARG"),
            (window, "spelling-n", WINDOW),
        ]
        for probe_space, target, slot in probes:
            previous: list[str] = []
            for k in (10, 20, 30, 40, 50):
                current = [filler for filler, _ in probe_space.index.ranking(target, slot)[:k]]
                assert current[: len(previous)] == previous
                previous = current


# Captured from the first run whose chi-square and Wilcoxon outputs were
# verified against scipy.stats (chi2.sf, mannwhitneyu asymptotic with
# continuity); the chi-square p at 10/10 also equals erfc(sqrt(5)).
PINNED = {
    ("bicknell-acc2", "deps"): {
        "accuracy": 1.0,
        "n_wins": 10,
        "n_scored": 10,
        "chi": (10.0, 0.0015654022580025488, 8.1, 0.004426525857919833),
        "wilcoxon": (155.0, 1.5937911688066275e-05, False),
        "first_rows": [
            "b01,congruent,0.93727029408091667,0",
            "b01,incongruent,0.71686987429108318,0",
        ],
    },
    ("bicknell-acc2", "bow"): {
        "accuracy": 0.5,
        "n_wins": 5,
        "n_scored": 10,
        "chi": (0.0, 1.0, 0.0, 1.0),
        "wilcoxon": (100.0, 0.7108688029158766, False),
        "first_rows": [
            "b01,congruent,0.88471698579868363,0",
            "b01,incongruent,0.86528147428409652,0",
        ],
    },
    ("bicknell-acc1", "deps"): {
        "accuracy": 1.0,
        "n_wins": 10,
        "n_scored": 10,
        "chi": (10.0, 0.0015654022580025488, 8.1, 0.004426525857919833),
        "wilcoxon": (155.0, 1.5937911688066275e-05, False),
        "first_rows": [
            "b01,congruent,0.93727029408091667,0",
            "b01,incongruent,0.71686987429108318,0",
        ],
    },
    ("chow", "deps"): {
        "accuracy": 1.0,
        "n_wins": 50,
        "n_scored": 50,
        "chi": (50.0, 1.5374597944280351e-12, 48.02, 4.218936524005766e-12),
        "wilcoxon": (3775.0, 2.6280247350541915e-23, False),
        "first_rows": ["c01,normal,1,0", "c01,reversed,0,0"],
    },
    ("chow", "bow"): {
        "accuracy": 0.0,
        "n_wins": 0,
        "n_scored": 50,
        "chi": (50.0, 1.5374597944280351e-12, 48.02, 4.218936524005766e-12),
        "wilcoxon": (2525.0, 1.0, True),
        "first_rows": [
            "c01,normal,0.94868329805051377,0",
            "c01,reversed,0.94868329805051377,0",
        ],
    },
}


def test_criterion_8_end_to_end_fixture_replication(tmp_path):
    with criterion(8, "pinned end-to-end fixture values reproduce exactly"):
        bick = str(tmp_path / "bick")
        chow = str(tmp_path / "chow")
        _build_pipeline("configs/bicknell.conf", bick, "bicknell-acc2", ("deps", "bow"))
        assert cli_main(
            ["eval", "-c", "configs/bicknell.conf", "--out-dir", bick,
             "--task", "bicknell-acc1", "--kind", "deps", "--k", "20"]
        ) == 0
        _build_pipeline("configs/chow.conf", chow, "chow", ("deps", "bow"))

        assert PINNED[("bicknell-acc2", "deps")]["chi"][1] == math.erfc(math.sqrt(5.0))
        for (task, kind), pins in PINNED.items():
            out = bick if task.startswith("bicknell") else chow
            base = os.path.join(out, "reports", f"{task}.{kind}-sum-k20")
            with open(base + ".json", encoding="utf-8") as fh:
                data = json.load(fh)
            assert data["accuracy"] == pins["accuracy"], (task, kind)
            assert data["counts"]["n_wins"] == pins["n_wins"]
            assert data["counts"]["n_scored"] == pins["n_scored"]
            chi_stat, chi_p, yates_stat, yates_p = pins["chi"]
            assert data["chi_square"]["statistic"] == chi_stat
            assert data["chi_square"]["p_value"] == chi_p
            assert data["chi_square"]["yates_statistic"] == yates_stat
            assert data["chi_square"]["yates_p_value"] == yates_p
            w_stat, w_p, degenerate = pins["wilcoxon"]
            assert data["wilcoxon"]["statistic"] == w_stat
            assert data["wilcoxon"]["p_value"] == w_p
            assert data["wilcoxon"]["degenerate"] is degenerate
            with open(base + ".items.csv", encoding="utf-8") as fh:
                rows = fh.read().strip().split("\n")
            assert rows[1:3] == pins["first_rows"], (task, kind)
