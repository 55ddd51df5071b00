"""Sparse vector algebra, ranking, and space archive properties."""

import functools
import math
import operator
import os
import random
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from argex import space as space_module
from argex.artifacts import format_score, write_artifact
from argex.corpus import FORMAT_VERSION as VOCAB_FORMAT_VERSION
from argex.corpus import load_vocabulary
from argex.errors import ConfigError, ConsistencyError, CorpusError, OutOfVocabularyError
from argex.space import (
    EMPTY_VECTOR,
    SparseVector,
    VectorSum,
    WeightedSpace,
    build_space,
    cosine,
    load_space,
    multiply_vectors,
    save_space,
    sum_vectors,
    vector_of,
)
from argex.tensor import FORMAT_VERSION as TENSOR_FORMAT_VERSION
from argex.tensor import CooccurrenceTensor
from argex.tokens import ARG
from argex.weighting import WeightedTensor, weight_tensor

from conftest import blocks, every_ranking, record_space_id, spaces_from_text, targets, vector_from_pairs


def vec(*pairs) -> SparseVector:
    return vector_from_pairs(pairs)


@st.composite
def sparse_vectors(draw, max_dim=30):
    n = draw(st.integers(min_value=0, max_value=8))
    ids = draw(
        st.lists(st.integers(min_value=0, max_value=max_dim), min_size=n, max_size=n, unique=True)
    )
    scores = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    return vector_from_pairs(zip(ids, scores))


class TestSparseVector:
    def test_norm_cached(self):
        v = vec((0, 3.0), (1, 4.0))
        assert v.norm == 5.0
        assert EMPTY_VECTOR.norm == 0.0

    def test_norm_is_a_plain_left_fold(self):
        # 1.0 + 1e-16 rounds back to 1.0 at every step of a left fold; a
        # compensated sum (builtin sum() from Python 3.12 on) would carry
        # the ten small squares into the result
        v = SparseVector(tuple(range(11)), (1.0,) + (1e-8,) * 10)
        assert math.fsum(s * s for s in v.scores) > 1.0
        assert v.norm == 1.0

    @given(sparse_vectors())
    def test_norm_is_the_left_fold_bit_for_bit(self, v):
        fold = math.sqrt(functools.reduce(operator.add, [s * s for s in v.scores], 0.0))
        assert v.norm.hex() == fold.hex()

    def test_equal_by_value(self):
        a, b = vec((4, 0.5), (1, 2.0)), SparseVector((1, 4), (2.0, 0.5))
        assert a == b and a is not b
        assert a != vec((1, 2.0)) and a != vec((1, 2.0), (4, 0.25))
        assert a != (a.ids, a.scores)
        assert SparseVector() == EMPTY_VECTOR

    def test_immutable(self):
        v = vec((0, 3.0), (1, 4.0))
        for name, value in (("ids", (0,)), ("scores", (1.0, 1.0)), ("norm", 1.0), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(v, name, value)
        with pytest.raises(AttributeError):
            del v.norm
        assert (v.ids, v.scores, v.norm) == ((0, 1), (3.0, 4.0), 5.0)

    def test_dot_matches_naive(self):
        rng = random.Random(3)
        for _ in range(200):
            a = {rng.randrange(20): rng.uniform(0.1, 5) for _ in range(rng.randrange(8))}
            b = {rng.randrange(20): rng.uniform(0.1, 5) for _ in range(rng.randrange(8))}
            va, vb = vec(*a.items()), vec(*b.items())
            naive = functools.reduce(operator.add, (a[i] * b[i] for i in sorted(a.keys() & b.keys())), 0.0)
            assert va.dot(vb) == pytest.approx(naive, rel=1e-15, abs=0.0)


class TestCosine:
    def test_hand_value(self):
        a, b = vec((0, 1.0), (1, 2.0)), vec((0, 2.0), (1, 1.0))
        result = cosine(a, b)
        assert result.value == pytest.approx(0.8, abs=1e-15)
        assert not result.degenerate

    def test_self_cosine_is_one(self):
        v = vec((0, 1.5), (3, 2.5), (9, 0.25))
        result = cosine(v, v)
        assert result.value == 1.0  # clamped at the top of the range

    def test_disjoint_supports_score_zero(self):
        assert cosine(vec((0, 1.0)), vec((1, 1.0))) == (0.0, False)

    def test_zero_vector_is_degenerate(self):
        result = cosine(EMPTY_VECTOR, vec((0, 1.0)))
        assert result.value == 0.0
        assert result.degenerate

    @given(sparse_vectors(), sparse_vectors())
    @settings(max_examples=300, deadline=None)
    def test_symmetry_is_bit_exact(self, a, b):
        assert cosine(a, b) == cosine(b, a)

    @given(sparse_vectors(), sparse_vectors(), st.sampled_from([0.5, 2.0, 10.0, 1e-3, 37.25]))
    @settings(max_examples=300, deadline=None)
    def test_scale_invariance(self, a, b, kappa):
        scaled = vector_from_pairs((i, s * kappa) for i, s in zip(a.ids, a.scores))
        base = cosine(a, b).value
        assert abs(cosine(scaled, b).value - base) <= 1e-12

    @given(sparse_vectors(), sparse_vectors())
    @settings(max_examples=300, deadline=None)
    def test_range(self, a, b):
        value = cosine(a, b).value
        assert 0.0 <= value <= 1.0


class TestComposition:
    def test_sum_support_is_union(self):
        a, b = vec((0, 1.0), (2, 2.0)), vec((2, 3.0), (5, 1.0))
        s = sum_vectors([a, b])
        assert s.ids == (0, 2, 5)
        assert s.scores == (1.0, 5.0, 1.0)

    def test_mult_support_is_intersection(self):
        a, b = vec((0, 2.0), (2, 2.0)), vec((2, 3.0), (5, 1.0))
        m = multiply_vectors(a, b)
        assert m.ids == (2,)
        assert m.scores == (6.0,)

    def test_sum_identity(self):
        v = vec((1, 2.0), (4, 0.5))
        assert sum_vectors([v]) == v
        assert sum_vectors([v, EMPTY_VECTOR]) == v
        assert sum_vectors([]) == EMPTY_VECTOR

    def test_mult_with_disjoint_is_empty(self):
        assert multiply_vectors(vec((0, 1.0)), vec((1, 1.0))) == EMPTY_VECTOR

    @given(sparse_vectors(), sparse_vectors())
    @settings(max_examples=300, deadline=None)
    def test_sum_commutes_bit_exactly(self, a, b):
        assert sum_vectors([a, b]) == sum_vectors([b, a])

    @given(sparse_vectors(), sparse_vectors())
    @settings(max_examples=300, deadline=None)
    def test_mult_commutes_bit_exactly(self, a, b):
        assert multiply_vectors(a, b) == multiply_vectors(b, a)

    @given(sparse_vectors(), sparse_vectors())
    @settings(max_examples=200, deadline=None)
    def test_sum_coordinates_exact(self, a, b):
        s = sum_vectors([a, b])
        da, db = dict(zip(a.ids, a.scores)), dict(zip(b.ids, b.scores))
        for i, score in zip(s.ids, s.scores):
            assert score == da.get(i, 0.0) + db.get(i, 0.0)

    def test_mult_drops_products_that_underflow(self):
        assert multiply_vectors(vec((0, 1e-200), (1, 2.0)), vec((0, 1e-200), (1, 3.0))) == vec(
            (1, 6.0)
        )

    @given(st.lists(sparse_vectors(), max_size=6), sparse_vectors())
    @settings(max_examples=300, deadline=None)
    def test_fast_paths_equal_the_loop_references(self, vectors, other):
        """Running sums, merges and the lookup dot product reproduce the
        plain loops bit for bit: same operands, same order of additions."""

        def loop_sum(vs):
            acc = {}
            for v in vs:
                for dim, score in zip(v.ids, v.scores):
                    acc[dim] = acc.get(dim, 0.0) + score
            return vector_from_pairs(acc.items())

        total = VectorSum()
        for i, v in enumerate(vectors):
            total.add(v)
            assert total.snapshot() == loop_sum(vectors[: i + 1])
        assert sum_vectors(vectors) == loop_sum(vectors)
        for a in vectors:
            assert sum_vectors([a, other]) == loop_sum([a, other])
            db = dict(zip(other.ids, other.scores))
            product = [(dim, score * db[dim]) for dim, score in zip(a.ids, a.scores) if dim in db]
            assert multiply_vectors(a, other) == vector_from_pairs(product)
            dot = 0.0
            for dim, score in zip(a.ids, a.scores):  # increasing dimension order
                if dim in db:
                    dot += score * db[dim]
            assert a.dot(other) == dot

    def test_bulk_random_laws(self):
        # The volume check: >1000 random vectors through every law.
        rng = random.Random(12345)
        vectors = []
        for _ in range(1100):
            n = rng.randrange(0, 10)
            ids = rng.sample(range(40), n)
            vectors.append(vec(*[(i, rng.uniform(1e-3, 1e3)) for i in ids]))
        for i in range(0, len(vectors) - 1, 2):
            a, b = vectors[i], vectors[i + 1]
            assert cosine(a, b) == cosine(b, a)
            value = cosine(a, b).value
            assert 0.0 <= value <= 1.0
            scaled = vector_from_pairs((j, s * 7.5) for j, s in zip(a.ids, a.scores))
            assert abs(cosine(scaled, b).value - value) <= 1e-12
            s = sum_vectors([a, b])
            assert set(s.ids) == set(a.ids) | set(b.ids)
            assert s == sum_vectors([b, a])
            m = multiply_vectors(a, b)
            assert set(m.ids) == set(a.ids) & set(b.ids)
            assert m == multiply_vectors(b, a)


def toy_weighted():
    see, eat = "see-v", "eat-v"
    dog, cat, bird = "dog-n", "cat-n", "bird-n"
    return weight_tensor(CooccurrenceTensor({
        (see, "sbj", dog): 8,
        (see, "sbj", cat): 4,
        (see, "obj", bird): 6,
        (eat, "sbj", cat): 7,
        (eat, "obj", bird): 2,
        (dog, "sbj_inv", see): 8,
    }))


def append_verified(directory: str, name: str, line: str, **manifest: str) -> None:
    """Append ``line`` to an archive file and re-record the space id, so only parsing can refuse it.

    ``manifest`` re-records other manifest values too, such as ``n_dims``.
    """
    edit_verified(directory, name, lambda text: text + line, **manifest)


def edit_verified(directory: str, name: str, edit, **manifest: str) -> None:
    """Replace the text of an archive file by ``edit(text)`` and re-record its hash in the manifest."""
    path = os.path.join(directory, name)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edit(text))
    record_space_id(directory, **manifest)


def toy_space() -> WeightedSpace:
    vocab = [
        "see-v",
        "eat-v",
        "dog-n",
        "cat-n",
        "bird-n",
        "ant-n",
    ]
    return build_space(toy_weighted(), vocab)


class TestRanking:
    def test_order_is_score_then_canonical(self):
        weighted = toy_weighted()
        space = build_space(weighted, [])
        see = "see-v"
        ranking = space.ranking(see, "sbj")
        scores = [s for _, s in ranking]
        assert scores == sorted(scores, reverse=True)
        assert len(ranking) == 2

    def test_ties_break_on_canonical(self):
        weighted = toy_weighted()
        a, b, t = "aaa-n", "bbb-n", "tie-v"
        weighted.scores[(t, "sbj", a)] = 1.25
        weighted.scores[(t, "sbj", b)] = 1.25
        space = build_space(weighted, [])
        assert [filler for filler, _ in space.ranking(t, "sbj")[:2]] == ["aaa-n", "bbb-n"]

    def test_missing_slot_is_empty(self):
        space = build_space(toy_weighted(), [])
        assert space.ranking("zebra-n", "sbj") == ()

    def test_prefix_stability_over_k(self):
        space = build_space(toy_weighted(), [])
        see = "see-v"
        previous = ()
        for k in (1, 2, 3, 4, 5):
            current = space.ranking(see, "sbj")[:k]
            assert current[: len(previous)] == previous
            previous = current


class TestSpace:
    def test_vector_of_in_vocab(self):
        space = toy_space()
        v = vector_of(space, "see-v")
        assert len(v.ids) == 3

    def test_vector_of_vocab_token_without_row(self):
        space = toy_space()
        assert vector_of(space, "ant-n") == EMPTY_VECTOR

    def test_vector_of_oov_raises(self):
        space = toy_space()
        with pytest.raises(OutOfVocabularyError):
            vector_of(space, "zebra-n")

    def test_contains(self):
        space = toy_space()
        assert "ant-n" in space.vocabulary
        assert "zebra-n" not in space.vocabulary

    def test_row_coordinates_match_weights(self):
        space = toy_space()
        weighted = toy_weighted()
        see = "see-v"
        v = vector_of(space, see)
        for dim_id, score in zip(v.ids, v.scores):
            rel, filler = space.catalog[dim_id]
            assert score == weighted.scores[(see, rel, filler)]

    def test_archive_round_trip(self, tmp_path):
        space = toy_space()
        directory = str(tmp_path / "space")
        save_space(space, directory)
        loaded = load_space(directory)
        assert loaded.space_id == space.space_id
        assert loaded.catalog == space.catalog
        assert loaded.vocabulary == space.vocabulary
        assert targets(loaded) == targets(space)
        for target in targets(space):
            assert loaded.row(target) == space.row(target)  # bit-exact scores
        assert every_ranking(loaded) == every_ranking(space)

    def test_resave_is_byte_identical(self, tmp_path):
        space = toy_space()
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        save_space(space, d1)
        save_space(load_space(d1), d2)
        for name in sorted(os.listdir(d1)):
            b1 = open(os.path.join(d1, name), "rb").read()
            b2 = open(os.path.join(d2, name), "rb").read()
            assert b1 == b2, name

    def test_tampered_rows_detected(self, tmp_path):
        space = toy_space()
        directory = str(tmp_path / "space")
        save_space(space, directory)
        rows_path = tmp_path / "space" / "rows.tsv"
        body = rows_path.read_text().splitlines(keepends=True)
        body[0] = body[0].rsplit("\t", 1)[0] + "\t42\n"
        rows_path.write_text("".join(body))
        with pytest.raises(ConsistencyError):
            load_space(directory)

    @pytest.mark.parametrize(
        "line, error",
        [
            ("junk\n", CorpusError),
            ("obj\tbird-n\n", ConsistencyError),
        ],
        ids=["junk-row", "repeated-dimension"],
    )
    def test_verified_but_malformed_catalog_names_path_and_line(self, tmp_path, line, error):
        # a catalog line no row refers to is read with the whole catalog
        space = toy_space()
        directory = str(tmp_path / "space")
        save_space(space, directory)
        n_dims = len(space.catalog)
        assert space.catalog[0] == ("obj", "bird-n")  # the pair the repeated-dimension line repeats
        append_verified(directory, "catalog.tsv", line, n_dims=str(n_dims + 1))
        loaded = load_space(directory)
        assert loaded.ranking("see-v", "sbj") == space.ranking("see-v", "sbj")
        with pytest.raises(error, match=f"catalog.tsv:{n_dims + 1}:"):
            loaded.catalog

    def test_a_catalog_without_its_final_newline_is_refused_at_load(self, tmp_path):
        space = toy_space()
        directory = str(tmp_path / "space")
        save_space(space, directory)
        n_dims = len(space.catalog)
        edit_verified(directory, "catalog.tsv", lambda text: text[:-1])
        with pytest.raises(CorpusError, match=f"catalog.tsv:{n_dims}: expected relation, filler"):
            load_space(directory)

    def test_verified_row_outside_the_catalog_names_path_and_line(self, tmp_path):
        space = toy_space()
        directory = str(tmp_path / "space")
        save_space(space, directory)
        n_rows = sum(len(space.row(target).ids) for target in targets(space))
        assert targets(space)[-1] == "see-v"  # the last block, which the appended line extends
        append_verified(directory, "rows.tsv", f"{len(space.catalog)}\t1\n")
        loaded = load_space(directory)
        assert loaded.row("dog-n") == space.row("dog-n")
        for read in (lambda: loaded.row("see-v"), lambda: loaded.ranking("see-v", "sbj")):
            with pytest.raises(ConsistencyError, match=f"rows.tsv:{n_rows + 1}: dimension id"):
                read()

    @pytest.mark.parametrize(
        "name, line",
        [
            ("rows.tsv", "0\n"),
            ("rows.tsv", "0\n1\t1\n"),
            ("rows.tsv", "obj\t1\n"),
            ("rows.tsv", "0\t-1\n"),
            ("rows.tsv", "0\t1"),
            ("rows.tsv", "see-v\t0\t1\n"),
            ("arg.tsv", "dog-n\tnan\n"),
            ("arg.tsv", "dog-n\t0.5\textra\n"),
        ],
        ids=["one-field", "one-field-then-a-good-line", "word-for-id", "negative-score", "no-final-newline",
             "three-fields", "nan-score", "arg-three-fields"],
    )
    def test_verified_but_malformed_line_names_path_and_line(self, tmp_path, name, line):
        # the appended line ends the last target's block: the archive loads, that target does not
        space = toy_space()
        directory = str(tmp_path / "space")
        save_space(space, directory)
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            n_lines = fh.read().count("\n")
        append_verified(directory, name, line)
        loaded = load_space(directory)
        assert loaded.ranking("dog-n", "sbj_inv") == space.ranking("dog-n", "sbj_inv")
        with pytest.raises(CorpusError, match=f"{name}:{n_lines + 1}: expected"):
            loaded.ranking("see-v", "sbj")

    def test_repeated_dimension_id_is_found_when_its_target_is_first_read(self, tmp_path):
        # the one check made per target block: the archive loads, the damaged target does not
        space = toy_space()
        directory = str(tmp_path / "space")
        save_space(space, directory)
        n_rows = sum(len(space.row(target).ids) for target in targets(space))
        assert targets(space)[-1] == "see-v"  # the last block, which the appended line extends
        append_verified(directory, "rows.tsv", f"{space.row('see-v').ids[0]}\t1\n")
        loaded = load_space(directory)
        assert loaded.row("dog-n") == space.row("dog-n")
        for read in (lambda: loaded.row("see-v"), lambda: loaded.ranking("see-v", "sbj")):
            with pytest.raises(ConsistencyError, match=f"rows.tsv:{n_rows + 1}: dimension ids must increase"):
                read()

    def test_catalog_pair_out_of_order_is_refused_at_first_read(self, tmp_path):
        space = toy_space()
        directory = str(tmp_path / "space")
        save_space(space, directory)
        n_dims = len(space.catalog)
        assert ("obj", "dog-n") not in space.catalog and ("obj", "dog-n") < space.catalog[-1]
        append_verified(directory, "catalog.tsv", "obj\tdog-n\n", n_dims=str(n_dims + 1))
        assert targets(space)[-1] == "see-v"
        append_verified(directory, "rows.tsv", f"{n_dims}\t1\n")  # see-v's row now refers to it
        loaded = load_space(directory)
        assert loaded.ranking("eat-v", "sbj") == space.ranking("eat-v", "sbj")
        fault = rf"catalog.tsv:{n_dims + 1}: dimension \('obj', 'dog-n'\) does not sort after"
        for read in (lambda: loaded.ranking("see-v", "sbj"), lambda: loaded.catalog):
            with pytest.raises(ConsistencyError, match=fault):
                read()

    # the ids of see-v's last two lines: swapped, and an id outside the catalog that the last line hides
    @pytest.mark.parametrize("ids", [(2, 1), (99, 2)], ids=["swapped", "hidden-outside-the-catalog"])
    def test_row_ids_out_of_order_are_refused_when_the_target_is_first_read(self, tmp_path, ids):
        space = toy_space()
        directory = str(tmp_path / "space")
        save_space(space, directory)
        lines = space.texts[1].splitlines(keepends=True)
        assert [line.split("\t")[0] for line in blocks(space.texts)["see-v"].splitlines()] == ["0", "1", "2"]
        assert targets(space)[-1] == "see-v"
        last_two = "".join(f"{dim_id}\t1.5\n" for dim_id in ids)
        edit_verified(directory, "rows.tsv", lambda text: "".join(lines[:-2]) + last_two)
        loaded = load_space(directory)
        assert loaded.row("dog-n") == space.row("dog-n")
        fault = f"rows.tsv:{len(lines)}: dimension ids must increase, got {ids[0]} then {ids[1]}"
        for read in (lambda: loaded.row("see-v"), lambda: loaded.ranking("see-v", "sbj")):
            with pytest.raises(ConsistencyError, match=fault):
                read()

    @pytest.mark.parametrize("score", ["0", "0.0", "1e-400", "1e+400"])
    def test_a_row_score_that_is_not_positive_and_finite_is_refused_when_the_target_is_first_read(
        self, tmp_path, score
    ):
        space = toy_space()
        directory = str(tmp_path / "space")
        save_space(space, directory)
        lines = space.texts[1].splitlines(keepends=True)
        assert blocks(space.texts)["see-v"].endswith(lines[-1]) and lines[-1].startswith("2\t")
        edit_verified(directory, "rows.tsv", lambda text: "".join(lines[:-1]) + f"2\t{score}\n")
        loaded = load_space(directory)
        assert loaded.row("eat-v") == space.row("eat-v")
        for read in (lambda: loaded.row("see-v"), lambda: loaded.ranking("see-v", "sbj")):
            with pytest.raises(ConsistencyError, match=f"rows.tsv:{len(lines)}: score .* is not positive and finite"):
                read()

    @pytest.mark.parametrize("score", ["0", "0.0", "1e-400", "1e+400"])
    def test_an_arg_score_that_is_not_positive_and_finite_is_refused_when_the_target_is_first_read(
        self, tmp_path, score
    ):
        extra = WeightedTensor(scores={("eat-v", ARG, "cat-n"): 0.5, ("see-v", ARG, "cat-n"): 0.75,
                                       ("see-v", ARG, "dog-n"): 0.25})
        space = build_space(toy_weighted(), ["see-v", "eat-v", "dog-n", "cat-n"], extra_index=extra)
        directory = str(tmp_path / "space")
        save_space(space, directory)
        lines = space.texts[2].splitlines(keepends=True)
        assert blocks(space.texts, 2) == {"eat-v": "cat-n\t0.5\n", "see-v": "cat-n\t0.75\ndog-n\t0.25\n"}
        edit_verified(directory, "arg.tsv", lambda text: "".join(lines[:-1]) + f"dog-n\t{score}\n")
        loaded = load_space(directory)
        assert loaded.ranking("eat-v", ARG) == space.ranking("eat-v", ARG)
        for read in (lambda: loaded.ranking("see-v", ARG), lambda: loaded.ranking("see-v", "sbj")):
            with pytest.raises(ConsistencyError, match="arg.tsv:3: score .* is not positive and finite"):
                read()

    def test_extra_index_holds_arg_rankings_only(self):
        # arg.tsv stores the ARG slot alone; any other extra slot would not survive a save
        weighted = toy_weighted()
        with pytest.raises(ValueError, match="ARG"):
            build_space(weighted, [], extra_index=weighted)

    def test_corpus_relation_named_arg_round_trips(self, tmp_path):
        # an ARG dimension joins the ARG ranking, which arg.tsv stores whole
        see, dog, cat = "see-v", "dog-n", "cat-n"
        weighted = toy_weighted()
        weighted.scores[(see, ARG, dog)] = 0.5
        extra = WeightedTensor(scores={(see, ARG, cat): 0.75, (see, ARG, dog): 0.25})
        space = build_space(weighted, [see, dog, cat], extra_index=extra)
        assert space.ranking("see-v", ARG) == ((cat, 0.75), (dog, 0.5), (dog, 0.25))
        save_space(space, str(tmp_path))
        with open(tmp_path / "arg.tsv", encoding="utf-8") as fh:
            assert fh.read() == "cat-n\t0.75\ndog-n\t0.5\ndog-n\t0.25\n"
        assert load_space(str(tmp_path)).ranking("see-v", ARG) == space.ranking("see-v", ARG)

    def test_building_and_saving_a_space_ranks_no_slot(self, tmp_path, monkeypatch):
        # the data files are rendered from the scores; the reader opens on the first row or ranking
        def no_ranking(fillers):
            raise AssertionError("a slot was ranked")

        def no_check(paths, texts):
            raise AssertionError("the archive was read")

        monkeypatch.setattr(space_module, "_ranked", no_ranking)
        monkeypatch.setattr(space_module, "_read_blocks", no_check)
        extra = WeightedTensor(scores={("see-v", ARG, "dog-n"): 0.75})
        space = build_space(toy_weighted(), ["see-v", "dog-n"], extra_index=extra)
        save_space(space, str(tmp_path / "saved"))
        monkeypatch.undo()
        assert load_space(str(tmp_path / "saved")).ranking("see-v", ARG) == (("dog-n", 0.75),)

    def test_reading_a_loaded_row_ranks_none_of_its_slots(self, tmp_path, monkeypatch):
        space = toy_space()
        save_space(space, str(tmp_path))
        loaded = load_space(str(tmp_path))
        ranked = []
        monkeypatch.setattr(space_module, "_ranked", lambda fillers: ranked.append(fillers) or tuple(fillers))
        assert loaded.row("see-v") == space.row("see-v")
        assert ranked == []
        monkeypatch.undo()
        assert loaded.ranking("see-v", "sbj") == space.ranking("see-v", "sbj")

    def test_built_space_is_unchanged_by_later_changes_to_its_scores(self, tmp_path):
        see, dog, cat = "see-v", "dog-n", "cat-n"
        arg_scores = {(see, ARG, cat): 0.75, (see, ARG, dog): 0.25}
        weighted, extra = toy_weighted(), WeightedTensor(scores=dict(arg_scores))
        space = build_space(weighted, [see, dog, cat], extra_index=extra)
        weighted.scores[(see, "sbj", "bird-n")] = 99.0
        weighted.scores[(see, "sbj", dog)] = 0.001
        extra.scores[(see, ARG, dog)] = 5.0
        extra.scores[(see, ARG, "bird-n")] = 9.0
        untouched = build_space(toy_weighted(), [see, dog, cat], extra_index=WeightedTensor(scores=arg_scores))
        assert space.ranking(see, "sbj") == untouched.ranking(see, "sbj")
        assert space.ranking(see, ARG) == ((cat, 0.75), (dog, 0.25))
        save_space(space, str(tmp_path))
        with open(tmp_path / "arg.tsv", encoding="utf-8") as fh:
            assert fh.read() == "cat-n\t0.75\ndog-n\t0.25\n"

    def test_catalog_is_the_sorted_distinct_dimensions(self):
        weighted = toy_weighted()
        space = build_space(weighted, [])
        assert space.catalog == tuple(sorted({(rel, filler) for _, rel, filler in weighted.scores}))
        assert space.manifest["n_dims"] == str(len(space.catalog))

    def test_zero_scores_are_dropped(self):
        weighted = toy_weighted()
        weighted.scores[("see-v", "obj", "ant-n")] = 0.0
        weighted.scores[("ant-n", "sbj_inv", "see-v")] = -0.0
        extra = WeightedTensor(scores={("see-v", ARG, "dog-n"): 0.0, ("see-v", ARG, "cat-n"): 0.5})
        space = build_space(weighted, [], extra_index=extra)
        without_zeros = WeightedTensor(scores={("see-v", ARG, "cat-n"): 0.5})
        assert space.texts == build_space(toy_weighted(), [], extra_index=without_zeros).texts
        assert ("obj", "ant-n") not in space.catalog
        assert "ant-n" not in targets(space)
        assert space.ranking("see-v", ARG) == (("cat-n", 0.5),)

    @pytest.mark.parametrize("score", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("where", ["weighted", "extra_index"])
    def test_a_score_no_archive_line_can_hold_is_refused(self, score, where):
        weighted = toy_weighted()
        extra = WeightedTensor(scores={("see-v", ARG, "dog-n"): 0.5})
        source = weighted if where == "weighted" else extra
        source.scores[("see-v", ARG, "cat-n")] = score
        with pytest.raises(ValueError, match="cannot be stored"):
            build_space(weighted, [], extra_index=extra)

    @pytest.mark.parametrize("corpus", ["bicknell_corpus", "chow_corpus"])
    def test_loaded_rankings_equal_built_rankings(self, tmp_path, fixture_paths, corpus):
        # the archive stores scores only; load must rebuild every ranking exactly
        with open(fixture_paths[corpus], encoding="utf-8") as fh:
            deps_space, window_space = spaces_from_text(fh.read(), threshold=3)
        assert any(deps_space.ranking(target, ARG) for target in targets(deps_space))
        for name, space in (("deps", deps_space), ("window", window_space)):
            directory = str(tmp_path / name)
            save_space(space, directory)
            built = every_ranking(space)
            assert any(built.values())
            assert every_ranking(load_space(directory)) == built

    @pytest.mark.parametrize("failing", ["catalog.tsv", "manifest.txt"])
    def test_interrupted_save_never_leaves_a_half_written_archive(
        self, tmp_path, monkeypatch, failing
    ):
        old = toy_space()
        directory = str(tmp_path / "space")
        save_space(old, directory)
        new = build_space(toy_weighted(), ["see-v", "eat-v"])
        real_replace = os.replace

        def crash_at(src, dst):
            if os.path.basename(dst) == failing:
                raise OSError("simulated crash")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", crash_at)
        with pytest.raises(ConfigError, match=f"cannot write .*{failing}: simulated crash"):
            save_space(new, directory)
        monkeypatch.undo()
        assert not [name for name in os.listdir(directory) if name.endswith(".tmp")]
        if failing == "catalog.tsv":
            assert load_space(directory).space_id == old.space_id
        else:
            # data files are new, the manifest is old: the mix is refused
            with pytest.raises(ConsistencyError):
                load_space(directory)

    def test_a_vocabulary_token_without_lines_round_trips_with_empty_blocks(self, tmp_path):
        space = toy_space()
        assert "ant-n" not in targets(space) + targets(space, data_file=2)
        directory = str(tmp_path / "space")
        save_space(space, directory)
        with open(os.path.join(directory, "blocks.tsv"), encoding="utf-8") as fh:
            lines = [line.split("\t") for line in fh.read().splitlines()]
        names = [fields[0] for fields in lines]
        i = names.index("ant-n")
        assert lines[i][1:] == lines[i + 1][1:]  # empty blocks: they start where the next target's do
        loaded = load_space(directory)
        assert "ant-n" in loaded.vocabulary
        assert loaded.row("ant-n") == EMPTY_VECTOR
        for relation in {relation for relation, _ in loaded.catalog} | {ARG}:
            assert loaded.ranking("ant-n", relation) == ()
        assert loaded.manifest["n_vocab"] == str(len(names)) == "6"

    def test_manifest_records_provenance(self):
        space = toy_space()
        assert space.manifest["format_version"] == "6"
        assert space.manifest["content_hash"] == space.space_id
        assert space.manifest["n_targets"] == str(len(targets(space)))
        assert space.manifest["n_dims"] == str(len(space.catalog))


# lemmas with hyphens and non-ASCII letters, and any other string a lemma may be
LEMMAS = st.one_of(
    st.sampled_from(["a", "a-b-c", "x-ray", "-", "café", "straße", "ärger", "東京"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4).filter(
        lambda lemma: not any(char.isspace() for char in lemma)
    ),
)
TOKENS = st.builds("{}-{}".format, LEMMAS, st.sampled_from(["n", "v"]))
RELATIONS = st.sampled_from(["sbj", "obj", "sbj_inv", "nmod:über", "VERB", ARG])
# zeros, which the writer drops, subnormals and scores written with an exponent
SCORES = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e300, allow_nan=False))


@st.composite
def weighted_scores(draw):
    """(scores, ``extra_index`` scores, vocabulary) over a few tokens, so that a row can hold many ids."""
    tokens = draw(st.lists(TOKENS, min_size=1, max_size=8, unique=True))
    token = st.sampled_from(tokens)
    scores = draw(st.dictionaries(st.tuples(token, RELATIONS, token), SCORES, max_size=60))
    extra_scores = draw(st.dictionaries(st.tuples(token, st.just(ARG), token), SCORES, max_size=10))
    return scores, extra_scores, tokens


def _reference_rankings(scores, extra_scores):
    """Each (target, relation)'s fillers straight from the weighted scores, score descending, then filler."""
    groups = {}
    for (target, relation, filler), score in [*scores.items(), *extra_scores.items()]:
        if score > 0:
            groups.setdefault((target, relation), []).append((filler, score))
    return {key: tuple(sorted(fillers, key=lambda pair: (-pair[1], pair[0]))) for key, fillers in groups.items()}


class TestWriterOrder:
    """The reader accepts every archive the writer writes, and reads back what was weighted."""

    @settings(max_examples=60, deadline=None)
    @given(drawn=weighted_scores())
    # and a row whose ids run past one digit
    @example(drawn=({("see-v", "sbj", f"f{i}-n"): 1.0 + i for i in range(12)}, {}, ["see-v"]))
    def test_a_saved_space_loads_as_it_was_weighted(self, drawn):
        scores, extra_scores, tokens = drawn
        built = build_space(WeightedTensor(scores=scores), tokens, extra_index=WeightedTensor(scores=extra_scores))
        with tempfile.TemporaryDirectory() as directory:
            save_space(built, directory)
            for name, text in zip(("catalog.tsv", "rows.tsv", "arg.tsv", "blocks.tsv"), built.texts):
                with open(os.path.join(directory, name), "rb") as fh:
                    assert fh.read() == text.encode("utf-8"), name
            loaded = load_space(directory)
        kept = {key: score for key, score in scores.items() if score > 0}
        catalog = sorted({(relation, filler) for _, relation, filler in kept})
        assert loaded.catalog == built.catalog == tuple(catalog)
        dim_id = {dim: i for i, dim in enumerate(catalog)}
        # blocks.tsv lists every vocabulary token, every target with a line in rows.tsv or arg.tsv and every
        # filler of catalog.tsv and arg.tsv, and each offset starts exactly that target's lines: its row in id
        # order, then its ARG scores by filler, best first
        row_lines, arg_lines = {}, {}
        for (target, relation, filler), score in sorted(kept.items()):
            row_lines[target] = row_lines.get(target, "") + f"{dim_id[relation, filler]}\t{format_score(score)}\n"
        arg_kept = [(target, filler, -score) for (target, relation, filler), score
                    in [*kept.items(), *extra_scores.items()] if relation == ARG and score > 0]
        for target, filler, negated in sorted(arg_kept):
            arg_lines[target] = arg_lines.get(target, "") + f"{filler}\t{format_score(-negated)}\n"
        names = [line.partition("\t")[0] for line in loaded.texts[3].splitlines()]
        fillers = {filler for _, filler in catalog} | {filler for _, filler, _ in arg_kept}
        assert names == sorted(set(tokens) | row_lines.keys() | arg_lines.keys() | fillers)
        assert loaded.vocabulary == built.vocabulary == frozenset(names)
        assert loaded.manifest["n_vocab"] == str(len(names))
        assert blocks(loaded.texts, 1) == row_lines and blocks(loaded.texts, 2) == arg_lines
        expected = _reference_rankings(scores, extra_scores)
        for target in tokens:
            row = vector_from_pairs(
                (dim_id[relation, filler], score) for (t, relation, filler), score in kept.items() if t == target
            )
            assert loaded.row(target) == built.row(target) == row
            for relation in {relation for relation, _ in catalog} | {ARG}:
                ranking = expected.get((target, relation), ())
                assert loaded.ranking(target, relation) == built.ranking(target, relation) == ranking
        # every row and every ranking the loaded space holds, read back as the built space reads them
        for target in names:
            assert loaded.row(target) == built.row(target)
        assert every_ranking(loaded) == every_ranking(built)

    @settings(max_examples=60, deadline=None)
    @given(drawn=weighted_scores())
    def test_a_built_space_holds_the_block_index_its_files_load_to(self, drawn):
        # a built space is given the index its writer rendered; the load checks derive the same one
        scores, extra_scores, tokens = drawn
        built = build_space(WeightedTensor(scores=scores), tokens, extra_index=WeightedTensor(scores=extra_scores))
        index = space_module._read_blocks(built._paths, built.texts)
        assert index == (built.vocabulary, built._blocks, built._n_dims)
        assert list(index[1]) == sorted(index[0])


def bad_artifact(load, name: str, body: str, **meta: str):
    """Set-up of a hash-verified artifact ``name`` holding ``body`` under sidecar ``meta``: (path, its loader)."""

    def setup(tmp_path):
        path = str(tmp_path / name)
        write_artifact(path, body, meta)
        return path, lambda: load(path)

    return setup


def bad_archive(name: str, line, **manifest):
    """Set-up of a verified toy archive with ``line(space)`` appended to ``name``: (path, its loader).

    ``manifest`` re-records manifest values, such as ``n_dims``, from the toy space.
    """

    def setup(tmp_path):
        space = toy_space()
        directory = str(tmp_path / "space")
        save_space(space, directory)
        append_verified(directory, name, line(space), **{key: value(space) for key, value in manifest.items()})
        return os.path.join(directory, name), lambda: load_space(directory)

    return setup


class TestTokenChecksAtLoad:
    # each loader checks every distinct token string once; a bad one is an error at its line: an input
    # error in a tensor or the vocabulary, and a fault of blocks.tsv, the space's vocabulary, in a space
    @pytest.mark.parametrize(
        "setup, error",
        [
            (bad_artifact(CooccurrenceTensor.load, "t.tsv", "see-v\tsbj\t\ncat-n\t2\ndog\t1\n",
                          format_version=TENSOR_FORMAT_VERSION), CorpusError),
            (bad_artifact(lambda path: load_vocabulary(path, 1, True), "vocab.tsv", "dog-n\t3\n-n\t2\n",
                          format_version=VOCAB_FORMAT_VERSION),
             CorpusError),
            # a last target with empty blocks, which sorts after see-v, and counted in n_vocab
            (bad_archive("blocks.tsv", lambda space: f"zebra\t{len(space.texts[1])}\t{len(space.texts[2])}\n",
                         n_vocab=lambda space: str(len(space.vocabulary) + 1)), ConsistencyError),
        ],
        ids=["tensor-filler", "vocab", "space-vocab"],
    )
    def test_non_lemma_pos_token_in_a_verified_body_names_path_and_line(self, tmp_path, setup, error):
        path, load = setup(tmp_path)
        with open(path, encoding="utf-8") as fh:
            last_line = fh.read().count("\n")
        with pytest.raises(error, match=f"{os.path.basename(path)}:{last_line}:"):
            load()


class TestTokenChecksAtFirstRead:
    # a token inside a target's block, or a catalog line, is checked when a read first touches it
    @pytest.mark.parametrize(
        "setup, read",
        [
            (bad_archive("catalog.tsv", lambda space: "obj\tdog-x\n",
                         n_dims=lambda space: str(len(space.catalog) + 1)),
             lambda space: space.catalog),
            (bad_archive("arg.tsv", lambda space: "dog\t0.5\n"), lambda space: space.ranking("see-v", ARG)),
            (bad_archive("arg.tsv", lambda space: "zebra-q\t0.5\n"), lambda space: space.ranking("see-v", "sbj")),
        ],
        ids=["catalog-filler", "arg-filler", "arg-filler-read-by-another-slot"],
    )
    def test_non_lemma_pos_token_in_a_verified_body_names_path_and_line(self, tmp_path, setup, read):
        path, load = setup(tmp_path)
        with open(path, encoding="utf-8") as fh:
            last_line = fh.read().count("\n")
        loaded = load()
        assert loaded.row("dog-n") == toy_space().row("dog-n")
        with pytest.raises(CorpusError, match=f"{os.path.basename(path)}:{last_line}:"):
            read(loaded)

    # every filler is a target of blocks.tsv, as a prototype sums its fillers' rows: a lemma-pos filler that
    # blocks.tsv does not list is an input error at its line, as a filler that is not lemma-pos is
    @pytest.mark.parametrize(
        "setup, read",
        [
            (bad_archive("catalog.tsv", lambda space: "obj\tzebra-n\n",
                         n_dims=lambda space: str(len(space.catalog) + 1)),
             lambda space: space.catalog),
            (bad_archive("arg.tsv", lambda space: "zebra-n\t0.5\n"), lambda space: space.ranking("see-v", ARG)),
            (bad_archive("arg.tsv", lambda space: "zebra-n\t0.5\n"), lambda space: space.ranking("see-v", "sbj")),
        ],
        ids=["catalog-filler", "arg-filler", "arg-filler-read-by-another-slot"],
    )
    def test_a_filler_that_is_not_a_target_names_path_and_line(self, tmp_path, setup, read):
        path, load = setup(tmp_path)
        with open(path, encoding="utf-8") as fh:
            last_line = fh.read().count("\n")
        loaded = load()
        assert "zebra-n" not in loaded.vocabulary
        assert loaded.row("dog-n") == toy_space().row("dog-n")
        with pytest.raises(CorpusError, match=f"{os.path.basename(path)}:{last_line}: filler zebra-n is not a "
                                              "target of blocks.tsv$"):
            read(loaded)
