import os
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from argex.corpus import extract_dependency_counts, extract_window_counts
from argex.errors import ConfigError, ConsistencyError, CorpusError, StaleArtifactError
from argex.artifacts import (read_artifact, read_sidecar, sha256, sidecar_path, write_artifact, write_bodies,
                             write_sidecar)
from argex import tensor as tensor_module
from argex.tensor import FORMAT_VERSION, CooccurrenceTensor

from conftest import DEFAULTS, OBJECTS, SUBJECTS, counted, parse_text, random_corpus_text, vocabulary

DOG = "dog-n"
CAT = "cat-n"
SEE = "see-v"


def small_tensor() -> CooccurrenceTensor:
    return CooccurrenceTensor({(SEE, "sbj", DOG): 2, (SEE, "obj", CAT): 1})


def bigger_tensor() -> CooccurrenceTensor:
    return CooccurrenceTensor({(SEE, "sbj", DOG): 2, (SEE, "obj", CAT): 1, (SEE, "obj", DOG): 7})


def counters(seed: int) -> dict[str, CooccurrenceTensor]:
    """What the dependency and window counters count on a random corpus, with the default config's settings."""
    corpus = parse_text(random_corpus_text(seed, 200))
    vocab = vocabulary(corpus, 2)
    return {
        "deps": extract_dependency_counts(corpus, vocab, SUBJECTS, OBJECTS, None, frozenset()),
        "window": extract_window_counts(corpus, vocab, DEFAULTS.window_width, DEFAULTS.window_filtered_positions),
    }


def triples_of(text: str) -> list[tuple[str, str, str]]:
    """The (target, relation, filler) of each entry line of a saved tensor, in file order."""
    triples = []
    for line in text.splitlines():
        fields = line.split("\t")
        if len(fields) == 3:
            head = fields[:2]
        else:
            triples.append((*head, fields[0]))
    return triples


def write_body(path: str, body: str) -> None:
    """A hash-verified tensor file holding ``body``, under a sidecar of this format version."""
    write_artifact(path, body, {"format_version": FORMAT_VERSION})


# tokens and relation labels that a line's tabs and newlines cannot split
_TEXT = st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n")
_TOKENS = st.builds(
    "{}-{}".format,
    st.text(st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")), min_size=1, max_size=6),
    st.sampled_from(["n", "v"]),
) | st.sampled_from([DOG, CAT, SEE, "x-ray-n", "re-read-v"])


@st.composite
def observations(draw):
    """One stored entry: its target may equal its filler, as a token beside itself in a window does.

    A ``WINDOW`` pair is drawn lower token first, as the window counter counts it.
    """
    target = draw(_TOKENS)
    filler = draw(st.just(target) | _TOKENS)
    relation = draw(st.one_of(
        st.text(_TEXT, max_size=6),
        st.integers(min_value=0, max_value=999).map(str),  # all digits, like a count
        st.just(filler),  # the filler's own string
        st.sampled_from(["sbj", "obj", "VERB", "ARG", "WINDOW"]),
        st.sampled_from(["sbj", "obj", "VERB", "WINDOW", "x_inv"]).map(lambda r: r + "_inv"),
    ))
    if relation == "WINDOW" and filler < target:
        target, filler = filler, target
    return target, relation, filler


class TestCounting:
    def test_counts_and_marginals_accumulate(self):
        tensor = small_tensor()
        assert tensor.total == 3
        assert tensor.counts.get((SEE, "sbj", DOG), 0) == 2
        assert tensor.counts.get((DOG, "sbj_inv", SEE), 0) == 0  # a mirror: added at load, not held
        assert tensor.counts.get((SEE, "sbj", CAT), 0) == 0
        assert len(tensor) == 2

    def test_equal_by_value_and_immutable(self):
        tensor = CooccurrenceTensor(small_tensor().counts, "abc")
        assert tensor == CooccurrenceTensor(small_tensor().counts, source_hash="abc")
        assert tensor != small_tensor() and tensor != CooccurrenceTensor({}, "abc")
        with pytest.raises(AttributeError):
            tensor.counts = {}
        with pytest.raises(AttributeError):
            tensor.source_hash = ""
        with pytest.raises(TypeError):
            hash(tensor)
        # each empty tensor gets its own dict
        assert CooccurrenceTensor().counts == {} and CooccurrenceTensor().counts is not CooccurrenceTensor().counts

    def test_entries_are_written_sorted(self):
        tensor = CooccurrenceTensor({(SEE, "sbj", DOG): 2, (DOG, "obj", CAT): 1, (SEE, "obj", CAT): 1})
        assert triples_of(tensor.to_tsv()) == [(DOG, "obj", CAT), (SEE, "obj", CAT), (SEE, "sbj", DOG)]

    def test_each_target_and_relation_is_written_once_per_run(self):
        assert small_tensor().to_tsv() == (
            "see-v\tobj\t\ncat-n\t1\n"
            "see-v\tsbj\t\ndog-n\t2\n"
        )

    def test_an_inverse_entry_stores_what_its_mirror_leaves(self, tmp_path):
        # a corpus label ending in _inv: its arcs mirror under x_inv_inv, and meet x's mirrors under x_inv
        path = str(tmp_path / "t.tsv")
        tensor = CooccurrenceTensor({(SEE, "x", DOG): 2, (DOG, "x_inv", SEE): 1})
        tensor.save(path)
        assert open(path).read() == "dog-n\tx_inv\t\nsee-v\t1\nsee-v\tx\t\ndog-n\t2\n"
        loaded = CooccurrenceTensor.load(path).counts
        assert loaded == counted(tensor.counts)
        assert loaded == {(SEE, "x", DOG): 2, (DOG, "x_inv", SEE): 3, (SEE, "x_inv_inv", DOG): 1}

    def test_a_window_pair_is_written_once_target_first_and_a_self_pair_at_half(self, tmp_path):
        path = str(tmp_path / "t.tsv")
        tensor = CooccurrenceTensor({(CAT, "WINDOW", DOG): 3, (DOG, "WINDOW", DOG): 2})
        tensor.save(path)
        assert open(path).read() == "cat-n\tWINDOW\t\ndog-n\t3\ndog-n\tWINDOW\t\ndog-n\t2\n"
        loaded = CooccurrenceTensor.load(path).counts
        assert loaded == counted(tensor.counts)
        assert loaded == {(DOG, "WINDOW", CAT): 3, (CAT, "WINDOW", DOG): 3, (DOG, "WINDOW", DOG): 4}

    def test_a_window_inv_label_mirrors_under_window_inv_inv(self, tmp_path):
        path = str(tmp_path / "t.tsv")
        tensor = CooccurrenceTensor({(DOG, "WINDOW_inv", CAT): 1})
        tensor.save(path)
        assert open(path).read() == "dog-n\tWINDOW_inv\t\ncat-n\t1\n"
        assert CooccurrenceTensor.load(path).counts == {(DOG, "WINDOW_inv", CAT): 1, (CAT, "WINDOW_inv_inv", DOG): 1}

    @pytest.mark.parametrize(
        "stored, expected",
        [
            ({(SEE, "sbj", DOG): 2, (SEE, "obj", CAT): 1}, (4, 6)),
            ({(CAT, "WINDOW", DOG): 3}, (2, 6)),
            ({(DOG, "WINDOW", DOG): 2}, (1, 4)),
            ({(SEE, "x", DOG): 2, (DOG, "x_inv", SEE): 1}, (3, 6)),
            ({(DOG, "WINDOW_inv", CAT): 1}, (2, 2)),
        ],
        ids=["distinct-mirrors", "window-pair", "window-self-pair", "inverse-meets-its-mirror", "window-inv-label"],
    )
    def test_the_sidecar_sizes_the_stored_counts_and_load_adds_their_mirrors(self, tmp_path, stored, expected):
        path = str(tmp_path / "t.tsv")
        CooccurrenceTensor(stored).save(path)
        meta = read_sidecar(sidecar_path(path))
        assert (meta["entries"], meta["total"]) == (str(len(stored)), str(sum(stored.values())))
        loaded = CooccurrenceTensor.load(path)
        assert loaded.counts == counted(stored)
        assert (len(loaded), loaded.total) == expected

    @pytest.mark.parametrize("seed", [11, 22])
    def test_the_counters_count_each_observation_once(self, tmp_path, seed):
        tensors = counters(seed)
        for name, tensor in tensors.items():
            path = str(tmp_path / f"{name}.tsv")
            tensor.save(path)
            assert triples_of(open(path).read()) == sorted(tensor.counts), name
        assert not any(relation.endswith("_inv") for _, relation, _ in tensors["deps"].counts)
        window = tensors["window"].counts
        assert all(target <= filler for target, _, filler in window)
        assert any(target == filler for target, _, filler in window)  # a token beside itself, counted once

    @pytest.mark.parametrize("seed", [11, 22])
    def test_the_counters_counts_round_trip(self, tmp_path, seed):
        for name, tensor in counters(seed).items():
            path = str(tmp_path / f"{name}.tsv")
            tensor.save(path)
            assert CooccurrenceTensor.load(path).counts == counted(tensor.counts), name


class TestSerialization:
    def test_round_trip_preserves_everything(self, tmp_path):
        tensor = small_tensor()
        path = str(tmp_path / "t.tsv")
        digest = tensor.save(path)
        loaded = CooccurrenceTensor.load(path)
        assert loaded.counts == counted(tensor.counts)
        assert loaded.total == 2 * tensor.total
        assert loaded.source_hash == digest

    def test_resave_is_byte_identical(self, tmp_path):
        tensor = small_tensor()
        p1, p2 = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        tensor.save(p1)
        CooccurrenceTensor(dict(reversed(tensor.counts.items()))).save(p2)
        for path in (p1, p2):
            assert CooccurrenceTensor.load(path).counts == counted(tensor.counts)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert open(sidecar_path(p1), "rb").read() == open(sidecar_path(p2), "rb").read()

    def test_sidecar_contents(self, tmp_path):
        tensor = small_tensor()
        path = str(tmp_path / "t.tsv")
        digest = tensor.save(path, sidecar={"stage": "test"})
        meta = read_sidecar(sidecar_path(path))
        # the figures of the lines stored, not of the counts load returns, mirrors included
        assert meta["total"] == "3"
        assert meta["entries"] == "2"
        assert len(triples_of(open(path).read())) == 2
        assert meta["format_version"] == FORMAT_VERSION
        assert meta["content_hash"] == digest
        assert meta["stage"] == "test"

    def test_tampering_detected_on_load(self, tmp_path):
        tensor = small_tensor()
        path = str(tmp_path / "t.tsv")
        tensor.save(path)
        body = open(path).read().replace("\t2\n", "\t3\n", 1)
        open(path, "w").write(body)
        with pytest.raises(ConsistencyError):
            CooccurrenceTensor.load(path)

    def test_load_without_sidecar(self, tmp_path):
        tensor = small_tensor()
        path = str(tmp_path / "t.tsv")
        tensor.save(path)
        (tmp_path / "t.tsv.meta").unlink()
        with pytest.raises(CorpusError, match="t.tsv.meta"):
            CooccurrenceTensor.load(path)

    def test_malformed_row_raises(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_body(str(path), "dog-n\tsbj\n")
        with pytest.raises(CorpusError):
            CooccurrenceTensor.load(str(path))

    @pytest.mark.parametrize(
        "body, line",
        [
            ("see-v\tobj\t\ncat-n\t2\ndog-n\tlots\n", 3),
            ("see-v\tsbj\t\ndog-n\t0\n", 2),
            ("see\tsbj\t\ndog-n\t1\n", 1),
            ("dog-n\tsbj\t\nsee-v\t2\nsee-v\t3\n", 3),  # a repeat is refused, not summed
            ("dog-n\tsbj\t\nsee-v\t2\ncat-n\t3\n", 3),
            ("dog-n\t2\nsee-v\tsbj\t\n", 1),
            ("see-v\tobj\t\ncat-n\t1\nsee-v\tobj\t\ndog-n\t1\n", 3),
            ("see-v\tsbj\t\ndog-n\t1\nsee-v\tobj\t\ncat-n\t1\n", 3),
            ("see-v\tsbj\t\ndog-n\t1\ncat-n\tsbj\t\nsee-v\t1\n", 3),
            ("see-v\tsbj\tdog-n\t1\n", 1),  # a version 1 line
            ("see-v\tsbj\tdog-n\n", 1),  # three fields, the last one not empty
            ("see-v\tsbj\t\ndog-n\n", 2),
            ("cat-n\tWINDOW\t\ncat-n\t1\ndog-n\t1\ndog-n\tWINDOW\t\ncat-n\t1\n", 5),
        ],
        ids=[
            "non-integer-count",
            "zero-count",
            "bad-target",
            "repeated-filler",
            "decreasing-filler",
            "entry-before-any-header",
            "repeated-header",
            "decreasing-relation",
            "decreasing-target",
            "four-fields",
            "three-fields",
            "one-field",
            "window-filler-before-its-target",
        ],
    )
    def test_bad_field_in_a_verified_body_names_path_and_line(self, tmp_path, body, line):
        path = str(tmp_path / "t.tsv")
        write_body(path, body)
        with pytest.raises(CorpusError, match=f"t.tsv:{line}:"):
            CooccurrenceTensor.load(path)

    @pytest.mark.parametrize("vocabulary, line", [
        ({"see-v", "dog-n", "cat-n"}, None),
        ({"see-v", "cat-n"}, 3),  # a filler
        ({"dog-n", "cat-n"}, 1),  # a target
    ], ids=["every-token", "filler-outside", "target-outside"])
    def test_a_token_outside_the_vocabulary_names_path_and_line(self, tmp_path, vocabulary, line):
        path = str(tmp_path / "t.tsv")
        CooccurrenceTensor({("see-v", "obj", "cat-n"): 2, ("see-v", "obj", "dog-n"): 1}).save(path)
        assert len(CooccurrenceTensor.load(path)) == 4  # without a vocabulary, any lemma-pos token loads
        if line is None:
            assert CooccurrenceTensor.load(path, frozenset(vocabulary)) == CooccurrenceTensor.load(path)
        else:
            with pytest.raises(CorpusError, match=f"t.tsv:{line}: [a-z]+-[nv] is not a token of the vocabulary$"):
                CooccurrenceTensor.load(path, frozenset(vocabulary))

    def test_a_reversed_window_entry_is_refused_and_a_self_pair_is_not(self, tmp_path):
        path = str(tmp_path / "t.tsv")
        write_artifact(path, "dog-n\tWINDOW\t\ndog-n\t1\n", {"format_version": FORMAT_VERSION,
                                                                   "entries": "1", "total": "1"})
        assert CooccurrenceTensor.load(path).counts == {(DOG, "WINDOW", DOG): 2}
        write_body(path, "dog-n\tWINDOW\t\ncat-n\t1\n")
        with pytest.raises(CorpusError, match="t.tsv:2: WINDOW filler cat-n sorts before its target dog-n"):
            CooccurrenceTensor.load(path)

    @pytest.mark.parametrize("counts", [{(DOG, "WINDOW", CAT): 1}, {(DOG, "WINDOW", DOG): 1, (DOG, "WINDOW", CAT): 1}],
                             ids=["alone", "beside-a-self-pair"])
    def test_a_reversed_window_entry_is_not_saved_and_a_self_pair_is(self, tmp_path, counts):
        # save writes no tensor that load refuses
        path = str(tmp_path / "t.tsv")
        with pytest.raises(ValueError, match=r"WINDOW entry \('dog-n', 'WINDOW', 'cat-n'\) cannot be stored"):
            CooccurrenceTensor(counts).save(path)
        assert os.listdir(tmp_path) == []
        CooccurrenceTensor({(DOG, "WINDOW", DOG): 1, (CAT, "WINDOW", DOG): 1}).save(path)
        assert CooccurrenceTensor.load(path).counts == {(DOG, "WINDOW", DOG): 2, (CAT, "WINDOW", DOG): 1,
                                                        (DOG, "WINDOW", CAT): 1}

    @pytest.mark.parametrize("version", [None, "1", "2", "3"])
    def test_another_format_version_is_stale_before_the_body_is_parsed(self, tmp_path, version):
        path = str(tmp_path / "t.tsv")
        meta = {} if version is None else {"format_version": version}
        write_artifact(path, "see-v\tsbj\tdog-n\t2\n", meta)  # a version 1 line
        held = "records no format version" if version is None else f"has format version {version}"
        stale = f"t.tsv {held}, this argex reads version 4; re-run `argex ingest`$"
        with pytest.raises(StaleArtifactError, match=stale):
            CooccurrenceTensor.load(path)

    def test_a_version_2_tensor_is_stale(self, tmp_path):
        # version 2 stored every count, mirrors included, in the same runs
        path = str(tmp_path / "t.tsv")
        body = "cat-n\tobj_inv\t\nsee-v\t1\ndog-n\tsbj_inv\t\nsee-v\t2\n" + small_tensor().to_tsv()
        write_artifact(path, body, {"format_version": "2", "entries": "4", "total": "6"})
        with pytest.raises(StaleArtifactError, match="t.tsv has format version 2, this argex reads version 4"):
            CooccurrenceTensor.load(path)

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda body: body.replace("see-v\tobj\t\ncat-n\t1\n", ""), "entries is 2, the tensor holds 1"),
            (lambda body: body.replace("dog-n\t2\n", "dog-n\t3\n"), "total is 3, the tensor holds 4"),
        ],
        ids=["entries", "total"],
    )
    def test_sidecar_counts_that_the_body_does_not_hold_are_inconsistent(self, tmp_path, monkeypatch, damage, named):
        def no_mirrors():
            raise AssertionError("a mirror was added before the sidecar's figures were checked")

        monkeypatch.setattr(tensor_module, "_mirror_relations", no_mirrors)
        path = str(tmp_path / "t.tsv")
        small_tensor().save(path)
        (text,), meta = read_artifact([path], sidecar_path(path), FORMAT_VERSION, "ingest")
        del meta["content_hash"]
        write_artifact(path, damage(text), meta)  # re-records content_hash, so the hash check passes
        assert read_artifact([path], sidecar_path(path), FORMAT_VERSION, "ingest")[0] != (text,)
        with pytest.raises(ConsistencyError, match=f"t.tsv.meta: {named}"):
            CooccurrenceTensor.load(path)

    def test_load_records_the_verified_hash(self, tmp_path):
        path = str(tmp_path / "t.tsv")
        digest = small_tensor().save(path)
        assert CooccurrenceTensor.load(path).source_hash == digest

    def test_missing_file_raises(self):
        with pytest.raises(CorpusError):
            CooccurrenceTensor.load("/nonexistent/t.tsv")

    @given(st.dictionaries(observations(), st.integers(min_value=1, max_value=10**12), max_size=30),
           st.randoms(use_true_random=False))
    @example({(SEE, "12", DOG): 1, (SEE, DOG, CAT): 2, (DOG, "sbj_inv", SEE): 3, (SEE, "", CAT): 4}, random.Random(1))
    @example({(SEE, "x", DOG): 1, (DOG, "x_inv", SEE): 2, (SEE, "x_inv_inv", DOG): 3, (DOG, "WINDOW", DOG): 4},
             random.Random(1))
    @settings(max_examples=150, deadline=None)
    def test_any_counts_round_trip_and_resave_byte_identical(self, tmp_path_factory, stored, rng):
        directory = tmp_path_factory.mktemp("round_trip")
        first, second = str(directory / "a.tsv"), str(directory / "b.tsv")
        digest = CooccurrenceTensor(stored).save(first)
        loaded = CooccurrenceTensor.load(first)
        assert loaded.counts == counted(stored) and loaded.source_hash == digest
        meta = read_sidecar(sidecar_path(first))
        with open(first, encoding="utf-8", newline="") as fh:  # a relation label may hold any line break but \n
            counts = [int(line.split("\t")[1]) for line in fh.read().split("\n") if line.count("\t") == 1]
        assert (meta["entries"], meta["total"]) == (str(len(counts)), str(sum(counts)))
        items = list(stored.items())
        rng.shuffle(items)
        assert CooccurrenceTensor(dict(items)).save(second) == digest
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()

    def test_content_hash_ignores_insertion_order(self):
        a = CooccurrenceTensor({(SEE, "sbj", DOG): 1, (SEE, "obj", CAT): 1})
        b = CooccurrenceTensor({(SEE, "obj", CAT): 1, (SEE, "sbj", DOG): 1})
        assert a.content_hash() == b.content_hash()


class TestSidecarIO:
    def test_sidecar_round_trip(self, tmp_path):
        path = str(tmp_path / "x.meta")
        write_sidecar(path, {"b": "2", "a": "1"})
        assert read_sidecar(path) == {"a": "1", "b": "2"}
        assert open(path).read() == "a=1\nb=2\n"

    def test_missing_sidecar(self, tmp_path):
        missing = str(tmp_path / "none.meta")
        with pytest.raises(CorpusError):
            read_sidecar(missing)

    def test_non_utf8_sidecar_names_the_path(self, tmp_path):
        path = str(tmp_path / "x.meta")
        write_sidecar(path, {"a": "1"})
        with open(path, "ab") as fh:
            fh.write(b"\xff")
        with pytest.raises(CorpusError, match="x.meta"):
            read_sidecar(path)

    def test_a_line_without_an_equals_sign_names_its_line(self, tmp_path):
        path = tmp_path / "x.meta"
        path.write_bytes(b"a=1\n\nno sign\nb=2\n")
        with pytest.raises(CorpusError, match=re.escape(f"{path}:3: expected key=value, got 'no sign'")):
            read_sidecar(str(path))

    def test_a_repeated_key_names_its_line(self, tmp_path):
        # a stamp is judged by the one line that holds it, not by whichever of two comes last
        path = tmp_path / "manifest.txt"
        path.write_bytes(b"format_version=6\nspace_hash=aaa\nspace_hash=bbb\n")
        with pytest.raises(CorpusError, match=re.escape(f"{path}:3: repeated key 'space_hash'")):
            read_sidecar(str(path))


class TestArtifactIO:
    def test_hash_is_of_the_bytes_written(self, tmp_path):
        import hashlib

        path = str(tmp_path / "a.tsv")
        digest = write_artifact(path, "x\ty\n", {"stage": "test", "format_version": "1"})
        assert hashlib.sha256(open(path, "rb").read()).hexdigest() == digest
        assert read_artifact([path], sidecar_path(path), "1", "test") == (
            ("x\ty\n",), {"stage": "test", "format_version": "1", "content_hash": digest})

    def test_body_and_sidecar_mix_is_refused(self, tmp_path):
        old, new = str(tmp_path / "old.tsv"), str(tmp_path / "a.tsv")
        write_artifact(old, "old\n", {"format_version": "1"})
        write_artifact(new, "new\n", {"format_version": "1"})
        os.replace(sidecar_path(old), sidecar_path(new))
        with pytest.raises(ConsistencyError, match="a.tsv does not match the content_hash in .*a.tsv.meta"):
            read_artifact([new], sidecar_path(new), "1", "test")

    @pytest.mark.parametrize("meta, held", [({"format_version": "0"}, "has format version 0"),
                                            ({}, "records no format version")])
    def test_another_format_version_is_stale_before_the_bytes_are_checked(self, tmp_path, meta, held):
        path = str(tmp_path / "a.tsv")
        write_artifact(path, "x\n", meta)
        with open(path, "ab") as fh:
            fh.write(b"\xff")  # neither the hash nor UTF-8 any more
        with pytest.raises(StaleArtifactError, match=f"a.tsv {held}, this argex reads version 1; re-run `argex s`$"):
            read_artifact([path], sidecar_path(path), "1", "s")

    @pytest.mark.parametrize("recorded, held", [({"ingest_hash": "old"}, "old"), ({}, "None")])
    def test_a_stamp_is_stale_before_any_byte_of_the_body_is_read(self, tmp_path, monkeypatch, recorded, held):
        from argex import artifacts

        path = str(tmp_path / "a.tsv")
        write_artifact(path, "x\n", {"format_version": "1", **recorded})
        with open(path, "ab") as fh:
            fh.write(b"\xff")  # neither the hash nor UTF-8 any more
        read = []
        real = artifacts.read_bytes
        monkeypatch.setattr(artifacts, "read_bytes", lambda name: read.append(name) or real(name))
        stale = (f"a.tsv was produced under a different configuration (recorded ingest_hash {held}.., expected "
                 "new..); re-run `argex s`")
        with pytest.raises(StaleArtifactError, match=re.escape(stale) + "$"):
            read_artifact([path], sidecar_path(path), "1", "s", {"ingest_hash": ("new", "configuration")})
        assert read == [sidecar_path(path)]

    def test_the_expected_stamps_pass(self, tmp_path):
        path = str(tmp_path / "a.tsv")
        write_artifact(path, "x\n", {"format_version": "1", "ingest_hash": "abc", "vocab_hash": "def"})
        stamps = {"ingest_hash": ("abc", "configuration"), "vocab_hash": ("def", "vocabulary")}
        assert read_artifact([path], sidecar_path(path), "1", "s", stamps)[0] == ("x\n",)

    def test_a_missing_sidecar_names_itself_and_the_stage(self, tmp_path):
        path = str(tmp_path / "a.tsv")
        write_artifact(path, "x\n", {"format_version": "1"})
        os.remove(sidecar_path(path))
        with pytest.raises(CorpusError, match=re.escape(f"{sidecar_path(path)} not found; run `argex s` first")):
            read_artifact([path], sidecar_path(path), "1", "s")

    def test_an_artifact_of_several_bodies_is_named_by_their_directory(self, tmp_path):
        paths = [str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")]
        sidecar = str(tmp_path / "manifest.txt")
        bodies = [b"a\n", b"b\n"]
        write_bodies(paths, bodies, sidecar, {"format_version": "1", "content_hash": sha256(bodies)})
        assert read_artifact(paths, sidecar, "1", "s") == (("a\n", "b\n"), read_sidecar(sidecar))
        write_bodies(paths, bodies, sidecar, {"format_version": "1", "content_hash": sha256(bodies[:1])})
        with pytest.raises(ConsistencyError,
                           match=re.escape(f"{tmp_path} does not match the content_hash in {sidecar}")):
            read_artifact(paths, sidecar, "1", "s")

    def test_interrupted_write_keeps_the_previous_artifact(self, tmp_path, monkeypatch):
        path = str(tmp_path / "t.tsv")
        tensor = small_tensor()
        digest = tensor.save(path)
        bigger = bigger_tensor()

        def crash(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(ConfigError, match=f"cannot write {path}: simulated crash"):
            bigger.save(path)
        monkeypatch.undo()
        assert sorted(os.listdir(tmp_path)) == ["t.tsv", "t.tsv.meta"]
        loaded = CooccurrenceTensor.load(path)
        assert loaded.counts == counted(tensor.counts) and loaded.source_hash == digest

    def test_crash_between_body_and_sidecar_is_detected(self, tmp_path, monkeypatch):
        path = str(tmp_path / "t.tsv")
        small_tensor().save(path)
        bigger = bigger_tensor()
        real_replace = os.replace

        def replace_body_only(src, dst):
            if dst.endswith(".meta"):
                raise OSError("simulated crash before the sidecar")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_body_only)
        with pytest.raises(ConfigError, match=f"cannot write {path}.meta: simulated crash"):
            bigger.save(path)
        monkeypatch.undo()
        with pytest.raises(ConsistencyError):
            CooccurrenceTensor.load(path)
