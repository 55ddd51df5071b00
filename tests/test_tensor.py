import pytest

from argex.errors import ConfigError, ConsistencyError, CorpusError
import os

from argex.tensor import (
    CooccurrenceTensor,
    read_artifact,
    read_sidecar,
    sidecar_path,
    write_artifact,
    write_sidecar,
)

DOG = "dog-n"
CAT = "cat-n"
SEE = "see-v"


def small_tensor() -> CooccurrenceTensor:
    return CooccurrenceTensor({(SEE, "sbj", DOG): 2, (SEE, "obj", CAT): 1, (DOG, "sbj_inv", SEE): 2})


class TestCounting:
    def test_counts_and_marginals_accumulate(self):
        tensor = small_tensor()
        assert tensor.total == 5
        assert tensor.counts.get((SEE, "sbj", DOG), 0) == 2
        assert tensor.counts.get((SEE, "sbj", CAT), 0) == 0
        assert len(tensor) == 3

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

    def test_entries_sorted(self):
        tensor = small_tensor()
        keys = [tuple(line.split("\t")[:3]) for line in tensor.to_tsv().splitlines()]
        assert keys == sorted(tensor.counts)


class TestSerialization:
    def test_round_trip_preserves_everything(self, tmp_path):
        tensor = small_tensor()
        path = str(tmp_path / "t.tsv")
        digest = tensor.save(path)
        loaded = CooccurrenceTensor.load(path)
        assert loaded.counts == tensor.counts
        assert loaded.total == tensor.total
        assert loaded.content_hash() == digest

    def test_resave_is_byte_identical(self, tmp_path):
        tensor = small_tensor()
        p1, p2 = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        tensor.save(p1)
        CooccurrenceTensor.load(p1).save(p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_sidecar_contents(self, tmp_path):
        tensor = small_tensor()
        path = str(tmp_path / "t.tsv")
        digest = tensor.save(path, sidecar={"stage": "test"})
        meta = read_sidecar(sidecar_path(path))
        assert meta["total"] == "5"
        assert meta["entries"] == "3"
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
        write_artifact(str(path), "dog-n\tsbj\n", {})
        with pytest.raises(CorpusError):
            CooccurrenceTensor.load(str(path))

    @pytest.mark.parametrize(
        "body, line",
        [
            ("see-v\tsbj\tdog-n\t2\nsee-v\tobj\tcat-n\tlots\n", 2),
            ("see-v\tsbj\tdog-n\t0\n", 1),
            ("see\tsbj\tdog-n\t1\n", 1),
            ("dog-n\tsbj\tsee-v\t2\ndog-n\tsbj\tsee-v\t3\n", 2),  # a repeat is refused, not summed
        ],
    )
    def test_bad_field_in_a_verified_body_names_path_and_line(self, tmp_path, body, line):
        path = str(tmp_path / "t.tsv")
        write_artifact(path, body, {})
        with pytest.raises(CorpusError, match=f"t.tsv:{line}:"):
            CooccurrenceTensor.load(path)

    def test_load_records_the_verified_hash(self, tmp_path):
        path = str(tmp_path / "t.tsv")
        digest = small_tensor().save(path)
        assert CooccurrenceTensor.load(path).source_hash == digest

    def test_missing_file_raises(self):
        with pytest.raises(CorpusError):
            CooccurrenceTensor.load("/nonexistent/t.tsv")

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


class TestArtifactIO:
    def test_hash_is_of_the_bytes_written(self, tmp_path):
        import hashlib

        path = str(tmp_path / "a.tsv")
        digest = write_artifact(path, "x\ty\n", {"stage": "test"})
        assert hashlib.sha256(open(path, "rb").read()).hexdigest() == digest
        assert read_artifact(path) == ("x\ty\n", {"stage": "test", "content_hash": digest})

    def test_body_and_sidecar_mix_is_refused(self, tmp_path):
        old, new = str(tmp_path / "old.tsv"), str(tmp_path / "a.tsv")
        write_artifact(old, "old\n", {})
        write_artifact(new, "new\n", {})
        os.replace(sidecar_path(old), sidecar_path(new))
        with pytest.raises(ConsistencyError, match="a.tsv"):
            read_artifact(new)

    def test_interrupted_write_keeps_the_previous_artifact(self, tmp_path, monkeypatch):
        path = str(tmp_path / "t.tsv")
        tensor = small_tensor()
        digest = tensor.save(path)
        bigger = small_tensor()
        bigger.counts[(SEE, "obj", DOG)] = 7

        def crash(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(ConfigError, match=f"cannot write {path}: simulated crash"):
            bigger.save(path)
        monkeypatch.undo()
        assert sorted(os.listdir(tmp_path)) == ["t.tsv", "t.tsv.meta"]
        loaded = CooccurrenceTensor.load(path)
        assert loaded.counts == tensor.counts and loaded.source_hash == digest

    def test_crash_between_body_and_sidecar_is_detected(self, tmp_path, monkeypatch):
        path = str(tmp_path / "t.tsv")
        small_tensor().save(path)
        bigger = small_tensor()
        bigger.counts[(SEE, "obj", DOG)] = 7
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
