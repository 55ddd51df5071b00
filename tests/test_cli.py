"""End-to-end CLI runs: stages, guards, exit codes, determinism."""

import contextlib
import fcntl
import functools
import gc
import hashlib
import importlib.util
import io
import itertools
import json
import os
import pathlib
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from argex.artifacts import read_sidecar, sha256, sidecar_path, write_sidecar
from argex import cli
from argex.cli import main
from argex.tensor import CooccurrenceTensor
from argex.tokens import parse_canonical

from conftest import DATA_DIR, REPO_ROOT, blocks, conll_text, record_space_id, targets


@pytest.fixture(scope="module", autouse=True)
def repo_cwd():
    # the checked-in configs use repo-relative data paths
    old = os.getcwd()
    os.chdir(REPO_ROOT)
    yield
    os.chdir(old)


BICKNELL_CONF = "configs/bicknell.conf"
CHOW_CONF = "configs/chow.conf"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def build_out_dir(conf: str, out_dir: str) -> None:
    assert main(["ingest", "-c", conf, "--out-dir", out_dir]) == 0
    assert main(["weight", "-c", conf, "--out-dir", out_dir]) == 0


def hold_lock(lock: str) -> subprocess.Popen:
    """A child that holds ``flock`` on ``lock``, with its pid written there, until it is killed."""
    script = (
        "import fcntl, os, sys\n"
        "fd = os.open(sys.argv[1], os.O_CREAT | os.O_WRONLY)\n"
        "fcntl.flock(fd, fcntl.LOCK_EX)\n"
        "os.write(fd, b'%d\\n' % os.getpid())\n"
        "print('held', flush=True)\n"
        "sys.stdin.read()\n"
    )
    child = subprocess.Popen([sys.executable, "-c", script, lock],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    assert child.stdout.readline() == "held\n"
    return child


def copy_artifacts(src: str, dst: str) -> str:
    shutil.copytree(src, dst, ignore=shutil.ignore_patterns("reports"))
    return dst


def damage_first_line(space: str, name: str, target: str) -> tuple[str, int]:
    """Damage the score on the first line of ``target``'s block in ``space/name`` (``rows.tsv`` or ``arg.tsv``)
    and re-record the space id, so only a read of that block finds the fault; returns (path, line)."""
    path = os.path.join(space, name)
    with open(os.path.join(space, "blocks.tsv"), encoding="utf-8") as fh:
        offsets = next(line.split("\t") for line in fh if line.startswith(f"{target}\t"))
    start = int(offsets[1 if name == "rows.tsv" else 2])
    text = pathlib.Path(path).read_text(encoding="utf-8")
    line = text.count("\n", 0, start)
    lines = text.splitlines(keepends=True)
    middle, score = lines[line].split("\t")
    lines[line] = f"{middle}\t{'x' * (len(score) - 1)}\n"  # the same length: no offset moves
    pathlib.Path(path).write_text("".join(lines), encoding="utf-8")
    record_space_id(space)
    return path, line + 1


# the files of a version-3 or version-4 archive, in the order of the hash their manifest records as space_id
VERSION_4_FILES = ("catalog.tsv", "vocab.tsv", "rows.tsv", "arg.tsv", "blocks.tsv")


def rewrite_as_version_4(space: str) -> list[str]:
    """Rewrite a saved space archive as format version 4 wrote it; returns the texts of its five files.

    Version 4 kept the vocabulary in a ``vocab.tsv`` of its own, listed in
    ``blocks.tsv`` only the targets with lines in ``rows.tsv`` or
    ``arg.tsv``, and hashed the five files.
    """
    texts = []
    for name in ("catalog.tsv", "rows.tsv", "arg.tsv", "blocks.tsv"):
        with open(os.path.join(space, name), encoding="utf-8") as fh:
            texts.append(fh.read())
    catalog, rows, arg, blocks_tsv = texts
    lines = blocks_tsv.splitlines(keepends=True)
    vocab = "".join(line.partition("\t")[0] + "\n" for line in lines)
    # a target whose blocks are empty starts both where the next one does, or at the ends of the files
    ends = [line.split("\t", 1)[1] for line in lines[1:]] + [f"{len(rows)}\t{len(arg)}\n"]
    blocks_tsv = "".join(line for line, end in zip(lines, ends) if line.split("\t", 1)[1] != end)
    texts = [catalog, vocab, rows, arg, blocks_tsv]
    for name, text in zip(VERSION_4_FILES, texts):
        with open(os.path.join(space, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    manifest = os.path.join(space, "manifest.txt")
    recorded = read_sidecar(manifest)
    del recorded["content_hash"]  # versions 3 to 5 recorded the hash as space_id
    write_sidecar(manifest, {**recorded, "format_version": "4",
                             "space_id": hashlib.sha256("".join(texts).encode("utf-8")).hexdigest()})
    return texts


def rewrite_as_version_3(space: str) -> None:
    """Rewrite a saved space archive as format version 3 wrote it.

    Version 3 was version 4 with the target on every ``rows.tsv`` and
    ``arg.tsv`` line and the dimension id on every ``catalog.tsv``
    line, and hashed ``blocks.tsv`` apart from the four files of its
    ``space_id``.
    """
    catalog, vocab, rows, arg, blocks_tsv = rewrite_as_version_4(space)
    catalog = "".join(f"{dim_id}\t{line}\n" for dim_id, line in enumerate(catalog.splitlines()))
    names = [line.partition("\t")[0] for line in blocks_tsv.splitlines()]
    data, starts = [], []
    for data_file in (1, 2):
        block_of = blocks((None, rows, arg, blocks_tsv), data_file)
        parts = ["".join(f"{name}\t{line}" for line in block_of.get(name, "").splitlines(keepends=True))
                 for name in names]
        data.append("".join(parts))
        starts.append(itertools.accumulate(map(len, parts), initial=0))
    blocks_tsv = "".join(f"{name}\t{row}\t{arg}\n" for name, row, arg in zip(names, *starts))
    bodies = [text.encode("utf-8") for text in (catalog, vocab, *data, blocks_tsv)]
    for name, body in zip(VERSION_4_FILES, bodies):
        with open(os.path.join(space, name), "wb") as fh:
            fh.write(body)
    manifest = os.path.join(space, "manifest.txt")
    write_sidecar(manifest, {**read_sidecar(manifest), "format_version": "3",
                             "space_id": hashlib.sha256(b"".join(bodies[:4])).hexdigest(),
                             "blocks_sha256": hashlib.sha256(bodies[4]).hexdigest()})


# the stage that reads each artifact, run against the bicknell fixture
WEIGHT = ("weight",)
FILLERS_DEPS = ("fillers", "--target", "arrest-v", "--slot", "obj")
FILLERS_WINDOW = ("fillers", "--target", "spelling-n", "--slot", "WINDOW")
READER_OF = {
    **{name: WEIGHT for name in (
        "vocab.tsv", "vocab.tsv.meta",
        "deps.tensor.tsv", "deps.tensor.tsv.meta",
        "window.tensor.tsv", "window.tensor.tsv.meta",
    )},
    **{f"deps.space/{name}": FILLERS_DEPS for name in (
        "catalog.tsv", "rows.tsv", "arg.tsv", "blocks.tsv", "manifest.txt",
    )},
    # window.space/arg.tsv is empty: it has no byte to damage
    **{f"window.space/{name}": FILLERS_WINDOW for name in (
        "catalog.tsv", "rows.tsv", "blocks.tsv", "manifest.txt",
    )},
}


@pytest.fixture(scope="module")
def bicknell_out(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("bicknell_out"))
    build_out_dir(BICKNELL_CONF, out)
    return out


@pytest.fixture(scope="module")
def chow_out(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("chow_out"))
    build_out_dir(CHOW_CONF, out)
    return out


class TestStages:
    def test_artifacts_exist_and_lock_released(self, bicknell_out):
        for name in (
            "vocab.tsv",
            "deps.tensor.tsv",
            "window.tensor.tsv",
            "deps.space",
            "window.space",
        ):
            assert os.path.exists(os.path.join(bicknell_out, name)), name
        assert not os.path.exists(os.path.join(bicknell_out, ".lock"))
        # the ARG rankings are stored once, in deps.space/arg.tsv
        assert not os.path.exists(os.path.join(bicknell_out, "arg.weighted.tsv"))

    def test_ingest_prints_each_tensor_sidecar_figures_the_number_and_sum_of_its_lines(self, tmp_path, capsys):
        out = str(tmp_path)
        code, stdout, _ = run_cli(capsys, "ingest", "-c", BICKNELL_CONF, "--out-dir", out)
        assert code == 0
        for label, name in (("dependency tensor", "deps.tensor.tsv"), ("window tensor", "window.tensor.tsv")):
            path = os.path.join(out, name)
            meta = read_sidecar(sidecar_path(path))
            with open(path, encoding="utf-8") as fh:
                counts = [int(line.split("\t")[1]) for line in fh if line.count("\t") == 1]
            assert (meta["format_version"], meta["entries"], meta["total"]) == ("4", str(len(counts)), str(sum(counts)))
            assert f"\n{label}: {meta['entries']} entries, total {meta['total']} -> {path}\n" in stdout

    def test_weight_reads_no_row_back_and_prints_the_archive_counts(self, tmp_path, monkeypatch, capsys):
        from argex import space as space_module
        from argex.space import load_space

        out = str(tmp_path)
        assert run_cli(capsys, "ingest", "-c", BICKNELL_CONF, "--out-dir", out)[0] == 0

        def no_check(paths, texts):
            raise AssertionError("the archive was read")

        monkeypatch.setattr(space_module, "_read_blocks", no_check)
        code, stdout, _ = run_cli(capsys, "weight", "-c", BICKNELL_CONF, "--out-dir", out)
        monkeypatch.undo()
        assert code == 0
        for name, directory in (("dependency", "deps.space"), ("window", "window.space")):
            space = load_space(os.path.join(out, directory))
            n_targets, n_dims = len(targets(space)), len(space.catalog)
            counts = f"{name} space: {n_targets} targets, {n_dims} dims, id {space.space_id[:12]}"
            assert counts in stdout
        with open(os.path.join(out, "deps.space", "arg.tsv"), encoding="utf-8") as fh:
            n_arg = len(fh.readlines())
        assert n_arg > 0
        deps_dir = os.path.join(out, "deps.space")
        assert stdout.splitlines()[2] == f"argument rankings (collapsed): {n_arg} entries -> {deps_dir}"

    def test_fillers_prints_ranked_listing(self, bicknell_out, capsys):
        code, out, _ = run_cli(
            capsys,
            "fillers", "-c", BICKNELL_CONF, "--out-dir", bicknell_out,
            "--target", "arrest-v", "--slot", "obj", "--k", "3",
        )
        assert code == 0
        assert out.startswith("arrest-v/obj: ")
        assert "burglar-n" in out

    def test_fillers_window_slot_auto_selects_window_space(self, bicknell_out, capsys):
        code, out, _ = run_cli(
            capsys,
            "fillers", "-c", BICKNELL_CONF, "--out-dir", bicknell_out,
            "--target", "spelling-n", "--slot", "WINDOW",
        )
        assert code == 0
        assert out.startswith("spelling-n/WINDOW: ")

    def test_fillers_empty_slot(self, bicknell_out, capsys):
        code, out, _ = run_cli(
            capsys,
            "fillers", "-c", BICKNELL_CONF, "--out-dir", bicknell_out,
            "--target", "journalist-n", "--slot", "obj",
        )
        assert code == 0
        assert "(no fillers)" in out

    def test_fillers_empty_ranking_under_a_relation_of_the_space_prints_no_fillers(self, bicknell_out, capsys):
        # sbj_inv is a relation of the space, but a verb never heads one
        code, out, err = run_cli(
            capsys,
            "fillers", "-c", BICKNELL_CONF, "--out-dir", bicknell_out,
            "--target", "arrest-v", "--slot", "sbj_inv",
        )
        assert code == 0
        assert out == "arrest-v/sbj_inv: (no fillers)\n"
        assert "sbj_inv" not in err

    def test_fillers_slot_naming_no_relation_exits_2(self, bicknell_out, capsys):
        code, out, err = run_cli(
            capsys,
            "fillers", "-c", BICKNELL_CONF, "--out-dir", bicknell_out,
            "--target", "arrest-v", "--slot", "obk",
        )
        assert code == 2
        assert f"--slot=obk names no relation of the space {os.path.join(bicknell_out, 'deps.space')}" in err
        assert out == ""

    def test_fillers_shortfall_goes_to_stderr(self, bicknell_out, capsys):
        code, out, err = run_cli(
            capsys,
            "fillers", "-c", BICKNELL_CONF, "--out-dir", bicknell_out,
            "--target", "arrest-v", "--slot", "obj", "--k", "500",
        )
        assert code == 0
        assert "only" in err and "500" in err
        assert "only" not in out

    def test_eval_writes_report_files(self, bicknell_out, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "-c", BICKNELL_CONF, "--out-dir", bicknell_out,
            "--task", "bicknell-acc2", "--kind", "deps", "--k", "20",
        )
        assert code == 0
        assert "bicknell-acc2 deps-sum-k20 accuracy 1.000 (10/10 correct" in out
        base = os.path.join(bicknell_out, "reports", "bicknell-acc2.deps-sum-k20")
        with open(base + ".json", encoding="utf-8") as fh:
            data = json.load(fh)
        assert data["accuracy"] == 1.0
        assert set(data["provenance"]) == {"config_hash", "space_hash", "space_id", "dataset"}
        with open(base + ".items.csv", encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "item_id,condition,score,degenerate"
        assert len(lines) == 21

    def test_eval_defaults_to_first_configured_k(self, bicknell_out, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "-c", BICKNELL_CONF, "--out-dir", bicknell_out,
            "--task", "bicknell-acc2", "--kind", "deps",
        )
        assert code == 0
        assert "deps-sum-k10" in out

    def test_eval_k_list_writes_sweep_csv(self, bicknell_out, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "-c", BICKNELL_CONF, "--out-dir", bicknell_out,
            "--task", "bicknell-acc2", "--kind", "deps", "--k", "10,20",
        )
        assert code == 0
        assert out.count("bicknell-acc2 deps-sum-k") == 2
        sweep = os.path.join(
            bicknell_out, "reports", "bicknell-acc2.deps-sum.k_sweep.csv"
        )
        with open(sweep, encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0].startswith("k,task,kind,composition")
        assert len(lines) == 3

    def test_eval_rerun_is_byte_identical(self, bicknell_out, capsys):
        argv = (
            "eval", "-c", BICKNELL_CONF, "--out-dir", bicknell_out,
            "--task", "bicknell-acc2", "--kind", "deps", "--k", "20",
        )
        path = os.path.join(
            bicknell_out, "reports", "bicknell-acc2.deps-sum-k20.json"
        )
        assert run_cli(capsys, *argv)[0] == 0
        first = open(path, "rb").read()
        assert run_cli(capsys, *argv)[0] == 0
        assert open(path, "rb").read() == first

    def test_eval_reports_honest_failure_counts(self, bicknell_out, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "-c", BICKNELL_CONF, "--out-dir", bicknell_out,
            "--task", "bicknell-acc2", "--kind", "boa", "--k", "20",
        )
        assert code == 0
        assert "accuracy n/a (0/0 correct" in out
        path = os.path.join(bicknell_out, "reports", "bicknell-acc2.boa-sum-k20.json")
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        assert data["counts"]["n_failed"] == 10
        assert data["accuracy"] is None

    def test_chow_unstructured_eval_is_annotated(self, chow_out, capsys):
        code, out, err = run_cli(
            capsys,
            "eval", "-c", CHOW_CONF, "--out-dir", chow_out,
            "--task", "chow", "--kind", "bow", "--k", "20",
        )
        assert code == 0
        assert out.strip().endswith("[all ties]")
        assert "provably tied" in err

    def test_report_prints_accuracy_table(self, bicknell_out, capsys):
        for kind in ("deps", "boa"):
            assert run_cli(
                capsys,
                "eval", "-c", BICKNELL_CONF, "--out-dir", bicknell_out,
                "--task", "bicknell-acc2", "--kind", kind, "--k", "20",
            )[0] == 0
        code, out, _ = run_cli(
            capsys, "report", "-c", BICKNELL_CONF, "--out-dir", bicknell_out
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("task")
        deps_row = next(l for l in lines[1:] if " deps " in l)
        assert "1.000" in deps_row and "100%" in deps_row
        boa_row = next(l for l in lines if " boa " in l)
        assert "n/a" in boa_row

    def test_report_shows_all_ties_note(self, chow_out, capsys):
        assert run_cli(
            capsys,
            "eval", "-c", CHOW_CONF, "--out-dir", chow_out,
            "--task", "chow", "--kind", "bow", "--k", "20",
        )[0] == 0
        code, out, _ = run_cli(capsys, "report", "-c", CHOW_CONF, "--out-dir", chow_out)
        assert code == 0
        bow_row = next(l for l in out.split("\n") if " bow " in l)
        assert "(all ties)" in bow_row

    def test_failed_report_write_keeps_the_previous_report(
        self, bicknell_out, tmp_path, capsys, monkeypatch
    ):
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        argv = ["eval", "-c", BICKNELL_CONF, "--out-dir", out,
                "--task", "bicknell-acc2", "--kind", "deps", "--k", "20"]
        assert run_cli(capsys, *argv)[0] == 0
        path = os.path.join(out, "reports", "bicknell-acc2.deps-sum-k20.json")
        previous = open(path, "rb").read()
        # a dataset at another path changes the report's provenance
        dataset = shutil.copy("data/synthetic/bicknell_acc2.tsv", str(tmp_path / "acc2.tsv"))
        real_replace = os.replace

        def crash_at_report(src, dst):
            if dst == path:
                raise OSError("simulated crash")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", crash_at_report)
        code, _, err = run_cli(capsys, *argv, "--dataset", dataset)
        monkeypatch.undo()
        assert code == 2
        assert f"cannot write {path}: simulated crash" in err
        assert open(path, "rb").read() == previous
        assert not [n for n in os.listdir(os.path.dirname(path)) if n.endswith(".tmp")]
        assert run_cli(capsys, *argv, "--dataset", dataset)[0] == 0
        assert open(path, "rb").read() != previous

    def test_report_on_empty_directory(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "report", "-c", BICKNELL_CONF, "--out-dir", str(tmp_path)
        )
        assert code == 0
        assert out.startswith("no reports under")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda report: '{"task": "chow", "variant": {',
            lambda report: report.replace('"accuracy": 1.0', '"accuracy": "high"'),
            lambda report: report.replace('"k": 10', '"k": true'),
            lambda report: report.replace('"all_ties": false', '"all_ties": "no"'),
            lambda report: "[]",
            lambda report: "[" * 200000,
        ],
        ids=["truncated", "accuracy-string", "k-bool", "all-ties-string", "not-an-object", "deep-nesting"],
    )
    def test_report_on_damaged_json_exits_4_naming_the_file(self, tmp_path, capsys, edit):
        reports = tmp_path / "reports"
        reports.mkdir()
        damaged = reports / "chow.deps-sum-k10.json"
        report = json.dumps({
            "task": "chow", "variant": {"kind": "deps", "k": 10, "composition": "sum"},
            "accuracy": 1.0, "coverage": 1.0, "counts": {"n_ties": 0}, "all_ties": False,
        })
        damaged.write_text(report, encoding="utf-8")
        assert run_cli(capsys, "report", "-c", CHOW_CONF, "--out-dir", str(tmp_path))[0] == 0
        edited = edit(report)
        assert edited != report
        damaged.write_text(edited, encoding="utf-8")
        code, out, err = run_cli(
            capsys, "report", "-c", CHOW_CONF, "--out-dir", str(tmp_path)
        )
        assert code == 4
        assert str(damaged) in err
        assert "Traceback" not in err

    def test_report_reads_an_out_dir_whose_name_is_a_glob_pattern_as_a_path(self, tmp_path, capsys):
        # as a pattern, `out[1]` names `out1` and `o*` names `oa` too
        report = json.dumps({
            "task": "chow", "variant": {"kind": "deps", "k": 10, "composition": "sum"},
            "accuracy": 1.0, "coverage": 1.0, "counts": {"n_ties": 0}, "all_ties": False,
        })
        for name in ("out[1]", "oa", "o*"):
            (tmp_path / name / "reports").mkdir(parents=True)
        for name in ("out[1]", "oa"):
            (tmp_path / name / "reports" / "chow.deps-sum-k10.json").write_text(report, encoding="utf-8")
        code, out, _ = run_cli(capsys, "report", "-c", CHOW_CONF, "--out-dir", str(tmp_path / "out[1]"))
        assert code == 0
        assert out.split("\n")[1].split() == ["chow", "deps", "sum", "10", "1.000", "100%", "0"]
        code, out, _ = run_cli(capsys, "report", "-c", CHOW_CONF, "--out-dir", str(tmp_path / "o*"))
        assert code == 0
        assert out == f"no reports under {tmp_path / 'o*' / 'reports'}\n"

    def test_report_it_cannot_open_exits_2_naming_the_file(self, tmp_path, capsys):
        unreadable = tmp_path / "reports" / "bad.json"
        unreadable.mkdir(parents=True)
        code, _, err = run_cli(capsys, "report", "-c", CHOW_CONF, "--out-dir", str(tmp_path))
        assert code == 2
        assert str(unreadable) in err
        assert "Traceback" not in err

    def test_hyphenated_lemmas_end_to_end(self, tmp_path, capsys):
        # lemmas split on their last hyphen; read-v and read-out-n sort one way
        # as Tokens and the other as canonical strings
        sentences = [
            [("doctor", "NN", 2, "sbj"), ("re-read", "VB", 0, "root"), ("x-ray", "NN", 2, "obj")],
            [("nurse", "NN", 2, "sbj"), ("read", "VB", 0, "root"), ("read-out", "NN", 2, "obj")],
            [("nurse", "NN", 2, "sbj"), ("read", "VB", 0, "root"), ("chart", "NN", 2, "obj")],
        ] * 2
        corpus = tmp_path / "hyphens.conll"
        corpus.write_text(conll_text(sentences), encoding="utf-8")
        conf = tmp_path / "hyphens.conf"
        conf.write_text(f"corpus_paths={corpus}\nvocab_threshold=1\n", encoding="utf-8")
        out = str(tmp_path / "out")
        base = ("-c", str(conf), "--out-dir", out)
        assert run_cli(capsys, "ingest", *base)[0] == 0
        assert run_cli(capsys, "weight", *base)[0] == 0

        path = os.path.join(out, "deps.tensor.tsv")
        tensor = open(path, encoding="utf-8").read()
        assert tensor.startswith("doctor-n\tVERB\t\nx-ray-n\t2\n")
        # the inverse link is a mirror: counted, not stored
        assert "_inv" not in tensor
        assert CooccurrenceTensor.load(path).counts[("x-ray-n", "VERB_inv", "doctor-n")] == 2
        for probe, listing in (
            (("--target", "re-read-v", "--slot", "obj"), "re-read-v/obj: x-ray-n\n"),
            (("--target", "x-ray-n", "--slot", "obj_inv"), "x-ray-n/obj_inv: re-read-v\n"),
            (("--target", "nurse-n", "--slot", "VERB"), "nurse-n/VERB: chart-n, read-out-n\n"),
        ):
            code, printed, _ = run_cli(capsys, "fillers", *base, *probe)
            assert (code, printed) == (0, listing)

        for name in ("deps.tensor.tsv", "window.tensor.tsv", "vocab.tsv"):
            lines = open(os.path.join(out, name), encoding="utf-8").read().splitlines()
            keys = []
            for fields in (line.split("\t") for line in lines):
                if len(fields) == 3:  # a tensor run's (target, relation) header
                    head = fields[:2]
                else:
                    keys.append([*head, fields[0]] if name.endswith("tensor.tsv") else fields[:1])
            assert keys == sorted(keys), name
            # every field but a tensor key's relation is a token
            as_tokens = [[field if i == 1 else parse_canonical(field) for i, field in enumerate(key)] for key in keys]
            # the deps tensor stores no run that holds both read-out-n and read-v: their runs are mirrors
            if name != "deps.tensor.tsv":
                assert as_tokens != sorted(as_tokens), name

    def test_sweep_covers_the_configured_grid(self, chow_out, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "-c", CHOW_CONF, "--out-dir", chow_out,
            "--set", "k_values=10,20",
        )
        assert code == 0
        summary_lines = [l for l in out.strip().split("\n") if l.startswith("chow ")]
        assert len(summary_lines) == 12  # 3 kinds x 2 compositions x 2 ks
        sweep = os.path.join(chow_out, "reports", "chow.sweep.csv")
        with open(sweep, encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        assert len(lines) == 13


class TestGuards:
    @pytest.mark.parametrize(
        "argv, named",
        [
            (("sweep", "--set", "k_values=10,10", "--set", "compositions=sum"), "k_values repeats 10"),
            (("sweep", "--set", "variant_kinds=deps,DEPS", "--set", "k_values=10,10"), "variant_kinds repeats 'deps'"),
            (("sweep", "--set", "compositions=sum,mult,sum"), "compositions repeats 'sum'"),
            (("eval", "--task", "chow", "--kind", "deps", "--k", "10,10"), "--k repeats 10"),
        ],
        ids=["sweep-k", "sweep-kind", "sweep-composition", "eval-k"],
    )
    def test_repeated_grid_entry_exits_2_and_writes_no_report(self, chow_out, tmp_path, capsys, argv, named):
        out = copy_artifacts(chow_out, str(tmp_path / "out"))
        code, stdout, err = run_cli(capsys, argv[0], "-c", CHOW_CONF, "--out-dir", out, *argv[1:])
        assert code == 2
        assert named in err
        assert stdout == ""
        assert not os.path.exists(os.path.join(out, "reports"))

    @pytest.mark.parametrize("key, task", [
        ("bicknell_agent_slot", "bicknell-acc2"),
        ("bicknell_verb_slot", "bicknell-acc1"),
        ("chow_agent_slot", "chow"),
        ("chow_patient_slot", "chow"),
    ])
    def test_an_empty_slot_setting_exits_2_and_writes_no_report(self, bicknell_out, chow_out, tmp_path, capsys,
                                                                 key, task):
        conf, built = (CHOW_CONF, chow_out) if task == "chow" else (BICKNELL_CONF, bicknell_out)
        out = copy_artifacts(built, str(tmp_path / "out"))
        argv = ("eval", "-c", conf, "--out-dir", out, "--task", task, "--kind", "deps", "--k", "10")
        assert run_cli(capsys, *argv)[0] == 0
        before = reports_snapshot(out)
        code, stdout, err = run_cli(capsys, *argv, "--set", f"{key}=")
        assert code == 2
        assert f"{key} must be non-empty" in err
        assert stdout == ""
        assert reports_snapshot(out) == before

    @pytest.mark.parametrize("key, task", [
        ("bicknell_agent_slot", "bicknell-acc2"),
        ("bicknell_verb_slot", "bicknell-acc1"),
        ("chow_agent_slot", "chow"),
        ("chow_patient_slot", "chow"),
    ])
    def test_a_slot_setting_naming_no_relation_exits_2_and_writes_no_report(
        self, bicknell_out, chow_out, tmp_path, capsys, key, task
    ):
        conf, built = (CHOW_CONF, chow_out) if task == "chow" else (BICKNELL_CONF, bicknell_out)
        out = copy_artifacts(built, str(tmp_path / "out"))
        argv = ("eval", "-c", conf, "--out-dir", out, "--task", task, "--kind", "deps", "--k", "10")
        assert run_cli(capsys, *argv)[0] == 0
        before = reports_snapshot(out)
        code, stdout, err = run_cli(capsys, *argv, "--set", f"{key}=obk")
        assert code == 2
        assert f"{key}=obk names no relation of the space {os.path.join(out, 'deps.space')}" in err
        assert stdout == ""
        assert reports_snapshot(out) == before

    def test_an_empty_ranking_under_a_relation_of_the_space_stays_a_skipped_item(self, bicknell_out, tmp_path, capsys):
        # no agent noun has an obj filler, but obj is a relation of the space
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        code, _, _ = run_cli(capsys, "eval", "-c", BICKNELL_CONF, "--out-dir", out, "--task", "bicknell-acc2",
                             "--kind", "deps", "--k", "10", "--set", "bicknell_agent_slot=obj")
        assert code == 0
        with open(os.path.join(out, "reports", "bicknell-acc2.deps-sum-k10.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["counts"]["n_failed"] == 10
        assert {item["reason"].partition(":")[0] for item in report["skipped"]} == {"empty prototype"}

    def test_weight_before_ingest(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "weight", "-c", BICKNELL_CONF, "--out-dir", str(tmp_path)
        )
        assert code == 2
        assert "run `argex ingest`" in err

    def test_stale_tensor_refused(self, tmp_path, capsys):
        out = str(tmp_path)
        assert run_cli(capsys, "ingest", "-c", BICKNELL_CONF, "--out-dir", out)[0] == 0
        code, _, err = run_cli(
            capsys,
            "weight", "-c", BICKNELL_CONF, "--out-dir", out,
            "--set", "vocab_threshold=4",
        )
        assert code == 2
        assert "different configuration" in err
        assert run_cli(capsys, "weight", "-c", BICKNELL_CONF, "--out-dir", out)[0] == 0

    def test_tensors_of_another_ingest_than_the_vocabulary_are_refused(self, tmp_path, capsys, monkeypatch):
        # ingest, halve the corpus in place, then crash the next ingest as it would replace deps.tensor.tsv:
        # its vocabulary is then beside the first run's tensors, under the same ingest_hash
        corpus = tmp_path / "corpus.conll"
        text = open(os.path.join(DATA_DIR, "corpus_bicknell.conll"), encoding="utf-8").read()
        corpus.write_text(text, encoding="utf-8")
        out = str(tmp_path / "out")
        base = ("-c", BICKNELL_CONF, "--out-dir", out, "--set", f"corpus_paths={corpus}")
        assert run_cli(capsys, "ingest", *base)[0] == 0
        sentences = text.split("\n\n")
        corpus.write_text("\n\n".join(sentences[: len(sentences) // 2]) + "\n\n", encoding="utf-8")
        vocab_before = (tmp_path / "out" / "vocab.tsv").read_bytes()
        real_replace = os.replace

        def crash_at_deps_tensor(src, dst):
            if dst.endswith("deps.tensor.tsv"):
                raise OSError("simulated crash")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", crash_at_deps_tensor)
        assert run_cli(capsys, "ingest", *base)[0] == 2
        monkeypatch.undo()
        assert (tmp_path / "out" / "vocab.tsv").read_bytes() != vocab_before
        code, _, err = run_cli(capsys, "weight", *base)
        assert code == 2
        assert os.path.join(out, "deps.tensor.tsv") in err and os.path.join(out, "vocab.tsv") in err
        assert "re-run `argex ingest`" in err
        assert not os.path.exists(os.path.join(out, "deps.space"))
        assert run_cli(capsys, "ingest", *base)[0] == 0
        assert run_cli(capsys, "weight", *base)[0] == 0

    @pytest.mark.parametrize("label", ["WINDOW", "VERB", "ARG"])
    def test_a_corpus_relation_with_a_label_argex_makes_is_refused_unless_denied(self, tmp_path, capsys, label):
        sentence = [("dog", "NN", 2, "sbj"), ("see", "VB", 0, "root"), ("cat", "NN", 2, label)]
        corpus = tmp_path / "labelled.conll"
        corpus.write_text(conll_text([sentence] * 2), encoding="utf-8")
        out = str(tmp_path / "out")
        base = ("-c", BICKNELL_CONF, "--out-dir", out, "--set", f"corpus_paths={corpus}", "--set", "vocab_threshold=1")
        code, _, err = run_cli(capsys, "ingest", *base)
        assert code == 2
        assert f"labelled {label}" in err and "relation_denylist" in err
        assert not os.path.exists(out) or os.listdir(out) == []
        assert run_cli(capsys, "ingest", *base, "--set", f"relation_denylist={label}")[0] == 0
        assert run_cli(capsys, "weight", *base, "--set", f"relation_denylist={label}")[0] == 0
        code, printed, _ = run_cli(capsys, "fillers", *base, "--set", f"relation_denylist={label}",
                                   "--target", "see-v", "--slot", "WINDOW")
        assert (code, printed) == (0, "see-v/WINDOW: cat-n, dog-n\n")

    def test_stale_space_refused_at_eval(self, tmp_path, capsys):
        out = str(tmp_path)
        build_out_dir(BICKNELL_CONF, out)
        code, _, err = run_cli(
            capsys,
            "eval", "-c", BICKNELL_CONF, "--out-dir", out,
            "--task", "bicknell-acc2", "--kind", "deps", "--k", "10",
            "--set", "boa_rank_mode=max",
        )
        assert code == 2
        assert "re-run `argex weight`" in err

    @pytest.mark.parametrize("argv", [FILLERS_DEPS, ("eval", "--task", "bicknell-acc2", "--kind", "deps"), ("sweep",)],
                             ids=["fillers", "eval", "sweep"])
    def test_a_space_stale_by_config_and_damaged_is_stale(self, bicknell_out, tmp_path, capsys, argv):
        # the stamps are checked before the bytes, so the message names the stage to re-run
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        rows = pathlib.Path(out, "deps.space", "rows.tsv")
        raw = bytearray(rows.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        rows.write_bytes(raw)
        code, stdout, err = run_cli(capsys, *argv, "-c", BICKNELL_CONF, "--out-dir", out,
                                    "--set", "boa_rank_mode=max")
        assert (code, stdout) == (2, "")
        assert f"error: {os.path.join(out, 'deps.space')} was produced under a different configuration" in err
        assert err.endswith("re-run `argex weight`\n")
        assert not os.path.exists(os.path.join(out, "reports"))

    def test_tampered_tensor_exits_4(self, tmp_path, capsys):
        out = str(tmp_path)
        assert run_cli(capsys, "ingest", "-c", BICKNELL_CONF, "--out-dir", out)[0] == 0
        path = os.path.join(out, "deps.tensor.tsv")
        lines = open(path, encoding="utf-8").read().split("\n")
        row = lines[1].split("\t")  # line 1 is the first run's header, line 2 its first entry
        row[-1] = str(int(row[-1]) + 1)
        lines[1] = "\t".join(row)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines))
        code, _, err = run_cli(capsys, "weight", "-c", BICKNELL_CONF, "--out-dir", out)
        assert code == 4
        assert "internal consistency" in err

    @pytest.mark.parametrize("version", [None, "3"])
    def test_tensor_sidecar_of_another_format_version_is_stale(self, bicknell_out, tmp_path, capsys, version):
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        path = os.path.join(out, "deps.tensor.tsv")
        recorded = read_sidecar(sidecar_path(path))
        del recorded["format_version"]
        if version:  # format 3 stored these runs, but its sidecar sized the counts load returns, mirrors included
            loaded = CooccurrenceTensor.load(path)
            recorded.update(format_version=version, entries=str(len(loaded)), total=str(loaded.total))
        write_sidecar(sidecar_path(path), recorded)
        code, _, err = run_cli(capsys, "weight", "-c", BICKNELL_CONF, "--out-dir", out)
        assert code == 2
        assert path in err
        assert "re-run `argex ingest`" in err

    def test_a_stale_and_damaged_tensor_is_stale(self, bicknell_out, tmp_path, capsys):
        # the format version is checked before the bytes, so the message names the stage to re-run
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        path = os.path.join(out, "deps.tensor.tsv")
        write_sidecar(sidecar_path(path), {**read_sidecar(sidecar_path(path)), "format_version": "3"})
        with open(path, "ab") as fh:
            fh.write(b"x")
        code, _, err = run_cli(capsys, "weight", "-c", BICKNELL_CONF, "--out-dir", out)
        assert code == 2
        assert f"{path} has format version 3, this argex reads version 4; re-run `argex ingest`" in err

    def test_a_vocabulary_sidecar_without_a_format_version_is_stale(self, bicknell_out, tmp_path, capsys):
        # as every vocab.tsv.meta written before vocabulary format 1 is
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        path = os.path.join(out, "vocab.tsv")
        recorded = read_sidecar(sidecar_path(path))
        del recorded["format_version"]
        write_sidecar(sidecar_path(path), recorded)
        before = spaces_snapshot(out)
        code, stdout, err = run_cli(capsys, "weight", "-c", BICKNELL_CONF, "--out-dir", out)
        assert (code, stdout) == (2, "")
        assert f"{path} records no format version, this argex reads version 1; re-run `argex ingest`" in err
        assert spaces_snapshot(out) == before

    @pytest.mark.parametrize(
        "figures, named",
        [
            (lambda recorded, loaded: {"total": str(int(recorded["total"]) + 1)}, "total"),
            # the figures a format-3 sidecar held: those of the counts load returns, mirrors included
            (lambda recorded, loaded: {"entries": str(len(loaded)), "total": str(loaded.total)}, "entries"),
        ],
        ids=["total-plus-one", "mirrored"],
    )
    def test_tensor_sidecar_figures_the_body_does_not_hold_exit_4(self, bicknell_out, tmp_path, capsys, figures, named):
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        path = os.path.join(out, "window.tensor.tsv")
        recorded = read_sidecar(sidecar_path(path))  # its content_hash still matches the body
        write_sidecar(sidecar_path(path), {**recorded, **figures(recorded, CooccurrenceTensor.load(path))})
        code, _, err = run_cli(capsys, "weight", "-c", BICKNELL_CONF, "--out-dir", out)
        assert code == 4
        assert f"{sidecar_path(path)}: {named} is" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, damage, code, named",
        [
            ("deps.space/catalog.tsv", lambda b: b + b"junk\n", 4, "deps.space"),
            # an x after the first entry's count, on line 2 (line 1 is a header)
            ("deps.tensor.tsv", lambda b: b.replace(b"\n", b"x\n", 2).replace(b"x\n", b"\n", 1), 4,
             "deps.tensor.tsv"),
            ("deps.tensor.tsv.meta", lambda b: b + b"\xff", 2, "deps.tensor.tsv.meta"),
            ("deps.space/manifest.txt", lambda b: b + b"\xff", 2, "deps.space/manifest.txt"),
        ],
        ids=[
            "junk-catalog-line",
            "non-integer-count",
            "non-utf8-sidecar",
            "non-utf8-manifest",
        ],
    )
    def test_damaged_artifact_is_a_typed_error_naming_the_path(
        self, bicknell_out, tmp_path, capsys, name, damage, code, named
    ):
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        path = os.path.join(out, name)
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(damage(raw))
        result, _, err = run_cli(capsys, *READER_OF[name], "-c", BICKNELL_CONF, "--out-dir", out)
        assert result == code
        assert os.path.join(out, named) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("version", ["1", "2", "3", "4", "5", "7"])
    def test_other_archive_format_version_refused(self, bicknell_out, tmp_path, capsys, version):
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        manifest = os.path.join(out, "deps.space", "manifest.txt")
        if version in ("2", "3"):  # a real archive of that version
            rewrite_as_version_3(os.path.join(out, "deps.space"))
        elif version == "4":
            rewrite_as_version_4(os.path.join(out, "deps.space"))
        elif version == "5":  # version 5 stored the same files, and recorded their hash as space_id
            recorded = read_sidecar(manifest)
            recorded["space_id"] = recorded.pop("content_hash")
            write_sidecar(manifest, recorded)
        recorded = {**read_sidecar(manifest), "format_version": version}
        if version == "2":  # version 2 had no blocks.tsv
            os.remove(os.path.join(out, "deps.space", "blocks.tsv"))
            del recorded["blocks_sha256"]
        write_sidecar(manifest, recorded)
        code, _, err = run_cli(capsys, *FILLERS_DEPS, "-c", BICKNELL_CONF, "--out-dir", out)
        assert code == 2
        assert os.path.join(out, "deps.space") in err
        assert "re-run `argex weight`" in err

    # each case takes the blocks.tsv lines, split into [target, rows.tsv offset, arg.tsv offset], and the
    # size of arg.tsv; it gives the edited lines and the fault, which names blocks.tsv
    @pytest.mark.parametrize("case", [
        lambda lines, size: ([[lines[0][0], lines[1][1], lines[0][2]], *lines[1:]],
                             f"blocks.tsv:1: rows.tsv offset {lines[1][1]} leaves a gap before it"),
        lambda lines, size: ([*lines[:2], [lines[2][0], "0", lines[2][2]], *lines[3:]],
                             "blocks.tsv:3: rows.tsv offset 0 is before the block above it"),
        lambda lines, size: ([lines[0], [lines[1][0], str(int(lines[1][1]) + 1), lines[1][2]], *lines[2:]],
                             f"blocks.tsv:2: rows.tsv offset {int(lines[1][1]) + 1} is not at a line start"),
        lambda lines, size: ([*lines[:-1], [*lines[-1][:2], str(size + 1)]],
                             f"blocks.tsv:{len(lines)}: arg.tsv offset {size + 1} is past its end, {size}"),
        lambda lines, size: ([lines[1], lines[0], *lines[2:]],
                             f"blocks.tsv:2: target {lines[0][0]} does not sort after {lines[1][0]}"),
        lambda lines, size: ([["airplane", *lines[0][1:]], *lines[1:]], "blocks.tsv:1: "),
        lambda lines, size: ([lines[0][:2], *lines[1:]], "blocks.tsv:1: expected target, offset, offset"),
        lambda lines, size: ([], "blocks.tsv: lists no target, but rows.tsv is not empty"),
    ], ids=["gap", "overlap", "not-at-a-line-start", "past-the-end", "target-out-of-order", "bad-token",
            "two-fields", "no-target"])
    def test_a_fault_in_blocks_tsv_exits_4_at_load_naming_its_line(self, bicknell_out, tmp_path, capsys, case):
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        space = os.path.join(out, "deps.space")
        with open(os.path.join(space, "blocks.tsv"), encoding="utf-8") as fh:
            lines = [line.split("\t") for line in fh.read().splitlines()]
        edited, fault = case(lines, os.path.getsize(os.path.join(space, "arg.tsv")))
        body = "".join("\t".join(fields) + "\n" for fields in edited).encode("utf-8")
        with open(os.path.join(space, "blocks.tsv"), "wb") as fh:
            fh.write(body)
        record_space_id(space)
        code, stdout, err = run_cli(capsys, *FILLERS_DEPS, "-c", BICKNELL_CONF, "--out-dir", out)
        assert code == 4
        assert os.path.join(space, fault) in err
        assert stdout == ""

    def test_a_blocks_tsv_that_fails_the_space_id_exits_4_naming_the_archive(self, bicknell_out, tmp_path, capsys):
        # the space id, the manifest's content_hash, covers blocks.tsv with the other three files
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        space = os.path.join(out, "deps.space")
        with open(os.path.join(space, "blocks.tsv"), "a", encoding="utf-8") as fh:
            fh.write("zebra-n\t0\t0\n")
        code, stdout, err = run_cli(capsys, *FILLERS_DEPS, "-c", BICKNELL_CONF, "--out-dir", out)
        assert code == 4
        assert f"{space} does not match the content_hash in {os.path.join(space, 'manifest.txt')}" in err
        assert stdout == ""

    @pytest.mark.parametrize("name, slot, layout", [("rows.tsv", "obj", "dimension id, score"),
                                                    ("arg.tsv", "ARG", "filler, score")])
    def test_a_damaged_block_fails_only_its_own_target(self, bicknell_out, tmp_path, capsys, name, slot, layout):
        # the archive is hash-valid: load passes, and only a read of the damaged block finds the fault
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        space = os.path.join(out, "deps.space")
        other = ("fillers", "--target", "treat-v", "--slot", slot, "-c", BICKNELL_CONF, "--out-dir", out)
        expected = run_cli(capsys, *other)
        assert expected[0] == 0 and expected[1].startswith(f"treat-v/{slot}: ")
        path, line = damage_first_line(space, name, "arrest-v")
        assert run_cli(capsys, *other) == expected
        code, stdout, err = run_cli(capsys, "fillers", "--target", "arrest-v", "--slot", slot,
                                    "-c", BICKNELL_CONF, "--out-dir", out)
        assert code == 2
        assert f"{path}:{line}: expected {layout}, got " in err
        assert stdout == ""

    @pytest.mark.parametrize("name", ["deps.tensor.tsv", "window.tensor.tsv"], ids=["deps", "window"])
    def test_a_tensor_token_outside_the_vocabulary_exits_2_naming_its_line_and_writes_no_space(
            self, bicknell_out, tmp_path, capsys, name):
        # the tensor is hash-valid and in order, and zzzz-n is lemma-pos: only the vocabulary refuses it
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        before = spaces_snapshot(out)
        path, line = rename_last_filler(os.path.join(out, name), "thief-n", "zzzz-n")
        code, stdout, err = run_cli(capsys, "weight", "-c", BICKNELL_CONF, "--out-dir", out)
        assert (code, stdout) == (2, "")
        assert err.endswith(f"error: {path}:{line}: zzzz-n is not a token of the vocabulary\n")
        assert spaces_snapshot(out) == before
        assert not os.path.exists(os.path.join(out, ".lock"))

    # the first catalog.tsv line is pilot-n's VERB filler; the first arg.tsv line is arrest-v's first ARG filler
    @pytest.mark.parametrize("name, old, new, fillers", [
        ("catalog.tsv", "airplane-n", "aaa-n", ("--target", "pilot-n", "--slot", "VERB")),
        ("arg.tsv", "burglar-n", "aaaaaaa-n", ("--target", "arrest-v", "--slot", "ARG")),
    ], ids=["catalog", "arg"])
    def test_a_filler_that_is_not_a_target_exits_2_naming_its_line_and_writes_no_report(
            self, bicknell_out, tmp_path, capsys, name, old, new, fillers):
        # a prototype sums its fillers' rows, so every filler must be a target of blocks.tsv; the damaged
        # filler is lemma-pos and the archive hash-valid, so only a read of that line finds the fault
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        sweep = ("sweep", "-c", BICKNELL_CONF, "--out-dir", out)
        assert run_cli(capsys, *sweep)[0] == 0
        before = reports_snapshot(out)
        space = os.path.join(out, "deps.space")
        path = os.path.join(space, name)
        first, rest = pathlib.Path(path).read_text(encoding="utf-8").split("\n", 1)
        assert old in first.split("\t")
        pathlib.Path(path).write_text(f"{first.replace(old, new)}\n{rest}", encoding="utf-8")
        record_space_id(space)
        with open(os.path.join(space, "blocks.tsv"), encoding="utf-8") as fh:
            assert f"\n{new}\t" not in "\n" + fh.read()
        for argv in (("fillers", *fillers, "-c", BICKNELL_CONF, "--out-dir", out), sweep):
            code, stdout, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert f"error: {path}:1: filler {new} is not a target of blocks.tsv\n" in err
            assert stdout == ""
        assert reports_snapshot(out) == before

    @pytest.mark.parametrize("argv, read, kind", [
        (FILLERS_DEPS, "deps.space", "dependency"),
        (FILLERS_WINDOW, "window.space", "window"),
        (("eval", "--task", "bicknell-acc1", "--kind", "deps", "--k", "10"), "deps.space", "dependency"),
        (("eval", "--task", "bicknell-acc1", "--kind", "bow", "--k", "10"), "window.space", "window"),
    ], ids=["fillers-deps", "fillers-window", "eval-deps", "eval-bow"])
    def test_swapped_spaces_exit_4_naming_the_directory(self, bicknell_out, tmp_path, capsys, argv, read, kind):
        # both archives carry the same space_hash: only the manifest's kind tells them apart
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        deps, window = os.path.join(out, "deps.space"), os.path.join(out, "window.space")
        os.rename(deps, deps + ".swap")
        os.rename(window, deps)
        os.rename(deps + ".swap", window)
        code, stdout, err = run_cli(capsys, *argv, "-c", BICKNELL_CONF, "--out-dir", out)
        other = "window" if kind == "dependency" else "dependency"
        assert code == 4
        assert f"space archive {os.path.join(out, read)} is of kind {other!r}, expected {kind!r}" in err
        assert stdout == ""
        assert not os.path.exists(os.path.join(out, "reports"))

    @pytest.mark.parametrize("key", ["n_targets", "n_dims", "n_vocab"])
    def test_a_manifest_count_the_archive_does_not_hold_exits_4_naming_the_manifest(
        self, bicknell_out, tmp_path, capsys, key
    ):
        # space_id covers the data files, not the manifest
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        manifest = os.path.join(out, "deps.space", "manifest.txt")
        recorded = read_sidecar(manifest)
        held = int(recorded[key])
        write_sidecar(manifest, {**recorded, key: str(held + 1)})
        code, stdout, err = run_cli(capsys, *FILLERS_DEPS, "-c", BICKNELL_CONF, "--out-dir", out)
        assert code == 4
        assert f"{manifest}: {key} is {held + 1}, the archive holds {held}" in err
        assert stdout == ""

    def test_locked_directory_refused_and_lock_kept(self, tmp_path, capsys):
        out = str(tmp_path)
        lock = os.path.join(out, ".lock")
        fd = os.open(lock, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)  # another open file: the stage cannot take it
            code, _, err = run_cli(capsys, "ingest", "-c", BICKNELL_CONF, "--out-dir", out)
            assert code == 2
            assert "locked" in err
            assert os.path.exists(lock)  # not ours to remove
        finally:
            os.close(fd)
        assert run_cli(capsys, "ingest", "-c", BICKNELL_CONF, "--out-dir", out)[0] == 0
        assert not os.path.exists(lock)

    def test_lock_of_a_dead_process_is_reclaimed(self, tmp_path, capsys):
        out = str(tmp_path)
        lock = os.path.join(out, ".lock")
        child = hold_lock(lock)
        child.kill()  # SIGKILL: the kernel drops its lock, and its file stays
        child.communicate()  # reaps it and closes its pipes
        assert os.path.exists(lock)
        code, _, err = run_cli(capsys, "ingest", "-c", BICKNELL_CONF, "--out-dir", out)
        assert code == 0
        assert "stale" not in err
        assert not os.path.exists(lock)
        assert os.path.exists(os.path.join(out, "deps.tensor.tsv"))

    def test_lock_of_a_live_process_is_kept(self, tmp_path, capsys):
        out = str(tmp_path)
        lock = os.path.join(out, ".lock")
        child = hold_lock(lock)
        try:
            before = os.stat(lock)
            code, _, err = run_cli(capsys, "ingest", "-c", BICKNELL_CONF, "--out-dir", out)
            assert code == 2
            assert "locked" in err and "stale" not in err
            assert os.path.samestat(os.stat(lock), before)
            with open(lock) as fh:
                assert fh.read() == f"{child.pid}\n"
            with open(lock) as fh, pytest.raises(BlockingIOError):
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)  # the child holds it still
            assert not os.path.exists(os.path.join(out, "deps.tensor.tsv"))
        finally:
            child.kill()
            child.communicate()  # reaps it and closes its pipes

    def test_lock_on_a_file_its_holder_unlinked_is_refused(self, tmp_path, capsys, monkeypatch):
        # the holder unlinks .lock and lets go between this stage's open and its flock
        out = str(tmp_path)
        lock = os.path.join(out, ".lock")
        flock = fcntl.flock

        def flock_after_unlink(fd, operation):
            os.unlink(lock)
            return flock(fd, operation)

        monkeypatch.setattr(fcntl, "flock", flock_after_unlink)
        code, _, err = run_cli(capsys, "ingest", "-c", BICKNELL_CONF, "--out-dir", out)
        assert code == 2
        assert "locked by another stage" in err
        assert not os.path.exists(os.path.join(out, "deps.tensor.tsv"))

    def test_lock_file_naming_a_live_pid_without_a_lock_does_not_block(self, tmp_path, capsys):
        # a pid file left by a killed run, whose pid a live process now has
        out = str(tmp_path)
        lock = os.path.join(out, ".lock")
        with open(lock, "w") as fh:
            fh.write(f"{os.getpid()}\n")
        code, _, err = run_cli(capsys, "ingest", "-c", BICKNELL_CONF, "--out-dir", out)
        assert (code, err.count("locked")) == (0, 0)
        assert not os.path.exists(lock)
        assert os.path.exists(os.path.join(out, "deps.tensor.tsv"))

    def test_lock_that_is_a_directory_exits_2_naming_it(self, tmp_path, capsys):
        out = str(tmp_path)
        lock = os.path.join(out, ".lock")
        os.mkdir(lock)
        code, _, err = run_cli(capsys, "ingest", "-c", BICKNELL_CONF, "--out-dir", out)
        assert code == 2
        assert f"cannot lock {lock}" in err
        assert os.path.isdir(lock)
        assert not os.path.exists(os.path.join(out, "deps.tensor.tsv"))

    def test_lock_that_is_a_fifo_exits_2_without_waiting(self, tmp_path):
        out = str(tmp_path)
        lock = os.path.join(out, ".lock")
        os.mkfifo(lock)
        # a child with a timeout, so that an open waiting for a reader fails the test instead of hanging it
        src = os.path.join(REPO_ROOT, "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = [sys.executable, "-m", "argex.cli", "ingest", "-c", BICKNELL_CONF, "--out-dir", out]
        result = subprocess.run(argv, cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 2
        assert f"cannot lock {lock}" in result.stderr

    def test_empty_corpus_paths(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "ingest", "-c", BICKNELL_CONF, "--out-dir", str(tmp_path),
            "--set", "corpus_paths=",
        )
        assert code == 2
        assert "nothing to ingest" in err

    def test_missing_corpus_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "ingest", "-c", BICKNELL_CONF, "--out-dir", str(tmp_path),
            "--set", "corpus_paths=no_such.conll",
        )
        assert code == 2

    def test_missing_dataset_file(self, bicknell_out, capsys):
        code, _, err = run_cli(
            capsys,
            "eval", "-c", BICKNELL_CONF, "--out-dir", bicknell_out,
            "--task", "bicknell-acc2", "--kind", "deps",
            "--dataset", "no_such.tsv",
        )
        assert code == 2

    @pytest.mark.parametrize("task, body", [
        ("bicknell-acc2", "item_id\tagent_congruent\tagent_incongruent\tverb\tpatient\nb1\tcop-n\n"),
        ("chow", "item_id\tverb\tnoun1\tnoun2\nc1\tarrest-v\tcop-n\tcrook\n"),
    ], ids=["bicknell", "chow"])
    def test_dataset_error_names_the_file_and_line(self, bicknell_out, tmp_path, capsys, task, body):
        dataset = tmp_path / "items.tsv"
        dataset.write_text(body, encoding="utf-8")
        code, out, err = run_cli(
            capsys,
            "eval", "-c", BICKNELL_CONF, "--out-dir", bicknell_out,
            "--task", task, "--kind", "deps", "--dataset", str(dataset),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {dataset} line 2: ")

    def test_bad_set_syntax(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "report", "-c", BICKNELL_CONF, "--out-dir", str(tmp_path),
            "--set", "vocab_threshold",
        )
        assert code == 2
        assert "KEY=VALUE" in err

    def test_unknown_config_key(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "report", "-c", BICKNELL_CONF, "--out-dir", str(tmp_path),
            "--set", "no_such_key=1",
        )
        assert code == 2
        assert "unknown config key" in err

    def test_bad_k_flag(self, bicknell_out, capsys):
        code, _, err = run_cli(
            capsys,
            "eval", "-c", BICKNELL_CONF, "--out-dir", bicknell_out,
            "--task", "chow", "--kind", "deps", "--k", "ten",
        )
        assert code == 2

    def test_fillers_oov_target(self, bicknell_out, capsys):
        code, _, err = run_cli(
            capsys,
            "fillers", "-c", BICKNELL_CONF, "--out-dir", bicknell_out,
            "--target", "zzzz-n", "--slot", "obj",
        )
        assert code == 3
        assert "error:" in err

    def test_fillers_bad_target_syntax(self, bicknell_out, capsys):
        code, _, err = run_cli(
            capsys,
            "fillers", "-c", BICKNELL_CONF, "--out-dir", bicknell_out,
            "--target", "steal", "--slot", "obj",
        )
        assert code == 2

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_fillers_k_below_one_is_refused_before_loading(self, tmp_path, capsys, k):
        # tmp_path holds no space archive: the flag is refused before any load
        code, out, err = run_cli(
            capsys,
            "fillers", "-c", BICKNELL_CONF, "--out-dir", str(tmp_path),
            "--target", "arrest-v", "--slot", "obj", "--k", k,
        )
        assert code == 2
        assert "--k" in err and "argex weight" not in err and "Traceback" not in err
        assert out == ""


    @pytest.mark.parametrize("slot", [" obj", "obj ", "\tobj"])
    def test_fillers_slot_is_stripped_as_config_strings_are(self, bicknell_out, capsys, slot):
        expected = run_cli(capsys, *FILLERS_DEPS, "-c", BICKNELL_CONF, "--out-dir", bicknell_out)
        assert expected[1].startswith("arrest-v/obj: ") and "(no fillers)" not in expected[1]
        result = run_cli(capsys, "fillers", "--target", "arrest-v", "--slot", slot,
                         "-c", BICKNELL_CONF, "--out-dir", bicknell_out)
        assert result == expected

    def test_fillers_empty_slot_is_refused_before_loading(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys,
            "fillers", "-c", BICKNELL_CONF, "--out-dir", str(tmp_path),
            "--target", "arrest-v", "--slot", "",
        )
        assert code == 2
        assert "--slot must be non-empty" in err and "argex weight" not in err
        assert out == ""


def reports_snapshot(out_dir: str) -> dict[str, bytes]:
    """Every file under ``out_dir/reports`` with its bytes."""
    return {path.name: path.read_bytes() for path in sorted(pathlib.Path(out_dir, "reports").iterdir())}


def spaces_snapshot(out_dir: str) -> dict[str, bytes]:
    """Every file of ``out_dir``'s two space archives with its bytes."""
    return {f"{space}/{path.name}": path.read_bytes()
            for space in ("deps.space", "window.space") for path in sorted(pathlib.Path(out_dir, space).iterdir())}


def rename_last_filler(path: str, old: str, new: str) -> tuple[str, int]:
    """Rename the filler ``old`` of the first run it ends in a count tensor to ``new``, which must sort after it,
    and re-record the content hash; returns (path, line)."""
    lines = pathlib.Path(path).read_text(encoding="utf-8").split("\n")
    # a run ends where the next header starts: three fields, the last empty
    line = next(i for i, (text, after) in enumerate(zip(lines, lines[1:])) if text.startswith(f"{old}\t")
                and (not after or after.endswith("\t")))
    lines[line] = lines[line].replace(old, new)
    body = "\n".join(lines).encode("utf-8")
    pathlib.Path(path).write_bytes(body)
    write_sidecar(sidecar_path(path), {**read_sidecar(sidecar_path(path)), "content_hash": sha256([body])})
    return path, line + 1


class TestInputBoundary:
    """What the user hands in ends in a typed error naming it, never a traceback or a hang."""

    def test_config_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys):
        conf = tmp_path / "latin1.conf"
        conf.write_bytes(b"vocab_threshold=3\nchow_path=caf\xe9.tsv\n")
        code, _, err = run_cli(capsys, "ingest", "-c", str(conf), "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert f"config {conf} is not UTF-8 text" in err
        assert "Traceback" not in err

    def test_config_with_a_nul_byte_exits_2_naming_its_line(self, tmp_path, capsys):
        conf = tmp_path / "nul.conf"
        conf.write_bytes(b"vocab_threshold=3\ncorpus_paths=data/synthetic/corpus\x00bicknell.conll\n")
        code, _, err = run_cli(capsys, "ingest", "-c", str(conf), "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert f"{conf} line 2: NUL byte" in err
        assert "Traceback" not in err

    def test_out_dir_under_a_regular_file_exits_2_naming_it(self, tmp_path, capsys):
        plain = tmp_path / "plain"
        plain.write_text("not a directory\n", encoding="utf-8")
        out = str(plain / "out")
        code, _, err = run_cli(capsys, "ingest", "-c", BICKNELL_CONF, "--out-dir", out)
        assert code == 2
        assert f"cannot create output directory {out}" in err

    @pytest.mark.parametrize("argv", [WEIGHT, ("eval", "--task", "bicknell-acc2", "--kind", "deps"), ("sweep",)],
                             ids=["weight", "eval", "sweep"])
    def test_a_stage_after_ingest_on_a_missing_out_dir_exits_2_and_creates_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *argv, "-c", BICKNELL_CONF, "--out-dir", str(out))
        assert (code, stdout) == (2, "")
        assert f"error: output directory {out} not found; run `argex ingest` first\n" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [WEIGHT, ("eval", "--task", "bicknell-acc2", "--kind", "deps"), ("sweep",)],
                             ids=["weight", "eval", "sweep"])
    def test_a_stage_after_ingest_on_an_out_dir_that_is_a_file_exits_2_naming_it(self, tmp_path, capsys, argv):
        plain = tmp_path / "plain"
        plain.write_text("not a directory\n", encoding="utf-8")
        code, stdout, err = run_cli(capsys, *argv, "-c", BICKNELL_CONF, "--out-dir", str(plain))
        assert (code, stdout) == (2, "")
        assert f"error: output directory {plain} is not a directory\n" in err
        assert plain.read_text(encoding="utf-8") == "not a directory\n"
        assert list(tmp_path.iterdir()) == [plain]

    @pytest.mark.parametrize("name, kept", [("deps.space", "window.space"), ("window.space", "deps.space")])
    def test_a_file_at_a_space_directory_exits_2_naming_it(self, bicknell_out, tmp_path, capsys, name, kept):
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        shutil.rmtree(os.path.join(out, name))
        plain = pathlib.Path(out, name)
        plain.write_text("not a directory\n", encoding="utf-8")
        before = {path.name: path.read_bytes() for path in pathlib.Path(out, kept).iterdir()}
        code, _, err = run_cli(capsys, "weight", "-c", BICKNELL_CONF, "--out-dir", out)
        assert code == 2
        assert f"cannot create output directory {plain}" in err
        assert "Traceback" not in err
        # neither space is written
        assert {path.name: path.read_bytes() for path in pathlib.Path(out, kept).iterdir()} == before
        assert plain.read_text(encoding="utf-8") == "not a directory\n"
        assert not os.path.exists(os.path.join(out, ".lock"))

    @pytest.mark.parametrize("argv", [
        ("eval", "--task", "bicknell-acc2", "--kind", "deps"),
        ("sweep",),
    ])
    def test_a_file_at_reports_exits_2_naming_it(self, bicknell_out, tmp_path, capsys, argv):
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        plain = pathlib.Path(out, "reports")
        plain.write_text("not a directory\n", encoding="utf-8")
        code, stdout, err = run_cli(capsys, *argv, "-c", BICKNELL_CONF, "--out-dir", out)
        assert (code, stdout) == (2, "")
        assert f"cannot create output directory {plain}" in err
        assert "Traceback" not in err
        assert plain.read_text(encoding="utf-8") == "not a directory\n"
        assert not os.path.exists(os.path.join(out, ".lock"))

    @pytest.mark.parametrize("argv, artifact", [
        (("ingest",), "vocab.tsv"),
        (("weight",), "deps.space/rows.tsv"),
        (("sweep",), "reports/bicknell-acc1.deps-sum-k10.json"),
    ])
    def test_a_directory_at_an_artifact_file_exits_2_naming_it(self, bicknell_out, tmp_path, capsys, argv, artifact):
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        blocked = pathlib.Path(out, artifact)
        if blocked.exists():
            blocked.unlink()
        blocked.mkdir(parents=True)
        code, _, err = run_cli(capsys, *argv, "-c", BICKNELL_CONF, "--out-dir", out)
        assert code == 2
        assert f"cannot write {blocked}:" in err
        assert "Traceback" not in err
        assert blocked.is_dir()
        assert not [path for path in pathlib.Path(out).rglob("*.tmp")]
        assert not os.path.exists(os.path.join(out, ".lock"))

    @pytest.mark.parametrize("k", ["0", "10,0"])
    def test_eval_k_below_1_is_refused_before_any_load(self, tmp_path, capsys, k):
        out = str(tmp_path / "empty")
        code, _, err = run_cli(capsys, "eval", "-c", BICKNELL_CONF, "--out-dir", out,
                               "--task", "bicknell-acc2", "--kind", "deps", "--k", k)
        assert code == 2
        assert "--k must be >= 1, got 0" in err
        assert "loading" not in err

    def test_empty_out_dir_flag_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "report", "-c", BICKNELL_CONF, "--out-dir", "")
        assert (code, out) == (2, "")
        assert "out_dir must be non-empty" in err

    def test_empty_out_dir_variable_is_refused(self, capsys, monkeypatch):
        monkeypatch.setenv("ARGEX_OUT_DIR", "")
        code, out, err = run_cli(capsys, "report", "-c", BICKNELL_CONF)
        assert (code, out) == (2, "")
        assert "out_dir must be non-empty" in err

    def test_vocab_threshold_above_every_count_keeps_the_previous_tensors(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run_cli(capsys, "ingest", "-c", BICKNELL_CONF, "--out-dir", out)[0] == 0
        names = ("vocab.tsv", "deps.tensor.tsv", "window.tensor.tsv")
        names += tuple(name + ".meta" for name in names)
        before = {name: (tmp_path / "out" / name).read_bytes() for name in names}
        code, _, err = run_cli(
            capsys, "ingest", "-c", BICKNELL_CONF, "--out-dir", out, "--set", "vocab_threshold=100000"
        )
        assert code == 2
        assert "vocab_threshold=100000" in err
        assert {name: (tmp_path / "out" / name).read_bytes() for name in names} == before
        assert not os.path.exists(os.path.join(out, ".lock"))

    def test_window_width_past_every_sentence_costs_no_time(self, tmp_path, capsys):
        wide = str(tmp_path / "wide")
        assert run_cli(
            capsys, "ingest", "-c", BICKNELL_CONF, "--out-dir", wide, "--set", "window_width=2000"
        )[0] == 0
        # a child with a timeout, so that a walk over every offset fails the test instead of hanging it
        huge = str(tmp_path / "huge")
        src = os.path.join(REPO_ROOT, "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = [sys.executable, "-m", "argex.cli", "ingest", "-c", BICKNELL_CONF, "--out-dir", huge,
                "--set", "window_width=100000000"]
        result = subprocess.run(argv, cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        # the bodies only: the sidecars' ingest_hash covers the width
        body = pathlib.Path(wide, "window.tensor.tsv").read_bytes()
        assert body and pathlib.Path(huge, "window.tensor.tsv").read_bytes() == body


class TestReportRunner:
    """``eval`` and ``sweep`` score every cell before they write any report."""

    def test_sweep_with_a_broken_second_dataset_writes_nothing(self, bicknell_out, tmp_path, capsys):
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        # reports whose provenance names another acc1 path: a rewrite would change their bytes
        acc1 = shutil.copy("data/synthetic/bicknell_acc1.tsv", str(tmp_path / "acc1.tsv"))
        assert run_cli(capsys, "sweep", "-c", BICKNELL_CONF, "--out-dir", out,
                       "--set", f"bicknell_acc1_path={acc1}")[0] == 0
        before = reports_snapshot(out)
        broken = tmp_path / "acc2.tsv"
        broken.write_text("item_id\tagent\n", encoding="utf-8")
        code, stdout, err = run_cli(capsys, "sweep", "-c", BICKNELL_CONF, "--out-dir", out,
                                    "--set", f"bicknell_acc2_path={broken}")
        assert code == 2
        assert f"{broken} line 1: unrecognized header" in err
        assert stdout == ""
        assert reports_snapshot(out) == before
        assert not os.path.exists(os.path.join(out, ".lock"))

    @pytest.mark.parametrize("task, header", [
        ("bicknell-acc1", "item_id agent verb patient_congruent patient_incongruent or "
                          "item_id agent_congruent agent_incongruent verb patient"),
        ("chow", "item_id verb noun1 noun2"),
    ], ids=["bicknell", "chow"])
    @pytest.mark.parametrize("body", ["", "\n \n\t\n"], ids=["no-bytes", "blank-lines"])
    def test_an_empty_dataset_is_refused_and_writes_nothing(self, bicknell_out, tmp_path, capsys, task, header, body):
        # a truncated or wrongly copied file must not pass as a task of no items
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        dataset = tmp_path / "items.tsv"
        dataset.write_text(body, encoding="utf-8")
        code, stdout, err = run_cli(capsys, "eval", "-c", BICKNELL_CONF, "--out-dir", out,
                                    "--task", task, "--kind", "deps", "--dataset", str(dataset))
        assert code == 2
        assert err == f"error: dataset {dataset} is empty; expected the header {header}\n"
        assert stdout == ""
        assert not os.path.exists(os.path.join(out, "reports"))

    @pytest.mark.parametrize("argv", [
        ("sweep",),
        ("eval", "--task", "chow", "--kind", "deps", "--k", "10"),
    ], ids=["sweep", "eval"])
    def test_a_cell_that_fails_to_score_writes_nothing(self, chow_out, tmp_path, capsys, argv):
        out = copy_artifacts(chow_out, str(tmp_path / "out"))
        grid = ("--set", "variant_kinds=boa,deps", "--set", "k_values=10")
        assert run_cli(capsys, "sweep", "-c", CHOW_CONF, "--out-dir", out, *grid)[0] == 0
        before = reports_snapshot(out)
        # boa scores under any slot; deps, the second kind, refuses a WINDOW slot
        code, stdout, err = run_cli(capsys, argv[0], "-c", CHOW_CONF, "--out-dir", out, *argv[1:],
                                    *grid, "--set", "chow_agent_slot=WINDOW")
        assert code == 2
        assert "DEPS queries need a dependency relation" in err
        assert stdout == ""
        assert reports_snapshot(out) == before
        assert not os.path.exists(os.path.join(out, ".lock"))

    def test_eval_of_one_cell_writes_the_bytes_the_sweep_writes(self, chow_out, tmp_path, capsys):
        swept = copy_artifacts(chow_out, str(tmp_path / "swept"))
        evaluated = copy_artifacts(chow_out, str(tmp_path / "evaluated"))
        assert run_cli(capsys, "sweep", "-c", CHOW_CONF, "--out-dir", swept)[0] == 0
        code, out, _ = run_cli(capsys, "eval", "-c", CHOW_CONF, "--out-dir", evaluated,
                               "--task", "chow", "--kind", "deps", "--composition", "sum", "--k", "20")
        assert (code, out.count("\n")) == (0, 1)
        written = reports_snapshot(evaluated)
        assert sorted(written) == ["chow.deps-sum-k20.items.csv", "chow.deps-sum-k20.json"]
        sweep_reports = reports_snapshot(swept)
        for name, data in written.items():
            assert data == sweep_reports[name], name


class TestImportSet:
    def test_fillers_imports_no_parsing_counting_or_scoring_module(self, bicknell_out):
        argv = ["fillers", "-c", BICKNELL_CONF, "--out-dir", bicknell_out,
                "--target", "arrest-v", "--slot", "obj", "--k", "3"]
        script = (
            "import sys\n"
            "from argex.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, *sorted(name for name in sys.modules if name.startswith('argex.') or name == 'fcntl'))\n"
        )
        src = os.path.join(REPO_ROOT, "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run([sys.executable, "-c", script], cwd=REPO_ROOT, env=env,
                                capture_output=True, text=True, check=True)
        code, *modules = result.stdout.split("\n")[-2].split()
        assert code == "0"
        assert "argex.space" in modules
        # fillers takes no lock, so it needs no fcntl either
        unused = {"argex.conll", "argex.corpus", "argex.datasets", "argex.evaluation",
                  "argex.expectation", "argex.stats", "argex.tensor", "argex.weighting", "fcntl"}
        assert unused.isdisjoint(modules), sorted(unused.intersection(modules))

    @pytest.mark.parametrize("argv", [["eval", "--task", "bicknell-acc1", "--kind", "boa", "--k", "10"], ["sweep"]],
                             ids=["eval", "sweep"])
    def test_scoring_imports_no_parsing_counting_or_weighting_module(self, bicknell_out, tmp_path, argv):
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        script = (
            "import sys\n"
            "from argex.cli import main\n"
            f"code = main({argv + ['-c', BICKNELL_CONF, '--out-dir', out]!r})\n"
            "print(code, *sorted(name for name in sys.modules if name.startswith('argex.')))\n"
        )
        result = subprocess.run([sys.executable, "-c", script], cwd=REPO_ROOT, env=child_env(),
                                capture_output=True, text=True, check=True)
        code, *modules = result.stdout.split("\n")[-2].split()
        assert code == "0"
        assert {"argex.artifacts", "argex.evaluation", "argex.space"} <= set(modules)
        unused = {"argex.conll", "argex.corpus", "argex.tensor", "argex.weighting"}
        assert unused.isdisjoint(modules), sorted(unused.intersection(modules))

    def test_core_modules_import_neither_dataclasses_nor_inspect(self):
        # every argex module, in a child process: pytest has imported both already
        modules = sorted(name[:-3] for name in os.listdir(os.path.join(REPO_ROOT, "src", "argex"))
                         if name.endswith(".py") and name != "__init__.py")
        assert {"cli", "conll", "corpus", "datasets", "evaluation", "expectation", "space", "weighting"} <= set(modules)
        script = (
            "import importlib, sys\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module('argex.' + name)\n"
            "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], cwd=REPO_ROOT, env=child_env(),
                                capture_output=True, text=True, check=True)
        assert result.stdout == "False False\n"

    def test_no_command_imports_dataclasses_or_inspect(self, tmp_path):
        out = str(tmp_path / "out")
        commands = [
            ["ingest"], ["weight"], ["fillers", "--target", "arrest-v", "--slot", "obj"],
            ["eval", "--task", "bicknell-acc1", "--kind", "boa", "--k", "10"], ["sweep"], ["report"],
        ]
        script = (
            "import sys\n"
            "from argex.cli import main\n"
            f"for argv in {commands!r}:\n"
            f"    code = main(argv + ['-c', {BICKNELL_CONF!r}, '--out-dir', {out!r}])\n"
            "    print('after', argv[0], code, 'dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], cwd=REPO_ROOT, env=child_env(),
                                capture_output=True, text=True, check=True)
        after = [line for line in result.stdout.splitlines() if line.startswith("after ")]
        assert after == [f"after {argv[0]} 0 False False" for argv in commands]


def child_env() -> dict[str, str]:
    src = os.path.join(REPO_ROOT, "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


class TestProcessEntry:
    """``python -m argex.cli`` and the ``argex`` script run with cyclic GC off, freeze the heap as they exit, and die
    of ``SIGPIPE`` on a closed stdout; ``main`` does none of these."""

    def test_main_in_process_leaves_the_gc_as_it_was(self, bicknell_out, tmp_path, capsys):
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        was = gc.isenabled()
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                before = (enabled, gc.get_freeze_count())
                for argv in (("ingest",), ("weight",), FILLERS_DEPS, ("fillers", "--target", "zzzz-n", "--slot", "obj"),
                             ("sweep",), ("report",)):
                    run_cli(capsys, *argv, "-c", BICKNELL_CONF, "--out-dir", out)
                    assert (gc.isenabled(), gc.get_freeze_count()) == before, argv
        finally:
            (gc.enable if was else gc.disable)()

    def test_main_in_process_leaves_sigpipe_as_it_was(self, bicknell_out, capsys):
        before = signal.getsignal(signal.SIGPIPE)
        for argv in (FILLERS_DEPS, ("report",)):
            run_cli(capsys, *argv, "-c", BICKNELL_CONF, "--out-dir", bicknell_out)
            assert signal.getsignal(signal.SIGPIPE) == before

    def test_a_closed_stdout_ends_a_stage_by_sigpipe_without_a_traceback(self, chow_out, tmp_path, capsys):
        # nothing reads stdout: the sweep writes every report, lets go of its lock, then dies of SIGPIPE as it
        # prints its summary; report dies as it prints its table
        out = copy_artifacts(chow_out, str(tmp_path / "out"))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            for stage in ("sweep", "report"):
                result = subprocess.run([sys.executable, "-m", "argex.cli", stage, "-c", CHOW_CONF, "--out-dir", out],
                                        cwd=REPO_ROOT, env=child_env(), stdout=write_end, stderr=subprocess.PIPE,
                                        text=True)
                assert result.returncode == -signal.SIGPIPE, result.stderr
                assert "Traceback" not in result.stderr and "BrokenPipeError" not in result.stderr
                assert not os.path.exists(os.path.join(out, ".lock"))
        finally:
            os.close(write_end)
        expected = copy_artifacts(chow_out, str(tmp_path / "expected"))
        assert run_cli(capsys, "sweep", "-c", CHOW_CONF, "--out-dir", expected)[0] == 0
        assert reports_snapshot(out) == reports_snapshot(expected)

    def test_the_console_script_is_the_entry(self):
        with open(os.path.join(REPO_ROOT, "pyproject.toml"), encoding="utf-8") as fh:
            assert 'argex = "argex.cli:entry"' in fh.read().splitlines()

    @pytest.mark.parametrize("run", [
        "import runpy; runpy.run_module('argex.cli', run_name='__main__')",
        "from argex.cli import entry; entry()",
    ], ids=["python-m", "console-script"])
    def test_each_entry_freezes_the_heap_on_the_way_out(self, bicknell_out, run):
        # main runs with cyclic GC off while it loads the space; atexit handlers run after the entry has returned
        argv = ["argex", *FILLERS_DEPS, "-c", BICKNELL_CONF, "--out-dir", bicknell_out]
        script = (
            "import atexit, gc, sys\n"
            "from argex import space\n"
            "real = space.load_space\n"
            "space.load_space = lambda *args: print('running', gc.isenabled(), file=sys.stderr) or real(*args)\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, gc.isenabled(), file=sys.stderr))\n"
            f"sys.argv = {argv!r}\n"
            f"{run}\n"
        )
        result = subprocess.run([sys.executable, "-c", script], cwd=REPO_ROOT, env=child_env(),
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("arrest-v/obj: ")
        assert result.stderr.startswith("running False\n")
        assert result.stderr.endswith("frozen True False\n")

    @pytest.mark.parametrize("argv, code", [
        (("report", "-c", BICKNELL_CONF), 0),
        (("report", "-c", "no-such.conf"), 2),
        (("fillers", "-c", BICKNELL_CONF, "--target", "zzzz-n", "--slot", "WINDOW"), 3),
        (("fillers", "-c", BICKNELL_CONF, "--target", "arrest-v", "--slot", "obj"), 4),
    ], ids=["0", "2", "3", "4"])
    def test_a_child_exits_with_the_documented_code(self, bicknell_out, tmp_path, argv, code):
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        manifest = os.path.join(out, "deps.space", "manifest.txt")
        write_sidecar(manifest, {**read_sidecar(manifest), "kind": "window"})  # exit 4 for the deps space
        result = subprocess.run([sys.executable, "-m", "argex.cli", *argv, "--out-dir", out], cwd=REPO_ROOT,
                                env=child_env(), capture_output=True, text=True)
        assert result.returncode == code, result.stderr
        assert "Traceback" not in result.stderr

    def test_a_reader_on_a_pipe_gets_the_whole_stdout(self, chow_out, tmp_path, capsys):
        out = copy_artifacts(chow_out, str(tmp_path / "out"))
        argv = ["sweep", "-c", CHOW_CONF, "--out-dir", out]
        child = subprocess.Popen([sys.executable, "-m", "argex.cli", *argv], cwd=REPO_ROOT, env=child_env(),
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        piped = b"".join(iter(lambda: child.stdout.read(7), b""))
        assert child.wait() == 0
        code, in_process, _ = run_cli(capsys, *argv)
        assert code == 0 and in_process.count("\n") == 30
        assert piped.decode("utf-8") == in_process


class TestGoldenChecker:
    """``scripts/check_golden.py`` is the byte check for interpreters without pytest."""

    SCRIPT = os.path.join(REPO_ROOT, "scripts", "check_golden.py")

    def test_fixtures_match_under_this_interpreter(self):
        result = subprocess.run([sys.executable, self.SCRIPT], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.endswith(" 32 artifacts, 183 reports, 0 mismatches\n")

    def test_each_mismatch_is_named(self):
        spec = importlib.util.spec_from_file_location("check_golden", self.SCRIPT)
        checker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checker)
        pinned = {"a/gone": "1", "a/same": "2", "a/moved": "3"}
        actual = {"a/same": "2", "a/moved": "4", "a/new": "5"}
        assert checker.compare(pinned, actual) == [
            "missing: a/gone", "not pinned: a/new", "differs: a/moved"]

    def test_each_named_interpreter_gets_its_line(self):
        # this interpreter twice: no test may depend on which others a machine has
        result = subprocess.run([sys.executable, self.SCRIPT, "--python", sys.executable, "--python", sys.executable],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        version = ".".join(map(str, sys.version_info[:3]))
        lines = [line for line in result.stdout.splitlines() if line.startswith("python ")]
        assert lines == [f"python {version}: 32 artifacts, 183 reports, 0 mismatches"] * 2

    def test_a_mismatch_under_any_interpreter_exits_1(self, monkeypatch):
        spec = importlib.util.spec_from_file_location("check_golden", self.SCRIPT)
        checker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checker)
        checked = []
        monkeypatch.setattr(checker, "check", lambda python: checked.append(python) or python != "bad")
        assert checker.main(["--python", "good", "--python", "bad", "--python", "other"]) == 1
        assert checked == ["good", "bad", "other"]
        assert checker.main(["--python", "good"]) == 0
        assert checker.main([]) == 0 and checked[-1] == sys.executable

    def test_a_workload_gets_one_tree_line_per_named_interpreter(self):
        # this interpreter twice, on the fewest sentences that give every task its items
        result = subprocess.run([sys.executable, self.SCRIPT, "--workload", "300",
                                 "--python", sys.executable, "--python", sys.executable],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        version = re.escape(".".join(map(str, sys.version_info[:3])))
        lines = result.stdout.splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]
        assert re.fullmatch(rf"python {version}: 300 sentences, [1-9][0-9]* files, tree [0-9a-f]{{64}}", lines[0])

    def test_a_workload_tree_that_differs_exits_1_naming_each_file(self, monkeypatch, capsys):
        spec = importlib.util.spec_from_file_location("check_golden", self.SCRIPT)
        checker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checker)

        def run_stages(python, name, conf, out, stages, cwd):
            # each "interpreter" writes the file its name gives, and one shared file
            assert stages == ("ingest", "weight", "sweep") and os.path.isfile(os.path.join(cwd, conf))
            os.makedirs(os.path.join(cwd, out))
            for rel, body in ((python, ""), ("shared", "same")):
                pathlib.Path(cwd, out, rel).write_text(body, encoding="utf-8")

        monkeypatch.setattr(checker, "version_of", lambda python: python)
        monkeypatch.setattr(checker, "run_stages", run_stages)
        monkeypatch.setattr(sys, "path", list(sys.path))  # the checker puts perfbench/ on it
        assert checker.main(["--workload", "300", "--python", "a", "--python", "a"]) == 0
        assert checker.main(["--workload", "300", "--python", "a", "--python", "b"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["python b against python a: missing: out/a",
                                    "python b against python a: not pinned: out/b"]
        with pytest.raises(SystemExit) as too_small:
            checker.main(["--workload", "100"])
        assert too_small.value.code == 2
        assert "cannot generate a workload of 100 sentences: " in capsys.readouterr().err

    def test_an_interpreter_that_cannot_run_exits_2_naming_it(self, tmp_path):
        missing = str(tmp_path / "no-python")
        result = subprocess.run([sys.executable, self.SCRIPT, "--python", missing], capture_output=True, text=True)
        assert result.returncode == 2
        assert f"cannot run {missing}:" in result.stderr
        assert "Traceback" not in result.stderr


class TestEnvironment:
    def test_out_dir_precedence(self, tmp_path, capsys, monkeypatch):
        env_dir = str(tmp_path / "env")
        set_dir = str(tmp_path / "set")
        flag_dir = str(tmp_path / "flag")
        monkeypatch.setenv("ARGEX_OUT_DIR", env_dir)
        _, out, _ = run_cli(capsys, "report", "-c", BICKNELL_CONF)
        assert env_dir in out
        _, out, _ = run_cli(
            capsys, "report", "-c", BICKNELL_CONF, "--set", f"out_dir={set_dir}"
        )
        assert set_dir in out
        _, out, _ = run_cli(
            capsys,
            "report", "-c", BICKNELL_CONF,
            "--set", f"out_dir={set_dir}", "--out-dir", flag_dir,
        )
        assert flag_dir in out


class TestDeterminism:
    def test_independent_runs_are_byte_identical(self, tmp_path, capsys):
        dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
        for out in dirs:
            build_out_dir(BICKNELL_CONF, out)
            assert run_cli(
                capsys,
                "eval", "-c", BICKNELL_CONF, "--out-dir", out,
                "--task", "bicknell-acc2", "--kind", "deps", "--k", "20",
            )[0] == 0
        manifests = []
        for out in dirs:
            files = {}
            for root, _, names in os.walk(out):
                for name in names:
                    path = os.path.join(root, name)
                    files[os.path.relpath(path, out)] = open(path, "rb").read()
            manifests.append(files)
        assert manifests[0].keys() == manifests[1].keys()
        for rel in manifests[0]:
            assert manifests[0][rel] == manifests[1][rel], rel


class TestDamagedArtifacts:
    """Any flipped byte or truncation ends in a documented exit code, never an exception."""

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(sorted(READER_OF)),
        truncate=st.booleans(),
        data=st.data(),
    )
    def test_damage_never_escapes_main(self, bicknell_out, name, truncate, data):
        with tempfile.TemporaryDirectory() as tmp:
            out = copy_artifacts(bicknell_out, os.path.join(tmp, "out"))
            path = os.path.join(out, name)
            with open(path, "rb") as fh:
                raw = bytearray(fh.read())
            offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
            if truncate:
                del raw[offset:]
            else:
                raw[offset] ^= data.draw(st.integers(1, 255), label="xor")
            with open(path, "wb") as fh:
                fh.write(raw)
            code = main([*READER_OF[name], "-c", BICKNELL_CONF, "--out-dir", out])
        # informational sidecar and manifest fields (kind, n_dims, ...) are not checked
        is_metadata = name.endswith((".meta", "manifest.txt"))
        assert code in ({0, 2, 4} if is_metadata else {2, 4})


def _line_damage(edit):
    """A damage that edits the list of ``raw``'s lines, each with its newline."""

    def damage(raw: bytes, draw) -> bytes:
        lines = raw.splitlines(keepends=True)
        assume(lines)
        edit(lines, draw, st.integers(0, len(lines) - 1))
        return b"".join(lines)

    return damage


def _flip(raw, draw):
    i = draw(st.integers(0, len(raw) - 1))
    return raw[:i] + bytes([raw[i] ^ draw(st.integers(1, 255))]) + raw[i + 1:]


def _truncate(raw, draw):
    return raw[:draw(st.integers(0, len(raw) - 1))]


def _swap(lines, draw, index):
    i, j = draw(index), draw(index)
    assume(lines[i] != lines[j])
    lines[i], lines[j] = lines[j], lines[i]


def _fields(lines) -> list[bytes]:
    """Every distinct field that the file of ``lines`` holds somewhere."""
    return sorted({field for line in lines for field in line.rstrip(b"\n").split(b"\t")})


def _insert(lines, draw, index):
    line = b"\t".join(draw(st.lists(st.sampled_from(_fields(lines)), min_size=1, max_size=4))) + b"\n"
    lines.insert(draw(st.integers(0, len(lines))), line)


def _edit_digit(raw, draw):
    digits = [i for i, byte in enumerate(raw) if byte in b"0123456789"]
    assume(digits)
    i = draw(st.sampled_from(digits))
    return raw[:i] + bytes([draw(st.sampled_from([d for d in b"0123456789" if d != raw[i]]))]) + raw[i + 1:]


def _edit_field(lines, draw, index):
    i = draw(index)
    fields = lines[i].rstrip(b"\n").split(b"\t")
    fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_fields(lines)))
    lines[i] = b"\t".join(fields) + b"\n"


DAMAGES = {
    "flip": _flip,
    "truncate": _truncate,
    "duplicate": _line_damage(lambda lines, draw, index: lines.insert(i := draw(index), lines[i])),
    "delete": _line_damage(lambda lines, draw, index: lines.pop(draw(index))),
    "swap": _line_damage(_swap),
    "insert": _line_damage(_insert),
    "digit": _edit_digit,
    "field": _line_damage(_edit_field),
}
def _eval(kind: str) -> tuple[str, ...]:
    return ("eval", "--task", "bicknell-acc2", "--kind", kind, "--k", "10")


# each space file with the evals that read its space, and the fillers slots to probe it with
SPACE_READERS = {
    **{f"deps.space/{name}": ((_eval("deps"), _eval("boa")), ("obj", "sbj", "VERB", "ARG"))
       for name in ("catalog.tsv", "rows.tsv", "arg.tsv", "blocks.tsv")},
    # window.space/arg.tsv is empty: it has no line to damage
    **{f"window.space/{name}": ((_eval("bow"),), ("WINDOW",)) for name in ("catalog.tsv", "rows.tsv", "blocks.tsv")},
}


class TestVerifiedDamage:
    """Damage that passes the hash: a space or tensor file is damaged and its hash re-recorded, so only
    the readers' own checks stand between the damage and a result. Each run ends in a documented exit code."""

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(["deps.tensor.tsv", "window.tensor.tsv", *SPACE_READERS]),
        damage=st.sampled_from(sorted(DAMAGES)),
        data=st.data(),
    )
    def test_verified_damage_never_escapes_main(self, bicknell_out, name, damage, data):
        with open(os.path.join(bicknell_out, "deps.space", "blocks.tsv"), encoding="utf-8") as fh:
            vocabulary = [line.partition("\t")[0] for line in fh]
        with tempfile.TemporaryDirectory() as tmp:
            out = copy_artifacts(bicknell_out, os.path.join(tmp, "out"))
            path = os.path.join(out, name)
            with open(path, "rb") as fh:
                raw = DAMAGES[damage](fh.read(), data.draw)
            with open(path, "wb") as fh:
                fh.write(raw)
            if name in SPACE_READERS:
                record_space_id(os.path.dirname(path))
                evals, slots = SPACE_READERS[name]
                probes = data.draw(st.lists(st.tuples(st.sampled_from(vocabulary), st.sampled_from(slots)),
                                            min_size=1, max_size=4), label="probes")
                runs = [*evals, *(("fillers", "--target", target, "--slot", slot) for target, slot in probes)]
            else:
                meta = read_sidecar(sidecar_path(path))
                write_sidecar(sidecar_path(path), {**meta, "content_hash": hashlib.sha256(raw).hexdigest()})
                runs = [WEIGHT]
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                codes = [main([*argv, "-c", BICKNELL_CONF, "--out-dir", out]) for argv in runs]
        assert set(codes) <= {0, 2, 3, 4}, codes
        assert "Traceback" not in stderr.getvalue()


# fixture -> (corpus, the task eval runs, the config key of its dataset, the dataset)
USER_INPUTS = {
    "bicknell": ("corpus_bicknell.conll", "bicknell-acc2", "bicknell_acc2_path", "bicknell_acc2.tsv"),
    "chow": ("corpus_chow.conll", "chow", "chow_path", "chow50.tsv"),
}
# what is at a path under out_dir before the stages run ("" is out_dir itself)
OUT_DIR_SHAPES = (
    ("", "dir"), ("", "file"), ("deps.space", "file"), ("reports", "file"), (".lock", "dir"), ("vocab.tsv", "dir"),
)


class TestUserInput:
    """Any flipped byte or truncation of what the user writes, and odd output directories,
    end ingest, weight and eval in a documented exit code, never an exception."""

    @settings(max_examples=100, deadline=None)
    @given(
        fixture=st.sampled_from(sorted(USER_INPUTS)),
        victim=st.sampled_from(("config", "corpus", "dataset")),
        truncate=st.booleans(),
        shape=st.sampled_from(OUT_DIR_SHAPES),
        kind=st.sampled_from(("deps", "boa", "bow")),
        data=st.data(),
    )
    def test_no_input_escapes_main(self, fixture, victim, truncate, shape, kind, data):
        corpus, task, dataset_key, dataset = USER_INPUTS[fixture]
        with tempfile.TemporaryDirectory() as tmp:
            paths = {
                "corpus": os.path.join(tmp, corpus),
                "dataset": os.path.join(tmp, dataset),
                "config": os.path.join(tmp, "pipeline.conf"),
            }
            shutil.copyfile(os.path.join(DATA_DIR, corpus), paths["corpus"])
            shutil.copyfile(os.path.join(DATA_DIR, dataset), paths["dataset"])
            with open(paths["config"], "w", encoding="utf-8") as fh:
                fh.write(f"corpus_paths={paths['corpus']}\nvocab_threshold=3\n{dataset_key}={paths['dataset']}\n")
            with open(paths[victim], "rb") as fh:
                raw = bytearray(fh.read())
            offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
            if truncate:
                del raw[offset:]
            else:
                raw[offset] ^= data.draw(st.integers(1, 255), label="xor")
            with open(paths[victim], "wb") as fh:
                fh.write(raw)
            out = os.path.join(tmp, "out")
            rel, what = shape
            if rel:
                os.mkdir(out)
            path = os.path.join(out, rel) if rel else out
            if what == "dir":
                os.mkdir(path)
            else:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("not a directory\n")
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                codes = [
                    main([*stage, "-c", paths["config"], "--out-dir", out])
                    for stage in (("ingest",), ("weight",), ("eval", "--task", task, "--kind", kind))
                ]
        assert set(codes) <= {0, 2, 3, 4}, codes
        assert "Traceback" not in stderr.getvalue()


class TestGoldenArtifacts:
    """Every file ingest and weight write for the fixtures, pinned by sha256."""

    def test_fixture_artifacts_match_pinned_digests(self, tmp_path):
        pinned = {}
        with open(os.path.join(REPO_ROOT, "tests", "golden", "fixture_artifacts.sha256"),
                  encoding="utf-8") as fh:
            for line in fh:
                digest, name = line.split()
                pinned[name] = digest
        actual = {}
        for name, conf in (("bicknell", BICKNELL_CONF), ("chow", CHOW_CONF)):
            out = str(tmp_path / name)
            build_out_dir(conf, out)
            for root, _, files in os.walk(out):
                for filename in files:
                    path = os.path.join(root, filename)
                    rel = os.path.relpath(path, tmp_path).replace(os.sep, "/")
                    with open(path, "rb") as fh:
                        actual[rel] = hashlib.sha256(fh.read()).hexdigest()
            # the deps space's source_hash names the count tensor it was weighted from
            space_meta = read_sidecar(os.path.join(out, "deps.space", "manifest.txt"))
            tensor_meta = read_sidecar(os.path.join(out, "deps.tensor.tsv.meta"))
            assert space_meta["source_hash"] == tensor_meta["content_hash"]
        assert sorted(actual) == sorted(pinned)
        assert {n: d for n, d in actual.items() if pinned[n] != d} == {}


class TestGoldenReports:
    """Every report byte a full fixture sweep writes, pinned by sha256."""

    def test_fixture_sweeps_match_pinned_digests(self, tmp_path, capsys):
        pinned = {}
        with open(os.path.join(REPO_ROOT, "tests", "golden", "fixture_reports.sha256"),
                  encoding="utf-8") as fh:
            for line in fh:
                digest, name = line.split()
                pinned[name] = digest
        actual = {}
        for name, conf in (("bicknell", BICKNELL_CONF), ("chow", CHOW_CONF)):
            out = str(tmp_path / name)
            build_out_dir(conf, out)
            assert run_cli(capsys, "sweep", "-c", conf, "--out-dir", out)[0] == 0
            reports = os.path.join(out, "reports")
            for filename in os.listdir(reports):
                with open(os.path.join(reports, filename), "rb") as fh:
                    actual[f"{name}/{filename}"] = hashlib.sha256(fh.read()).hexdigest()
        assert sorted(actual) == sorted(pinned)
        assert {n: d for n, d in actual.items() if pinned[n] != d} == {}



@pytest.fixture
def forked(monkeypatch):
    """The pids of the workers a run forks; ``os.fork`` is otherwise the real one."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids: list[int]) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):  # neither running nor a zombie: already waited for
            os.waitpid(pid, os.WNOHANG)


def sweep_with_workers(capsys, workers: int, conf: str, out: str, *extra: str) -> tuple[int, str, str]:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_score", functools.partial(cli._score, workers=workers))
        return run_cli(capsys, "sweep", "-c", conf, "--out-dir", out, *extra)


class TestWorkers:
    """A sweep's (task, kind) jobs run on forked workers; nothing a run shows depends on how many."""

    @pytest.mark.parametrize("conf, fixture, tables", [(BICKNELL_CONF, "bicknell_out", 2), (CHOW_CONF, "chow_out", 1)],
                             ids=["bicknell", "chow"])
    def test_reports_stdout_and_stderr_do_not_depend_on_the_worker_count(
            self, request, tmp_path, capsys, forked, conf, fixture, tables):
        source = request.getfixturevalue(fixture)
        capsys.readouterr()  # the fixture's own stages
        collector = (gc.isenabled(), gc.get_freeze_count())
        runs = {}
        for workers in (1, 2, 12):  # 12: more workers than jobs, so some take none
            out = copy_artifacts(source, str(tmp_path / "out"))
            code, stdout, stderr = sweep_with_workers(capsys, workers, conf, out)
            assert code == 0, stderr
            assert not os.path.exists(os.path.join(out, ".lock"))
            runs[workers] = (stdout, stderr, reports_snapshot(out))
            shutil.rmtree(out)
        assert len(forked) == 1 + 11
        assert_reaped(forked)
        assert (gc.isenabled(), gc.get_freeze_count()) == collector
        assert runs[2] == runs[1] and runs[12] == runs[1]
        stdout, _, reports = runs[1]
        assert stdout.count("\n") == (len(reports) - tables) // 2

    def test_eval_is_one_job_and_forks_nothing(self, bicknell_out, tmp_path, capsys, monkeypatch):
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("eval forked"))
        code, stdout, err = run_cli(capsys, "eval", "-c", BICKNELL_CONF, "--out-dir", out,
                                    "--task", "bicknell-acc1", "--kind", "boa", "--k", "10,20")
        assert code == 0, err
        assert stdout.count("\n") == 2

    def test_a_sweep_beside_another_thread_forks_nothing(self, chow_out, tmp_path, capsys, monkeypatch):
        out = copy_artifacts(chow_out, str(tmp_path / "out"))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("a sweep forked beside a thread"))
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            code, stdout, _ = run_cli(capsys, "sweep", "-c", CHOW_CONF, "--out-dir", out)
        finally:
            release.set()
            thread.join(60)
        assert not thread.is_alive()
        assert code == 0 and stdout.count("\n") == 30

    def test_a_one_core_sweep_forks_nothing(self, chow_out, tmp_path, capsys, monkeypatch):
        expected = run_cli(capsys, "sweep", "-c", CHOW_CONF, "--out-dir", copy_artifacts(chow_out, str(tmp_path / "out")))
        assert expected[0] == 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("a one-core sweep forked"))
        assert run_cli(capsys, "sweep", "-c", CHOW_CONF, "--out-dir", str(tmp_path / "out")) == expected

    def test_a_damaged_block_a_later_job_reads_fails_as_with_one_worker(self, bicknell_out, tmp_path, capsys, forked):
        # the window space is hash-valid, so it loads; only the bow jobs read arrest-v's block
        runs = {}
        for workers in (1, 2, 7):
            out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
            path, line = damage_first_line(os.path.join(out, "window.space"), "rows.tsv", "arrest-v")
            runs[workers] = sweep_with_workers(capsys, workers, BICKNELL_CONF, out)
            assert not os.path.exists(os.path.join(out, "reports"))
            assert not os.path.exists(os.path.join(out, ".lock"))
            shutil.rmtree(out)
        code, stdout, err = runs[1]
        assert (code, stdout) == (2, "")
        assert f"{path}:{line}: expected dimension id, score, got " in err
        assert "Traceback" not in err
        assert runs[2] == runs[7] == runs[1]
        assert len(forked) == 1 + 6
        assert_reaped(forked)

    def test_a_worker_that_dies_without_a_result_is_a_typed_error(
            self, bicknell_out, tmp_path, capsys, monkeypatch, forked):
        from argex import evaluation

        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        parent = os.getpid()
        real = evaluation.evaluate_grid
        started_r, started_w = os.pipe()
        waited = []

        def evaluate_grid(*args, **kwargs):
            if os.getpid() != parent:
                os.write(started_w, b"x")
                os.kill(os.getpid(), signal.SIGKILL)
            if not waited:  # the parent's first job waits until the worker has taken one
                assert select.select([started_r], [], [], 60)[0], "the worker took no job"
                waited.append(os.read(started_r, 1))
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, "evaluate_grid", evaluate_grid)
        try:
            code, stdout, err = sweep_with_workers(capsys, 2, BICKNELL_CONF, out)
        finally:
            os.close(started_r)
            os.close(started_w)
        assert (code, stdout) == (4, "")
        assert err.endswith(f": worker process {forked[0]} was killed by signal {int(signal.SIGKILL)}\n")
        assert "internal consistency error: no result for job " in err
        assert "Traceback" not in err
        assert not os.path.exists(os.path.join(out, "reports"))
        assert not os.path.exists(os.path.join(out, ".lock"))
        assert_reaped(forked)

    @pytest.mark.parametrize("kinds, code, message", [
        ("deps,bow", 2, "DEPS queries need a dependency relation"),
        ("bow,deps", 4, "is of kind 'dependency', expected 'window'"),
    ], ids=["scoring-error-first", "load-error-first"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_space_that_fails_to_load_fails_at_its_first_use(
            self, chow_out, tmp_path, capsys, kinds, code, message, workers):
        # the deps job refuses a WINDOW slot; the window space does not load
        out = copy_artifacts(chow_out, str(tmp_path / "out"))
        manifest = os.path.join(out, "window.space", "manifest.txt")
        write_sidecar(manifest, {**read_sidecar(manifest), "kind": "dependency"})
        result = sweep_with_workers(capsys, workers, CHOW_CONF, out, "--set", f"variant_kinds={kinds}",
                                    "--set", "chow_agent_slot=WINDOW")
        assert result[:2] == (code, "")
        assert message in result[2]
        assert not os.path.exists(os.path.join(out, "reports"))


def weight_with_workers(capsys, workers: int, out: str) -> tuple[int, str, str]:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "cmd_weight", functools.partial(cli.cmd_weight, workers=workers))
        return run_cli(capsys, "weight", "-c", BICKNELL_CONF, "--out-dir", out)


class TestWeightWorkers:
    """``weight`` builds its two spaces as two jobs; nothing it shows depends on the number of workers."""

    def test_archives_stdout_and_exit_code_do_not_depend_on_the_worker_count(
            self, bicknell_out, tmp_path, capsys, forked):
        collector = (gc.isenabled(), gc.get_freeze_count())
        runs = {}
        for workers in (1, 2, 7):  # 7: more workers than jobs, so some take none
            out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
            shutil.rmtree(os.path.join(out, "deps.space"))
            shutil.rmtree(os.path.join(out, "window.space"))
            code, stdout, stderr = weight_with_workers(capsys, workers, out)
            assert not os.path.exists(os.path.join(out, ".lock"))
            runs[workers] = (code, stdout, stderr, spaces_snapshot(out))
            shutil.rmtree(out)
        assert runs[1][0] == 0, runs[1][2]
        assert runs[2] == runs[1] and runs[7] == runs[1]
        assert runs[1][3] == spaces_snapshot(bicknell_out)
        assert len(forked) == 1 + 6
        assert_reaped(forked)
        assert (gc.isenabled(), gc.get_freeze_count()) == collector

    def test_weight_takes_the_lock_before_it_reads_its_inputs(self, bicknell_out, tmp_path, capsys, monkeypatch):
        from argex import artifacts
        from argex.artifacts import locked

        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        before = spaces_snapshot(out)
        read = []
        monkeypatch.setattr(artifacts, "read_sidecar", lambda *args: read.append(args))
        monkeypatch.setattr(CooccurrenceTensor, "load", lambda *args: read.append(args))
        with locked(out):
            code, stdout, err = weight_with_workers(capsys, 1, out)
        assert (code, stdout) == (2, "")
        assert f"output directory {out} is locked by another stage" in err
        assert read == []
        assert spaces_snapshot(out) == before

    def test_a_damaged_deps_and_window_tensor_fail_with_the_deps_error(self, bicknell_out, tmp_path, capsys, forked):
        runs = {}
        for workers in (1, 2, 7):
            out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
            before = spaces_snapshot(out)
            deps, line = rename_last_filler(os.path.join(out, "deps.tensor.tsv"), "thief-n", "zzzz-n")
            rename_last_filler(os.path.join(out, "window.tensor.tsv"), "thief-n", "zzzz-n")
            runs[workers] = weight_with_workers(capsys, workers, out)
            assert spaces_snapshot(out) == before
            assert not os.path.exists(os.path.join(out, ".lock"))
            shutil.rmtree(out)
        code, stdout, err = runs[1]
        assert (code, stdout) == (2, "")
        assert err.endswith(f"error: {deps}:{line}: zzzz-n is not a token of the vocabulary\n")
        assert "window.tensor.tsv" not in err
        assert runs[2] == runs[7] == runs[1]
        assert_reaped(forked)

    @pytest.mark.parametrize("workers", [2, 7])
    def test_a_worker_killed_mid_job_is_a_typed_error_and_the_previous_spaces_still_load(
            self, bicknell_out, tmp_path, capsys, monkeypatch, forked, workers):
        from argex import weighting
        from argex.space import load_space

        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        before = spaces_snapshot(out)
        parent = os.getpid()
        real = weighting.weight_tensor
        started_r, started_w = os.pipe()
        waited = []

        def weight_tensor(tensor):
            if os.getpid() != parent:
                os.write(started_w, b"x")
                os.kill(os.getpid(), signal.SIGKILL)
            if not waited:  # the process's job waits until a worker has taken the other
                assert select.select([started_r], [], [], 60)[0], "no worker took a job"
                waited.append(os.read(started_r, 1))
            return real(tensor)

        monkeypatch.setattr(weighting, "weight_tensor", weight_tensor)
        try:
            code, stdout, err = weight_with_workers(capsys, workers, out)
        finally:
            os.close(started_r)
            os.close(started_w)
        assert (code, stdout) == (4, "")
        assert "internal consistency error: no result for job " in err
        assert f"was killed by signal {int(signal.SIGKILL)}\n" in err
        assert "Traceback" not in err
        assert not os.path.exists(os.path.join(out, ".lock"))
        assert spaces_snapshot(out) == before
        for space in ("deps.space", "window.space"):
            assert load_space(os.path.join(out, space)).space_id == read_sidecar(
                os.path.join(out, space, "manifest.txt"))["content_hash"]
        assert_reaped(forked)
