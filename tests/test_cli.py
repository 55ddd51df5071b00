"""End-to-end CLI runs: stages, guards, exit codes, determinism."""

import contextlib
import fcntl
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argex.cli import main
from argex.tensor import read_sidecar, write_sidecar
from argex.tokens import parse_canonical

from conftest import DATA_DIR, REPO_ROOT, conll_text, targets


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
        "catalog.tsv", "vocab.tsv", "rows.tsv", "arg.tsv", "manifest.txt",
    )},
    # window.space/arg.tsv is empty: it has no byte to damage
    **{f"window.space/{name}": FILLERS_WINDOW for name in (
        "catalog.tsv", "vocab.tsv", "rows.tsv", "manifest.txt",
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

    def test_weight_reads_no_row_back_and_prints_the_archive_counts(self, tmp_path, monkeypatch, capsys):
        from argex.space import WeightedSpace, load_space

        out = str(tmp_path)
        assert run_cli(capsys, "ingest", "-c", BICKNELL_CONF, "--out-dir", out)[0] == 0

        def no_check(self):
            raise AssertionError("the archive was read")

        monkeypatch.setattr(WeightedSpace, "_check", no_check)
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

        tensor = open(os.path.join(out, "deps.tensor.tsv"), encoding="utf-8").read()
        assert "doctor-n\tVERB\tx-ray-n\t2\n" in tensor
        assert "x-ray-n\tVERB_inv\tdoctor-n\t2\n" in tensor
        for probe, listing in (
            (("--target", "re-read-v", "--slot", "obj"), "re-read-v/obj: x-ray-n\n"),
            (("--target", "x-ray-n", "--slot", "obj_inv"), "x-ray-n/obj_inv: re-read-v\n"),
            (("--target", "nurse-n", "--slot", "VERB"), "nurse-n/VERB: chart-n, read-out-n\n"),
        ):
            code, printed, _ = run_cli(capsys, "fillers", *base, *probe)
            assert (code, printed) == (0, listing)

        for name in ("deps.tensor.tsv", "vocab.tsv"):
            lines = open(os.path.join(out, name), encoding="utf-8").read().splitlines()
            keys = [line.split("\t")[:-1] for line in lines]
            assert keys == sorted(keys), name
            as_tokens = [[parse_canonical(key[0]), *key[1:]] for key in keys]
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

    def test_tampered_tensor_exits_4(self, tmp_path, capsys):
        out = str(tmp_path)
        assert run_cli(capsys, "ingest", "-c", BICKNELL_CONF, "--out-dir", out)[0] == 0
        path = os.path.join(out, "deps.tensor.tsv")
        lines = open(path, encoding="utf-8").read().split("\n")
        row = lines[0].split("\t")
        row[-1] = str(int(row[-1]) + 1)
        lines[0] = "\t".join(row)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines))
        code, _, err = run_cli(capsys, "weight", "-c", BICKNELL_CONF, "--out-dir", out)
        assert code == 4
        assert "internal consistency" in err

    @pytest.mark.parametrize(
        "name, damage, code, named",
        [
            ("deps.space/catalog.tsv", lambda b: b + b"junk\n", 4, "deps.space"),
            ("deps.tensor.tsv", lambda b: b.replace(b"\n", b"x\n", 1), 4, "deps.tensor.tsv"),
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

    @pytest.mark.parametrize("version", ["1", "7"])
    def test_other_archive_format_version_refused(self, bicknell_out, tmp_path, capsys, version):
        out = copy_artifacts(bicknell_out, str(tmp_path / "out"))
        manifest = os.path.join(out, "deps.space", "manifest.txt")
        write_sidecar(manifest, {**read_sidecar(manifest), "format_version": version})
        code, _, err = run_cli(capsys, *FILLERS_DEPS, "-c", BICKNELL_CONF, "--out-dir", out)
        assert code == 2
        assert os.path.join(out, "deps.space") in err
        assert "re-run `argex weight`" in err

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


def reports_snapshot(out_dir: str) -> dict[str, bytes]:
    """Every file under ``out_dir/reports`` with its bytes."""
    return {path.name: path.read_bytes() for path in sorted(pathlib.Path(out_dir, "reports").iterdir())}


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
                  "argex.expectation", "argex.stats", "fcntl"}
        assert unused.isdisjoint(modules), sorted(unused.intersection(modules))


    def test_core_modules_import_neither_dataclasses_nor_inspect(self):
        # a child process: pytest has imported both already
        script = (
            "import sys\n"
            "import argex.cli, argex.space\n"
            "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
        )
        src = os.path.join(REPO_ROOT, "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run([sys.executable, "-c", script], cwd=REPO_ROOT, env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout == "False False\n"


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
