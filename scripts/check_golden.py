#!/usr/bin/env python3
"""Rebuild both fixtures and compare every byte with ``tests/golden/``.

For each fixture config this runs ``ingest``, ``weight``, ``sweep`` and
``report`` through ``python -m argex.cli`` in a temporary directory,
under the interpreter that runs this script, or under each one that
``--python PATH`` names (repeatable). It prints each fixture's accuracy
table, then hashes every artifact and report against
``tests/golden/fixture_artifacts.sha256`` and
``tests/golden/fixture_reports.sha256``, and prints one
``python X.Y.Z: N artifacts, M reports, K mismatches`` line per
interpreter.

With ``--workload SENTENCES`` it checks a larger input instead, which
no pin covers: it generates a seeded workload of that many sentences
with ``perfbench/workload.py`` (the full task, kind, composition and k
grid), runs ``ingest``, ``weight`` and ``sweep`` on it under each
interpreter, and prints one ``python X.Y.Z: N sentences, M files, tree
DIGEST`` line per interpreter. The trees must be byte-identical; each
file that differs from the first interpreter's tree is named on stderr.

It needs only the standard library, so it runs on interpreters without
pytest::

    python3.12 scripts/check_golden.py
    python3 scripts/check_golden.py --python python3.10 --python python3.13
    python3 scripts/check_golden.py --workload 20000 --python python3.11 --python python3.13

Exit status: 0 when every file matches under every interpreter, 1 when
a file differs, is missing or is not pinned (each is named on stderr),
2 when an interpreter or a stage fails to run, or the workload is too
small to draw the tasks' items from.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(ROOT, "tests", "golden")
FIXTURES = (("bicknell", "configs/bicknell.conf"), ("chow", "configs/chow.conf"))
WORKLOAD_SEED = 1


def read_pinned(name: str) -> dict[str, str]:
    pinned = {}
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        for line in fh:
            digest, rel = line.split()
            pinned[rel] = digest
    return pinned


def read_meta(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def digests(top: str, prefix: str) -> dict[str, str]:
    out = {}
    for root, _, files in os.walk(top):
        for filename in files:
            path = os.path.join(root, filename)
            rel = os.path.relpath(path, top).replace(os.sep, "/")
            with open(path, "rb") as fh:
                out[f"{prefix}/{rel}"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_stages(python: str, name: str, conf: str, out: str, stages: tuple[str, ...], cwd: str = ROOT) -> str:
    """Run ``stages`` of ``conf`` under ``python`` in ``cwd``, writing to ``out``; return the last one's stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    for stage in stages:
        argv = [python, "-m", "argex.cli", stage, "-c", conf, "--out-dir", out]
        result = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stderr)
            print(f"{name}: {stage} exited {result.returncode}", file=sys.stderr)
            raise SystemExit(2)
    return result.stdout


def build(python: str, name: str, conf: str, out: str) -> dict[str, str]:
    """Run the four stages under ``python`` and print the accuracy table; return the artifacts' and reports' digests."""
    sys.stdout.write(run_stages(python, name, conf, out, ("ingest", "weight", "sweep", "report")))
    return digests(out, name)


def compare(pinned: dict[str, str], actual: dict[str, str]) -> list[str]:
    problems = [f"missing: {rel}" for rel in sorted(pinned.keys() - actual.keys())]
    problems += [f"not pinned: {rel}" for rel in sorted(actual.keys() - pinned.keys())]
    problems += [f"differs: {rel}" for rel in sorted(pinned.keys() & actual.keys())
                 if pinned[rel] != actual[rel]]
    return problems


def version_of(python: str) -> str:
    try:
        return subprocess.run([python, "-c", "import sys; print(*sys.version_info[:3], sep='.')"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"cannot run {python}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def check(python: str) -> bool:
    """Build both fixtures under ``python``, name each mismatch and print the summary line; True when all match."""
    version = version_of(python)
    artifacts, reports = {}, {}
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, conf in FIXTURES:
            out = os.path.join(tmp, name)
            for rel, digest in build(python, name, conf, out).items():
                (reports if rel.startswith(f"{name}/reports/") else artifacts)[rel] = digest
            # the deps space's source_hash names the count tensor it was weighted from
            space_meta = read_meta(os.path.join(out, "deps.space", "manifest.txt"))
            tensor_meta = read_meta(os.path.join(out, "deps.tensor.tsv.meta"))
            if space_meta.get("source_hash") != tensor_meta.get("content_hash"):
                problems.append(f"{name}/deps.space/manifest.txt: source_hash is not the deps tensor's")
    reports = {rel.replace("/reports/", "/", 1): digest for rel, digest in reports.items()}
    problems += compare(read_pinned("fixture_artifacts.sha256"), artifacts)
    problems += compare(read_pinned("fixture_reports.sha256"), reports)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"python {version}: {len(artifacts)} artifacts, {len(reports)} reports, "
          f"{len(problems)} mismatches")
    return not problems


def check_workload(pythons: list[str], sentences: int) -> bool:
    """Run a generated workload through set-up and the sweep under each of ``pythons``, print one line per
    interpreter, and name each file whose bytes differ from the first one's; True when every tree is the same."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workload import DATASET_KEYS, Size, write_workload

    # the topics, and with them the vocabulary, grow with the corpus; 300 sentences is the least that
    # gives every task its items
    topics = max(3, min(60, sentences // 400))
    size = Size(sentences=sentences, verbs=10 * topics, topics=topics, pool=min(25, 2 + sentences // 1000),
                items=max(14, min(200, sentences // 100)), tasks=tuple(DATASET_KEYS), kinds=("deps", "boa", "bow"),
                compositions=("sum", "mult"), k_values=(10, 20, 30, 40, 50))
    problems = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # the workload's paths are relative to tmp, the stages' directory: reports record their dataset's
        # path, and the tree is then the same on every run
        os.chdir(tmp)
        try:
            write_workload("input", WORKLOAD_SEED, size, n_probes=0)
        except ValueError as exc:
            print(f"cannot generate a workload of {sentences} sentences: {exc}", file=sys.stderr)
            raise SystemExit(2) from None
        finally:
            os.chdir(cwd)
        trees = []
        for i, python in enumerate(pythons):
            version = version_of(python)
            run_stages(python, "workload", os.path.join("input", "bench.conf"), str(i), ("ingest", "weight", "sweep"),
                       cwd=tmp)
            tree = digests(os.path.join(tmp, str(i)), "out")
            listing = "".join(f"{rel} {digest}\n" for rel, digest in sorted(tree.items()))
            print(f"python {version}: {sentences} sentences, {len(tree)} files, "
                  f"tree {hashlib.sha256(listing.encode('utf-8')).hexdigest()}")
            trees.append((version, tree))
            problems += [f"python {version} against python {trees[0][0]}: {problem}"
                         for problem in compare(trees[0][1], tree)]
    for problem in problems:
        print(problem, file=sys.stderr)
    return not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Rebuild both fixtures and compare every byte with tests/golden/.")
    parser.add_argument("--python", action="append", metavar="PATH",
                        help="an interpreter to run the stages under (repeatable; default: this one)")
    parser.add_argument("--workload", type=int, metavar="SENTENCES",
                        help="compare the trees of a generated workload of this many sentences across the "
                             "interpreters, in place of the fixtures")
    args = parser.parse_args(argv)
    pythons = args.python or [sys.executable]
    if args.workload is not None:
        return 0 if check_workload(pythons, args.workload) else 1
    results = [check(python) for python in pythons]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
