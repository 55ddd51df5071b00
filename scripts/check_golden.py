#!/usr/bin/env python3
"""Rebuild both fixtures and compare every byte with ``tests/golden/``.

For each fixture config this runs ``ingest``, ``weight`` and ``sweep``
through ``python -m argex.cli`` in a temporary directory, under the
interpreter that runs this script, and hashes every artifact and report
against ``tests/golden/fixture_artifacts.sha256`` and
``tests/golden/fixture_reports.sha256``.

It needs only the standard library, so it runs on interpreters without
pytest::

    python3.12 scripts/check_golden.py

Exit status: 0 when every file matches, 1 when a file differs, is
missing or is not pinned (each is named on stderr), 2 when a stage
fails.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(ROOT, "tests", "golden")
FIXTURES = (("bicknell", "configs/bicknell.conf"), ("chow", "configs/chow.conf"))


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


def build(name: str, conf: str, out: str) -> dict[str, str]:
    """Run the three stages; return the digests of the artifacts and reports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    for stage in ("ingest", "weight", "sweep"):
        argv = [sys.executable, "-m", "argex.cli", stage, "-c", conf, "--out-dir", out]
        result = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stderr)
            print(f"{name}: {stage} exited {result.returncode}", file=sys.stderr)
            raise SystemExit(2)
    return digests(out, name)


def compare(pinned: dict[str, str], actual: dict[str, str]) -> list[str]:
    problems = [f"missing: {rel}" for rel in sorted(pinned.keys() - actual.keys())]
    problems += [f"not pinned: {rel}" for rel in sorted(actual.keys() - pinned.keys())]
    problems += [f"differs: {rel}" for rel in sorted(pinned.keys() & actual.keys())
                 if pinned[rel] != actual[rel]]
    return problems


def main() -> int:
    artifacts, reports = {}, {}
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, conf in FIXTURES:
            out = os.path.join(tmp, name)
            for rel, digest in build(name, conf, out).items():
                (reports if rel.startswith(f"{name}/reports/") else artifacts)[rel] = digest
            # the deps space's source_hash names the count tensor it was weighted from
            space_meta = read_meta(os.path.join(out, "deps.space", "manifest.txt"))
            tensor_meta = read_meta(os.path.join(out, "deps.tensor.tsv.meta"))
            if space_meta.get("source_hash") != tensor_meta.get("content_hash"):
                problems.append(f"{name}/deps.space/manifest.txt: source_hash is not the deps tensor's")
    reports = {rel.replace("/reports/", "/", 1): digest for rel, digest in reports.items()}
    problems += compare(read_pinned("fixture_artifacts.sha256"), artifacts)
    problems += compare(read_pinned("fixture_reports.sha256"), reports)
    version = ".".join(map(str, sys.version_info[:3]))
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"python {version}: {len(artifacts)} artifacts, {len(reports)} reports, "
          f"{len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
