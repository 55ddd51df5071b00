"""One writer and one verified read: only ``argex.artifacts`` renames files, creates directories, takes the lock,
opens a file to write, or reads an artifact's sidecar and reads and decodes its bytes."""

import ast
import glob
import os

import pytest

from conftest import REPO_ROOT, called_name, imported_names

# calls that put something on disk or take the output lock, by the name they resolve to
WRITER_CALLS = {"os.replace", "os.rename", "os.makedirs", "os.mkdir", "os.open", "fcntl.flock"}
OPENERS = {"open", "io.open", "builtins.open"}
# the steps of read_artifact: a module that took them itself could parse an artifact it never verified, or
# judge an artifact by a sidecar read apart from the checks on its bytes
READER_STEPS = {"read_bytes", "decode_utf8", "read_sidecar"}


def writer_calls(source: str) -> list[tuple[int, str]]:
    """The line and resolved name of each call in ``source`` that writes, renames, creates a directory or locks.

    An ``open`` counts when its mode holds ``w``, ``a``, ``x`` or ``+``,
    or is not a literal string.
    """
    module = ast.parse(source)
    names = imported_names(module)
    found = []
    for node in ast.walk(module):
        if not isinstance(node, ast.Call):
            continue
        name = called_name(node, names)
        if name in OPENERS:
            modes = [keyword.value for keyword in node.keywords if keyword.arg == "mode"] + node.args[1:2]
            mode = modes[0] if modes else ast.Constant("r")
            if isinstance(mode, ast.Constant) and isinstance(mode.value, str) and not set("wax+") & set(mode.value):
                continue
        elif name not in WRITER_CALLS:
            continue
        found.append((node.lineno, name))
    return found


@pytest.mark.parametrize("source, name", [
    ("open(path, 'w')", "open"),
    ("open(path, mode='ab')", "open"),
    ("import io\nio.open(path, 'r+', encoding='utf-8')", "io.open"),
    ("open(path, 'x')", "open"),
    ("open(path, mode)", "open"),
    ("import os as o\no.makedirs(path)", "os.makedirs"),
    ("from os import replace as swap\nswap(a, b)", "os.replace"),
    ("import os\nos.open(path, os.O_CREAT)", "os.open"),
    ("import fcntl\nfcntl.flock(fd, fcntl.LOCK_EX)", "fcntl.flock"),
])
def test_a_call_that_writes_renames_or_locks_is_found(source, name):
    assert [found for _, found in writer_calls(source)] == [name]


@pytest.mark.parametrize("source", [
    "open(path)",
    "open(path, 'rb')",
    "import io\nio.open(path, mode='r', encoding='utf-8')",
    "import os\nos.path.join(a, b)",
    "import os\nos.unlink(path)",
])
def test_a_call_that_only_reads_is_not_found(source):
    assert writer_calls(source) == []


def test_only_the_artifacts_module_writes_renames_or_locks():
    sources = sorted(glob.glob(os.path.join(REPO_ROOT, "src", "argex", "*.py")))
    assert len(sources) > 10
    calls = {}
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            for line, name in writer_calls(fh.read()):
                calls.setdefault(os.path.basename(path), []).append(f"{line}: {name}")
    assert set(calls) == {"artifacts.py"}, calls
    assert {entry.partition(": ")[2] for entry in calls["artifacts.py"]} == {
        "open", "os.replace", "os.makedirs", "os.open", "fcntl.flock"}


def reader_steps(source: str) -> list[tuple[int, str]]:
    """The line and name of each call in ``source`` to a step of the verified read, or import of one.

    A call counts by the last part of the name it resolves to; an import
    counts too, so a step imported under another name is found.
    """
    module = ast.parse(source)
    names = imported_names(module)
    found = []
    for node in ast.walk(module):
        if isinstance(node, ast.Call):
            name = (called_name(node, names) or "").rpartition(".")[2]
            if name in READER_STEPS:
                found.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in READER_STEPS]
    return found


@pytest.mark.parametrize("source, names", [
    ("from .artifacts import read_bytes\nread_bytes(path)", ["read_bytes", "read_bytes"]),
    ("from .artifacts import decode_utf8 as decode\ndecode(path, data)", ["decode_utf8"]),
    ("from . import artifacts\nartifacts.read_bytes(path)", ["read_bytes"]),
    ("import argex.artifacts as a\na.decode_utf8(path, data)", ["decode_utf8"]),
    ("from .artifacts import read_sidecar\nread_sidecar(path)", ["read_sidecar", "read_sidecar"]),
])
def test_a_step_of_the_verified_read_is_found(source, names):
    assert sorted(name for _, name in reader_steps(source)) == names


@pytest.mark.parametrize("source", [
    "from .artifacts import read_artifact\nread_artifact([path], meta, '1', 'ingest')",
    "data.decode('utf-8')",
])
def test_the_verified_read_itself_is_not_found(source):
    assert reader_steps(source) == []


def test_only_the_artifacts_module_reads_and_decodes_an_artifact():
    sources = sorted(glob.glob(os.path.join(REPO_ROOT, "src", "argex", "*.py")))
    assert len(sources) > 10
    steps = {}
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            for line, name in reader_steps(fh.read()):
                steps.setdefault(os.path.basename(path), []).append(f"{line}: {name}")
    assert set(steps) == {"artifacts.py"}, steps
