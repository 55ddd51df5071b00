"""The argex names the benchmark scripts use, checked without running them.

The traced benchmark run (``perfbench/run.py --trace 1``) is not part of
this suite, so a deleted or renamed name that ``perfbench/`` uses would
otherwise go unnoticed until the benchmark runs. The scripts are read
with ``ast``; none of them is imported.
"""

import ast
import glob
import importlib
import os

import pytest

from argex.cli import artifact_paths

from conftest import REPO_ROOT

PERFBENCH = os.path.join(REPO_ROOT, "perfbench")
SCRIPTS = sorted(glob.glob(os.path.join(PERFBENCH, "*.py")))


def parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def argex_imports(module: ast.Module) -> dict[str, tuple[str, str]]:
    """Local name -> (argex module, imported name) of each ``from argex... import``."""
    names = {}
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "argex":
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
    return names


def test_the_scripts_are_found():
    assert {"run.py", "traced.py"} <= set(map(os.path.basename, SCRIPTS))


@pytest.mark.parametrize("path", SCRIPTS, ids=os.path.basename)
def test_every_imported_argex_name_and_its_attributes_resolve(path):
    module = parse(path)
    imported = argex_imports(module)
    for local, (source, name) in imported.items():
        assert hasattr(importlib.import_module(source), name), f"{source}.{name}"
    # attributes read off an imported name, such as CooccurrenceTensor.load
    for node in ast.walk(module):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in imported:
            source, name = imported[node.value.id]
            owner = getattr(importlib.import_module(source), name)
            assert hasattr(owner, node.attr), f"{source}.{name}.{node.attr}"
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "argex":
                    importlib.import_module(alias.name)


def test_artifact_paths_has_every_key_traced_reads():
    keys = {
        node.slice.value
        for node in ast.walk(parse(os.path.join(PERFBENCH, "traced.py")))
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "paths"
        and isinstance(node.slice, ast.Constant)
    }
    assert keys
    assert keys <= set(artifact_paths("out")), sorted(keys - set(artifact_paths("out")))
