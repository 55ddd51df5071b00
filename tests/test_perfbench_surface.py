"""The argex names the benchmark scripts use, checked without running them.

The traced benchmark run (``perfbench/run.py --trace 1``) is not part of
this suite, so a deleted or renamed name that ``perfbench/`` uses, or a
dropped parameter that it passes, would otherwise go unnoticed until the
benchmark runs. The scripts are read with ``ast``; none of them is
imported.
"""

import ast
import glob
import importlib
import inspect
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


def test_every_call_traced_makes_to_an_argex_callable_binds_to_its_signature():
    module = parse(os.path.join(PERFBENCH, "traced.py"))
    imported = argex_imports(module)
    checked = set()
    for node in ast.walk(module):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        # a call of an imported name, or of an attribute read off one (CooccurrenceTensor.load)
        if isinstance(func, ast.Name) and func.id in imported:
            source, name = imported[func.id]
            qualname, callee = f"{source}.{name}", getattr(importlib.import_module(source), name)
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in imported:
            source, name = imported[func.value.id]
            owner = getattr(importlib.import_module(source), name)
            qualname, callee = f"{source}.{name}.{func.attr}", getattr(owner, func.attr)
        else:
            continue
        try:
            inspect.signature(callee).bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as exc:
            pytest.fail(f"traced.py:{node.lineno}: {qualname}: {exc}")
        checked.add(qualname)
    assert {"argex.conll.parse_conll_file", "argex.evaluation.run_chow",
            "argex.tensor.CooccurrenceTensor.load"} <= checked


def test_the_index_traced_passes_is_the_space_itself():
    # traced.py passes ``deps.index`` as the ranking source of boa_space=window cells
    from argex.space import build_space
    from argex.weighting import WeightedTensor

    space = build_space(WeightedTensor(scores={("see-v", "obj", "dog-n"): 1.0}), ["see-v", "dog-n"])
    assert space.index is space
    assert space.index.ranking("see-v", "obj") == (("dog-n", 1.0),)


def test_every_setting_traced_reads_is_a_field_of_the_settings():
    # traced.py reads settings as ``config.<name>`` and names dataset paths through workload.DATASET_KEYS;
    # a removed setting would otherwise break only a later ``--trace 1`` run
    from argex.config import _Settings

    read = {
        node.attr
        for node in ast.walk(parse(os.path.join(PERFBENCH, "traced.py")))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "config"
    }
    (dataset_keys,) = [
        node.value
        for node in parse(os.path.join(PERFBENCH, "workload.py")).body
        if isinstance(node, ast.Assign) and list(map(ast.unparse, node.targets)) == ["DATASET_KEYS"]
    ]
    keys = set(ast.literal_eval(dataset_keys).values())
    assert len(read) > 20 and keys
    assert read | keys <= set(_Settings._fields), sorted((read | keys) - set(_Settings._fields))
