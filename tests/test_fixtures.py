"""The checked-in fixtures are what ``scripts/make_fixtures.py`` writes, and the README describes what argex is."""

import ast
import glob
import importlib.util
import os
import sys

from argex import corpus, space, tensor

from conftest import CONFIG_DIR, DATA_DIR, REPO_ROOT


def test_the_generator_reproduces_every_checked_in_fixture_byte_for_byte():
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", os.path.join(REPO_ROOT, "scripts", "make_fixtures.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    files = module.fixture_files()
    checked_in = {os.path.join(directory, name) for directory in (DATA_DIR, CONFIG_DIR)
                  for name in os.listdir(directory)}
    assert set(files) == checked_in
    assert len(files) == 7
    for path, body in files.items():
        with open(path, "rb") as fh:
            assert fh.read() == body.encode("utf-8"), os.path.relpath(path, REPO_ROOT)


def test_the_readme_names_the_space_archive_format_this_argex_writes():
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        readme = " ".join(fh.read().split())  # a phrase may wrap
    assert f"(format version {space.FORMAT_VERSION})" in readme
    for name, layout in (("catalog.tsv", space._CATALOG_LAYOUT), ("rows.tsv", space._ROWS_LAYOUT),
                         ("arg.tsv", space._ARG_LAYOUT), ("blocks.tsv", space._BLOCKS_LAYOUT)):
        assert f"`{name}` ({layout})" in readme, name
    files = ", ".join(f"`{name}`" for name in space._FILES[:-1]) + f" and `{space._FILES[-1]}`"
    assert f"holding {len(space._FILES)} files: {files}," in readme
    assert "`vocab.tsv` has one token per line" not in readme  # the vocabulary is blocks.tsv's targets


def test_the_readme_names_the_vocabulary_format_this_argex_writes():
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        readme = " ".join(fh.read().split())  # a phrase may wrap
    assert f"`vocab.tsv`: full frequency table (format version {corpus.FORMAT_VERSION})" in readme


def test_the_readme_names_the_count_tensor_format_this_argex_writes():
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        readme = " ".join(fh.read().split())  # a phrase may wrap
    assert f"count tensors (format version {tensor.FORMAT_VERSION})" in readme
    assert f"in sorted order: {tensor._LAYOUT}, fillers sorted" in readme
    assert f"adds each stored entry's mirror back: {tensor._MIRRORS}." in readme


def test_the_runtime_imports_the_standard_library_only():
    # the README promises a standard-library-only runtime; every relative import stays inside argex
    sources = sorted(glob.glob(os.path.join(REPO_ROOT, "src", "argex", "*.py")))
    assert len(sources) > 10
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            module = ast.parse(fh.read(), path)
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                where = f"{os.path.basename(path)}:{node.lineno}: {name}"
                assert name.split(".")[0] in {"argex", *sys.stdlib_module_names}, where
