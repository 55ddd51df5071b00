"""One collector rule: only ``argex.cli.entry`` calls ``gc``, once to turn cyclic GC off, once to freeze the heap."""

import ast
import glob
import os

import pytest

from conftest import REPO_ROOT, called_name, imported_names


def gc_calls(source: str) -> list[tuple[str, str]]:
    """Each call in ``source`` to ``gc``: the top-level definition it sits in (or ``<module>``), and its name."""
    module = ast.parse(source)
    names = imported_names(module)
    found = []
    for top in module.body:
        for node in ast.walk(top):
            name = called_name(node, names) if isinstance(node, ast.Call) else None
            if name and name.partition(".")[0] == "gc":
                found.append((getattr(top, "name", "<module>"), name))
    return found


@pytest.mark.parametrize("source, found", [
    ("import gc\ngc.collect()", ("<module>", "gc.collect")),
    ("import gc as g\ndef run():\n    g.freeze()", ("run", "gc.freeze")),
    ("from gc import disable\nclass Pool:\n    def fork(self):\n        disable()", ("Pool", "gc.disable")),
])
def test_a_call_to_the_collector_is_found_with_its_definition(source, found):
    assert gc_calls(source) == [found]


@pytest.mark.parametrize("source", ["import os\nos.getpid()", "gc = object()\ncollect()", "import gc"])
def test_a_call_elsewhere_is_not_found(source):
    assert gc_calls(source) == []


def test_only_the_process_entry_touches_the_collector():
    sources = sorted(glob.glob(os.path.join(REPO_ROOT, "src", "argex", "*.py")))
    assert len(sources) > 10
    calls = []
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            calls += [(os.path.basename(path), *call) for call in gc_calls(fh.read())]
    assert sorted(calls) == [("cli.py", "entry", "gc.disable"), ("cli.py", "entry", "gc.freeze")]
