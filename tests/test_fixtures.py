"""The checked-in fixtures are what ``scripts/make_fixtures.py`` writes."""

import importlib.util
import os

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
