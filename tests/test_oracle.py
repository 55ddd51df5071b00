"""The whole pipeline against an independent reference, on generated corpora.

``perfbench/workload.py`` writes a seeded corpus, item lists and a
config; ``perfbench/oracle.py`` rebuilds the counts, weights, rankings
and exact scores from the corpus with no argex code. For each seed the
CLI runs ingest, weight and sweep in process, and every report item and
every ``fillers`` probe line must equal the reference. The seeds are
fixed, so a failure reproduces.
"""

import os
import sys

import pytest

from argex.cli import main

from conftest import REPO_ROOT

sys.path.append(os.path.join(REPO_ROOT, "perfbench"))
import gate  # noqa: E402
import oracle  # noqa: E402
from workload import Size, write_workload  # noqa: E402

# the smallest corpus the generator draws every task's items from, over the grid the oracle covers
SIZE = Size(
    sentences=1200, verbs=40, topics=8, pool=8, items=8,
    tasks=("bicknell-acc1", "bicknell-acc2", "chow"), kinds=("deps", "boa", "bow"),
    compositions=("sum", "mult"), k_values=(5, 20),
)
PROBES = 20


class EveryItem:
    """Stands in for the ``random.Random`` of ``gate.check_reports``: its sample is every item."""

    @staticmethod
    def sample(population, k):
        return list(population)


@pytest.mark.parametrize("seed", range(11, 21))
def test_every_report_item_and_fillers_line_equals_the_reference(tmp_path, capsys, seed):
    info = write_workload(str(tmp_path), seed, SIZE, n_probes=PROBES)
    for stage in ("ingest", "weight", "sweep"):
        assert main([stage, "-c", info["config"]]) == 0
    capsys.readouterr()
    lines = []
    for target, slot, k in info["probes"]:
        assert main(["fillers", "-c", info["config"], "--target", target, "--slot", slot, "--k", str(k)]) == 0
        lines.append(capsys.readouterr().out)
    model = oracle.Model(info["corpus"], SIZE.vocab_threshold)
    assert lines == [model.fillers_line(*probe) + "\n" for probe in info["probes"]]
    reports = gate.read_reports(str(tmp_path / "out"))
    assert sum(len(report["items"]) for report in reports.values()) >= len(reports) * SIZE.items // 2
    assert gate.check_reports(reports, model, gate.dataset_rows(info["config"]), SIZE, EveryItem()) == []
