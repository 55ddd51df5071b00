"""Correctness gate built from CLI-visible results only.

It reads the report JSONs' per-item results (task, variant label,
item id, both scores, outcome) and ``fillers`` stdout lines, never the
archive bytes or the rest of the report schema, because later changes
alter those on purpose.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import random

import oracle
from workload import DATASET_KEYS, Size

MIN_SCORED_SHARE = 0.75  # each (task, variant) must score most of its items
ORACLE_ITEMS = 4  # items per (task, variant) report compared with the reference model
DIGEST_PROBES = 5  # fillers lines that enter the digest


def read_reports(out_dir: str) -> dict[tuple[str, str], dict]:
    reports = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "reports", "*.json"))):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        v = data["variant"]
        reports[(data["task"], f"{v['kind']}-{v['composition']}-k{v['k']}")] = data
    return reports


def item_lines(reports: dict[tuple[str, str], dict]) -> list[str]:
    return sorted(
        f"{task}\t{label}\t{it['item_id']}\t{it['score_a']!r}\t{it['score_b']!r}\t{it['outcome']}"
        for (task, label), data in reports.items()
        for it in data["items"]
    )


def digest(reports: dict, probe_lines: list[str]) -> str:
    body = "\n".join(item_lines(reports) + probe_lines) + "\n"
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def dataset_rows(config: str) -> dict[str, list[list[str]]]:
    """Item rows per task of a generated config, header dropped."""
    rows = {}
    with open(config, encoding="utf-8") as fh:
        paths = dict(line.strip().split("=", 1) for line in fh if "=" in line)
    for task, key in DATASET_KEYS.items():
        if key in paths:
            with open(paths[key], encoding="utf-8") as fh:
                rows[task] = [line.rstrip("\n").split("\t") for line in fh][1:]
    return rows


def check_reports(reports: dict, model: oracle.Model, rows: dict, size: Size,
                  rng: random.Random) -> list[str]:
    """Grid complete, most items scored, and sampled items equal to the oracle."""
    problems = []
    expected = {(t, f"{kind}-{comp}-k{k}") for t in size.tasks for kind in size.kinds
                for comp in size.compositions for k in size.k_values}
    if set(reports) != expected:
        problems.append(f"report set differs from the grid: missing {sorted(expected - set(reports))[:3]}")
    for (task, label), data in sorted(reports.items()):
        items = {it["item_id"]: it for it in data["items"]}
        skipped = {s["item_id"] for s in data["skipped"]}
        if len(items) < MIN_SCORED_SHARE * len(rows[task]):
            problems.append(f"{task} {label}: only {len(items)}/{len(rows[task])} items scored")
        kind, comp, k = label.split("-")
        for row in rng.sample(rows[task], min(ORACLE_ITEMS, len(rows[task]))):
            want = model.score_item(task, kind, comp, int(k[1:]), row)
            got = items.get(row[0])
            if isinstance(want, str):
                if got is not None or row[0] not in skipped:
                    problems.append(f"{task} {label} {row[0]}: expected {want}, report scored it")
            elif got is None or (got["score_a"], got["score_b"], got["outcome"]) != want:
                problems.append(f"{task} {label} {row[0]}: report {got} != reference {want}")
    return problems


def smoke(runner, configs_dir: str, work: str) -> list[str]:
    """The checked-in fixtures must reproduce the accuracies the README states."""
    problems = []
    for name in ("bicknell", "chow"):
        config = os.path.join(configs_dir, f"{name}.conf")
        out = os.path.join(work, f"fixture-{name}")
        if not all(runner.cli(stage, config, out) for stage in ("ingest", "weight", "sweep")):
            problems.append(f"fixture {name}: pipeline failed")
            continue
        for (task, label), data in read_reports(out).items():
            kind = label.split("-")[0]
            if kind == "deps" and data["accuracy"] != 1.0:
                problems.append(f"fixture {task} {label}: accuracy {data['accuracy']} != 1.000")
            if kind == "bow" and task == "bicknell-acc2" and data["accuracy"] != 0.5:
                problems.append(f"fixture {task} {label}: accuracy {data['accuracy']} != 0.500")
            if kind in ("boa", "bow") and task == "chow" and not data["all_ties"]:
                problems.append(f"fixture {task} {label}: expected all ties")
    return problems


