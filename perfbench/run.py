#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for ingest -> weight -> sweep/query.

    python3 perfbench/run.py --workload grid-full --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the benchmark drives the real CLI of this checkout
(``python -m argex.cli`` with ``PYTHONPATH`` set to its ``src``), one
child process at a time, and reports the end-to-end metrics. With
``--trace 1`` it runs the same pipeline in-process, times each call
into a module's public functions as a span, and reports the per-layer
metrics. The last line of stdout is one JSON object; a readable table
goes to stderr. The exit code is 0 only when every output was correct.

Inputs are generated from ``--seed`` (see workload.py) into a fresh
directory under ``.perfbench-work/`` in the checkout, which is removed
at the end. Nothing outside the checkout is read or written. Peak RSS
of each child comes from ``os.wait4``; the benchmark changes no
system setting (no cache dropping, cgroup or kernel changes).

Correctness gate, built from CLI-visible results only: every child
must exit 0 within its timeout and leave no ``.lock``; every ``fillers``
line and every checked report score must equal the independent
reference model (oracle.py); each single-k ``eval`` must reproduce the
sweep's scores; each (task, variant) must score most of its items; the
checked-in fixture configs must reproduce the README accuracies; and
for seeds listed in reference.json the digest of all item scores and
probe lines must match the recorded one.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
CONFIGS = os.path.join(ROOT, "configs")
sys.path.insert(0, HERE)

import gate  # noqa: E402
import oracle  # noqa: E402
from workload import Size, write_workload  # noqa: E402

RUN_DEADLINE_S = 165  # children get no time past this; an alarm stops the run soon after
CHILD_TIMEOUT_S = 120.0

ALL_TASKS = ("bicknell-acc1", "bicknell-acc2", "chow")
ALL_KINDS = ("deps", "boa", "bow")
K_GRID = (10, 20, 30, 40, 50)


@dataclass(frozen=True)
class Workload:
    size: Size
    rounds: int  # rounds of set-up, sweeps and a query batch, interleaved
    sweeps: int  # sweeps per round
    min_queries: int  # the query batches last --seconds in all and run at least this many


WORKLOADS = {
    # Parse, counting, weighting and archive writes dominate: ROADMAP
    # items 3 and 4 (write side) show here; the sweep is tiny.
    "corpus-large": Workload(
        Size(sentences=6000, verbs=300, topics=30, pool=30, items=10,
             tasks=("bicknell-acc1", "chow"), kinds=("deps", "bow"),
             compositions=("sum",), k_values=(20,)),
        rounds=3, sweeps=2, min_queries=36,
    ),
    # Prototype building, composition and cosine dominate: ROADMAP
    # item 2 (prototype cache, prefix over k) shows here.
    "grid-full": Workload(
        Size(sentences=2500, verbs=100, topics=15, pool=15, items=14,
             tasks=ALL_TASKS, kinds=ALL_KINDS, compositions=("sum", "mult"), k_values=K_GRID),
        rounds=4, sweeps=1, min_queries=40,
    ),
    # Every process reads and verifies the space archive; no reuse across k.
    "query-oneshot": Workload(
        Size(sentences=3000, verbs=150, topics=20, pool=20, items=12,
             tasks=ALL_TASKS, kinds=ALL_KINDS, compositions=("sum",), k_values=(20,)),
        rounds=3, sweeps=1, min_queries=100,
    ),
}


# -- child processes -------------------------------------------------------


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    stdout: str


@dataclass
class Ops:
    """Attempted/failed operation tally; each CLI invocation is one operation."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)


class Runner:
    def __init__(self, work: str, ops: Ops, deadline: float):
        self.work = work
        self.ops = ops
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("ARGEX_")}
        self.env["PYTHONPATH"] = SRC
        self._n = 0

    def run(self, argv: list[str], label: str, out_dir: str | None = None) -> Child | None:
        """Run one child to completion; None (and a failed op) on any failure."""
        self.ops.attempted += 1
        self._n += 1
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            self.ops.fail(f"{label}: run deadline passed, not started")
            return None
        out_path = os.path.join(self.work, f"child{self._n}.out")
        err_path = os.path.join(self.work, f"child{self._n}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
            done = threading.Event()

            def kill():
                if not done.is_set():
                    proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # deadline alarm or SIGTERM: leave no child behind
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                done.set()
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        ok = code == 0
        if not ok:
            reason = "timed out" if code < 0 and wall >= timeout else f"exit {code}"
            self.ops.fail(f"{label}: {reason}: {stderr.strip()[-300:]}")
        if out_dir is not None and os.path.exists(os.path.join(out_dir, ".lock")):
            os.unlink(os.path.join(out_dir, ".lock"))
            if ok:
                self.ops.fail(f"{label}: left a .lock behind")
            ok = False
        return Child(wall, usage.ru_maxrss / 1024.0, stdout) if ok else None

    def cli(self, stage: str, config: str, out_dir: str, *extra: str) -> Child | None:
        argv = [sys.executable, "-m", "argex.cli", stage, "-c", config, "--out-dir", out_dir, *extra]
        return self.run(argv, f"argex {stage} {' '.join(extra)}".strip(), out_dir)


def tree_bytes(path: str, skip: tuple[str, ...] = ("reports",)) -> int:
    total = 0
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = [d for d in dirnames if d not in skip]
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in filenames if f != ".lock")
    return total


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest sample with at least a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- end-to-end run --------------------------------------------------------


def query_plan(size: Size, probes: list[tuple[str, str, int]]):
    """Endless query sequence: three fillers probes, then one single-k eval.

    The evals step through the workload's grid in a fixed order, so the
    mix of work is the same for every seed.
    """
    grid = [(t, kind, comp, k) for t in size.tasks for kind in size.kinds
            for comp in size.compositions for k in size.k_values]
    for i in itertools.count():
        if i % 4 == 3:  # stride 37 is coprime with every grid size here, so evals visit all of it
            yield ("eval", grid[i // 4 * 37 % len(grid)])
        else:
            yield ("fillers", probes[(i - i // 4) % len(probes)])


def run_end_to_end(workload: Workload, seed: int, seconds: float, work: str,
                   ops: Ops, deadline: float):
    """Rounds of set-up, sweeps and a batch of queries.

    Interleaving spreads every metric's samples over the whole run, so a
    slow spell of the shared machine touches a few samples of each
    metric instead of all samples of one.
    """
    runner = Runner(work, ops, deadline)
    size = workload.size
    info = write_workload(os.path.join(work, "input"), seed, size, n_probes=60)
    config = info["config"]
    problems = gate.smoke(runner, CONFIGS, work)
    model = oracle.Model(info["corpus"], size.vocab_threshold)
    rows = gate.dataset_rows(config)
    samples: dict[str, list[float]] = {k: [] for k in (
        "setup_s", "setup_rss_mb", "sweep_s", "sweep_rss_mb", "query_s", "archive_mb")}
    plan = query_plan(size, info["probes"])
    batch = math.ceil(workload.min_queries / workload.rounds)
    reports, probe_lines = None, []
    for rnd in range(workload.rounds):
        out = os.path.join(work, f"out{rnd}")
        ingest = runner.cli("ingest", config, out)
        weight = runner.cli("weight", config, out) if ingest else None
        sweeps = [runner.cli("sweep", config, out) for _ in range(workload.sweeps)] if weight else [None]
        if not all(sweeps):
            problems.append(f"pipeline failed in round {rnd}")
            return samples, problems, info
        samples["setup_s"].append(ingest.wall_s + weight.wall_s)
        samples["setup_rss_mb"].append(max(ingest.rss_mb, weight.rss_mb))
        samples["sweep_s"] += [sweep.wall_s for sweep in sweeps]
        samples["sweep_rss_mb"] += [sweep.rss_mb for sweep in sweeps]
        samples["archive_mb"].append(tree_bytes(out) / 1e6)
        if reports is None:
            reports = gate.read_reports(out)
            problems += gate.check_reports(reports, model, rows, size, random.Random(seed))
        elif gate.item_lines(gate.read_reports(out)) != gate.item_lines(reports):
            problems.append(f"round {rnd}: sweep results differ from round 0")
        started, done = time.monotonic(), 0
        while done < batch or time.monotonic() - started < seconds / workload.rounds:
            kind, query = next(plan)
            done += 1
            if kind == "fillers":
                target, slot, k = query
                child = runner.cli("fillers", config, out, "--target", target, "--slot", slot,
                                   "--k", str(k))
                if child is None:
                    continue
                line = child.stdout.strip()
                if line != model.fillers_line(target, slot, k):
                    ops.fail(f"fillers {target} {slot} {k}: {line!r} != "
                             f"{model.fillers_line(target, slot, k)!r}")
                if len(probe_lines) < gate.DIGEST_PROBES:
                    probe_lines.append(line)
            else:
                task, vkind, comp, k = query
                label = f"{vkind}-{comp}-k{k}"
                child = runner.cli("eval", config, out, "--task", task, "--kind", vkind,
                                   "--composition", comp, "--k", str(k))
                if child is None:
                    continue
                single = gate.read_reports(out).get((task, label))
                swept = reports.get((task, label))
                if single is None or swept is None or single["items"] != swept["items"]:
                    ops.fail(f"eval {task} {label}: scores differ from the sweep's")
            samples["query_s"].append(child.wall_s)
        shutil.rmtree(out)
    if len(set(samples["archive_mb"])) != 1:
        problems.append(f"artifact bytes differ between identical set-ups: {samples['archive_mb']}")
    info["digest"] = gate.digest(reports, probe_lines)
    return samples, problems, info


# -- reporting -------------------------------------------------------------


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def end_to_end_metrics(samples: dict[str, list[float]]) -> dict[str, tuple[float, str, list[float]]]:
    q = samples["query_s"]
    return {
        "setup_s": (statistics.median(samples["setup_s"]), "s", samples["setup_s"]),
        "setup_rss_mb": (statistics.median(samples["setup_rss_mb"]), "MB", samples["setup_rss_mb"]),
        "sweep_s": (statistics.median(samples["sweep_s"]), "s", samples["sweep_s"]),
        "sweep_rss_mb": (statistics.median(samples["sweep_rss_mb"]), "MB", samples["sweep_rss_mb"]),
        "query_p50_s": (statistics.median(q), "s", q),
        "query_p90_s": (quantile(q, 0.9), "s", q),
        "archive_mb": (statistics.median(samples["archive_mb"]), "MB", samples["archive_mb"]),
    }


def print_table(title: str, metrics: dict[str, tuple[float, str, list[float]]]) -> None:
    """Each metric with its unit, the spread (IQR / median) of the run's samples and their count."""
    print(title, file=sys.stderr)
    print(f"  {'metric':<34} {'value':>12} {'unit':<6} {'spread':>8} {'n':>5}", file=sys.stderr)
    for name, (value, unit, values) in metrics.items():
        print(f"  {name:<34} {value:>12.6g} {unit:<6} {spread(values):>8.3f} {len(values):>5}",
              file=sys.stderr)


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _deadline(signum, frame):
    raise TimeoutError("run deadline passed")


def bench(name: str, seed: int, seconds: float, trace: bool) -> bool:
    """One run of one workload; prints the table and the result line, returns correctness."""
    workload = WORKLOADS[name]
    deadline = time.monotonic() + RUN_DEADLINE_S
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    ops = Ops()
    metrics, problems, info = {}, [], {}
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(RUN_DEADLINE_S + 8)
    try:
        if trace:
            sys.path.insert(0, SRC)
            import traced

            metrics, problems, info = traced.run(
                workload, seed, work, Runner(work, ops, deadline), CONFIGS,
                os.path.join(WORK_ROOT, f"trace.{name}.jsonl"))
        else:
            samples, problems, info = run_end_to_end(workload, seed, seconds, work, ops, deadline)
            metrics = end_to_end_metrics(samples) if all(samples.values()) else {}
    except TimeoutError as exc:
        problems.append(str(exc))
    except Exception:  # a broken program or unreadable output: report it, never hang or skip the result
        problems.append(traceback.format_exc())
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
    recorded = load_reference()["digests"].get(name, {}).get(str(seed))
    if recorded and info.get("digest") and info["digest"] != recorded:
        problems.append(f"digest {info['digest'][:12]}.. != recorded {recorded[:12]}.. for seed {seed}")
    print(f"workload {name} seed {seed}: {info.get('sentences')} sentences, {info.get('rows')} rows, "
          f"vocabulary {info.get('vocabulary')}, {info.get('items')} items per task; "
          f"digest {info.get('digest', '-')}", file=sys.stderr)
    for problem in problems + ops.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    correct = not problems and ops.failed == 0 and bool(metrics)
    if metrics:
        print_table("trace run (per-layer)" if trace else "end-to-end", metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed,
        "metrics": {m: {"value": value, "unit": unit} for m, (value, unit, _) in metrics.items()},
    }), flush=True)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="total length of the timed query batches (a minimum count also applies)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "argex", "cli.py")):
        print(f"error: no argex checkout under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [bench(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
