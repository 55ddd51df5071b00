"""Traced in-process run: one span around each call into an argex module.

The run mirrors what ``argex ingest``, ``argex weight`` and ``argex
sweep`` do, calling the same public functions in the same order, and
wraps each call in a span named after the module that does the work.
The sweep is run once through ``run_bicknell``/``run_chow`` without
inner spans; a replay then rebuilds every condition from
``build_prototype``, a left fold of ``compose`` and ``score_filler``
with a span per call, and its scores must equal the reports'. The
ratio of the two walls is the tracing overhead.

Spans record name, start, end, parent and counters; they are kept in
memory and written as JSON lines, with each span's self time, to
``.perfbench-work/trace.<workload>.jsonl`` at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import statistics
import sys
import time

import gate
import oracle
from workload import DATASET_KEYS, write_workload

LAYER_PREFIXES = ("conll.", "corpus.", "tensor.", "weighting.", "space.")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **counters):
        record = {"id": len(self.spans), "name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None, "counters": counters}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record["counters"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> list[float]:
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write(self, path: str) -> None:
        origin = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s, own in zip(self.spans, self.self_times()):
                fh.write(json.dumps({
                    "id": s["id"], "name": s["name"], "parent": s["parent"],
                    "start": s["start"] - origin, "end": s["end"] - origin,
                    "self": own, "counters": s["counters"]}) + "\n")


def _bytes(path: str) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def _ingest(tr: Tracer, config, paths: dict) -> dict:
    from argex.conll import ColumnConfig, ParseStats, parse_conll_file
    from argex.config import ingest_hash
    from argex.corpus import (build_vocabulary, extract_dependency_counts,
                              extract_window_counts, save_vocabulary)
    from argex.tokens import compile_pos_map

    columns = ColumnConfig(form=config.col_form, lemma=config.col_lemma, pos=config.col_pos,
                           head=config.col_head, relation=config.col_relation)
    stats = ParseStats()
    sentences = []
    with tr.span("conll.parse"):
        pos_map = compile_pos_map(config.pos_map)
        for path in config.corpus_paths:
            sentences.extend(parse_conll_file(path, columns, pos_map, stats,
                                              first_sentence_id=len(sentences)))
    with tr.span("corpus.vocab"):
        vocab = build_vocabulary(sentences, config.vocab_threshold, config.vocab_threshold_inclusive)
    allow = frozenset(config.relation_allowlist) if config.relation_allowlist else None
    with tr.span("corpus.deps_count"):
        dep = extract_dependency_counts(sentences, vocab, frozenset(config.subject_labels),
                                        frozenset(config.object_labels), allow,
                                        frozenset(config.relation_denylist))
    with tr.span("corpus.window_count"):
        win = extract_window_counts(sentences, vocab, config.window_width,
                                    config.window_filtered_positions)
    with tr.span("tensor.validate"):
        for tensor in (dep, win):
            if hasattr(tensor, "validate"):
                tensor.validate()
    stamp = {"ingest_hash": ingest_hash(config)}
    with tr.span("corpus.save"):
        save_vocabulary(vocab, paths["vocab"], stamp)
    with tr.span("tensor.save"):
        dep.save(paths["deps_tensor"], stamp)
        win.save(paths["window_tensor"], stamp)
    return {"rows": stats.rows, "malformed": stats.malformed_rows, "vocab": len(vocab),
            "entries": len(dep) + len(win)}


def _weight(tr: Tracer, config, paths: dict) -> dict:
    from argex.config import space_hash
    from argex.corpus import load_vocabulary
    from argex.space import build_space, save_space
    from argex.tensor import CooccurrenceTensor
    from argex.weighting import WeightedTensor, collapse_relations, max_over_relations, weight_tensor

    with tr.span("tensor.load"):
        dep = CooccurrenceTensor.load(paths["deps_tensor"])
        win = CooccurrenceTensor.load(paths["window_tensor"])
    with tr.span("corpus.vocab_load"):
        vocab = load_vocabulary(paths["vocab"], config.vocab_threshold, config.vocab_threshold_inclusive)
    with tr.span("weighting.weight"):
        dep_w = weight_tensor(dep)
        win_w = weight_tensor(win)
    arg_filter = frozenset(config.arg_relations) if config.arg_relations else None
    if config.boa_rank_mode == "collapsed":
        with tr.span("weighting.collapse"):
            arg_counts = collapse_relations(dep, arg_filter)
        with tr.span("weighting.weight"):
            arg_w = (weight_tensor(arg_counts) if arg_counts.total > 0
                     else WeightedTensor(source_hash=dep.content_hash()))
    else:
        with tr.span("weighting.collapse"):
            arg_w = max_over_relations(dep_w, arg_filter)
    stamp = space_hash(config)
    with tr.span("space.build"):
        deps_space = build_space(dep_w, vocab, extra_index=arg_w,
                                 manifest={"space_hash": stamp, "kind": "dependency"})
        window_space = build_space(win_w, vocab, manifest={"space_hash": stamp, "kind": "window"})
    with tr.span("weighting.save"):
        arg_w.save(paths["arg_weighted"], {"space_hash": stamp, "rank_mode": config.boa_rank_mode})
    with tr.span("space.save"):
        save_space(deps_space, paths["deps_space"])
        save_space(window_space, paths["window_space"])
    return {"kept": len(dep_w) + len(win_w), "counted": len(dep) + len(win),
            "dims": len(deps_space.catalog) + len(window_space.catalog)}


def _conditions(task: str, item, kind, config):
    """(required tokens, (inputs, candidate) a, (inputs, candidate) b), as the evaluators build them."""
    from argex.expectation import SlotQuery, map_slot

    if task == "chow":
        agent = map_slot(kind, config.chow_agent_slot)
        patient = map_slot(kind, config.chow_patient_slot)
        return ([item.verb, item.noun1, item.noun2],
                ([SlotQuery(item.noun1, agent), SlotQuery(item.noun2, patient)], item.verb),
                ([SlotQuery(item.noun1, patient), SlotQuery(item.noun2, agent)], item.verb))
    agent = map_slot(kind, config.bicknell_agent_slot)
    verb = map_slot(kind, config.bicknell_verb_slot)
    return ([item.agent_congruent, item.agent_incongruent, item.verb,
             item.patient_congruent, item.patient_incongruent],
            ([SlotQuery(item.agent_congruent, agent), SlotQuery(item.verb, verb)], item.patient_congruent),
            ([SlotQuery(item.agent_incongruent, agent), SlotQuery(item.verb, verb)], item.patient_incongruent))


def _sweep(tr: Tracer, config, paths: dict, workload) -> tuple[dict, dict, float, list[str]]:
    """Evaluate the grid through the evaluators, then replay it with per-call spans."""
    from argex.config import config_hash, space_hash
    from argex.datasets import BicknellMode, load_bicknell, load_chow
    from argex.errors import EmptyPrototypeError
    from argex.evaluation import (BicknellSlots, ChowSlots, per_item_csv, report_to_json,
                                  run_bicknell, run_chow)
    from argex.expectation import (Composition, ModelVariant, VariantKind, build_prototype,
                                   compose, score_filler)
    from argex.space import load_space
    from argex.stats import chi_square_vs_chance, wilcoxon_rank_sum

    loads = []
    for _ in range(3):
        start = time.perf_counter()
        with tr.span("space.load"):
            deps = load_space(paths["deps_space"])
        loads.append(time.perf_counter() - start)
    with tr.span("space.load"):
        window = load_space(paths["window_space"])
    size = workload.size
    reports, grid = {}, []
    for task in size.tasks:
        path = getattr(config, DATASET_KEYS[task])
        with tr.span("datasets.load"):
            items = (load_chow(path) if task == "chow" else
                     load_bicknell(path, BicknellMode.ACC1 if task == "bicknell-acc1" else BicknellMode.ACC2))
        for kind_name in config.variant_kinds:
            kind = VariantKind.from_string(kind_name)
            space = window if kind is VariantKind.BOW else deps
            if kind is VariantKind.BOA and config.boa_space == "window":
                space, index = window, deps.index
            else:
                index = None
            provenance = {"config_hash": config_hash(config), "space_hash": space_hash(config),
                          "space_id": space.space_id, "dataset": path}
            for comp_name in config.compositions:
                for k in config.k_values:
                    variant = ModelVariant(kind, k, Composition.from_string(comp_name))
                    with tr.span("evaluation.task"):
                        if task == "chow":
                            report = run_chow(space, variant, items,
                                              ChowSlots(config.chow_agent_slot, config.chow_patient_slot),
                                              index=index)
                        else:
                            mode = BicknellMode.ACC1 if task == "bicknell-acc1" else BicknellMode.ACC2
                            report = run_bicknell(space, variant, items, mode,
                                                  BicknellSlots(config.bicknell_agent_slot,
                                                                config.bicknell_verb_slot),
                                                  index=index)
                    with tr.span("evaluation.serialize"):
                        body = report_to_json(report, provenance)
                        per_item_csv(report)
                    reports[(task, variant.label)] = json.loads(body)
                    grid.append((task, items, space, index, variant, report))

    problems = []
    counts = {"built": 0, "rows": 0}
    leaves = set()
    start = time.perf_counter()
    with tr.span("replay"):
        for task, items, space, index, variant, report in grid:
            scored = {p.item_id: p for p in report.pairs}
            scores_a, scores_b, wins = [], [], 0
            for item in items:
                required, cond_a, cond_b = _conditions(task, item, variant.kind, config)
                if any(t.canonical not in space.vocabulary for t in required):
                    continue
                try:
                    results = []
                    for inputs, candidate in (cond_a, cond_b):
                        protos = []
                        for query in inputs:
                            with tr.span("expectation.prototype"):
                                proto = build_prototype(space, variant, query, index=index)
                            protos.append(proto)
                            counts["built"] += 1
                            counts["rows"] += len(proto.fillers)
                            leaves.add((space.space_id, query.input.canonical, query.slot, variant.k))
                        combined = protos[0]
                        for nxt in protos[1:]:
                            with tr.span("expectation.compose"):
                                combined = compose(combined, nxt, variant.composition)
                        with tr.span("expectation.score"):
                            results.append(score_filler(space, combined, candidate).value)
                except EmptyPrototypeError:
                    if item.item_id in scored:
                        problems.append(f"replay {task} {variant.label} {item.item_id}: empty prototype")
                    continue
                pair = scored.get(item.item_id)
                if pair is None or (pair.score_a, pair.score_b) != tuple(results):
                    problems.append(f"replay {task} {variant.label} {item.item_id}: {results} != report")
                scores_a.append(results[0])
                scores_b.append(results[1])
                wins += results[0] > results[1]
            if scores_a:
                with tr.span("stats"):
                    chi_square_vs_chance(wins, len(scores_a))
                    wilcoxon_rank_sum(scores_a, scores_b)
    replay_s = time.perf_counter() - start
    n_items = sum(r.n_items for *_, r in grid)
    layer = {
        "space.load_s": statistics.median(loads),
        "space.archive_bytes": _bytes(paths["deps_space"]) + _bytes(paths["window_space"]),
        "expectation.prototypes_built": counts["built"],
        "expectation.rows_summed": counts["rows"],
        "expectation.leaf_unique_ratio": len(leaves) / counts["built"] if counts["built"] else 1.0,
        "evaluation.failed_item_ratio": sum(r.n_failed for *_, r in grid) / n_items,
    }
    return reports, layer, replay_s, problems


PER_LAYER_UNITS = {
    "conll.parse_s": "s", "conll.rows": "count", "conll.malformed_rows": "count",
    "corpus.vocab_s": "s", "corpus.deps_count_s": "s", "corpus.window_count_s": "s",
    "corpus.vocab_size": "count",
    "tensor.validate_s": "s", "tensor.save_s": "s", "tensor.load_s": "s", "tensor.entries": "count",
    "tensor.bytes": "bytes",
    "weighting.weight_s": "s", "weighting.collapse_s": "s", "weighting.kept_ratio": "ratio",
    "space.build_s": "s", "space.save_s": "s", "space.load_s": "s", "space.archive_bytes": "bytes",
    "space.dims": "count",
    "expectation.prototype_s": "s", "expectation.compose_s": "s", "expectation.score_s": "s",
    "expectation.prototypes_built": "count", "expectation.rows_summed": "count",
    "expectation.leaf_unique_ratio": "ratio",
    "evaluation.task_s": "s", "evaluation.serialize_s": "s", "evaluation.failed_item_ratio": "ratio",
    "stats.s": "s", "datasets.load_s": "s",
    "cli.startup_s": "s", "cli.ingest_s": "s", "cli.weight_s": "s",
    "cli.ingest_rss_mb": "MB", "cli.weight_rss_mb": "MB",
    "trace.overhead_ratio": "ratio",
}


def run(workload, seed: int, work: str, runner, configs_dir: str, trace_path: str):
    """Per-layer metrics for one workload; returns (metrics, problems, info)."""
    from argex.cli import artifact_paths
    from argex.config import load_config

    info = write_workload(os.path.join(work, "input"), seed, workload.size, n_probes=60)
    problems = gate.smoke(runner, configs_dir, work)
    # CLI children: start-up alone, then the two set-up stages untraced.
    startup = []
    for _ in range(5):
        child = runner.run([sys.executable, "-c", "import argex.cli"], "import argex.cli")
        if child:
            startup.append(child.wall_s)
    cli_out = os.path.join(work, "cli-out")
    ingest = runner.cli("ingest", info["config"], cli_out)
    weight = runner.cli("weight", info["config"], cli_out) if ingest else None
    probe_lines, probe_walls = [], []
    for target, slot, k in info["probes"][:gate.DIGEST_PROBES] if weight else ():
        child = runner.cli("fillers", info["config"], cli_out, "--target", target, "--slot", slot, "--k", str(k))
        if child:
            probe_lines.append(child.stdout.strip())
            probe_walls.append(child.wall_s)
    if not (startup and ingest and weight and len(probe_lines) == gate.DIGEST_PROBES):
        return {}, problems + ["CLI children failed"], info

    tr = Tracer()
    out = os.path.join(work, "traced-out")
    os.makedirs(out)
    config = load_config(info["config"], {"out_dir": out})
    paths = artifact_paths(out)
    with tr.span("ingest"):
        ing = _ingest(tr, config, paths)
    with tr.span("weight"):
        wei = _weight(tr, config, paths)
    with tr.span("sweep"):
        reports, layer, replay_s, replay_problems = _sweep(tr, config, paths, workload)
    problems += replay_problems

    model = oracle.Model(info["corpus"], workload.size.vocab_threshold)
    problems += gate.check_reports(reports, model, gate.dataset_rows(info["config"]),
                                   workload.size, random.Random(seed))
    for line, (target, slot, k) in zip(probe_lines, info["probes"]):
        if line != model.fillers_line(target, slot, k):
            problems.append(f"fillers {target} {slot} {k}: {line!r} != reference")
    info["digest"] = gate.digest(reports, probe_lines)
    tr.write(trace_path)

    task_s = tr.total("evaluation.task")
    values = {
        "conll.parse_s": tr.total("conll.parse"), "conll.rows": ing["rows"],
        "conll.malformed_rows": ing["malformed"],
        "corpus.vocab_s": tr.total("corpus.vocab"), "corpus.deps_count_s": tr.total("corpus.deps_count"),
        "corpus.window_count_s": tr.total("corpus.window_count"), "corpus.vocab_size": ing["vocab"],
        "tensor.validate_s": tr.total("tensor.validate"), "tensor.save_s": tr.total("tensor.save"),
        "tensor.load_s": tr.total("tensor.load"), "tensor.entries": ing["entries"],
        "tensor.bytes": _bytes(paths["deps_tensor"]) + _bytes(paths["window_tensor"]),
        "weighting.weight_s": tr.total("weighting.weight"),
        "weighting.collapse_s": tr.total("weighting.collapse"),
        "weighting.kept_ratio": wei["kept"] / wei["counted"],
        "space.build_s": tr.total("space.build"), "space.save_s": tr.total("space.save"),
        "space.dims": wei["dims"],
        "expectation.prototype_s": tr.total("expectation.prototype"),
        "expectation.compose_s": tr.total("expectation.compose"),
        "expectation.score_s": tr.total("expectation.score"),
        "evaluation.task_s": task_s, "evaluation.serialize_s": tr.total("evaluation.serialize"),
        "stats.s": tr.total("stats"), "datasets.load_s": tr.total("datasets.load"),
        "cli.startup_s": statistics.median(startup), "cli.ingest_s": ingest.wall_s,
        "cli.weight_s": weight.wall_s, "cli.ingest_rss_mb": ingest.rss_mb,
        "cli.weight_rss_mb": weight.rss_mb,
        "trace.overhead_ratio": replay_s / task_s,
        **layer,
    }
    _print_splits(tr, values, replay_s, statistics.median(probe_walls))
    metrics = {name: (values[name], unit, [values[name]]) for name, unit in PER_LAYER_UNITS.items()}
    return metrics, problems, info


def _print_splits(tr: Tracer, values: dict, replay_s: float, query_s: float) -> None:
    """Where the time went: the shares the benchmark's design relies on."""
    stages = {s["id"] for s in tr.spans if s["name"] in ("ingest", "weight")}
    layers = sum(s["end"] - s["start"] for s in tr.spans
                 if s["parent"] in stages and s["name"].startswith(LAYER_PREFIXES))
    expectation = sum(values[f"expectation.{m}_s"] for m in ("prototype", "compose", "score"))
    setup_cli = values["cli.ingest_s"] + values["cli.weight_s"]
    print(f"split: layer spans (conll/corpus/tensor/weighting/space) {layers:.3f} s "
          f"= {layers / setup_cli:.2f} of CLI set-up {setup_cli:.3f} s", file=sys.stderr)
    print(f"split: expectation spans {expectation:.3f} s = {expectation / replay_s:.2f} of replay "
          f"{replay_s:.3f} s; evaluation.task {values['evaluation.task_s']:.3f} s", file=sys.stderr)
    load_start = values["space.load_s"] + values["cli.startup_s"]
    print(f"split: space.load + cli.startup {load_start:.3f} s = {load_start / query_s:.2f} "
          f"of a one-shot fillers query {query_s:.3f} s", file=sys.stderr)
