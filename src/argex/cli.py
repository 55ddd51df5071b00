"""Command-line pipeline driver.

Stages: ingest (corpora to raw tensors), weight (tensors to space
archives), fillers (probe a ranking), eval (run one task), sweep (run
the configured grid), report (print the accuracy table). One config
file drives everything; `--set key=value` overrides individual keys.

Progress and diagnostics go to stderr; stdout carries the human-readable
summary. Machine-readable results go to files under the output
directory. Exit codes: 0 success, 2 input error, 3 query error,
4 internal-consistency error.

Each command imports the stage modules it uses. A one-shot ``fillers``
loads ``config``, ``errors``, ``tokens``, ``artifacts`` and ``space``;
``eval`` and ``sweep`` add the scoring modules, and a sweep of more
than one (task, kind) pair ``pool``. No query loads the parser, the
counters (``corpus``, ``tensor``) or ``weighting``.

Two commands fork, by one rule (``pool.map_jobs``): one worker per core
this process may run on, at most one per job, this process among them,
and none beside another thread. A sweep scores its (task, kind) pairs
on them (``_score``); an ``eval`` is one pair and forks nothing.
``weight`` builds its dependency and its window space as two jobs, and
saves both itself. Nothing either prints or writes depends on the
number of workers.

The process runs with cyclic GC off, by one rule for every command:
``entry`` disables the collector before ``main`` and freezes the heap
on the way out. A forked worker inherits the disabled collector. No
stage and no pool touches the collector, so ``main(argv)`` called in
process leaves it as it was.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import os
import signal
import sys
from typing import TYPE_CHECKING, Callable

from .artifacts import Stamps, locked, make_output_dir, write_bytes_atomic
from .config import (
    ALL_TASKS,
    TASK_BICKNELL_ACC1,
    TASK_BICKNELL_ACC2,
    TASK_CHOW,
    Composition,
    PipelineConfig,
    VariantKind,
    config_hash,
    ingest_hash,
    load_config,
    refuse_repeats,
    space_hash,
)
from .errors import (
    ArgexError,
    ConfigError,
    ConsistencyError,
    CorpusError,
    DatasetError,
    EmptyPrototypeError,
    OutOfVocabularyError,
    StaleArtifactError,
    UndefinedModelError,
)
from .tokens import ARG, WINDOW, compile_pos_map, parse_canonical

if TYPE_CHECKING:
    from .corpus import Vocabulary
    from .evaluation import EvalReport
    from .space import WeightedSpace


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def artifact_paths(out_dir: str) -> dict[str, str]:
    return {
        "vocab": os.path.join(out_dir, "vocab.tsv"),
        "deps_tensor": os.path.join(out_dir, "deps.tensor.tsv"),
        "window_tensor": os.path.join(out_dir, "window.tensor.tsv"),
        # no stage writes or reads it: the ARG rankings live in deps.space/arg.tsv;
        # perfbench/traced.py still writes it
        "arg_weighted": os.path.join(out_dir, "arg.weighted.tsv"),
        "deps_space": os.path.join(out_dir, "deps.space"),
        "window_space": os.path.join(out_dir, "window.space"),
        "reports": os.path.join(out_dir, "reports"),
    }


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    overrides: dict[str, str] = {}
    # an empty --out-dir or ARGEX_OUT_DIR is refused as an empty out_dir, not ignored
    env_out = os.environ.get("ARGEX_OUT_DIR")
    if env_out is not None:
        overrides["out_dir"] = env_out
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value.strip()
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    return load_config(args.config, overrides)


# -- ingest ----------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    from .conll import ColumnConfig, ParseStats, SentenceRecord, parse_conll_file
    from .corpus import (
        build_vocabulary,
        extract_dependency_counts,
        extract_window_counts,
        save_vocabulary,
    )

    config = _config_from_args(args)
    if not config.corpus_paths:
        raise ConfigError("corpus_paths is empty; nothing to ingest")
    columns = ColumnConfig(
        form=config.col_form,
        lemma=config.col_lemma,
        pos=config.col_pos,
        head=config.col_head,
        relation=config.col_relation,
    )
    pos_map = compile_pos_map(config.pos_map)
    stats = ParseStats()
    sentences: list[SentenceRecord] = []
    for path in config.corpus_paths:
        _note(f"parsing {path}")
        for record in parse_conll_file(path, columns, pos_map, stats, first_sentence_id=len(sentences)):
            sentences.append(record)
    vocab = build_vocabulary(sentences, config.vocab_threshold, config.vocab_threshold_inclusive)
    allow = frozenset(config.relation_allowlist) if config.relation_allowlist else None
    deny = frozenset(config.relation_denylist)
    subjects = frozenset(config.subject_labels)
    objects = frozenset(config.object_labels)
    dep = extract_dependency_counts(sentences, vocab, subjects, objects, allow, deny)
    win = extract_window_counts(
        sentences, vocab, config.window_width, config.window_filtered_positions
    )
    # refused before the lock, so the previous artifacts stay
    for what, size in (("vocabulary", len(vocab)), ("dependency tensor", len(dep)), ("window tensor", len(win))):
        if not size:
            raise ConfigError(
                f"the {what} would be empty at vocab_threshold={config.vocab_threshold}; nothing was written"
            )
    stamp = ingest_hash(config)
    paths = artifact_paths(config.out_dir)
    counts = {
        "sentences": str(stats.sentences),
        "rows": str(stats.rows),
        "malformed_rows": str(stats.malformed_rows),
        "arcs": str(stats.arcs),
        "dropped_arcs": str(stats.dropped_arcs),
    }
    make_output_dir(config.out_dir)  # the one stage that makes it
    with locked(config.out_dir):
        vocab_hash = save_vocabulary(vocab, paths["vocab"], {"ingest_hash": stamp, **counts})
        dep.save(paths["deps_tensor"], {"ingest_hash": stamp, "vocab_hash": vocab_hash})
        win.save(paths["window_tensor"], {"ingest_hash": stamp, "vocab_hash": vocab_hash})
    print(
        f"ingested {stats.sentences} sentences from {len(config.corpus_paths)} file(s): "
        f"{stats.rows} rows ({stats.malformed_rows} malformed), "
        f"{stats.arcs} arcs kept ({stats.dropped_arcs} dropped)"
    )
    print(f"vocabulary: {len(vocab)} tokens at threshold {config.vocab_threshold}")
    print(f"dependency tensor: {len(dep)} entries, total {dep.total} -> {paths['deps_tensor']}")
    print(f"window tensor: {len(win)} entries, total {win.total} -> {paths['window_tensor']}")
    return 0


# -- weight ----------------------------------------------------------------


def cmd_weight(args: argparse.Namespace, workers: int | None = None) -> int:
    """Weight both tensors and build their spaces, each space one job (``pool.map_jobs``), then save both.

    The lock is held from the first read through the last save, so a
    concurrent ``ingest`` cannot replace an input mid-read. ``vocab.tsv``
    is loaded first, then each job loads its own tensor, so an error
    comes back in job order, dependency space first, as one process meets
    it. Each load checks its artifact's ``ingest_hash``, and a tensor's
    ``vocab_hash`` against the loaded vocabulary. Every write happens here.
    """
    from .corpus import load_vocabulary
    from .pool import map_jobs
    from .space import save_space

    config = _config_from_args(args)
    paths = artifact_paths(config.out_dir)
    with locked(config.out_dir):
        stamps = {"ingest_hash": (ingest_hash(config), "configuration")}
        vocab = load_vocabulary(paths["vocab"], config.vocab_threshold, config.vocab_threshold_inclusive, stamps)
        _note("loading and weighting tensors")
        # a crashed ingest can leave two runs' files side by side
        stamps["vocab_hash"] = (vocab.source_hash, f"vocabulary than {paths['vocab']}")
        # job 0, the dependency space, is the longer: it goes first
        built = map_jobs(functools.partial(_weighted_space, config, paths, vocab, stamps), (0, 1), workers)
        (deps_space, n_arg), (window_space, _) = built
        make_output_dir(paths["window_space"])  # first: a file there must leave deps.space as it was
        deps_id = save_space(deps_space, paths["deps_space"])
        window_id = save_space(window_space, paths["window_space"])
    print(
        f"dependency space: {deps_space.manifest['n_targets']} targets, "
        f"{deps_space.manifest['n_dims']} dims, id {deps_id[:12]} -> {paths['deps_space']}"
    )
    print(
        f"window space: {window_space.manifest['n_targets']} targets, "
        f"{window_space.manifest['n_dims']} dims, id {window_id[:12]} -> {paths['window_space']}"
    )
    print(f"argument rankings ({config.boa_rank_mode}): {n_arg} entries -> {paths['deps_space']}")
    return 0


def _weighted_space(
    config: PipelineConfig, paths: dict[str, str], vocab: Vocabulary, stamps: Stamps, job: int
) -> tuple[WeightedSpace, int]:
    """Job 0: the dependency space and its number of ARG entries. Job 1: the window space and 0.

    Each loads its tensor, which must match ``stamps`` (so be counted over
    ``vocab``) and hold only ``vocab``'s tokens, weights it by PLMI and
    builds the space; the dependency job builds the ARG rankings too. It writes nothing.
    """
    from .space import build_space
    from .tensor import CooccurrenceTensor
    from .weighting import WeightedTensor, collapse_relations, max_over_relations, weight_tensor

    counts = CooccurrenceTensor.load(paths[("deps_tensor", "window_tensor")[job]], vocab.entries, stamps)
    weighted = weight_tensor(counts)
    manifest = {"space_hash": space_hash(config), "kind": ("dependency", "window")[job]}
    if job == 1:
        return build_space(weighted, vocab, manifest=manifest), 0
    arg_filter = frozenset(config.arg_relations) if config.arg_relations else None
    if config.boa_rank_mode == "collapsed":
        arg_counts = collapse_relations(counts, arg_filter)
        arg_weighted = weight_tensor(arg_counts) if arg_counts.total > 0 else WeightedTensor()
    else:
        arg_weighted = max_over_relations(weighted, arg_filter)
    return build_space(weighted, vocab, extra_index=arg_weighted, manifest=manifest), len(arg_weighted)


# -- fillers ---------------------------------------------------------------


def _load_space_checked(config: PipelineConfig, which: str) -> WeightedSpace:
    """The ``deps`` or ``window`` space, loaded under the current ``space_hash``; another ``kind`` is exit 4."""
    from .space import load_space

    directory = artifact_paths(config.out_dir)[f"{which}_space"]
    space = load_space(directory, {"space_hash": (space_hash(config), "configuration")})
    kind, recorded = "dependency" if which == "deps" else "window", space.manifest.get("kind")
    if recorded != kind:
        raise ConsistencyError(f"space archive {directory} is of kind {recorded!r}, expected {kind!r}")
    return space


def cmd_fillers(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    try:
        target = parse_canonical(args.target).canonical
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    slot = args.slot.strip()
    if not slot:
        raise ConfigError("--slot must be non-empty")
    space = _load_space_checked(config, "window" if slot == WINDOW else "deps")
    if target not in space.vocabulary:
        raise OutOfVocabularyError(target)
    ranking = space.ranking(target, slot)
    if not ranking:
        if slot not in (ARG, WINDOW):
            _refuse_slots_naming_no_relation({"--slot": slot}, space)
        print(f"{target}/{slot}: (no fillers)")
        return 0
    if len(ranking) < args.k:
        _note(f"only {len(ranking)} fillers available (requested {args.k})")
    print(f"{target}/{slot}: {', '.join(filler for filler, _ in ranking[:args.k])}")
    return 0


# -- eval and sweep ----------------------------------------------------------


def _dataset_paths(config: PipelineConfig) -> dict[str, str]:
    """Each task's configured dataset path, empty when none is set."""
    return {
        TASK_BICKNELL_ACC1: config.bicknell_acc1_path,
        TASK_BICKNELL_ACC2: config.bicknell_acc2_path,
        TASK_CHOW: config.chow_path,
    }


def _score(
    config: PipelineConfig, datasets, kinds, compositions, k_values, workers: int | None = None
) -> list[tuple[EvalReport, bytes, bytes]]:
    """Every cell's report and its ``.json`` and ``.items.csv`` bytes, in (task, kind, composition, k) order.

    ``datasets`` holds (task, path, items). Writes nothing. Each
    (task, kind) pair is one job: ``evaluate_grid`` over every
    composition and k, the check of its task's slot settings when a
    ``deps`` cell has a failed item, then the rendering of its cells. The
    spaces are loaded first, in the order of the jobs' first use. The
    jobs then run on ``workers`` processes (``pool.map_jobs``, most items
    first), by default one per core and at most one per job, or one while
    the process runs another thread. Each forked worker holds
    copy-on-write pages of the loaded spaces. Outcomes are taken in job
    order, so a run ends in the error that one process running the jobs
    in turn would meet first; one worker is that process.
    """
    from .evaluation import BicknellSlots, ChowSlots, evaluate_grid, per_item_csv, report_to_json

    spaces: dict[str, WeightedSpace] = {}

    def space(which: str) -> WeightedSpace:
        if which not in spaces:
            _note(f"loading {which} space")
            spaces[which] = _load_space_checked(config, which)
        return spaces[which]

    stamps = {"config_hash": config_hash(config), "space_hash": space_hash(config)}
    jobs = []
    load_error = None
    try:
        for task, dataset, items in datasets:
            chow = task == TASK_CHOW
            keys = ("chow_agent_slot", "chow_patient_slot") if chow else ("bicknell_agent_slot", "bicknell_verb_slot")
            settings = {key: getattr(config, key) for key in keys}  # named when a slot names no relation
            slots = (ChowSlots if chow else BicknellSlots)(*settings.values())
            for kind in kinds:
                # boa_space=window: BOA ranks its fillers in the deps space and reads their window vectors
                window_boa = kind is VariantKind.BOA and config.boa_space == "window"
                vectors = space("window" if kind is VariantKind.BOW or window_boa else "deps")
                provenance = {**stamps, "space_id": vectors.space_id, "dataset": dataset}
                index = None
                if window_boa:
                    index = space("deps")
                    provenance["index_space_id"] = index.space_id
                if chow and kind is not VariantKind.DEPS:
                    _note(f"note: {kind.value} on role reversal is provably tied")
                jobs.append((task, kind, items, slots, settings, vectors, index, provenance))
    except ArgexError as exc:  # raised after the jobs before its first use, as it would be in turn
        load_error = exc

    def run(job: int) -> list[tuple[EvalReport, bytes, bytes]]:
        task, kind, items, slots, settings, vectors, index, provenance = jobs[job]
        grid = evaluate_grid(vectors, kind, items, task, compositions, k_values, slots, index=index)
        if kind is VariantKind.DEPS and any(report.n_failed for report in grid.values()):
            _refuse_slots_naming_no_relation(settings, vectors)
        return [
            (report, report_to_json(report, provenance).encode("utf-8"), per_item_csv(report).encode("utf-8"))
            for report in (grid[(comp, k)] for comp in compositions for k in k_values)
        ]

    if len(jobs) > 1:
        from .pool import map_jobs

        most_items_first = sorted(range(len(jobs)), key=lambda job: -len(jobs[job][2]))
        results = map_jobs(run, most_items_first, workers)
    else:  # an eval's one job runs here, with no pool to import
        results = map(run, range(len(jobs)))
    cells = [cell for job_cells in results for cell in job_cells]
    if load_error is not None:
        raise load_error
    return cells


def _refuse_slots_naming_no_relation(slots: dict[str, str], space: WeightedSpace) -> None:
    """Refuse a slot that names no relation of the dependency ``space``.

    ``slots`` maps the setting or flag that gave each slot to the slot.
    A ranking under such a slot is always empty. This reads the whole
    catalog, so it runs only once a ranking has come back empty.
    """
    relations = {relation for relation, _ in space.catalog}
    for key, slot in slots.items():
        if slot not in relations:
            raise ConfigError(f"{key}={slot} names no relation of the space {space.directory}")


def _write_reports(out_dir: str, cells, table_of: Callable[[str], str | None]) -> None:
    """Write each cell's ``.json`` and ``.items.csv``, then its task's table if ``table_of`` names one."""
    from .evaluation import per_k_csv

    reports_dir = artifact_paths(out_dir)["reports"]
    make_output_dir(reports_dir)
    for task, task_cells in itertools.groupby(cells, key=lambda cell: cell[0].task):
        reports = []
        for report, json_bytes, csv_bytes in task_cells:
            base = os.path.join(reports_dir, f"{task}.{report.variant.label}")
            write_bytes_atomic(base + ".json", json_bytes)
            write_bytes_atomic(base + ".items.csv", csv_bytes)
            reports.append(report)
        table = table_of(task)
        if table:
            write_bytes_atomic(os.path.join(reports_dir, table), per_k_csv(reports).encode("utf-8"))


def _run(config: PipelineConfig, tasks: dict[str, str], kinds, compositions, k_values, table_of) -> int:
    """Score, then write, the report of every (task, kind, composition, k) cell.

    ``tasks`` maps each task to its dataset path. Every dataset is loaded
    before the lock is taken. The lock then spans the space loads, the
    scoring and the last write: a failed run writes no report, and all of
    a run's reports come from one generation of spaces.
    """
    from .datasets import BicknellMode, load_bicknell, load_chow

    datasets = []
    for task, path in tasks.items():
        if not path:
            raise ConfigError(f"no dataset path configured for {task}")
        if task == TASK_CHOW:
            items = load_chow(path)
        else:
            mode = BicknellMode.ACC1 if task == TASK_BICKNELL_ACC1 else BicknellMode.ACC2
            items = load_bicknell(path, mode)
        _note(f"{task}: {len(items)} items from {path}")
        datasets.append((task, path, items))
    with locked(config.out_dir):
        cells = _score(config, datasets, kinds, compositions, k_values)
        _write_reports(config.out_dir, cells, table_of)
    for report, _, _ in cells:
        print(report.summary_line())
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    kind = VariantKind.from_string(args.kind)
    composition = Composition.from_string(args.composition)
    k_values = _parse_k_list(args.k) if args.k else (config.k_values[0],)
    table = f"{args.task}.{kind.value}-{composition.value}.k_sweep.csv" if len(k_values) > 1 else None
    dataset = args.dataset or _dataset_paths(config)[args.task]
    return _run(config, {args.task: dataset}, [kind], [composition], k_values, lambda task: table)


def _parse_k_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"--k expects an integer or comma list, got {text!r}") from None
    if not values:
        raise ConfigError("--k list is empty")
    if min(values) < 1:
        raise ConfigError(f"--k must be >= 1, got {min(values)}")
    refuse_repeats("--k", values)
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    paths = _dataset_paths(config)
    if args.task:
        tasks = {args.task: paths[args.task]}
    else:
        tasks = {task: path for task, path in paths.items() if path}
        if not tasks:
            raise ConfigError("no dataset paths configured; nothing to sweep")
    kinds = [VariantKind.from_string(name) for name in config.variant_kinds]
    compositions = [Composition.from_string(name) for name in config.compositions]
    return _run(config, tasks, kinds, compositions, config.k_values, lambda task: f"{task}.sweep.csv")


# -- report ----------------------------------------------------------------


# the type of each report field the table reads, in table order
_NUMBER_OR_NULL = (int, float, type(None))
_REPORT_FIELDS = (
    ("task", str), ("kind", str), ("composition", str), ("k", int),
    ("accuracy", _NUMBER_OR_NULL), ("coverage", _NUMBER_OR_NULL), ("n_ties", int), ("all_ties", bool),
)


def cmd_report(args: argparse.Namespace) -> int:
    import glob
    import json

    config = _config_from_args(args)
    reports_dir = artifact_paths(config.out_dir)["reports"]
    rows = []
    for path in sorted(glob.glob(os.path.join(glob.escape(reports_dir), "*.json"))):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            variant = data["variant"]
            row = (
                data["task"],
                variant["kind"],
                variant["composition"],
                variant["k"],
                data["accuracy"],
                data["coverage"],
                data["counts"]["n_ties"],
                data["all_ties"],
            )
            for (name, kind), value in zip(_REPORT_FIELDS, row):
                # bool is an int: only all_ties may be one
                if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
                    raise TypeError(f"{name} is {value!r}")
            rows.append(row)
        except OSError as exc:
            raise CorpusError(f"cannot read report {path}: {exc}") from None
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ConsistencyError(f"report {path} is damaged: {exc!r}") from None
    if not rows:
        print(f"no reports under {reports_dir}")
        return 0
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    print(f"{'task':<15} {'model':<6} {'comp':<5} {'k':>3} {'accuracy':>9} {'coverage':>9} {'ties':>5}")
    for task, kind, comp, k, accuracy, coverage, ties, all_ties in rows:
        acc = "n/a" if accuracy is None else f"{accuracy:.3f}"
        cov = "n/a" if coverage is None else f"{100.0 * coverage:.0f}%"
        note = " (all ties)" if all_ties else ""
        print(f"{task:<15} {kind:<6} {comp:<5} {k:>3} {acc:>9} {cov:>9} {ties:>5}{note}")
    return 0


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="argex",
        description="Distributional verb-argument expectation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("-c", "--config", required=True, help="pipeline config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        p.add_argument("--out-dir", help="override the output directory")

    p_ingest = sub.add_parser("ingest", help="parse corpora into raw count tensors")
    common(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    p_weight = sub.add_parser("weight", help="weight tensors and build space archives")
    common(p_weight)
    p_weight.set_defaults(func=cmd_weight)

    p_fillers = sub.add_parser("fillers", help="print the top-k fillers of a slot")
    common(p_fillers)
    p_fillers.add_argument("--target", required=True, help="target token, e.g. steal-v")
    p_fillers.add_argument("--slot", required=True, help="relation, e.g. obj, sbj_inv, ARG, WINDOW")
    p_fillers.add_argument("--k", type=int, default=20)
    p_fillers.set_defaults(func=cmd_fillers)

    p_eval = sub.add_parser("eval", help="run one task for one model variant")
    common(p_eval)
    p_eval.add_argument("--task", required=True, choices=ALL_TASKS)
    p_eval.add_argument("--kind", required=True, choices=("deps", "boa", "bow"))
    p_eval.add_argument("--composition", default="sum", choices=("sum", "mult"))
    p_eval.add_argument("--k", help="filler count, or comma list for a sweep")
    p_eval.add_argument("--dataset", help="dataset path (defaults to the configured one)")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="run the full configured grid")
    common(p_sweep)
    p_sweep.add_argument("--task", choices=ALL_TASKS, help="restrict to one task")
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="print the accuracy table from saved reports")
    common(p_report)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CorpusError, DatasetError, StaleArtifactError, UndefinedModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OutOfVocabularyError, EmptyPrototypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    """The process entry of ``argex`` and ``python -m argex.cli``: exit with ``main``'s code.

    Cyclic GC is off for the whole run, whatever the command: a stage
    keeps what it makes to its end, so a collection frees almost nothing,
    and a forked worker inherits the collector off, so it writes none of
    the pages it shares with the process to collect them. The cycles a
    run leaves are bounded by its report count (the closures of
    ``json.dumps(indent=2)``), not by the corpus. The heap is frozen on
    the way out, because the interpreter collects at shutdown even with
    the collector off. A closed stdout ends the process by ``SIGPIPE``,
    not a traceback. A ``main(argv)`` called in process leaves the GC and
    SIGPIPE as they were.
    """
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
