"""Command-line pipeline driver.

Stages: ingest (corpora to raw tensors), weight (tensors to space
archives), fillers (probe a ranking), eval (run one task), sweep (run
the configured grid), report (print the accuracy table). One config
file drives everything; `--set key=value` overrides individual keys.

Progress and diagnostics go to stderr; stdout carries the human-readable
summary. Machine-readable results go to files under the output
directory. Exit codes: 0 success, 2 input error, 3 query error,
4 internal-consistency error.

Each command imports the stage modules it uses, so a one-shot query
loads no parsing, counting or scoring code.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import os
import sys
from typing import TYPE_CHECKING, Callable

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
    ConfigError,
    ConsistencyError,
    CorpusError,
    DatasetError,
    EmptyPrototypeError,
    OutOfVocabularyError,
    StaleArtifactError,
    UndefinedModelError,
)
from .tensor import CooccurrenceTensor, full_size, make_output_dir, read_sidecar, sidecar_path, write_bytes_atomic
from .tokens import ARG, WINDOW, compile_pos_map, parse_canonical

if TYPE_CHECKING:
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


@contextlib.contextmanager
def _locked(out_dir: str):
    """Single-writer guard: a stage holds an exclusive ``flock`` on ``out_dir/.lock`` (POSIX only).

    The kernel drops the lock when its process ends, even a killed one, so a lock is never stale.
    """
    import fcntl

    make_output_dir(out_dir)
    lock = os.path.join(out_dir, ".lock")
    with contextlib.ExitStack() as release:
        try:
            # O_NONBLOCK: a FIFO at .lock is refused, not waited on
            fd = os.open(lock, os.O_CREAT | os.O_WRONLY | os.O_NONBLOCK)
            release.callback(os.close, fd)
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # a holder unlinks the file before it lets go: a lock on an unlinked file guards nothing
            held = os.fstat(fd).st_nlink > 0
        except BlockingIOError:
            held = False
        except OSError as exc:
            raise ConfigError(f"cannot lock {lock}: {exc}") from None
        if not held:
            raise ConfigError(f"output directory {out_dir} is locked by another stage")
        try:
            yield
        finally:
            with contextlib.suppress(OSError):
                os.unlink(lock)  # before the close lets go of the lock


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


def _require_artifact(path: str, producer: str) -> None:
    if not os.path.exists(path):
        raise CorpusError(f"{path} not found; run `argex {producer}` first")


def _require_stamp(meta_source: str, recorded: str | None, expected: str, producer: str) -> None:
    if recorded != expected:
        raise StaleArtifactError(
            f"{meta_source} was produced under a different configuration "
            f"(recorded {str(recorded)[:12]}.., current config needs {expected[:12]}..); "
            f"re-run `argex {producer}`"
        )


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
    with _locked(config.out_dir):
        vocab_hash = save_vocabulary(vocab, paths["vocab"], {"ingest_hash": stamp, **counts})
        dep.save(paths["deps_tensor"], {"ingest_hash": stamp, "vocab_hash": vocab_hash})
        win.save(paths["window_tensor"], {"ingest_hash": stamp, "vocab_hash": vocab_hash})
    print(
        f"ingested {stats.sentences} sentences from {len(stats.files)} file(s): "
        f"{stats.rows} rows ({stats.malformed_rows} malformed), "
        f"{stats.arcs} arcs kept ({stats.dropped_arcs} dropped)"
    )
    print(f"vocabulary: {len(vocab)} tokens at threshold {config.vocab_threshold}")
    print("dependency tensor: %d entries, total %d -> %s" % (*full_size(dep.counts), paths["deps_tensor"]))
    print("window tensor: %d entries, total %d -> %s" % (*full_size(win.counts), paths["window_tensor"]))
    return 0


# -- weight ----------------------------------------------------------------


def cmd_weight(args: argparse.Namespace) -> int:
    from .corpus import load_vocabulary
    from .space import build_space, save_space
    from .weighting import WeightedTensor, collapse_relations, max_over_relations, weight_tensor

    config = _config_from_args(args)
    paths = artifact_paths(config.out_dir)
    stamp_in = ingest_hash(config)
    stamp_space = space_hash(config)
    metas = {}
    for key in ("vocab", "deps_tensor", "window_tensor"):
        _require_artifact(paths[key], "ingest")
        meta = metas[key] = read_sidecar(sidecar_path(paths[key]))
        _require_stamp(paths[key], meta.get("ingest_hash"), stamp_in, "ingest")
    _note("loading tensors")
    dep = CooccurrenceTensor.load(paths["deps_tensor"])
    win = CooccurrenceTensor.load(paths["window_tensor"])
    for key in ("deps_tensor", "window_tensor"):  # a crashed ingest can leave two runs' files side by side
        if metas[key].get("vocab_hash") != metas["vocab"].get("content_hash"):
            raise StaleArtifactError(f"{paths[key]} was not counted over {paths['vocab']}; re-run `argex ingest`")
    vocab = load_vocabulary(paths["vocab"], config.vocab_threshold, config.vocab_threshold_inclusive)
    _note("weighting")
    dep_weighted = weight_tensor(dep)
    win_weighted = weight_tensor(win)
    arg_filter = frozenset(config.arg_relations) if config.arg_relations else None
    if config.boa_rank_mode == "collapsed":
        arg_counts = collapse_relations(dep, arg_filter)
        arg_weighted = weight_tensor(arg_counts) if arg_counts.total > 0 else WeightedTensor()
    else:
        arg_weighted = max_over_relations(dep_weighted, arg_filter)
    deps_space = build_space(
        dep_weighted,
        vocab,
        extra_index=arg_weighted,
        manifest={"space_hash": stamp_space, "kind": "dependency"},
    )
    window_space = build_space(
        win_weighted, vocab, manifest={"space_hash": stamp_space, "kind": "window"}
    )
    with _locked(config.out_dir):
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
    print(f"argument rankings ({config.boa_rank_mode}): {len(arg_weighted)} entries -> {paths['deps_space']}")
    return 0


# -- fillers ---------------------------------------------------------------


def _load_space_checked(config: PipelineConfig, which: str) -> WeightedSpace:
    from .space import load_space

    paths = artifact_paths(config.out_dir)
    directory = paths[f"{which}_space"]
    _require_artifact(directory, "weight")
    space = load_space(directory)
    _require_stamp(directory, space.manifest.get("space_hash"), space_hash(config), "weight")
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
    config: PipelineConfig, datasets, kinds, compositions, k_values
) -> list[tuple[EvalReport, dict[str, str]]]:
    """Every cell's report and provenance, in (task, kind, composition, k) order.

    ``datasets`` holds (task, path, items). Writes nothing; each space
    is loaded on its first use.
    """
    from .evaluation import BicknellSlots, ChowSlots, evaluate_grid

    spaces: dict[str, WeightedSpace] = {}

    def space(which: str) -> WeightedSpace:
        if which not in spaces:
            _note(f"loading {which} space")
            spaces[which] = _load_space_checked(config, which)
        return spaces[which]

    chow_slots = ChowSlots(agent=config.chow_agent_slot, patient=config.chow_patient_slot)
    bicknell_slots = BicknellSlots(agent=config.bicknell_agent_slot, verb=config.bicknell_verb_slot)
    stamps = {"config_hash": config_hash(config), "space_hash": space_hash(config)}
    cells = []
    for task, dataset, items in datasets:
        for kind in kinds:
            # boa_space=window: BOA ranks its fillers in the deps space and reads their window vectors
            window_boa = kind is VariantKind.BOA and config.boa_space == "window"
            vectors = space("window" if kind is VariantKind.BOW or window_boa else "deps")
            provenance = {**stamps, "space_id": vectors.space_id, "dataset": dataset}
            index = None
            if window_boa:
                index = space("deps")
                provenance["index_space_id"] = index.space_id
            if task == TASK_CHOW and kind is not VariantKind.DEPS:
                _note(f"note: {kind.value} on role reversal is provably tied")
            slots = chow_slots if task == TASK_CHOW else bicknell_slots
            grid = evaluate_grid(vectors, kind, items, task, compositions, k_values, slots, index=index)
            if kind is VariantKind.DEPS and any(report.n_failed for report in grid.values()):
                keys = (("chow_agent_slot", "chow_patient_slot") if task == TASK_CHOW
                        else ("bicknell_agent_slot", "bicknell_verb_slot"))
                _refuse_slots_naming_no_relation({key: getattr(config, key) for key in keys}, vectors)
            cells += [(grid[(comp, k)], provenance) for comp in compositions for k in k_values]
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
    from .evaluation import per_item_csv, per_k_csv, report_to_json

    reports_dir = artifact_paths(out_dir)["reports"]
    make_output_dir(reports_dir)
    for task, task_cells in itertools.groupby(cells, key=lambda cell: cell[0].task):
        reports = []
        for report, provenance in task_cells:
            base = os.path.join(reports_dir, f"{task}.{report.variant.label}")
            write_bytes_atomic(base + ".json", report_to_json(report, provenance).encode("utf-8"))
            write_bytes_atomic(base + ".items.csv", per_item_csv(report).encode("utf-8"))
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
    with _locked(config.out_dir):
        cells = _score(config, datasets, kinds, compositions, k_values)
        _write_reports(config.out_dir, cells, table_of)
    for report, _ in cells:
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
    for path in sorted(glob.glob(os.path.join(reports_dir, "*.json"))):
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

    The heap is frozen on the way out, so the interpreter's collections
    at shutdown skip the objects the run made, which the exit drops
    anyway. A ``main(argv)`` called in process leaves the GC as it was.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
