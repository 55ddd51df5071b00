"""Shared builders: CoNLL text helpers, random corpora, in-memory spaces."""

from __future__ import annotations

import ast
import hashlib
import os
import random

import pytest

from argex.config import PipelineConfig
from argex.conll import ColumnConfig, ParseStats, parse_conll_stream
from argex.corpus import (
    Vocabulary,
    build_vocabulary,
    extract_dependency_counts,
    extract_window_counts,
)
from argex.evaluation import BicknellSlots, ChowSlots
from argex.space import _FILES, SparseVector, WeightedSpace, build_space
from argex.artifacts import read_sidecar, write_sidecar
from argex.tensor import CooccurrenceTensor
from argex.tokens import ARG, compile_pos_map
from argex.weighting import collapse_relations, weight_tensor

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_DIR = os.path.join(REPO_ROOT, "data", "synthetic")
CONFIG_DIR = os.path.join(REPO_ROOT, "configs")

# the settings of a default config, which the program's functions take as arguments
DEFAULTS = PipelineConfig()
COLUMNS = ColumnConfig(
    form=DEFAULTS.col_form,
    lemma=DEFAULTS.col_lemma,
    pos=DEFAULTS.col_pos,
    head=DEFAULTS.col_head,
    relation=DEFAULTS.col_relation,
)
POS_MAP = compile_pos_map(DEFAULTS.pos_map)
SUBJECTS = frozenset(DEFAULTS.subject_labels)
OBJECTS = frozenset(DEFAULTS.object_labels)
BICKNELL_SLOTS = BicknellSlots(DEFAULTS.bicknell_agent_slot, DEFAULTS.bicknell_verb_slot)
CHOW_SLOTS = ChowSlots(DEFAULTS.chow_agent_slot, DEFAULTS.chow_patient_slot)


def conll_text(sentences: list[list[tuple[str, str, int, str]]]) -> str:
    """Sentences hold (lemma, fine_tag, head, relation) rows; form = lemma."""
    chunks = []
    for rows in sentences:
        lines = [
            f"{i}\t{lemma}\t{lemma}\t{tag}\t{tag}\t_\t{head}\t{rel}\t_\t_"
            for i, (lemma, tag, head, rel) in enumerate(rows, start=1)
        ]
        chunks.append("\n".join(lines) + "\n\n")
    return "".join(chunks)


def parse_text(text: str, stats: ParseStats | None = None):
    return list(parse_conll_stream(text.splitlines(), COLUMNS, POS_MAP, stats=stats))


def vocabulary(corpus, threshold: int) -> Vocabulary:
    return build_vocabulary(corpus, threshold, DEFAULTS.vocab_threshold_inclusive)


def counted(direct: dict) -> dict:
    """The full counts of ``direct`` observations: each one once, and once more as its mirror.

    The mirror rule, restated here apart from ``argex.tensor``: (t, r, f)
    mirrors as (f, r_inv, t), and under WINDOW as (f, WINDOW, t).
    """
    counts = {}
    for (target, relation, filler), n in direct.items():
        mirror = (filler, relation if relation == "WINDOW" else relation + "_inv", target)
        for key in ((target, relation, filler), mirror):
            counts[key] = counts.get(key, 0) + n
    return counts


def dependency_counts(corpus, vocab: Vocabulary, subject_labels=SUBJECTS, object_labels=OBJECTS,
                      allowlist=None, denylist=frozenset()) -> CooccurrenceTensor:
    """The full counts (``counted``) of ``extract_dependency_counts``, by default with the config's labels."""
    direct = extract_dependency_counts(corpus, vocab, subject_labels, object_labels, allowlist, denylist)
    return CooccurrenceTensor(counted(direct.counts))


def window_counts(corpus, vocab: Vocabulary, width: int = DEFAULTS.window_width,
                  filtered_positions: bool = DEFAULTS.window_filtered_positions) -> CooccurrenceTensor:
    """The full counts (``counted``) of ``extract_window_counts``, by default with the config's window."""
    return CooccurrenceTensor(counted(extract_window_counts(corpus, vocab, width, filtered_positions).counts))


NOUNS = ["cat", "dog", "bird", "fish", "tree", "car", "road", "book", "door", "cake", "wolf", "lamp"]
VERBS = ["see", "chase", "eat", "find", "build", "read"]
OTHER = [("the", "DT"), ("very", "RB"), ("of", "IN"), ("red", "JJ"), ("under", "IN")]
RELATIONS = ["sbj", "obj", "nmod", "det", "amod", "prep"]


def random_corpus_text(seed: int, n_sentences: int) -> str:
    """Well-formed but randomly structured corpus for counting oracles."""
    rng = random.Random(seed)
    sentences = []
    for _ in range(n_sentences):
        length = rng.randint(1, 12)
        rows = []
        for _ in range(length):
            kind = rng.random()
            if kind < 0.45:
                rows.append((rng.choice(NOUNS), "NN", 0, "root"))
            elif kind < 0.70:
                rows.append((rng.choice(VERBS), "VB", 0, "root"))
            else:
                lemma, tag = rng.choice(OTHER)
                rows.append((lemma, tag, 0, "root"))
        attached = []
        for i, (lemma, tag, _, _) in enumerate(rows):
            head = rng.randint(0, length)
            rel = rng.choice(RELATIONS) if head else "root"
            attached.append((lemma, tag, head, rel))
        sentences.append(attached)
    return conll_text(sentences)


def spaces_from_text(
    text: str,
    threshold: int = 1,
    window_width: int = DEFAULTS.window_width,
) -> tuple[WeightedSpace, WeightedSpace]:
    """Build (dependency space, window space) the way the pipeline does.

    The dependency space carries the collapsed-argument rankings so BOA
    queries work against it directly.
    """
    corpus = parse_text(text)
    vocab = vocabulary(corpus, threshold)
    dep_counts = dependency_counts(corpus, vocab)
    win_counts = window_counts(corpus, vocab, width=window_width)
    dep_weighted = weight_tensor(dep_counts)
    win_weighted = weight_tensor(win_counts)
    arg_counts = collapse_relations(dep_counts)
    arg_weighted = weight_tensor(arg_counts) if arg_counts.total > 0 else None
    deps_space = build_space(dep_weighted, vocab.entries, extra_index=arg_weighted)
    window_space = build_space(win_weighted, vocab.entries)
    return deps_space, window_space


def vector_from_pairs(pairs) -> SparseVector:
    """A vector from (dimension id, score) pairs in any order; zero scores are dropped as absent."""
    kept = sorted(pair for pair in pairs if pair[1])
    return SparseVector(tuple(dim for dim, _ in kept), tuple(score for _, score in kept))


def blocks(texts, data_file: int = 1) -> dict[str, str]:
    """Each target's block of lines in the ``rows.tsv`` (or ``arg.tsv``, ``data_file`` 2) of an archive's ``texts``.

    ``texts`` holds the archive's four files in ``space._FILES`` order.
    The blocks are cut where ``blocks.tsv`` says they start, and in its
    order; empty ones are left out.
    """
    lines = [line.split("\t") for line in texts[3].splitlines()]
    text = texts[data_file]
    starts = [int(fields[data_file]) for fields in lines]
    cut = {fields[0]: text[start:end] for fields, start, end in zip(lines, starts, [*starts[1:], len(text)])}
    return {target: block for target, block in cut.items() if block}


def targets(space: WeightedSpace, data_file: int = 1) -> list[str]:
    """The targets with lines in a space's ``rows.tsv`` (or in ``arg.tsv``, ``data_file`` 2), in file order."""
    return list(blocks(space.texts, data_file))


def record_space_id(directory: str, **manifest: str) -> None:
    """Re-record a saved archive's space id (its ``content_hash``) from its files, and any other ``manifest`` values."""
    digest = hashlib.sha256()
    for name in _FILES:
        with open(os.path.join(directory, name), "rb") as fh:
            digest.update(fh.read())
    path = os.path.join(directory, "manifest.txt")
    write_sidecar(path, {**read_sidecar(path), "content_hash": digest.hexdigest(), **manifest})


def every_ranking(space: WeightedSpace) -> dict[tuple[str, str], tuple]:
    """The ranking of every target of ``rows.tsv`` or ``arg.tsv`` by every catalog relation and ARG."""
    relations = sorted({relation for relation, _ in space.catalog} | {ARG})
    names = sorted(set(targets(space)) | set(targets(space, data_file=2)))
    return {(target, relation): space.ranking(target, relation) for target in names for relation in relations}


def imported_names(module: ast.Module) -> dict[str, str]:
    """Each name an import in ``module`` binds, mapped to the dotted name it stands for."""
    names = {}
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    names[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def called_name(call: ast.Call, names: dict[str, str]) -> str | None:
    """The dotted name ``call`` resolves to through ``names``, or None when it calls no plain or module name."""
    func = call.func
    if isinstance(func, ast.Name):
        return names.get(func.id, func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{names.get(func.value.id, func.value.id)}.{func.attr}"
    return None


@pytest.fixture(scope="session")
def fixture_paths() -> dict[str, str]:
    paths = {
        "bicknell_corpus": os.path.join(DATA_DIR, "corpus_bicknell.conll"),
        "chow_corpus": os.path.join(DATA_DIR, "corpus_chow.conll"),
        "bicknell_acc1": os.path.join(DATA_DIR, "bicknell_acc1.tsv"),
        "bicknell_acc2": os.path.join(DATA_DIR, "bicknell_acc2.tsv"),
        "chow50": os.path.join(DATA_DIR, "chow50.tsv"),
        "bicknell_config": os.path.join(CONFIG_DIR, "bicknell.conf"),
        "chow_config": os.path.join(CONFIG_DIR, "chow.conf"),
    }
    for path in paths.values():
        assert os.path.exists(path), f"missing checked-in fixture {path}"
    return paths
