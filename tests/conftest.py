"""Shared builders: CoNLL text helpers, random corpora, in-memory spaces."""

from __future__ import annotations

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
from argex.space import WeightedSpace, build_space
from argex.tokens import compile_pos_map
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


def dependency_counts(corpus, vocab: Vocabulary, subject_labels=SUBJECTS, object_labels=OBJECTS,
                      allowlist=None, denylist=frozenset()):
    """``extract_dependency_counts`` with the default config's labels and no relation lists."""
    return extract_dependency_counts(corpus, vocab, subject_labels, object_labels, allowlist, denylist)


def window_counts(corpus, vocab: Vocabulary, width: int = DEFAULTS.window_width,
                  filtered_positions: bool = DEFAULTS.window_filtered_positions):
    return extract_window_counts(corpus, vocab, width, filtered_positions)


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
