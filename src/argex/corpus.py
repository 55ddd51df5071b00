"""Vocabulary filtering and raw co-occurrence counting.

Two count collections are produced from the same parsed stream: a
dependency tensor over arc relations (with materialized inverse entries
and the synthetic VERB link between co-arguments) and a surface window
matrix under the single WINDOW pseudo-relation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .conll import SentenceRecord
from .tensor import CooccurrenceTensor, parse_tsv, read_artifact, write_artifact
from .tokens import VERB_LINK, VERB_POS, WINDOW, canonical_checker, inverse

DEFAULT_SUBJECT_LABELS = frozenset({"sbj"})
DEFAULT_OBJECT_LABELS = frozenset({"obj"})


@dataclass
class Vocabulary:
    """Noun/verb tokens (canonical strings) whose corpus frequency clears the threshold."""

    frequency: dict[str, int]
    threshold: int
    inclusive: bool = True
    entries: frozenset[str] = field(init=False)

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError("vocabulary threshold must be >= 1")
        keep = (
            (lambda n: n >= self.threshold) if self.inclusive else (lambda n: n > self.threshold)
        )
        self.entries = frozenset(t for t, n in self.frequency.items() if keep(n))

    def __contains__(self, token: str) -> bool:
        return token in self.entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def build_vocabulary(
    corpus: Iterable[SentenceRecord], threshold: int, inclusive: bool = True
) -> Vocabulary:
    """Count every noun/verb surface occurrence and apply the threshold."""
    freq: Counter = Counter()
    for sentence in corpus:
        for token in sentence.tokens:
            if token is not None:
                freq[token] += 1
    return Vocabulary(dict(freq), threshold, inclusive)


def extract_dependency_counts(
    corpus: Iterable[SentenceRecord],
    vocab: Vocabulary,
    subject_labels: frozenset[str] = DEFAULT_SUBJECT_LABELS,
    object_labels: frozenset[str] = DEFAULT_OBJECT_LABELS,
    allowlist: frozenset[str] | None = None,
    denylist: frozenset[str] = frozenset(),
) -> CooccurrenceTensor:
    """Count arcs, their inverses, and the VERB co-argument link.

    Every in-vocabulary arc (h, r, d) contributes (h, r, d) and
    (d, r_inv, h). Every verb instance with at least one in-vocabulary
    subject and object links each distinct (subject, object) pair once
    under VERB (and its inverse), regardless of the verb's identity.
    """
    tensor = CooccurrenceTensor()
    for sentence in corpus:
        co_args: dict[int, tuple[set[str], set[str]]] = {}
        for arc in sentence.arcs:
            if allowlist is not None and arc.relation not in allowlist:
                continue
            if arc.relation in denylist:
                continue
            head_ok = arc.head in vocab
            dep_ok = arc.dependent in vocab
            if head_ok and dep_ok:
                tensor.add(arc.head, arc.relation, arc.dependent)
                tensor.add(arc.dependent, inverse(arc.relation), arc.head)
            if arc.head.rpartition("-")[2] == VERB_POS and dep_ok:  # the tag after the last hyphen
                slots = co_args.setdefault(arc.head_pos, (set(), set()))
                if arc.relation in subject_labels:
                    slots[0].add(arc.dependent)
                elif arc.relation in object_labels:
                    slots[1].add(arc.dependent)
        for subjects, objects in co_args.values():
            if not subjects or not objects:
                continue
            for subj in sorted(subjects):
                for obj in sorted(objects):
                    tensor.add(subj, VERB_LINK, obj)
                    tensor.add(obj, inverse(VERB_LINK), subj)
    return tensor


def extract_window_counts(
    corpus: Iterable[SentenceRecord],
    vocab: Vocabulary,
    width: int = 2,
    filtered_positions: bool = False,
) -> CooccurrenceTensor:
    """Count symmetric surface co-occurrence within ``width`` positions.

    By default distance is measured over raw positions, so out-of-vocabulary
    words widen gaps without contributing counts. With ``filtered_positions``
    the sentence is first reduced to its in-vocabulary tokens.
    """
    if width < 1:
        raise ValueError("window width must be >= 1")
    tensor = CooccurrenceTensor()
    for sentence in corpus:
        if filtered_positions:
            positions = [t for t in sentence.tokens if t is not None and t in vocab]
        else:
            positions = [t if (t is not None and t in vocab) else None for t in sentence.tokens]
        for i, target in enumerate(positions):
            if target is None:
                continue
            lo = max(0, i - width)
            hi = min(len(positions), i + width + 1)
            for j in range(lo, hi):
                if j == i:
                    continue
                context = positions[j]
                if context is None:
                    continue
                tensor.add(target, WINDOW, context)
    return tensor


def save_vocabulary(vocab: Vocabulary, path: str, sidecar: dict[str, str] | None = None) -> str:
    """Write the full frequency table as sorted TSV; returns content hash."""
    body = "".join(f"{token}\t{count}\n" for token, count in sorted(vocab.frequency.items()))
    meta = {
        "threshold": str(vocab.threshold),
        "inclusive": "true" if vocab.inclusive else "false",
        "entries": str(len(vocab)),
        **(sidecar or {}),
    }
    return write_artifact(path, body, meta)


def load_vocabulary(path: str, threshold: int, inclusive: bool = True) -> Vocabulary:
    """Read a frequency table back and reapply the threshold."""
    text, _ = read_artifact(path)
    frequency: dict[str, int] = {}
    check = canonical_checker()

    def row(token: str, count: str) -> None:
        frequency[check(token)] = int(count)

    parse_tsv(path, text, 2, row)
    return Vocabulary(frequency, threshold, inclusive)

