"""Vocabulary filtering and raw co-occurrence counting.

Two count collections are produced from the same parsed stream: a
dependency tensor over arc relations (and the synthetic VERB link
between co-arguments) and a surface window matrix under the single
WINDOW pseudo-relation. Each observation is counted once, as a saved
tensor stores it: not an arc's inverse, and a window pair lower token
first. ``CooccurrenceTensor.load`` adds each entry's mirror back.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import TYPE_CHECKING, Iterable, Iterator

from .artifacts import Stamps, read_artifact, sidecar_path, write_artifact
from .errors import ConfigError, CorpusError
from .tensor import CooccurrenceTensor, Triple
from .tokens import ARG, VERB_LINK, VERB_POS, WINDOW, Memo, canonical_checker

if TYPE_CHECKING:  # `argex weight` reads a vocabulary without the parser
    from .conll import SentenceRecord

FORMAT_VERSION = "1"  # of vocab.tsv, recorded in its sidecar


class Vocabulary:
    """Noun/verb tokens (canonical strings) whose corpus frequency clears the threshold."""

    __slots__ = ("frequency", "threshold", "inclusive", "entries", "source_hash")

    def __init__(self, frequency: dict[str, int], threshold: int, inclusive: bool, source_hash: str = ""):
        if threshold < 1:
            raise ValueError("vocabulary threshold must be >= 1")
        self.frequency, self.threshold, self.inclusive = frequency, threshold, inclusive
        self.source_hash = source_hash  # the content_hash of the vocab.tsv it was loaded from; empty if built
        keep = (lambda n: n >= threshold) if inclusive else (lambda n: n > threshold)
        self.entries: frozenset[str] = frozenset(t for t, n in frequency.items() if keep(n))

    def __iter__(self) -> Iterator[str]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def build_vocabulary(corpus: Iterable[SentenceRecord], threshold: int, inclusive: bool) -> Vocabulary:
    """Count every noun/verb surface occurrence and apply the threshold."""
    freq = Counter(itertools.chain.from_iterable(sentence.tokens for sentence in corpus))
    freq.pop(None, None)  # positions outside the noun/verb universe
    return Vocabulary(dict(freq), threshold, inclusive)


def extract_dependency_counts(
    corpus: Iterable[SentenceRecord],
    vocab: Vocabulary,
    subject_labels: frozenset[str],
    object_labels: frozenset[str],
    allowlist: frozenset[str] | None,
    denylist: frozenset[str],
) -> CooccurrenceTensor:
    """Count arcs and the VERB co-argument link, each once and not its inverse.

    ``allowlist`` None keeps every relation the ``denylist`` does not
    drop; keeping ``WINDOW`` (the window space's relation), ``VERB`` or
    ``ARG`` (relations argex makes itself) is a ``ConfigError``. Every
    in-vocabulary arc (h, r, d) counts (h, r, d).
    Every verb instance with at least one in-vocabulary subject and
    object links each distinct (subject, object) pair once as
    (subject, VERB, object), regardless of the verb's identity.
    """
    counts: dict[Triple, int] = {}
    get = counts.get
    entries = vocab.entries

    def kept(relation: str) -> bool:
        if (allowlist is not None and relation not in allowlist) or relation in denylist:
            return False
        if relation in (WINDOW, VERB_LINK, ARG):
            made = "the window space's relation" if relation == WINDOW else "a relation argex makes itself"
            raise ConfigError(f"the corpus has arcs labelled {relation}, {made}: "
                              "add it to relation_denylist to drop them")
        return True

    is_kept = Memo(kept)
    verb_suffix = "-" + VERB_POS  # a canonical token's tag follows its last hyphen
    for sentence in corpus:
        co_args: dict[int, tuple[set[str], set[str]]] = {}
        for head, relation, dependent, head_pos in sentence.arcs:
            if not is_kept[relation]:
                continue
            if dependent not in entries:
                continue
            if head in entries:
                key = (head, relation, dependent)
                counts[key] = get(key, 0) + 1
            if head.endswith(verb_suffix):
                if relation in subject_labels:
                    side = 0
                elif relation in object_labels:
                    side = 1
                else:
                    continue
                slots = co_args.get(head_pos)
                if slots is None:
                    slots = co_args[head_pos] = (set(), set())
                slots[side].add(dependent)
        for subjects, objects in co_args.values():
            if not subjects or not objects:
                continue
            for subj in subjects:
                for obj in objects:
                    key = (subj, VERB_LINK, obj)
                    counts[key] = get(key, 0) + 1
    return CooccurrenceTensor(counts)


def extract_window_counts(
    corpus: Iterable[SentenceRecord],
    vocab: Vocabulary,
    width: int,
    filtered_positions: bool,
) -> CooccurrenceTensor:
    """Count each pair of tokens within ``width`` positions once, lower token first.

    A token beside itself counts once per occurrence. Without
    ``filtered_positions`` distance is measured over raw positions, so
    out-of-vocabulary words widen gaps without contributing counts. With
    it the sentence is first reduced to its in-vocabulary tokens.
    """
    if width < 1:
        raise ValueError("window width must be >= 1")
    counts: dict[Triple, int] = {}
    get = counts.get
    entries = vocab.entries
    for sentence in corpus:
        if filtered_positions:
            positions = [t for t in sentence.tokens if t in entries]
        else:
            positions = [t if t in entries else None for t in sentence.tokens]
        # each pair of positions at most ``width`` apart counts once;
        # no pair is further apart than the sentence is long
        for offset in range(1, min(width + 1, len(positions))):
            for target, context in zip(positions, positions[offset:]):
                if target is not None and context is not None:
                    key = (target, WINDOW, context) if target <= context else (context, WINDOW, target)
                    counts[key] = get(key, 0) + 1
    return CooccurrenceTensor(counts)


def save_vocabulary(vocab: Vocabulary, path: str, sidecar: dict[str, str] | None = None) -> str:
    """Write the full frequency table as sorted TSV; returns content hash."""
    body = "".join(f"{token}\t{count}\n" for token, count in sorted(vocab.frequency.items()))
    meta = {
        "threshold": str(vocab.threshold),
        "inclusive": "true" if vocab.inclusive else "false",
        "entries": str(len(vocab)),
        **(sidecar or {}),
        "format_version": FORMAT_VERSION,
    }
    return write_artifact(path, body, meta)


def load_vocabulary(path: str, threshold: int, inclusive: bool, stamps: Stamps | None = None) -> Vocabulary:
    """Read a frequency table back, once ``read_artifact`` has checked it and ``stamps``, and reapply the threshold.

    ``save_vocabulary`` writes each token once with a count of at least
    1; a count below 1 or a repeated token names ``path:line``.
    """
    (text,), meta = read_artifact([path], sidecar_path(path), FORMAT_VERSION, "ingest", stamps)
    frequency: dict[str, int] = {}
    check = canonical_checker()
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line:
            continue
        fields = line.split("\t")
        try:
            if len(fields) != 2:
                raise ValueError(f"expected 2 tab-separated fields, got {len(fields)}")
            token, n = check(fields[0]), int(fields[1])
            if n < 1:
                raise ValueError(f"count {n} of {token} is below 1")
            if token in frequency:
                raise ValueError(f"repeated token {token}")
        except ValueError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from None
        frequency[token] = n
    return Vocabulary(frequency, threshold, inclusive, meta["content_hash"])

