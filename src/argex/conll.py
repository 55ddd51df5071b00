"""Streaming reader for tab-separated CoNLL-style dependency parses.

Sentences are blank-line separated; each row is one surface token. Column
positions are configurable because parser output conventions differ. Head
fields are 1-based row indices within the sentence (0 = root); the ID
column, if present, is ignored and row order is authoritative.

Malformed rows never abort a run: a row too short to yield a token is
dropped, a row whose head or relation field is unusable keeps its token
but contributes no arc. Both cases increment the malformed counter.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import CorpusError
from .tokens import DEFAULT_POS_PREFIXES, normalize


@dataclass(frozen=True)
class ColumnConfig:
    """0-based field indices into a CoNLL row (defaults: CoNLL-X layout)."""

    form: int = 1
    lemma: int = 2
    pos: int = 3
    head: int = 6
    relation: int = 7

    @property
    def min_token_fields(self) -> int:
        return max(self.form, self.lemma, self.pos) + 1

    @property
    def min_arc_fields(self) -> int:
        return max(self.head, self.relation) + 1


@dataclass(frozen=True)
class DependencyArc:
    """One head -> dependent link between normalized (canonical) tokens."""

    head: str
    relation: str
    dependent: str
    sentence_id: int
    head_pos: int  # surface position of the head, for per-instance grouping
    dep_pos: int


@dataclass
class SentenceRecord:
    """One parsed sentence: surface slots plus the arcs between them.

    ``tokens[i]`` is the canonical ``lemma-pos`` string of position i, or
    None when it holds a word outside the noun/verb universe; the slot
    still counts for surface-window distances.
    """

    sentence_id: int
    tokens: list[str | None]
    arcs: list[DependencyArc]


@dataclass
class ParseStats:
    sentences: int = 0
    rows: int = 0
    malformed_rows: int = 0
    arcs: int = 0
    dropped_arcs: int = 0  # arcs whose endpoint is outside the noun/verb universe
    files: list[str] = field(default_factory=list)


def parse_conll_stream(
    lines: Iterable[str],
    columns: ColumnConfig = ColumnConfig(),
    pos_map=DEFAULT_POS_PREFIXES,
    stats: ParseStats | None = None,
    first_sentence_id: int = 0,
) -> Iterator[SentenceRecord]:
    """Yield one SentenceRecord per blank-line-delimited sentence.

    Comment lines (leading ``#``) are skipped. Arcs are resolved against
    row order; only arcs whose two endpoints both normalize to noun/verb
    tokens survive (head index 0 means the row has no governing arc).
    """
    if stats is None:
        stats = ParseStats()
    sentence_id = first_sentence_id
    rows: list[list[str]] = []  # rows long enough to yield a token
    # a corpus repeats few distinct (lemma, fine tag) pairs: normalize each once
    token_of = functools.cache(lambda lemma, fine_tag: normalize(lemma, fine_tag, pos_map))
    col_lemma, col_pos, col_head, col_relation = (
        columns.lemma, columns.pos, columns.head, columns.relation)
    min_token_fields, min_arc_fields = columns.min_token_fields, columns.min_arc_fields

    def finish() -> SentenceRecord | None:
        nonlocal sentence_id
        if not rows:
            return None
        n_rows = len(rows)
        tokens: list[str | None] = []
        links: list[tuple[int, int, str]] = []  # (dependent, head, relation) positions
        for dep_pos, fields_ in enumerate(rows):
            tokens.append(token_of(fields_[col_lemma], fields_[col_pos]))
            if len(fields_) < min_arc_fields:
                stats.malformed_rows += 1
                continue
            head_field = fields_[col_head].strip()
            relation = fields_[col_relation].strip()
            if head_field in ("", "_"):  # unattached row, not an error
                continue
            try:
                head_idx = int(head_field)
            except ValueError:
                stats.malformed_rows += 1
                continue
            if head_idx < 0 or head_idx > n_rows or not relation:
                stats.malformed_rows += 1
                continue
            if head_idx:  # 0 is the root: no governing arc
                links.append((dep_pos, head_idx - 1, relation))

        arcs: list[DependencyArc] = []
        for dep_pos, head_pos, relation in links:
            head_token = tokens[head_pos]
            dep_token = tokens[dep_pos]
            if head_token is None or dep_token is None:
                stats.dropped_arcs += 1
                continue
            arcs.append(DependencyArc(head_token, relation, dep_token, sentence_id, head_pos, dep_pos))
        record = SentenceRecord(sentence_id, tokens, arcs)
        sentence_id += 1
        stats.sentences += 1
        stats.arcs += len(arcs)
        return record

    try:
        for line in lines:
            line = line.rstrip("\r\n")
            if not line.strip():
                record = finish()
                rows = []
                if record is not None:
                    yield record
                continue
            if line.startswith("#"):
                continue
            stats.rows += 1
            fields_ = line.split("\t")
            if len(fields_) < min_token_fields:
                stats.malformed_rows += 1
                continue
            rows.append(fields_)
        record = finish()
        if record is not None:
            yield record
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"unreadable corpus stream: {exc}") from exc


def parse_conll_file(
    path: str,
    columns: ColumnConfig = ColumnConfig(),
    pos_map=DEFAULT_POS_PREFIXES,
    stats: ParseStats | None = None,
    first_sentence_id: int = 0,
) -> Iterator[SentenceRecord]:
    try:
        handle = io.open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot open corpus file {path}: {exc}") from exc
    if stats is not None:
        stats.files.append(path)
    with handle:
        yield from parse_conll_stream(handle, columns, pos_map, stats, first_sentence_id)
