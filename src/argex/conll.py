"""Streaming reader for tab-separated CoNLL-style dependency parses.

Sentences are blank-line separated; each row is one surface token. Column
positions are configurable because parser output conventions differ. Head
fields are 1-based row indices within the sentence (0 = root); the ID
column, if present, is ignored and row order is authoritative.

Malformed rows never abort a run: a row too short to yield a token is
dropped, and an arc headed at it is dropped with it; a row whose head or
relation field is unusable, or whose head is the row itself, keeps its
token but contributes no arc. Both cases increment the malformed counter.
"""

from __future__ import annotations

import bisect
import io
from typing import Iterable, Iterator, NamedTuple

from .errors import CorpusError
from .tokens import Memo, normalize


class ColumnConfig(NamedTuple):
    """0-based field indices into a CoNLL row."""

    form: int
    lemma: int
    pos: int
    head: int
    relation: int

    @property
    def min_token_fields(self) -> int:
        return max(self.form, self.lemma, self.pos) + 1

    @property
    def min_arc_fields(self) -> int:
        return max(self.head, self.relation) + 1


class DependencyArc(NamedTuple):
    """One head -> dependent link between normalized (canonical) tokens."""

    head: str
    relation: str
    dependent: str
    head_pos: int  # surface position of the head, for per-instance grouping


class SentenceRecord(NamedTuple):
    """One parsed sentence: surface slots plus the arcs between them.

    ``tokens[i]`` is the canonical ``lemma-pos`` string of position i, or
    None when it holds a word outside the noun/verb universe; the slot
    still counts for surface-window distances.
    """

    sentence_id: int
    tokens: list[str | None]
    arcs: list[DependencyArc]


class ParseStats:
    """Counters the parser adds to as it reads."""

    __slots__ = ("sentences", "rows", "malformed_rows", "arcs", "dropped_arcs")

    def __init__(
        self,
        sentences: int = 0,
        rows: int = 0,
        malformed_rows: int = 0,
        arcs: int = 0,
        dropped_arcs: int = 0,  # arcs with an endpoint outside the noun/verb universe or on a short row
    ):
        self.sentences, self.rows, self.malformed_rows = sentences, rows, malformed_rows
        self.arcs, self.dropped_arcs = arcs, dropped_arcs


def _head_index(field_: str) -> int | None:
    """The 1-based head row of a head field, negative if malformed, None if unattached."""
    try:
        return int(field_)  # int() ignores surrounding whitespace itself
    except ValueError:
        return None if field_.strip() in ("", "_") else -1


def _sentence(
    sentence_id: int,
    tokens: list[str | None],
    links: list[tuple[int, int, str]],
    short_rows: list[int],
    stats: ParseStats,
) -> SentenceRecord:
    """The record of one sentence's tokens and links.

    Heads are file rows. A head past the last row, or at the dependent's
    own row, is malformed. ``short_rows`` are the rows too short to yield
    a token, in order: a link headed at one is dropped, and the other
    heads are renumbered among the rows that yielded a token.
    """
    if short_rows:
        short = set(short_rows)
        kept = []
        for dep_pos, head_idx, relation in links:
            if head_idx in short:
                stats.dropped_arcs += 1
            else:
                kept.append((dep_pos, head_idx - bisect.bisect_left(short_rows, head_idx), relation))
        links = kept
    n_rows = len(tokens)
    arcs: list[DependencyArc] = []
    for dep_pos, head_idx, relation in links:
        if head_idx > n_rows or head_idx == dep_pos + 1:
            stats.malformed_rows += 1
            continue
        head_token = tokens[head_idx - 1]
        dep_token = tokens[dep_pos]
        if head_token is None or dep_token is None:
            stats.dropped_arcs += 1
            continue
        arcs.append(DependencyArc(head_token, relation, dep_token, head_idx - 1))
    stats.sentences += 1
    stats.arcs += len(arcs)
    return SentenceRecord(sentence_id, tokens, arcs)


def parse_conll_stream(
    lines: Iterable[str],
    columns: ColumnConfig,
    pos_map,
    stats: ParseStats | None = None,
    first_sentence_id: int = 0,
) -> Iterator[SentenceRecord]:
    """Yield one SentenceRecord per blank-line-delimited sentence.

    Comment lines (leading ``#``) are skipped. Arcs are resolved against
    the sentence's rows, short ones included; only arcs whose two
    endpoints both normalize to noun/verb tokens survive (head index 0
    means the row has no governing arc).
    """
    if stats is None:
        stats = ParseStats()
    sentence_id = first_sentence_id
    tokens: list[str | None] = []  # one per row long enough to yield a token
    links: list[tuple[int, int, str]] = []  # (dependent position, head row, relation)
    short_rows: list[int] = []  # the 1-based rows too short to yield a token
    # a corpus repeats few distinct (lemma, fine tag) pairs, head fields and
    # relation fields: each is read once, and each relation label is one string
    token_of = Memo(lambda lemma_tag: normalize(*lemma_tag, pos_map))
    head_of = Memo(_head_index)
    relation_of = Memo(str.strip)
    col_lemma, col_pos, col_head, col_relation = (
        columns.lemma, columns.pos, columns.head, columns.relation)
    min_token_fields, min_arc_fields = columns.min_token_fields, columns.min_arc_fields

    rows = malformed = 0  # of the lines since the last sentence, added to stats as it is yielded
    try:
        for line in lines:
            if not line or line.isspace():
                if tokens:
                    stats.rows += rows
                    stats.malformed_rows += malformed
                    rows = malformed = 0
                    yield _sentence(sentence_id, tokens, links, short_rows, stats)
                    sentence_id += 1
                    tokens, links = [], []
                if short_rows:
                    short_rows = []
                continue
            if line[0] == "#":
                continue
            rows += 1
            fields_ = line.rstrip("\r\n").split("\t")
            n_fields = len(fields_)
            if n_fields < min_token_fields:
                malformed += 1
                short_rows.append(len(tokens) + len(short_rows) + 1)
                continue
            dep_pos = len(tokens)
            tokens.append(token_of[fields_[col_lemma], fields_[col_pos]])
            if n_fields < min_arc_fields:
                malformed += 1
                continue
            head_idx = head_of[fields_[col_head]]
            if head_idx is None:  # unattached row, not an error
                continue
            relation = relation_of[fields_[col_relation]]
            if head_idx < 0 or not relation:
                malformed += 1
            elif head_idx:  # 0 is the root: no governing arc
                links.append((dep_pos, head_idx, relation))
        stats.rows += rows
        stats.malformed_rows += malformed
        if tokens:
            yield _sentence(sentence_id, tokens, links, short_rows, stats)
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"unreadable corpus stream: {exc}") from exc


def parse_conll_file(
    path: str,
    columns: ColumnConfig,
    pos_map,
    stats: ParseStats | None = None,
    first_sentence_id: int = 0,
) -> Iterator[SentenceRecord]:
    try:
        handle = io.open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot open corpus file {path}: {exc}") from exc
    with handle:
        yield from parse_conll_stream(handle, columns, pos_map, stats, first_sentence_id)
