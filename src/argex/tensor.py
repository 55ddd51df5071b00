"""Sparse (target, relation, filler) count tensors.

Counts are plain integers keyed by triples; per-coordinate marginals and
the grand total are maintained incrementally so expected-count formulas
never rescan the tensor. Zero entries are never stored. Serialization is
a sorted TSV plus a small sidecar, byte-deterministic for a given input.

``write_artifact`` and ``read_artifact`` are the one writer and reader
behind every body-plus-sidecar artifact: the sidecar's ``content_hash``
is the sha256 of the bytes on disk, checked before anything is parsed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .errors import ConsistencyError, CorpusError
from .tokens import Token, parse_canonical

Triple = tuple[Token, str, Token]


@dataclass
class CooccurrenceTensor:
    counts: Counter = field(default_factory=Counter)
    total: int = 0
    target_marginals: Counter = field(default_factory=Counter)
    relation_marginals: Counter = field(default_factory=Counter)
    filler_marginals: Counter = field(default_factory=Counter)
    # sha256 of the count artifact on disk these counts were loaded or
    # derived from; empty for counts built in memory
    source_hash: str = ""

    def add(self, target: Token, relation: str, filler: Token, count: int = 1) -> None:
        if count <= 0:
            raise ValueError("count increments must be positive")
        self.counts[(target, relation, filler)] += count
        self.total += count
        self.target_marginals[target] += count
        self.relation_marginals[relation] += count
        self.filler_marginals[filler] += count

    def count(self, target: Token, relation: str, filler: Token) -> int:
        return self.counts.get((target, relation, filler), 0)

    def __len__(self) -> int:
        return len(self.counts)

    def entries(self) -> Iterator[tuple[Triple, int]]:
        """Iterate entries in canonical (target, relation, filler) order."""
        for key in sorted(self.counts, key=_triple_key):
            yield key, self.counts[key]

    def relations(self) -> list[str]:
        return sorted(self.relation_marginals)

    def validate(self) -> None:
        """Recompute marginals by full summation and compare. O(entries)."""
        targets: Counter = Counter()
        relations: Counter = Counter()
        fillers: Counter = Counter()
        total = 0
        for (t, r, f), count in self.counts.items():
            if count <= 0:
                raise ConsistencyError(f"stored zero/negative count for {(t, r, f)}")
            targets[t] += count
            relations[r] += count
            fillers[f] += count
            total += count
        if (
            total != self.total
            or targets != self.target_marginals
            or relations != self.relation_marginals
            or fillers != self.filler_marginals
        ):
            raise ConsistencyError("tensor marginals disagree with entry sums")

    # -- serialization ---------------------------------------------------

    def to_tsv(self) -> str:
        out = io.StringIO()
        for (t, r, f), count in self.entries():
            out.write(f"{t.canonical}\t{r}\t{f.canonical}\t{count}\n")
        return out.getvalue()

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_tsv().encode("utf-8")).hexdigest()

    def save(self, path: str, sidecar: dict[str, str] | None = None) -> str:
        """Write the sorted TSV and its sidecar; returns the content hash."""
        meta = {"total": str(self.total), "entries": str(len(self.counts)), **(sidecar or {})}
        return write_artifact(path, self.to_tsv(), meta)

    @classmethod
    def load(cls, path: str) -> "CooccurrenceTensor":
        text, meta = read_artifact(path)
        tensor = cls(source_hash=meta["content_hash"])

        def row(t: str, r: str, f: str, count: str) -> None:
            tensor.add(parse_canonical(t), r, parse_canonical(f), int(count))

        parse_tsv(path, text, 4, row)
        return tensor

    @classmethod
    def from_entries(cls, entries: Iterable[tuple[Triple, int]]) -> "CooccurrenceTensor":
        tensor = cls()
        for (t, r, f), count in entries:
            tensor.add(t, r, f, count)
        return tensor


def _triple_key(key: Triple):
    t, r, f = key
    return (t.canonical, r, f.canonical)


def sidecar_path(path: str) -> str:
    return path + ".meta"


def write_bytes_atomic(path: str, data: bytes) -> None:
    """Write to a temporary name, then rename: ``path`` is never half-written."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_sidecar(path: str, values: dict[str, str]) -> None:
    body = "".join(f"{key}={values[key]}\n" for key in sorted(values))
    write_bytes_atomic(path, body.encode("utf-8"))


def read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc


def decode_utf8(path: str, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path} is not UTF-8 text: {exc}") from None


def read_sidecar(path: str) -> dict[str, str]:
    values = {}
    for line in decode_utf8(path, read_bytes(path)).split("\n"):
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CorpusError(f"bad sidecar line in {path}: {line!r}")
        values[key] = value
    return values


def write_artifact(path: str, body: str, meta: dict[str, str]) -> str:
    """Write ``body``, then its sidecar; returns the sha256 of the bytes written.

    The sidecar, written last, records ``meta`` plus that ``content_hash``.
    An interrupted write leaves either the previous pair or a new body
    beside the previous sidecar, which ``read_artifact`` refuses.
    """
    data = body.encode("utf-8")
    digest = hashlib.sha256(data).hexdigest()
    write_bytes_atomic(path, data)
    write_sidecar(sidecar_path(path), {**meta, "content_hash": digest})
    return digest


def read_artifact(path: str) -> tuple[str, dict[str, str]]:
    """The text of ``path`` and its sidecar, once the bytes match the recorded hash."""
    data = read_bytes(path)
    meta = read_sidecar(sidecar_path(path))
    if hashlib.sha256(data).hexdigest() != meta.get("content_hash"):
        raise ConsistencyError(f"{path} does not match the content_hash in its sidecar")
    return decode_utf8(path, data), meta


def parse_tsv(path: str, text: str, n_fields: int, row: Callable[..., None]) -> None:
    """Call ``row`` with the ``n_fields`` fields of each non-empty line of ``text``.

    A wrong field count, or a ``ValueError`` from ``row``, becomes a
    ``CorpusError`` naming ``path:line``; a ``ConsistencyError`` from
    ``row`` (a broken invariant) gets the same prefix.
    """
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line:
            continue
        fields = line.split("\t")
        try:
            if len(fields) != n_fields:
                raise ValueError(f"expected {n_fields} tab-separated fields, got {len(fields)}")
            row(*fields)
        except ValueError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from None
        except ConsistencyError as exc:
            raise ConsistencyError(f"{path}:{lineno}: {exc}") from None
