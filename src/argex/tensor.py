"""Sparse (target, relation, filler) count tensors.

Counts are plain integers keyed by triples of strings: the canonical
``lemma-pos`` target and filler and the relation label. Zero entries are
never stored. Counters and loaders fill ``counts`` directly; weighting
computes the marginals in one pass over them. Serialization is a sorted
TSV plus a small sidecar, byte-deterministic for a given input.

``write_artifact`` and ``read_artifact`` are the one writer and reader
behind every body-plus-sidecar artifact: the sidecar's ``content_hash``
is the sha256 of the bytes on disk, checked before anything is parsed.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import ConsistencyError, CorpusError
from .tokens import Memo, canonical_checker

# (target, relation, filler); target and filler are canonical ``lemma-pos``
# strings, so triples sort in canonical order as they are
Triple = tuple[str, str, str]


def sorted_triples(triples: Iterable[Triple]) -> list[Triple]:
    """``sorted(triples)``, with each target's triples sorted apart: fewer and cheaper comparisons."""
    groups: dict[str, list[Triple]] = {}
    for triple in triples:
        group = groups.get(triple[0])
        if group is None:
            group = groups[triple[0]] = []
        group.append(triple)
    ordered: list[Triple] = []
    for target in sorted(groups):
        ordered += sorted(groups[target])
    return ordered


@dataclass
class CooccurrenceTensor:
    counts: dict[Triple, int] = field(default_factory=dict)
    # sha256 of the count artifact on disk these counts were loaded or
    # derived from; empty for counts built in memory
    source_hash: str = ""

    def count(self, target: str, relation: str, filler: str) -> int:
        return self.counts.get((target, relation, filler), 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def __len__(self) -> int:
        return len(self.counts)

    def entries(self) -> Iterator[tuple[Triple, int]]:
        """Iterate entries in canonical (target, relation, filler) order."""
        for key in sorted_triples(self.counts):
            yield key, self.counts[key]

    # -- serialization ---------------------------------------------------

    def to_tsv(self) -> str:
        counts = self.counts
        return "".join([f"{key[0]}\t{key[1]}\t{key[2]}\t{counts[key]}\n" for key in sorted_triples(counts)])

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_tsv().encode("utf-8")).hexdigest()

    def save(self, path: str, sidecar: dict[str, str] | None = None) -> str:
        """Write the sorted TSV and its sidecar; returns the content hash."""
        meta = {"total": str(self.total), "entries": str(len(self.counts)), **(sidecar or {})}
        return write_artifact(path, self.to_tsv(), meta)

    @classmethod
    def load(cls, path: str) -> "CooccurrenceTensor":
        """Read a saved tensor; a bad field, a count below 1 or a repeated triple names ``path:line``."""
        text, meta = read_artifact(path)
        counts: dict[Triple, int] = {}
        check = canonical_checker()
        count_of = Memo(_positive_count)
        for lineno, line in enumerate(text.split("\n"), 1):
            if not line:
                continue
            fields = line.split("\t")
            try:
                if len(fields) != 4:
                    raise ValueError(f"expected 4 tab-separated fields, got {len(fields)}")
                target, relation, filler, count_field = fields
                key = (check(target), relation, check(filler))
                count = count_of[count_field]
                if key in counts:
                    raise ValueError(f"repeated triple {target} {relation} {filler}")
            except ValueError as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from None
            counts[key] = count
        return cls(counts, source_hash=meta["content_hash"])


def _positive_count(text: str) -> int:
    count = int(text)
    if count <= 0:
        raise ValueError("count increments must be positive")
    return count


# 17 significant digits: enough for exact float64 round-trips. A printf
# format, so a writer can render a whole row of scores in one % operation.
SCORE_FORMAT = "%.17g"


def format_score(value: float) -> str:
    return SCORE_FORMAT % value


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

