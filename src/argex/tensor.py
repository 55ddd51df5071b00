"""Sparse (target, relation, filler) count tensors.

Counts are plain integers keyed by triples of strings: the canonical
``lemma-pos`` target and filler and the relation label. Zero entries are
never stored. Counters and loaders fill ``counts`` directly; weighting
computes the marginals in one pass over them.

A saved tensor (format version 3) stores each count once: the counters
also count each arc (h, r, d) as (d, r_inv, h) and each window pair both
ways, and the loader adds these mirrors back (``_MIRRORS``). An entry
under a relation ending in ``_inv`` stores what the entry it mirrors
leaves of its count, if anything; a ``WINDOW`` pair is stored target
first, a self pair at half its count. The file is a run per (target,
relation), in sorted order: a header line ``target<TAB>relation<TAB>``
(three fields, the last empty), then a ``filler<TAB>count`` line per
filler, fillers sorted, so a relation label may be any string. The
sidecar records the format version and the number and total of the
entries, mirrors included, all checked at load. The bytes are
deterministic for a given input.

``write_artifact`` and ``read_artifact`` are the one writer and reader
behind every body-plus-sidecar artifact: the sidecar's ``content_hash``
is the sha256 of the bytes on disk, checked before anything is parsed.
"""

from __future__ import annotations

import contextlib
import hashlib
import os

from .errors import ConfigError, ConsistencyError, CorpusError, StaleArtifactError
from .tokens import INVERSE_SUFFIX, WINDOW, Memo, canonical_checker, inverse, is_inverse

# (target, relation, filler); the target and filler are ``lemma-pos`` strings, which sort in canonical order
Triple = tuple[str, str, str]

# recorded in the sidecar; load refuses a tensor of any other version as stale
FORMAT_VERSION = "3"
_LAYOUT = "a `target relation` header line ending in a tab, then one `filler count` line per filler"
_MIRRORS = ("the mirror of (target, relation, filler) is (filler, relation_inv, target), "
            "and under WINDOW it is (filler, WINDOW, target)")


def _stored(counts: dict[Triple, int], key: Triple, mirrored: Memo) -> int:
    """What ``key`` stores: its count less what the entry it mirrors stores, and so on down the chain."""
    target, relation, filler = key
    stored, sign = 0, 1
    while relation is not None:
        stored += sign * counts.get((target, relation, filler), 0)
        target, relation, filler, sign = filler, mirrored[relation], target, -sign
    return stored


def _not_closed(key: Triple, count: int, problem: str) -> ValueError:
    return ValueError(f"counts are not mirror-closed ({_MIRRORS}): ({', '.join(key)}) counts {count}, which {problem}")


class CooccurrenceTensor:
    """Counts by triple, and the hash of the artifact they came from.

    Its attributes cannot be rebound. Two tensors are equal when their
    counts and source hashes are; a tensor is not hashable.
    """

    __slots__ = ("counts", "source_hash")

    def __init__(self, counts: dict[Triple, int] | None = None, source_hash: str = ""):
        object.__setattr__(self, "counts", {} if counts is None else counts)
        # sha256 of the count artifact on disk these counts were loaded or
        # derived from; empty for counts built in memory
        object.__setattr__(self, "source_hash", source_hash)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot set {name!r}: a CooccurrenceTensor is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.counts, self.source_hash) == (other.counts, other.source_hash)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def __len__(self) -> int:
        return len(self.counts)

    # -- serialization ---------------------------------------------------

    def to_tsv(self) -> str:
        """The stored counts, in runs; a ``ValueError`` names an entry if the counts are not mirror-closed."""
        counts = self.counts
        get = counts.get
        # the relation of the entries whose mirrors fall under a relation, if any
        mirrored = Memo(lambda r: r[: -len(INVERSE_SUFFIX)] if is_inverse(r) and r != inverse(WINDOW) else None)
        groups: dict[str, list[tuple[str, str, int]]] = {}  # by target: each target's runs sort apart
        for key, count in counts.items():
            target, relation, filler = key
            if relation == WINDOW:
                if get((filler, relation, target)) != count or filler == target and count % 2:
                    raise _not_closed(key, count, "differs from its mirror's, or is odd as its own mirror")
                if filler < target:
                    continue
                count //= 2 if filler == target else 1
            else:
                source = mirrored[relation]
                if source is not None:
                    source = (filler, source, target)  # the entry this one mirrors
                    count -= get(source, 0) if mirrored[source[1]] is None else _stored(counts, source, mirrored)
                    if count < 0:
                        raise _not_closed(key, counts[key], "is less than the entry it mirrors stores")
                if count and (filler, relation + INVERSE_SUFFIX, target) not in counts:
                    raise _not_closed(key, counts[key], "has no mirror")
            if count:
                groups.setdefault(target, []).append((relation, filler, count))
        lines = []
        for target in sorted(groups):
            relation = None
            for entry in sorted(groups[target]):
                if entry[0] != relation:
                    relation = entry[0]
                    lines.append(f"{target}\t{relation}\t\n")
                lines.append(f"{entry[1]}\t{entry[2]}\n")
        return "".join(lines)

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_tsv().encode("utf-8")).hexdigest()

    def save(self, path: str, sidecar: dict[str, str] | None = None) -> str:
        """Write the sorted runs and their sidecar; returns the content hash."""
        meta = {
            "total": str(self.total),
            "entries": str(len(self.counts)),
            **(sidecar or {}),
            "format_version": FORMAT_VERSION,
        }
        return write_artifact(path, self.to_tsv(), meta)

    @classmethod
    def load(cls, path: str) -> "CooccurrenceTensor":
        """Read a saved tensor and add each stored entry's mirror.

        A sidecar of another format version is stale. A bad token, a count
        below 1, a line that is neither a header nor an entry, an entry
        before any header, a header or filler out of strictly increasing
        order (so a repeated triple too), or a ``WINDOW`` filler before its
        target names ``path:line``. Entries and total, mirrors added, that
        differ from the sidecar's are inconsistent.
        """
        text, meta = read_artifact(path)
        version = meta.get("format_version")
        if version != FORMAT_VERSION:
            raise StaleArtifactError(
                f"count tensor {path} has format version {version}, this argex reads "
                f"version {FORMAT_VERSION}; re-run `argex ingest`"
            )
        counts: dict[Triple, int] = {}
        get = counts.get
        check = canonical_checker()
        count_of = Memo(_positive_count)
        head = None
        target = relation = mirror = filler = ""
        for lineno, line in enumerate(text.split("\n"), 1):
            if not line:
                continue
            fields = line.split("\t")
            try:
                if len(fields) == 2:
                    if head is None:
                        raise ValueError("an entry line before any header")
                    token = check(fields[0])
                    if token <= filler:
                        raise ValueError(f"filler {token} does not follow {filler} under {target} {relation}")
                    if mirror == relation and token < target:  # only WINDOW is its own mirror relation
                        raise ValueError(f"{WINDOW} filler {token} sorts before its target {target}")
                    filler = token
                    count, key = count_of[fields[1]], (target, relation, filler)
                    counts[key] = get(key, 0) + count
                    key = (filler, mirror, target)
                    counts[key] = get(key, 0) + count
                elif len(fields) == 3 and not fields[2]:
                    previous, head = head, (check(fields[0]), fields[1])
                    if previous is not None and head <= previous:
                        raise ValueError(f"header {head[0]} {head[1]} does not follow {previous[0]} {previous[1]}")
                    target, relation = head
                    mirror = relation if relation == WINDOW else relation + INVERSE_SUFFIX
                    filler = ""
                else:
                    raise ValueError(
                        f"neither a header nor an entry ({len(fields)} tab-separated fields): each run is {_LAYOUT}"
                    )
            except ValueError as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from None
        held = {"entries": len(counts), "total": sum(counts.values())}
        for key, value in held.items():
            if meta.get(key) != str(value):
                raise ConsistencyError(f"{sidecar_path(path)}: {key} is {meta.get(key)}, the tensor holds {value}")
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


def make_output_dir(path: str) -> None:
    """``os.makedirs(path, exist_ok=True)``, failing with a ``ConfigError`` that names ``path``."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from None


def write_bytes_atomic(path: str, data: bytes) -> None:
    """Write to a temporary name, then rename, so ``path`` is never half-written.

    An ``OSError`` doing either, such as a directory at ``path``, is a ``ConfigError``.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc}") from None
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

