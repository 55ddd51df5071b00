"""Sparse (target, relation, filler) count tensors.

Counts are plain integers keyed by triples of strings: the canonical
``lemma-pos`` target and filler and the relation label. Zero entries are
never stored. Counters and loaders fill ``counts`` directly; weighting
computes the marginals in one pass over them.

A counter's tensor holds exactly the entries a saved tensor (format
version 3) stores, so ``save`` writes the counts it is given: each arc
(h, r, d) once and not its mirror (d, r_inv, h), each window pair once,
target first. ``load`` returns them plus their mirrors (``_MIRRORS``),
counts that meet added. The file is a run per (target, relation), in
sorted order: a header line ``target<TAB>relation<TAB>`` (three fields,
the last empty), then a ``filler<TAB>count`` line per filler, fillers
sorted, so a relation label may be any string. The sidecar records the
format version and the number and total of the entries ``load``
returns (``full_size``), all checked at load. The bytes are
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
from .tokens import INVERSE_SUFFIX, WINDOW, Memo, canonical_checker

# (target, relation, filler); the target and filler are ``lemma-pos`` strings, which sort in canonical order
Triple = tuple[str, str, str]

# recorded in the sidecar; load refuses a tensor of any other version as stale
FORMAT_VERSION = "3"
_LAYOUT = "a `target relation` header line ending in a tab, then one `filler count` line per filler"
_MIRRORS = ("the mirror of (target, relation, filler) is (filler, relation_inv, target), "
            "and under WINDOW it is (filler, WINDOW, target)")


def _mirror_relations() -> Memo:
    """The relation of the mirrors of each relation's entries, computed once per label."""
    return Memo(lambda relation: relation if relation == WINDOW else relation + INVERSE_SUFFIX)


def full_size(stored: dict[Triple, int]) -> tuple[int, int]:
    """The sidecar's ``entries`` and ``total``: those of the counts ``load`` returns for ``stored`` ones.

    Each stored count is also its mirror's, so the total doubles, and an
    entry whose mirror is stored too (a ``WINDOW`` self pair is its own) meets it.
    """
    mirror = _mirror_relations()
    meeting = sum((filler, mirror[relation], target) in stored for target, relation, filler in stored)
    return 2 * len(stored) - meeting, 2 * sum(stored.values())


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
        """The counts as they are, in sorted runs."""
        groups: dict[str, list[tuple[str, str, int]]] = {}  # by target: each target's runs sort apart
        for (target, relation, filler), count in self.counts.items():
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
        """Write the sorted runs and their sidecar, with the ``full_size`` figures; returns the content hash."""
        entries, total = full_size(self.counts)
        meta = {
            "total": str(total),
            "entries": str(entries),
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
        stored: dict[Triple, int] = {}
        check = canonical_checker()
        count_of = Memo(_positive_count)
        head = None
        target = relation = filler = ""
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
                    if relation == WINDOW and token < target:
                        raise ValueError(f"{WINDOW} filler {token} sorts before its target {target}")
                    filler = token
                    stored[(target, relation, filler)] = count_of[fields[1]]
                elif len(fields) == 3 and not fields[2]:
                    previous, head = head, (check(fields[0]), fields[1])
                    if previous is not None and head <= previous:
                        raise ValueError(f"header {head[0]} {head[1]} does not follow {previous[0]} {previous[1]}")
                    target, relation = head
                    filler = ""
                else:
                    raise ValueError(
                        f"neither a header nor an entry ({len(fields)} tab-separated fields): each run is {_LAYOUT}"
                    )
            except ValueError as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from None
        for key, value in zip(("entries", "total"), full_size(stored)):
            if meta.get(key) != str(value):
                raise ConsistencyError(f"{sidecar_path(path)}: {key} is {meta.get(key)}, the tensor holds {value}")
        counts = dict(stored)
        get = counts.get
        mirror = _mirror_relations()
        for (target, relation, filler), count in stored.items():
            key = (filler, mirror[relation], target)
            counts[key] = get(key, 0) + count
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

