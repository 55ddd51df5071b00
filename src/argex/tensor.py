"""Sparse (target, relation, filler) count tensors.

Counts are plain integers keyed by triples of strings: the canonical
``lemma-pos`` target and filler and the relation label. Zero entries are
never stored. Counters and loaders fill ``counts`` directly; weighting
computes the marginals in one pass over them.

A counter's tensor holds exactly the entries a saved tensor (format
version 4) stores, so ``save`` writes the counts it is given: each arc
(h, r, d) once and not its mirror (d, r_inv, h), each window pair once,
target first. ``load`` returns them plus their mirrors (``_MIRRORS``),
counts that meet added. The file is a run per (target, relation), in
sorted order: a header line ``target<TAB>relation<TAB>`` (three fields,
the last empty), then a ``filler<TAB>count`` line per filler, fillers
sorted, so a relation label may be any string. The sidecar records the
format version and the number and the sum of the ``filler count``
lines, which ``load`` checks on the entries it parsed before it adds
any mirror. The bytes are deterministic for a given input.
"""

from __future__ import annotations

from .artifacts import Stamps, read_artifact, sha256, sidecar_path, write_artifact
from .errors import ConsistencyError, CorpusError
from .tokens import INVERSE_SUFFIX, WINDOW, Memo, canonical_checker

# (target, relation, filler); the target and filler are ``lemma-pos`` strings, which sort in canonical order
Triple = tuple[str, str, str]

# recorded in the sidecar; load refuses a tensor of any other version as stale
FORMAT_VERSION = "4"
_LAYOUT = "a `target relation` header line ending in a tab, then one `filler count` line per filler"
_MIRRORS = ("the mirror of (target, relation, filler) is (filler, relation_inv, target), "
            "and under WINDOW it is (filler, WINDOW, target)")


def _mirror_relations() -> Memo:
    """The relation of the mirrors of each relation's entries, computed once per label."""
    return Memo(lambda relation: relation if relation == WINDOW else relation + INVERSE_SUFFIX)


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
        """The counts as they are, in sorted runs; a ``WINDOW`` filler before its target raises ``ValueError``."""
        groups: dict[str, list[tuple[str, str, int]]] = {}  # by target: each target's runs sort apart
        for (target, relation, filler), count in self.counts.items():
            groups.setdefault(target, []).append((relation, filler, count))
        lines = []
        for target in sorted(groups):
            relation = None
            for entry in sorted(groups[target]):
                if entry[0] != relation:
                    relation = entry[0]
                    # load refuses such an entry; a run's fillers are sorted, so its first is its least
                    if relation == WINDOW and entry[1] < target:
                        raise ValueError(f"{WINDOW} entry {(target, relation, entry[1])} cannot be stored: "
                                         "its filler sorts before its target")
                    lines.append(f"{target}\t{relation}\t\n")
                lines.append(f"{entry[1]}\t{entry[2]}\n")
        return "".join(lines)

    def content_hash(self) -> str:
        return sha256([self.to_tsv().encode("utf-8")])

    def save(self, path: str, sidecar: dict[str, str] | None = None) -> str:
        """Write the sorted runs and their sidecar, with the number and sum of the counts; returns the content hash."""
        meta = {
            "total": str(self.total),
            "entries": str(len(self)),
            **(sidecar or {}),
            "format_version": FORMAT_VERSION,
        }
        return write_artifact(path, self.to_tsv(), meta)

    @classmethod
    def load(cls, path: str, vocabulary: frozenset[str] | None = None, stamps: Stamps | None = None
             ) -> "CooccurrenceTensor":
        """Read a saved tensor and add each stored entry's mirror.

        ``read_artifact`` verifies the file and its ``stamps`` first. A bad token, a
        target or filler outside ``vocabulary`` when one is given, a count
        below 1, a line that is neither a header nor an entry, an entry
        before any header, a header or filler out of strictly increasing
        order (so a repeated triple too), or a ``WINDOW`` filler before its
        target names ``path:line``. A number or sum of the stored counts
        that differs from the sidecar's is inconsistent.
        """
        (text,), meta = read_artifact([path], sidecar_path(path), FORMAT_VERSION, "ingest", stamps)
        stored: dict[Triple, int] = {}
        check = canonical_checker(vocabulary)
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
        for key, value in zip(("entries", "total"), (len(stored), sum(stored.values()))):
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

