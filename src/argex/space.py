"""Weighted sparse vector space with ranked filler indices.

A space holds one row per target over (relation, filler) dimensions with
positive association scores, plus, for each (target, relation), the
fillers ranked by descending score. A space is its archive: the text of
four sorted TSV files, whose sha256 is the space id, the manifest's
``content_hash``. ``blocks.tsv``
lists every vocabulary token and gives the offset where each one's
block of lines starts in ``rows.tsv`` and ``arg.tsv``, so a line there
belongs to the target whose block it sits in, and a ``catalog.tsv``
line's dimension id is its line number: no line repeats either fact.
Every filler in ``catalog.tsv`` and ``arg.tsv`` is a target there
too, as a prototype sums its fillers' own rows.
``build_space`` renders the files straight from the weighted scores,
``save_space`` writes them with a manifest, and ``load_space`` reads
them back once ``read_artifact`` verifies them. The archive stores scores only:
every ranking is rebuilt from the rows for the dependency slots and
from ``arg.tsv`` for the ARG slot. A space, built or loaded, reads its
own rows and rankings from those files, in the order the writer writes
them: targets increase down ``blocks.tsv``, ids within a row, and
(relation, filler) pairs down ``catalog.tsv``. A built space takes
its block index from its writer, a loaded one from the load checks of
``blocks.tsv``. A target's blocks, and the catalog lines its row refers
to, are parsed and checked only when the target is first used.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import os
import re
from collections.abc import Mapping
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .artifacts import SCORE_FORMAT, Stamps, format_score, make_output_dir, read_artifact, sha256, write_bodies
from .errors import ConsistencyError, CorpusError, OutOfVocabularyError
from .tokens import ARG, TOKEN

if TYPE_CHECKING:
    from .tensor import Triple
    from .weighting import WeightedTensor

FORMAT_VERSION = "6"
# the archive's files, whose sha256 is the space id
_FILES = ("catalog.tsv", "rows.tsv", "arg.tsv", "blocks.tsv")
_BUILT = "<built space>"  # names the files of a built space in errors
_TARGET_OF_KEY = operator.itemgetter(0)  # of a (target, relation, filler) triple, or of a blocks.tsv line
_RELATION_OF_KEY = operator.itemgetter(1)
_DIMENSION_OF_KEY = operator.itemgetter(1, 2)


class SparseVector:
    """Sorted (dimension id, positive score) pairs with a cached norm.

    Immutable; two vectors are equal when their ids, scores and norms
    are.
    """

    __slots__ = ("ids", "scores", "norm", "__weakref__")

    def __init__(self, ids: tuple[int, ...] = (), scores: tuple[float, ...] = ()):
        _set = object.__setattr__
        _set(self, "ids", ids)
        _set(self, "scores", scores)
        # A plain left fold: builtin sum() of floats is compensated from
        # Python 3.12 on, which would change the last bits of the scores.
        squares = map(operator.mul, scores, scores)
        _set(self, "norm", math.sqrt(functools.reduce(operator.add, squares, 0.0)))

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot set {name!r}: a SparseVector is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ids, self.scores, self.norm) == (other.ids, other.scores, other.norm)

    def dot(self, other: "SparseVector") -> float:
        """Inner product, accumulated in increasing dimension order.

        Each dimension of the shorter operand is looked up in the longer
        one by binary search; products commute bit-exactly, so the
        result does not depend on which operand is which.
        """
        short, long_ = (self, other) if len(self.ids) <= len(other.ids) else (other, self)
        ids, scores = long_.ids, long_.scores
        n = len(ids)
        acc = 0.0
        lo = 0
        for dim, score in zip(short.ids, short.scores):
            lo = bisect.bisect_left(ids, dim, lo)
            if lo == n:
                break
            if ids[lo] == dim:
                acc += score * scores[lo]
                lo += 1
        return acc


EMPTY_VECTOR = SparseVector()


class CosineResult(NamedTuple):
    value: float
    degenerate: bool  # True when either operand had zero norm


def cosine(a: SparseVector, b: SparseVector) -> CosineResult:
    """Cosine similarity in [0, 1]; zero-norm operands score 0, flagged."""
    if a.norm == 0.0 or b.norm == 0.0:
        return CosineResult(0.0, True)
    value = a.dot(b) / (a.norm * b.norm)
    return CosineResult(min(1.0, max(0.0, value)), False)


class VectorSum:
    """Running coordinate-wise sum of sparse vectors.

    Every coordinate is a left fold over the vectors in the order they
    were added, so a snapshot taken after the first k additions equals
    ``sum_vectors`` of those k vectors bit for bit.
    """

    __slots__ = ("_acc",)

    def __init__(self):
        self._acc: dict[int, float] = {}

    def add(self, vector: SparseVector) -> None:
        acc = self._acc
        get = acc.get
        for dim, score in zip(vector.ids, vector.scores):
            acc[dim] = get(dim, 0.0) + score

    def snapshot(self) -> SparseVector:
        acc = self._acc
        ids = tuple(sorted(acc))
        return SparseVector(ids, tuple(map(acc.__getitem__, ids)))


def sum_vectors(vectors: Iterable[SparseVector]) -> SparseVector:
    """Coordinate-wise sum; support is the union of the operand supports."""
    total = VectorSum()
    for vector in vectors:
        total.add(vector)
    return total.snapshot()


def multiply_vectors(a: SparseVector, b: SparseVector) -> SparseVector:
    """Coordinate-wise product; dimensions not shared by both are zeroed.

    Products that underflow to zero are dropped as absent.
    """
    a_ids, a_scores, b_ids, b_scores = a.ids, a.scores, b.ids, b.scores
    n_a, n_b = len(a_ids), len(b_ids)
    ids: list[int] = []
    scores: list[float] = []
    i = j = 0
    while i < n_a and j < n_b:
        x, y = a_ids[i], b_ids[j]
        if x == y:
            product = a_scores[i] * b_scores[j]
            if product > 0:
                ids.append(x)
                scores.append(product)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return SparseVector(tuple(ids), tuple(scores))


def _ranked(fillers: list[tuple[str, float]]) -> tuple[tuple[str, float], ...]:
    """Score descending, then canonical filler."""
    return tuple(sorted(fillers, key=lambda pair: (-pair[1], pair[0])))


class WeightedSpace:
    """A space: the text of its archive's files, its manifest, and its block index.

    ``texts`` holds the files in ``_FILES`` order; the manifest's
    ``content_hash`` is their sha256. The index is ``blocks.tsv``'s targets
    (the vocabulary), each one's (start, end) in ``rows.tsv`` and then
    in ``arg.tsv``, and the catalog's line count: a built space takes it
    from its writer, a loaded one from the load checks. All else is
    read from ``texts``. A target's row is parsed from its ``rows.tsv``
    block, whose lines are its (dimension id, score) pairs, when first
    read, and checked then: its layout, ids that increase, the last one
    inside the catalog, and scores that are positive and finite. Its
    rankings are built together when one of them is first read: the
    dependency slots' from its row through the catalog lines it refers
    to, the line of id i being line i + 1, each checked when first read;
    and ``ARG``'s from its ``arg.tsv`` block of (filler, score) lines,
    which holds that ranking whole and gets the same checks. A filler
    that is not in ``vocabulary`` is an input error at its line.
    ``directory`` only names the files in errors.
    """

    def __init__(self, texts: Sequence[str], manifest: dict[str, str], vocabulary: frozenset[str],
                 blocks: dict[str, tuple[int, int, int, int]], n_dims: int, directory: str = _BUILT):
        self.texts = texts
        self.manifest = manifest
        self.vocabulary, self._blocks, self._n_dims = vocabulary, blocks, n_dims
        self.directory = directory
        self._paths = [os.path.join(directory, name) for name in _FILES]  # name the files in errors
        self._rows: dict[str, SparseVector] = {}
        self._rankings: dict[str, dict[str, tuple[tuple[str, float], ...]]] = {}
        self._pairs: dict[int, tuple[str, str]] = {}  # of the catalog lines read so far, by dimension id

    def row(self, target: str) -> SparseVector:
        """The row of ``target``; a target without one has the empty row."""
        row = self._rows.get(target)
        if row is None:
            start, end, _, _ = self._blocks.get(target, _NO_BLOCKS)
            if start == end:
                return EMPTY_VECTOR
            path, text = self._paths[1], self.texts[1]
            dims, scores = zip(*_lines(path, text, _ROWS_LINE, _ROWS_LAYOUT, start, end))
            ids, scores = tuple(map(int, dims)), tuple(map(float, scores))
            # the merge and bisect kernels rely on increasing ids
            if not (all(map(operator.lt, ids, ids[1:])) and 0.0 < min(scores) and max(scores) < math.inf):
                raise _row_fault(path, text, start, ids, scores)
            if ids[-1] >= self._n_dims:
                line = _line_of(text, end - 1)
                raise ConsistencyError(f"{path}:{line}: dimension id {ids[-1]} is not in the catalog")
            row = self._rows[target] = SparseVector(ids, scores)
        return row

    def ranking(self, target: str, relation: str) -> tuple[tuple[str, float], ...]:
        """The fillers of (``target``, ``relation``): score descending, then canonical filler."""
        rankings = self._rankings.get(target)
        if rankings is None:
            rankings = self._rankings[target] = self._rank(target)
        return rankings.get(relation, ())

    def _rank(self, target: str) -> dict[str, tuple[tuple[str, float], ...]]:
        groups: dict[str, list[tuple[str, float]]] = {}
        row = self.row(target)
        for (relation, filler), score in zip(self._dimensions(row.ids), row.scores):
            if relation != ARG:
                groups.setdefault(relation, []).append((filler, score))
        _, _, start, end = self._blocks.get(target, _NO_BLOCKS)
        if start != end:
            path, text = self._paths[2], self.texts[2]
            fillers, scores = zip(*_lines(path, text, _ARG_LINE, _ARG_LAYOUT, start, end))
            if not self.vocabulary.issuperset(fillers):
                raise _stranger(path, itertools.count(_line_of(text, start)), fillers, self.vocabulary)
            scores = tuple(map(float, scores))
            if not (0.0 < min(scores) and max(scores) < math.inf):
                raise _row_fault(path, text, start, tuple(range(len(scores))), scores)
            groups[ARG] = list(zip(fillers, scores))
        return {relation: _ranked(fillers) for relation, fillers in groups.items()}

    @functools.cached_property
    def catalog(self) -> tuple[tuple[str, str], ...]:
        """The (relation, filler) of each dimension id, every catalog line read as a ranking reads it."""
        return tuple(self._dimensions(range(self._n_dims)))

    @functools.cached_property
    def _catalog_lines(self) -> list[str]:
        return self.texts[0].split("\n")

    def _dimensions(self, ids: Sequence[int]) -> list[tuple[str, str]]:
        """The (relation, filler) of each of the increasing ``ids``.

        Each catalog line is checked when first read: its layout, and that
        its filler is a target. The pairs must increase with the ids, as
        they do down the catalog.
        """
        read = self._pairs
        new = list(itertools.filterfalse(read.__contains__, ids))
        if new:
            path = self._paths[0]
            lines = list(map(self._catalog_lines.__getitem__, new))
            matches = list(map(_CATALOG_LINE.fullmatch, lines))
            if None in matches:
                i = matches.index(None)
                raise CorpusError(f"{path}:{new[i] + 1}: expected {_CATALOG_LAYOUT}, got {lines[i]!r}")
            if not self.vocabulary.issuperset(map(_FILLER, matches)):
                raise _stranger(path, [i + 1 for i in new], map(_FILLER, matches), self.vocabulary)
            read.update(zip(new, map(_PAIR, matches)))
        pairs = list(map(read.__getitem__, ids))
        if not all(map(operator.lt, pairs, pairs[1:])):
            i = next(i for i in range(1, len(pairs)) if pairs[i - 1] >= pairs[i])
            raise ConsistencyError(
                f"{self._paths[0]}:{ids[i] + 1}: dimension {pairs[i]} does not sort after {pairs[i - 1]}"
            )
        return pairs

    @property
    def index(self) -> WeightedSpace:
        """The space itself, which ranks its own fillers; ``perfbench/traced.py`` still reads it."""
        return self

    @property
    def space_id(self) -> str:
        """sha256 of the archive's files, the manifest's ``content_hash``."""
        return self.manifest["content_hash"]


def vector_of(space: WeightedSpace, token: str) -> SparseVector:
    """Full row of a canonical vocabulary target; rows absent from the space are empty."""
    if token not in space.vocabulary:
        raise OutOfVocabularyError(token)
    return space.row(token)


def _stored(scores: Mapping[Triple, float]) -> tuple[list[Triple], list[float]]:
    """The keys of ``scores`` in sorted order with their scores, zeros dropped.

    A negative, nan or infinite score, which no archive line can hold,
    raises ``ValueError``.
    """
    keys = sorted(scores)
    values = list(map(scores.__getitem__, keys))
    if not all(map(operator.lt, itertools.repeat(0.0), values)) or max(values, default=0.0) == math.inf:
        for key, value in zip(keys, values):
            if not 0.0 <= value < math.inf:
                raise ValueError(f"score {value!r} of {key} cannot be stored")
        keys = list(itertools.compress(keys, values))
        values = list(filter(None, values))
    return keys, values


def build_space(
    weighted: WeightedTensor,
    vocabulary: Iterable[str],
    extra_index: WeightedTensor | None = None,
    manifest: dict[str, str] | None = None,
) -> WeightedSpace:
    """Render the archive of a space from weighted counts.

    The files are rendered straight from the sorted score keys,
    one target block at a time, and ``blocks.tsv`` lists every token of
    ``vocabulary``, every scored target and every filler, with where each one's block
    starts (a token without lines has empty blocks); the space's rows
    and rankings are read back from them on first use. ``extra_index`` contributes ARG rankings only
    (relation-collapsed typicality scores); its entries never become
    vector dimensions. Zero scores are dropped as absent; a negative,
    nan or infinite one raises ``ValueError``.
    """
    if extra_index is not None and set(map(_RELATION_OF_KEY, extra_index.scores)) - {ARG}:
        raise ValueError(f"extra_index may only hold {ARG} rankings")
    # by target, then (relation, filler): each target's entries are one run,
    # in the order of their dimension ids
    keys, values = _stored(weighted.scores)
    dim_of_key = list(map(_DIMENSION_OF_KEY, keys))
    catalog = tuple(sorted(set(dim_of_key)))
    targets = list(map(_TARGET_OF_KEY, keys))
    # (dim id, score) per rows.tsv line, each block rendered by one % operation
    fields: list = [None] * (2 * len(keys))
    fields[0::2] = map(dict(zip(catalog, range(len(catalog)))).__getitem__, dim_of_key)
    fields[1::2] = values
    line = f"%d\t{SCORE_FORMAT}\n"
    row_blocks = {}
    start = 0
    for target in dict.fromkeys(targets):
        end = bisect.bisect_right(targets, target, start)
        row_blocks[target] = (line * (end - start)) % tuple(fields[2 * start:2 * end])
        start = end
    # arg.tsv holds the ARG rankings' scores, by target then filler; a filler
    # ranked twice (a corpus relation named ARG beside the collapsed scores)
    # is written in ranking order, best first
    arg_entries = itertools.compress(zip(keys, values), map(ARG.__eq__, map(_RELATION_OF_KEY, keys)))
    if extra_index is not None:
        arg_entries = itertools.chain(arg_entries, zip(*_stored(extra_index.scores)))
    arg = sorted([(target, filler, -score) for (target, _, filler), score in arg_entries])
    arg_blocks = {
        target: "".join([f"{filler}\t{format_score(-negated)}\n" for _, filler, negated in entries])
        for target, entries in itertools.groupby(arg, key=_TARGET_OF_KEY)
    }
    # every filler is a target too: a prototype sums its fillers' own rows
    names = sorted(set(vocabulary).union(row_blocks, arg_blocks, [f for _, f in catalog], [f for _, f, _ in arg]))
    rows_tsv, rows = _tile(names, row_blocks)
    arg_tsv, arg = _tile(names, arg_blocks)
    texts = (
        "".join([f"{relation}\t{filler}\n" for relation, filler in catalog]),
        rows_tsv,
        arg_tsv,
        "".join([f"{name}\t{row[0]}\t{ranking[0]}\n" for name, row, ranking in zip(names, rows, arg)]),
    )
    info = {
        "format_version": FORMAT_VERSION,
        "source_hash": weighted.source_hash,
        "n_targets": str(len(row_blocks)),
        "n_dims": str(len(catalog)),
        "n_vocab": str(len(names)),
    }
    if manifest:
        info.update(manifest)
    info["content_hash"] = sha256(text.encode("utf-8") for text in texts)
    blocks = {name: (*row, *ranking) for name, row, ranking in zip(names, rows, arg)}
    return WeightedSpace(texts, info, frozenset(names), blocks, len(catalog))


def _tile(names: list[str], blocks: dict[str, str]) -> tuple[str, list[tuple[int, int]]]:
    """The text of ``blocks`` in ``names`` order, and each name's block's (start, end) in it.

    A name without a block has an empty one, where the next block starts.
    """
    parts = [blocks.get(name, "") for name in names]
    ends = list(itertools.accumulate(map(len, parts)))
    return "".join(parts), list(zip([0, *ends], ends))


# -- archive -------------------------------------------------------------


def save_space(space: WeightedSpace, directory: str) -> str:
    """Write the archive's files, then its manifest (``write_bodies``); returns its space id."""
    make_output_dir(directory)
    paths = [os.path.join(directory, name) for name in _FILES]
    write_bodies(paths, [text.encode("utf-8") for text in space.texts], os.path.join(directory, "manifest.txt"),
                 space.manifest)
    return space.space_id


# A space checks blocks.tsv at load: every line's layout, whose target is a
# lemma-pos token, the order of the targets, and that the offsets tile
# rows.tsv and arg.tsv. A target's blocks, and the catalog lines its row
# refers to, are checked when the target is first read, each filler against the targets.
_FIELD = r"[^\t\n]+"
_SCORE = r"[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?"  # format_score of a non-negative finite float
_ID = "(0|[1-9][0-9]*)"  # a dimension id or an offset, without leading zeros
_CATALOG_LAYOUT = "relation, filler"  # a catalog line's dimension id is its line number
_BLOCKS_LAYOUT = "target, offset, offset"  # its targets, each lemma-pos, are the vocabulary
_ROWS_LAYOUT = "dimension id, score"  # a rows.tsv or arg.tsv line's target is the block it sits in
_ARG_LAYOUT = "filler, score"
_CATALOG_LINE = re.compile(rf"({_FIELD})\t({_FIELD})")  # a line without its newline
_PAIR, _FILLER = operator.methodcaller("groups"), operator.methodcaller("group", 2)  # of a catalog line
# one whole line each, its fields as groups
_BLOCKS_LINE = re.compile(rf"^({TOKEN})\t{_ID}\t{_ID}\n", re.MULTILINE)
_ROWS_LINE = re.compile(rf"^{_ID}\t({_SCORE})\n", re.MULTILINE)
_ARG_LINE = re.compile(rf"^({_FIELD})\t({_SCORE})\n", re.MULTILINE)
_ROWS_OFFSET, _ARG_OFFSET = operator.itemgetter(1), operator.itemgetter(2)  # of a blocks.tsv line
_NO_BLOCKS = (0, 0, 0, 0)  # of a target blocks.tsv does not list


def _line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def _malformed(path: str, text: str, offset: int, layout: str, error=CorpusError) -> Exception:
    line = text[offset:].partition("\n")[0]
    return error(f"{path}:{_line_of(text, offset)}: expected {layout}, got {line!r}")


def _stranger(path: str, lines: Iterable[int], fillers: Iterable[str], vocabulary: frozenset[str]) -> CorpusError:
    """The error at the first of ``fillers``, each on its line of ``lines``, that is not in ``vocabulary``."""
    line, filler = next((line, filler) for line, filler in zip(lines, fillers) if filler not in vocabulary)
    return CorpusError(f"{path}:{line}: filler {filler} is not a target of blocks.tsv")


def _tiling(path: str, name: str, text: str, starts: list[int]) -> list[tuple[int, int]]:
    """Each block's (start, end) in ``text``, from the offsets in ``blocks.tsv`` (``path``) where they start.

    A block ends where the next starts, and the last at the end of
    ``text``. The blocks must cover ``text`` with no gap and no
    overlap, each starting at a line start.
    """
    size = len(text)
    previous = 0
    for line, start in enumerate(starts, 1):
        if start > size:
            fault = f"is past its end, {size}"
        elif start < previous:
            fault = f"is before the block above it, at {previous}: the blocks overlap"
        elif line == 1 and start:
            fault = "leaves a gap before it: the first block starts at 0"
        elif start and text[start - 1] != "\n":
            fault = "is not at a line start"
        else:
            previous = start
            continue
        raise ConsistencyError(f"{path}:{line}: {name} offset {start} {fault}")
    if text and not starts:
        raise ConsistencyError(f"{path}: lists no target, but {name} is not empty")
    return list(zip(starts, [*starts[1:], size]))


def _read_blocks(paths: Sequence[str], texts: Sequence[str]) -> tuple[frozenset[str], dict, int]:
    """Check ``blocks.tsv``: the vocabulary, each target's blocks, and the catalog's line count.

    ``blocks.tsv`` must list ``lemma-pos`` targets in increasing order, and the
    offsets where their blocks start must tile ``rows.tsv`` and
    ``arg.tsv``. No line of the other files is parsed.
    """
    catalog_text, rows_text, arg_text, blocks_text = texts
    # every line of the catalog ends with a newline, so its lines are its n_dims dimensions
    if not catalog_text.endswith("\n") and catalog_text:
        raise _malformed(paths[0], catalog_text, catalog_text.rfind("\n") + 1, _CATALOG_LAYOUT)
    path = paths[3]
    lines = _lines(path, blocks_text, _BLOCKS_LINE, _BLOCKS_LAYOUT, 0, len(blocks_text), ConsistencyError)
    targets = list(map(_TARGET_OF_KEY, lines))
    if not all(map(operator.lt, targets, targets[1:])):
        i = next(i for i in range(1, len(targets)) if targets[i - 1] >= targets[i])
        raise ConsistencyError(f"{path}:{i + 1}: target {targets[i]} does not sort after {targets[i - 1]}")
    rows = _tiling(path, _FILES[1], rows_text, list(map(int, map(_ROWS_OFFSET, lines))))
    arg = _tiling(path, _FILES[2], arg_text, list(map(int, map(_ARG_OFFSET, lines))))
    blocks = {target: (*row, *ranking) for target, row, ranking in zip(targets, rows, arg)}
    return frozenset(targets), blocks, catalog_text.count("\n")


def _lines(path: str, text: str, line: re.Pattern, layout: str, start: int, end: int, error=CorpusError) -> list:
    """The groups of each line of ``text[start:end]``, which must all fit ``line``, whose layout is ``layout``."""
    lines = line.findall(text, start, end)
    # each match is one whole line: the matches cover the text when there is one per line
    if len(lines) == text.count("\n", start, end) and (start == end or text[end - 1] == "\n"):
        return lines
    offset = start
    while match := line.match(text, offset, end):
        offset = match.end()
    raise _malformed(path, text, offset, layout, error)


def _row_fault(path: str, text: str, start: int, ids: tuple[int, ...], scores: tuple[float, ...]):
    """The error at the first line of the block at ``start`` whose id does
    not increase or whose score is not positive and finite; an ``arg.tsv``
    block passes its line positions as ids."""
    for line, (previous, dim_id, score) in enumerate(zip((-1, *ids), ids, scores), _line_of(text, start)):
        if dim_id <= previous:
            return ConsistencyError(f"{path}:{line}: dimension ids must increase, got {previous} then {dim_id}")
        if not 0.0 < score < math.inf:
            return ConsistencyError(f"{path}:{line}: score {score!r} is not positive and finite")


def load_space(directory: str, stamps: Stamps | None = None) -> WeightedSpace:
    """Read an archive back; its rows and rankings are parsed per target on first use.

    ``read_artifact`` checks that the manifest is there, its format version
    and ``stamps``, then the bytes of all four files against its
    ``content_hash``, before anything is parsed. ``blocks.tsv``, whose lemma-pos targets are the
    vocabulary, and the manifest's counts are checked here; a target's
    blocks, and the catalog lines its row refers to, when the target is
    first read. Any failure names ``path:line``, the manifest, or the archive.
    """
    manifest_path = os.path.join(directory, "manifest.txt")
    paths = [os.path.join(directory, name) for name in _FILES]
    texts, manifest = read_artifact(paths, manifest_path, FORMAT_VERSION, "weight", stamps)
    vocabulary, blocks, n_dims = _read_blocks(paths, texts)
    # content_hash covers the files, not the manifest: its counts are read back against them
    n_targets = sum(start < end for start, end, _, _ in blocks.values())
    held = {"n_targets": n_targets, "n_dims": n_dims, "n_vocab": len(vocabulary)}
    for key, count in held.items():
        if manifest.get(key) != str(count):
            raise ConsistencyError(f"{manifest_path}: {key} is {manifest.get(key)}, the archive holds {count}")
    return WeightedSpace(texts, manifest, vocabulary, blocks, n_dims, directory)
