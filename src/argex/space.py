"""Weighted sparse vector space with ranked filler indices.

A space holds one row per target over (relation, filler) dimensions with
positive association scores, plus, for each (target, relation), the
fillers ranked by descending score. A space is its archive: the text of
four sorted TSV data files, whose sha256 is the space id. ``build_space``
renders them straight from the weighted scores, ``save_space`` writes
them with a manifest, and ``load_space`` reads them back once their hash
is verified. The archive stores scores only: every ranking is rebuilt
from the rows for the dependency slots and from ``arg.tsv`` for the ARG
slot. A space, built or loaded, reads its own rows and rankings from
those files, in the order the writer writes them: targets increase down
``rows.tsv`` and ``arg.tsv``, ids within a row, and (relation, filler)
pairs down ``catalog.tsv``. It checks the whole archive on its first
read, which a load makes at once and a built space on first use, and
parses a target's row and rankings only when the target is first used.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
import math
import operator
import os
import re
from collections.abc import Mapping
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import ConsistencyError, CorpusError, OutOfVocabularyError, StaleArtifactError
from .tensor import (
    SCORE_FORMAT,
    Triple,
    decode_utf8,
    format_score,
    make_output_dir,
    read_bytes,
    read_sidecar,
    write_bytes_atomic,
    write_sidecar,
)
from .tokens import ARG, canonical_checker

if TYPE_CHECKING:
    from .weighting import WeightedTensor

FORMAT_VERSION = "2"
_DATA_FILES = ("catalog.tsv", "vocab.tsv", "rows.tsv", "arg.tsv")
_BUILT = "<built space>"  # names the data files of a built space in errors
_TARGET_OF_KEY = operator.itemgetter(0)  # of a (target, relation, filler) triple
_RELATION_OF_KEY = operator.itemgetter(1)
_DIMENSION_OF_KEY = operator.itemgetter(1, 2)


class SparseVector:
    """Sorted (dimension id, positive score) pairs with a cached norm.

    Immutable; two vectors are equal, and hash alike, when their ids,
    scores and norms are.
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

    def __hash__(self) -> int:
        return hash((self.ids, self.scores, self.norm))

    def __repr__(self) -> str:
        return f"SparseVector(ids={self.ids!r}, scores={self.scores!r}, norm={self.norm!r})"

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "SparseVector":
        """Build from unordered pairs; zero scores are dropped as absent."""
        kept = []
        for dim, score in pairs:
            if score < 0:
                raise ValueError(f"negative score for dimension {dim}")
            if score > 0:
                kept.append((dim, score))
        kept.sort()
        ids = tuple(dim for dim, _ in kept)
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate dimension ids")
        return cls(ids, tuple(score for _, score in kept))

    def __len__(self) -> int:
        return len(self.ids)

    def items(self):
        return zip(self.ids, self.scores)

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


def add_vectors(a: SparseVector, b: SparseVector) -> SparseVector:
    """``sum_vectors([a, b])`` by a merge of the two sorted supports."""
    a_ids, a_scores, b_ids, b_scores = a.ids, a.scores, b.ids, b.scores
    n_a, n_b = len(a_ids), len(b_ids)
    ids: list[int] = []
    scores: list[float] = []
    i = j = 0
    while i < n_a and j < n_b:
        x, y = a_ids[i], b_ids[j]
        if x == y:
            ids.append(x)
            scores.append(a_scores[i] + b_scores[j])
            i += 1
            j += 1
        elif x < y:
            ids.append(x)
            scores.append(a_scores[i])
            i += 1
        else:
            ids.append(y)
            scores.append(b_scores[j])
            j += 1
    ids.extend(a_ids[i:])
    scores.extend(a_scores[i:])
    ids.extend(b_ids[j:])
    scores.extend(b_scores[j:])
    return SparseVector(tuple(ids), tuple(scores))


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
    """A space: the text of its archive's data files, and its manifest.

    ``texts`` holds the data files in ``_DATA_FILES`` order; the
    manifest's ``space_id`` is the sha256 of their bytes. All else is
    read from ``texts``. The first read of the vocabulary, the catalog, a
    row or a ranking checks the files whole (``_check``), which
    ``load_space`` does at load and a built space on first use. A
    target's row is parsed from its ``rows.tsv`` block when first read,
    which is where ids that do not increase and scores that are not
    positive and finite are found. Its rankings are built together when
    one of them is first read: the dependency slots' from its row
    through the catalog, ``ARG``'s from its ``arg.tsv`` block, which
    holds that ranking whole. ``directory`` only names the files in errors.
    """

    # set by _check, which the first read of any of them runs
    vocabulary: frozenset[str]
    catalog: tuple[tuple[str, str], ...]  # (relation, filler) of each dimension id
    _row_blocks: dict[str, tuple[int, int]]  # each target's block offsets in rows.tsv
    _arg_blocks: dict[str, tuple[int, int]]  # and in arg.tsv

    def __init__(self, texts: Sequence[str], manifest: dict[str, str], directory: str = _BUILT):
        self.texts = texts
        self.manifest = manifest
        self.directory = directory
        self._rows: dict[str, SparseVector] = {}
        self._rankings: dict[str, dict[str, tuple[tuple[str, float], ...]]] = {}

    def __getattr__(self, name: str):
        # called only for a missing attribute: one of the above, before the check
        if name not in WeightedSpace.__annotations__:
            raise AttributeError(f"'WeightedSpace' object has no attribute {name!r}")
        self._check()
        return self.__dict__[name]

    def _check(self) -> None:
        """Check the data files whole, and index ``rows.tsv`` and ``arg.tsv`` by target block.

        Every line's layout and token is checked, the order of the targets
        and of the catalog, and each row's last dimension id against the
        catalog. Nothing is kept unless every check passes.
        """
        paths = [os.path.join(self.directory, name) for name in _DATA_FILES]
        catalog_path, vocab_path, rows_path, arg_path = paths
        catalog_text, vocab_text, rows_text, arg_text = self.texts
        # every token is checked once, and most are vocabulary entries: checked first
        check = canonical_checker()
        vocab = vocab_text.split("\n")
        if not vocab[-1]:
            vocab.pop()
        _check_column(vocab_path, vocab, check)
        known = frozenset(vocab)
        catalog = _read_catalog(catalog_path, catalog_text, check, known)
        row_blocks, end = _target_blocks(rows_path, rows_text, _ROWS_BLOCK, check, known, len(catalog))
        if end != len(rows_text):
            raise _malformed(rows_path, rows_text, end, "target, dimension id, score")
        arg_blocks, end = _target_blocks(arg_path, arg_text, _ARG_BLOCK, check, known)
        if end != len(arg_text):
            raise _malformed(arg_path, arg_text, end, "target, filler, score")
        _check_column(arg_path, _MIDDLE.findall(arg_text), check, known)
        self.vocabulary, self.catalog = known, catalog
        self._row_blocks, self._arg_blocks = row_blocks, arg_blocks

    def row(self, target: str) -> SparseVector:
        """The row of ``target``; a target without one has the empty row."""
        row = self._rows.get(target)
        if row is None:
            span = self._row_blocks.get(target)
            if span is None:
                return EMPTY_VECTOR
            text = self.texts[2]
            dims, scores = zip(*_PAIR.findall(text, *span))
            ids, scores = tuple(map(int, dims)), tuple(map(float, scores))
            # the merge and bisect kernels rely on increasing ids
            if not (all(map(operator.lt, ids, ids[1:])) and 0.0 < min(scores) and max(scores) < math.inf):
                raise _row_fault(os.path.join(self.directory, _DATA_FILES[2]), text, span[0], ids, scores)
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
        catalog = self.catalog
        for dim_id, score in self.row(target).items():
            relation, filler = catalog[dim_id]
            if relation != ARG:
                groups.setdefault(relation, []).append((filler, score))
        span = self._arg_blocks.get(target)
        if span is not None:
            groups[ARG] = [(filler, float(score)) for filler, score in _PAIR.findall(self.texts[3], *span)]
        return {relation: _ranked(fillers) for relation, fillers in groups.items()}

    @property
    def index(self) -> WeightedSpace:
        """The space itself, which ranks its own fillers; ``perfbench/traced.py`` still reads it."""
        return self

    @property
    def space_id(self) -> str:
        """sha256 of the archive's data files."""
        return self.manifest["space_id"]


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

    The data files are rendered straight from the sorted score keys;
    the space's rows and rankings are read back from them on first use.
    ``extra_index`` contributes ARG rankings only (relation-collapsed
    typicality scores); its entries never become vector dimensions.
    Zero scores are dropped as absent; a negative, nan or infinite one
    raises ``ValueError``.
    """
    if extra_index is not None and set(map(_RELATION_OF_KEY, extra_index.scores)) - {ARG}:
        raise ValueError(f"extra_index may only hold {ARG} rankings")
    # by target, then (relation, filler): each target's entries are one run,
    # in the order of their dimension ids
    keys, values = _stored(weighted.scores)
    dim_of_key = list(map(_DIMENSION_OF_KEY, keys))
    catalog = tuple(sorted(set(dim_of_key)))
    targets = list(map(_TARGET_OF_KEY, keys))
    vocab = frozenset(vocabulary)
    # (target, dim id, score) per rows.tsv line, all rendered by one % operation
    fields: list = [None] * (3 * len(keys))
    fields[0::3] = targets
    fields[1::3] = map(dict(zip(catalog, range(len(catalog)))).__getitem__, dim_of_key)
    fields[2::3] = values
    rows_tsv = (f"%s\t%d\t{SCORE_FORMAT}\n" * len(keys)) % tuple(fields)
    # arg.tsv holds the ARG rankings' scores, by target then filler; a filler
    # ranked twice (a corpus relation named ARG beside the collapsed scores)
    # is written in ranking order, best first
    arg_entries = itertools.compress(zip(keys, values), map(ARG.__eq__, map(_RELATION_OF_KEY, keys)))
    if extra_index is not None:
        arg_entries = itertools.chain(arg_entries, zip(*_stored(extra_index.scores)))
    arg = sorted([(target, filler, -score) for (target, _, filler), score in arg_entries])
    texts = (
        "".join([f"{dim_id}\t{relation}\t{filler}\n" for dim_id, (relation, filler) in enumerate(catalog)]),
        "".join([f"{token}\n" for token in sorted(vocab)]),
        rows_tsv,
        "".join([f"{target}\t{filler}\t{format_score(-negated)}\n" for target, filler, negated in arg]),
    )
    info = {
        "format_version": FORMAT_VERSION,
        "source_hash": weighted.source_hash,
        "n_targets": str(len(set(targets))),
        "n_dims": str(len(catalog)),
        "n_vocab": str(len(vocab)),
    }
    if manifest:
        info.update(manifest)
    info["space_id"] = _space_id(text.encode("utf-8") for text in texts)
    return WeightedSpace(texts, info)


# -- archive -------------------------------------------------------------


def _space_id(bodies: Iterable[bytes]) -> str:
    digest = hashlib.sha256()
    for data in bodies:
        digest.update(data)
    return digest.hexdigest()


def save_space(space: WeightedSpace, directory: str) -> str:
    """Write the archive; returns its space id.

    Each data file is replaced atomically and the manifest goes last,
    so an interrupted save leaves an archive that fails verification,
    never a half-written file.
    """
    make_output_dir(directory)
    for name, text in zip(_DATA_FILES, space.texts):
        write_bytes_atomic(os.path.join(directory, name), text.encode("utf-8"))
    write_sidecar(os.path.join(directory, "manifest.txt"), space.manifest)
    return space.space_id


# A space checks its data files with a few whole-file regex passes,
# which check the layout of every line and every token, the order of the
# targets and of the catalog, and each row's last dimension id. Then
# rows.tsv and arg.tsv are indexed by target block (a target's lines),
# and a block is parsed when its target's row or a ranking is first read.
_FIELD = r"[^\t\n]+"
_SCORE = r"[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?"  # format_score of a non-negative finite float
_ID = "(0|[1-9][0-9]*)"  # a dimension id, without leading zeros
_CATALOG_LINES = re.compile(rf"(?:[0-9]+\t{_FIELD}\t{_FIELD}\n)*")
_CATALOG_LINE = re.compile(rf"^([0-9]+)\t({_FIELD})\t({_FIELD})\n", re.MULTILINE)
# a repeated group keeps its last repetition: group 3 is the id of the block's last line, if not its first
_ROWS_BLOCK = re.compile(rf"({_FIELD})\t{_ID}\t{_SCORE}\n(?:\1\t{_ID}\t{_SCORE}\n)*")
_ARG_BLOCK = re.compile(rf"({_FIELD})\t{_FIELD}\t{_SCORE}\n(?:\1\t{_FIELD}\t{_SCORE}\n)*")
_MIDDLE = re.compile(rf"\t({_FIELD})\t")  # of each line: the filler
_PAIR = re.compile(rf"\t({_FIELD})\t({_FIELD})\n")  # of each line: (middle field, score)


def _line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def _malformed(path: str, text: str, offset: int, layout: str) -> CorpusError:
    line = text[offset:].partition("\n")[0]
    return CorpusError(f"{path}:{_line_of(text, offset)}: expected {layout}, got {line!r}")


def _check_column(path: str, column: list[str], check, known: frozenset[str] = frozenset()) -> None:
    """Check each distinct token of a one-per-line ``column`` not in ``known``; a bad one names its line."""
    for token in dict.fromkeys(column):
        if token not in known:
            try:
                check(token)
            except ValueError as exc:
                raise CorpusError(f"{path}:{column.index(token) + 1}: {exc}") from None


def _read_catalog(path: str, text: str, check, known: frozenset[str]) -> tuple[tuple[str, str], ...]:
    """The (relation, filler) pair of each dimension id; the pairs must increase down the file."""
    lines = _CATALOG_LINE.findall(text)
    # each match is one whole line: the matches cover the text when there is one per line
    if len(lines) != text.count("\n") or (text and not text.endswith("\n")):
        raise _malformed(path, text, _CATALOG_LINES.match(text).end(), "dimension id, relation, filler")
    ids = list(map(operator.itemgetter(0), lines))
    if ids != list(map(str, range(len(ids)))):
        first = next(i for i, dim_id in enumerate(ids) if dim_id != str(i))
        raise ConsistencyError(f"{path}:{first + 1}: dimension id {ids[first]} out of sequence")
    dims = tuple(map(operator.itemgetter(1, 2), lines))
    _check_column(path, list(map(operator.itemgetter(1), dims)), check, known)
    if not all(map(operator.lt, dims, dims[1:])):
        i = next(i for i in range(1, len(dims)) if dims[i - 1] >= dims[i])
        raise ConsistencyError(f"{path}:{i + 1}: dimension {dims[i]} does not sort after {dims[i - 1]}")
    return dims


def _target_blocks(
    path: str, text: str, block: re.Pattern, check, known: frozenset[str], n_dims: int | None = None
) -> tuple[dict[str, tuple[int, int]], int]:
    """Each target's block offsets, and the offset where the blocks stop.

    The blocks stop at the first line that does not fit ``block``, or at
    the end of ``text``. Every target is checked to be a token that sorts
    after the target before it, so each target has one block. With
    ``n_dims``, each block's last dimension id is checked to be below it.
    """
    blocks: dict[str, tuple[int, int]] = {}
    previous = ""
    end = 0
    for match in block.finditer(text):
        if match.start() != end:
            break
        target = match[1]
        if target not in known:
            try:
                check(target)
            except ValueError as exc:
                raise CorpusError(f"{path}:{_line_of(text, end)}: {exc}") from None
        if target <= previous:
            raise ConsistencyError(f"{path}:{_line_of(text, end)}: target {target} does not sort after {previous}")
        blocks[target] = match.span()
        previous, end = target, match.end()
        if n_dims is not None and int(match[3] or match[2]) >= n_dims:
            raise ConsistencyError(
                f"{path}:{_line_of(text, end - 1)}: dimension id {match[3] or match[2]} is not in the catalog"
            )
    return blocks, end


def _row_fault(path: str, text: str, start: int, ids: tuple[int, ...], scores: tuple[float, ...]):
    """The error at the first line of the row block at ``start`` whose id
    does not increase or whose score is not positive and finite."""
    for line, (previous, dim_id, score) in enumerate(zip((-1, *ids), ids, scores), _line_of(text, start)):
        if dim_id <= previous:
            return ConsistencyError(f"{path}:{line}: dimension ids must increase, got {previous} then {dim_id}")
        if not 0.0 < score < math.inf:
            return ConsistencyError(f"{path}:{line}: score {score!r} is not positive and finite")


def load_space(directory: str) -> WeightedSpace:
    """Read an archive back; its rows and rankings are parsed per target on first use.

    The format version is checked first, then the bytes against the
    manifest, and only then is anything parsed. Every line's layout and
    token, the order of the targets and of the catalog, and each row's
    last dimension id are checked here; a row's ids and scores when its
    target is first used. Any failure names ``path:line``.
    """
    manifest = read_sidecar(os.path.join(directory, "manifest.txt"))
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise StaleArtifactError(
            f"space archive {directory} has format version {version}, this argex reads "
            f"version {FORMAT_VERSION}; re-run `argex weight`"
        )
    paths = [os.path.join(directory, name) for name in _DATA_FILES]
    bodies = [read_bytes(path) for path in paths]
    recorded = manifest.get("space_id", "")
    actual = _space_id(bodies)
    if recorded != actual:
        raise ConsistencyError(
            f"space archive {directory} failed verification: "
            f"manifest records {recorded[:12]}.., content is {actual[:12]}.."
        )
    texts = tuple(map(decode_utf8, paths, bodies))
    del bodies
    space = WeightedSpace(texts, manifest, directory)
    space._check()
    return space
