"""Loaders for the two binary-selection dataset formats.

Both formats are headered TSV with `lemma-pos` tokens. The pair format
holds triple pairs that differ in exactly one column: either the two
patients vary around a shared agent and verb (accuracy 1) or the two
agents vary around a shared verb and patient (accuracy 2); the header
says which. The role-reversal format holds a verb with its two argument
nouns, scored once in the given role assignment and once with the roles
swapped. Loaders validate strictly so transcription errors surface as
load failures with line numbers, not as silently skewed accuracies.
"""

from __future__ import annotations

import enum
import functools
import io
from dataclasses import dataclass

from .errors import DatasetError
from .tokens import NOUN, Token, VERB_POS, parse_canonical

BICKNELL_ACC1_HEADER = ("item_id", "agent", "verb", "patient_congruent", "patient_incongruent")
BICKNELL_ACC2_HEADER = ("item_id", "agent_congruent", "agent_incongruent", "verb", "patient")
CHOW_HEADER = ("item_id", "verb", "noun1", "noun2")


class BicknellMode(enum.Enum):
    ACC1 = "acc1"  # conditions differ by patient
    ACC2 = "acc2"  # conditions differ by agent


@dataclass(frozen=True)
class BicknellItem:
    """One triple pair; the shared column is stored twice for uniformity."""

    item_id: str
    agent_congruent: Token
    agent_incongruent: Token
    verb: Token
    patient_congruent: Token
    patient_incongruent: Token


@dataclass(frozen=True)
class ChowItem:
    item_id: str
    verb: Token
    noun1: Token
    noun2: Token


def _read_rows(path: str) -> list[tuple[int, list[str]]]:
    rows = []
    try:
        with io.open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.rstrip("\r\n")
                if not line.strip():
                    continue
                rows.append((line_no, [cell.strip() for cell in line.split("\t")]))
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from None
    return rows


def _naming_the_file(load):
    """Make the errors ``load(path, ...)`` raises at a line read ``PATH line N: ...``."""

    @functools.wraps(load)
    def named(path: str, *args, **kwargs):
        try:
            return load(path, *args, **kwargs)
        except DatasetError as exc:
            exc.path = path
            raise

    return named


def _parse_token(cell: str, pos: str, line_no: int) -> Token:
    try:
        token = parse_canonical(cell)
    except ValueError as exc:
        raise DatasetError(str(exc), line_no) from None
    if token.pos != pos:
        kind = "verb" if pos == VERB_POS else "noun"
        raise DatasetError(f"expected a {kind} token, got {cell!r}", line_no)
    return token


def _check_columns(cells: list[str], expected: int, line_no: int) -> None:
    if len(cells) != expected:
        raise DatasetError(
            f"expected {expected} tab-separated columns, got {len(cells)}", line_no
        )


def _check_fresh_id(item_id: str, seen: set[str], line_no: int) -> None:
    if not item_id:
        raise DatasetError("empty item_id", line_no)
    if item_id in seen:
        raise DatasetError(f"duplicate item_id {item_id!r}", line_no)
    seen.add(item_id)


def bicknell_mode_of_header(cells: list[str], line_no: int = 1) -> BicknellMode:
    if tuple(cells) == BICKNELL_ACC1_HEADER:
        return BicknellMode.ACC1
    if tuple(cells) == BICKNELL_ACC2_HEADER:
        return BicknellMode.ACC2
    raise DatasetError(
        "unrecognized header; expected "
        f"{' '.join(BICKNELL_ACC1_HEADER)} or {' '.join(BICKNELL_ACC2_HEADER)}",
        line_no,
    )


@_naming_the_file
def load_bicknell(path: str, mode: BicknellMode | None = None) -> list[BicknellItem]:
    """Load triple pairs; the pairing mode is inferred from the header.

    Passing ``mode`` asserts the expected format and fails loudly on a
    mismatch instead of silently evaluating the wrong task.
    """
    rows = _read_rows(path)
    if not rows:
        return []
    header_line, header = rows[0]
    inferred = bicknell_mode_of_header(header, header_line)
    if mode is not None and mode is not inferred:
        raise DatasetError(
            f"header is {inferred.value} format but {mode.value} was requested", header_line
        )
    items: list[BicknellItem] = []
    seen: set[str] = set()
    for line_no, cells in rows[1:]:
        _check_columns(cells, 5, line_no)
        _check_fresh_id(cells[0], seen, line_no)
        if inferred is BicknellMode.ACC1:
            agent = _parse_token(cells[1], NOUN, line_no)
            verb = _parse_token(cells[2], VERB_POS, line_no)
            patient_c = _parse_token(cells[3], NOUN, line_no)
            patient_i = _parse_token(cells[4], NOUN, line_no)
            if patient_c == patient_i:
                raise DatasetError("conditions are identical (same patient twice)", line_no)
            items.append(BicknellItem(cells[0], agent, agent, verb, patient_c, patient_i))
        else:
            agent_c = _parse_token(cells[1], NOUN, line_no)
            agent_i = _parse_token(cells[2], NOUN, line_no)
            verb = _parse_token(cells[3], VERB_POS, line_no)
            patient = _parse_token(cells[4], NOUN, line_no)
            if agent_c == agent_i:
                raise DatasetError("conditions are identical (same agent twice)", line_no)
            items.append(BicknellItem(cells[0], agent_c, agent_i, verb, patient, patient))
    return items


@_naming_the_file
def load_chow(path: str) -> list[ChowItem]:
    """Load role-reversal items: a verb and its two argument nouns."""
    rows = _read_rows(path)
    if not rows:
        return []
    header_line, header = rows[0]
    if tuple(header) != CHOW_HEADER:
        raise DatasetError(f"unrecognized header; expected {' '.join(CHOW_HEADER)}", header_line)
    items: list[ChowItem] = []
    seen: set[str] = set()
    for line_no, cells in rows[1:]:
        _check_columns(cells, 4, line_no)
        _check_fresh_id(cells[0], seen, line_no)
        verb = _parse_token(cells[1], VERB_POS, line_no)
        noun1 = _parse_token(cells[2], NOUN, line_no)
        noun2 = _parse_token(cells[3], NOUN, line_no)
        items.append(ChowItem(cells[0], verb, noun1, noun2))
    return items
