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
import io
from typing import NamedTuple

from .errors import DatasetError
from .tokens import NOUN, Token, VERB_POS, parse_canonical

BICKNELL_ACC1_HEADER = ("item_id", "agent", "verb", "patient_congruent", "patient_incongruent")
BICKNELL_ACC2_HEADER = ("item_id", "agent_congruent", "agent_incongruent", "verb", "patient")
CHOW_HEADER = ("item_id", "verb", "noun1", "noun2")
_BICKNELL_HEADERS = f"{' '.join(BICKNELL_ACC1_HEADER)} or {' '.join(BICKNELL_ACC2_HEADER)}"


class BicknellMode(enum.Enum):
    ACC1 = "acc1"  # conditions differ by patient
    ACC2 = "acc2"  # conditions differ by agent


class BicknellItem(NamedTuple):
    """One triple pair; the shared column is stored twice for uniformity."""

    item_id: str
    agent_congruent: Token
    agent_incongruent: Token
    verb: Token
    patient_congruent: Token
    patient_incongruent: Token


class ChowItem(NamedTuple):
    item_id: str
    verb: Token
    noun1: Token
    noun2: Token


def _read_rows(path: str, header: str) -> list[tuple[int, list[str]]]:
    """(line number, cells) of each non-blank line; a file with none is refused, naming ``header``."""
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
    if not rows:
        raise DatasetError(f"dataset {path} is empty; expected the header {header}")
    return rows


def _fault(path: str, line_no: int, message: str) -> DatasetError:
    return DatasetError(f"{path} line {line_no}: {message}")


def _parse_token(cell: str, pos: str, path: str, line_no: int) -> Token:
    try:
        token = parse_canonical(cell)
    except ValueError as exc:
        raise _fault(path, line_no, str(exc)) from None
    if token.pos != pos:
        kind = "verb" if pos == VERB_POS else "noun"
        raise _fault(path, line_no, f"expected a {kind} token, got {cell!r}")
    return token


def _check_columns(cells: list[str], expected: int, path: str, line_no: int) -> None:
    if len(cells) != expected:
        raise _fault(path, line_no, f"expected {expected} tab-separated columns, got {len(cells)}")


def _check_fresh_id(item_id: str, seen: set[str], path: str, line_no: int) -> None:
    if not item_id:
        raise _fault(path, line_no, "empty item_id")
    if item_id in seen:
        raise _fault(path, line_no, f"duplicate item_id {item_id!r}")
    seen.add(item_id)


def bicknell_mode_of_header(cells: list[str]) -> BicknellMode | None:
    """The pairing mode a header names; ``None`` for a header of neither format."""
    if tuple(cells) == BICKNELL_ACC1_HEADER:
        return BicknellMode.ACC1
    if tuple(cells) == BICKNELL_ACC2_HEADER:
        return BicknellMode.ACC2
    return None


def load_bicknell(path: str, mode: BicknellMode | None = None) -> list[BicknellItem]:
    """Load triple pairs; the pairing mode is inferred from the header.

    Passing ``mode`` asserts the expected format and fails loudly on a
    mismatch instead of silently evaluating the wrong task.
    """
    rows = _read_rows(path, _BICKNELL_HEADERS)
    header_line, header = rows[0]
    inferred = bicknell_mode_of_header(header)
    if inferred is None:
        raise _fault(path, header_line, f"unrecognized header; expected {_BICKNELL_HEADERS}")
    if mode is not None and mode is not inferred:
        raise _fault(path, header_line, f"header is {inferred.value} format but {mode.value} was requested")
    items: list[BicknellItem] = []
    seen: set[str] = set()
    for line_no, cells in rows[1:]:
        _check_columns(cells, 5, path, line_no)
        _check_fresh_id(cells[0], seen, path, line_no)
        if inferred is BicknellMode.ACC1:
            agent = _parse_token(cells[1], NOUN, path, line_no)
            verb = _parse_token(cells[2], VERB_POS, path, line_no)
            patient_c = _parse_token(cells[3], NOUN, path, line_no)
            patient_i = _parse_token(cells[4], NOUN, path, line_no)
            if patient_c == patient_i:
                raise _fault(path, line_no, "conditions are identical (same patient twice)")
            items.append(BicknellItem(cells[0], agent, agent, verb, patient_c, patient_i))
        else:
            agent_c = _parse_token(cells[1], NOUN, path, line_no)
            agent_i = _parse_token(cells[2], NOUN, path, line_no)
            verb = _parse_token(cells[3], VERB_POS, path, line_no)
            patient = _parse_token(cells[4], NOUN, path, line_no)
            if agent_c == agent_i:
                raise _fault(path, line_no, "conditions are identical (same agent twice)")
            items.append(BicknellItem(cells[0], agent_c, agent_i, verb, patient, patient))
    return items


def load_chow(path: str) -> list[ChowItem]:
    """Load role-reversal items: a verb and its two argument nouns."""
    rows = _read_rows(path, " ".join(CHOW_HEADER))
    header_line, header = rows[0]
    if tuple(header) != CHOW_HEADER:
        raise _fault(path, header_line, f"unrecognized header; expected {' '.join(CHOW_HEADER)}")
    items: list[ChowItem] = []
    seen: set[str] = set()
    for line_no, cells in rows[1:]:
        _check_columns(cells, 4, path, line_no)
        _check_fresh_id(cells[0], seen, path, line_no)
        verb = _parse_token(cells[1], VERB_POS, path, line_no)
        noun1 = _parse_token(cells[2], NOUN, path, line_no)
        noun2 = _parse_token(cells[3], NOUN, path, line_no)
        items.append(ChowItem(cells[0], verb, noun1, noun2))
    return items
