"""Vocabulary units: lemma + coarse part-of-speech tokens.

The atomic unit everywhere downstream is a lowercased lemma paired with a
coarse tag, rendered canonically as ``lemma-pos`` (``arrest-v``,
``policeman-n``). Only nouns and verbs are representable; everything else
is outside the model vocabulary by construction.

Below the edges (parsing, counting, weighting, spaces) a token is its
canonical string: string tuples sort in canonical order, so no key is
re-rendered to be sorted or written. ``Token`` is the parsed form that
datasets, queries and the CLI hand in.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .errors import ConfigError

NOUN = "n"
VERB_POS = "v"
COARSE_TAGS = (NOUN, VERB_POS)

# Synthetic relation labels. Inverse relations carry the `_inv` suffix so
# that noun -> verb lookups are first-class index entries.
INVERSE_SUFFIX = "_inv"
VERB_LINK = "VERB"
WINDOW = "WINDOW"
ARG = "ARG"

# matches exactly the characters for which str.isspace() is true
_WHITESPACE = re.compile(r"\s")


class _LemmaPos(NamedTuple):
    lemma: str
    pos: str


class Token(_LemmaPos):
    """A lowercased lemma with its coarse tag (one of ``n``/``v``).

    An immutable (lemma, pos) tuple, compared, hashed and ordered as
    one, and checked whenever one is made, ``_make`` and ``_replace``
    included.
    """

    __slots__ = ()

    def __new__(cls, lemma: str, pos: str):
        _check_lemma_pos(lemma, pos)
        return super().__new__(cls, lemma, pos)

    @classmethod
    def _make(cls, iterable) -> "Token":
        return cls(*iterable)

    @property
    def canonical(self) -> str:
        return f"{self.lemma}-{self.pos}"

    def __str__(self) -> str:
        return self.canonical


def _check_lemma_pos(lemma: str, pos: str) -> None:
    if not lemma or _WHITESPACE.search(lemma):
        raise ValueError(f"invalid lemma: {lemma!r}")
    if pos not in COARSE_TAGS:
        raise ValueError(f"invalid coarse tag: {pos!r}")


def _split_canonical(text: str) -> tuple[str, str]:
    """(lemma, pos) of a ``lemma-pos`` rendering, split on the last hyphen
    so hyphenated lemmas round-trip."""
    lemma, sep, pos = text.rpartition("-")
    if not sep or not lemma:
        raise ValueError(f"not a lemma-pos rendering: {text!r}")
    return lemma, pos


def parse_canonical(text: str) -> Token:
    """Parse a ``lemma-pos`` rendering back into a Token."""
    return Token(*_split_canonical(text))


class Memo(dict):
    """``memo[key]`` is ``compute(key)``, computed once per distinct key.

    A key already seen costs one dict lookup and no Python-level call.
    """

    def __init__(self, compute: Callable):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def _checked(text: str) -> str:
    _check_lemma_pos(*_split_canonical(text))
    return text


def canonical_checker() -> Callable[[str], str]:
    """A check for token strings read from an artifact.

    The returned function raises ``ValueError`` unless its argument is a
    ``lemma-pos`` rendering that ``parse_canonical`` accepts. Each
    distinct string is checked once; later calls return the first copy
    seen, so a loaded artifact holds one string per token.
    """
    return Memo(_checked).__getitem__


def inverse(relation: str) -> str:
    return relation + INVERSE_SUFFIX


def is_inverse(relation: str) -> bool:
    return relation.endswith(INVERSE_SUFFIX)


def compile_pos_map(mapping: str) -> tuple[tuple[str, str], ...]:
    """Compile a ``PREFIX:tag,PREFIX:tag`` string into prefix rules.

    Longer prefixes win over shorter ones so e.g. ``NNP:n,N:n`` behaves
    predictably regardless of listing order.
    """
    rules = []
    for part in mapping.split(","):
        part = part.strip()
        if not part:
            continue
        prefix, sep, tag = part.partition(":")
        if not sep or not prefix or tag not in COARSE_TAGS:
            raise ConfigError(f"bad POS mapping entry: {part!r}")
        rules.append((prefix.upper(), tag))
    rules.sort(key=lambda r: (-len(r[0]), r[0]))
    return tuple(rules)


def coarse_pos(fine_tag: str, pos_map) -> str | None:
    """Collapse a fine-grained tag to ``n``/``v`` by the prefix rules of
    ``compile_pos_map``, or None if no rule matches (determiners,
    adverbs, punctuation, ...)."""
    tag = fine_tag.upper()
    for prefix, coarse in pos_map:
        if tag.startswith(prefix):
            return coarse
    return None


def normalize(lemma: str, fine_tag: str, pos_map) -> str | None:
    """Turn a raw (lemma, fine tag) pair into a canonical token, or None.

    None means the surface position still exists but can never enter the
    vocabulary: unmapped POS, empty lemma, or a lemma with whitespace.
    """
    coarse = coarse_pos(fine_tag, pos_map)
    if coarse is None:
        return None
    lemma = lemma.lower()
    if not lemma or _WHITESPACE.search(lemma):
        return None
    return f"{lemma}-{coarse}"
