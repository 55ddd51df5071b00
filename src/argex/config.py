"""Flat key-value pipeline configuration.

One config file drives every stage. Values are scalars or
comma-separated lists; `#` starts a comment. Artifacts are stamped with
hashes of the config projection that determines their content, so a
stage refuses to consume artifacts produced under different settings
instead of silently mixing them.

The task names, model variants and compositions a config selects are
defined here, so reading a config loads no scoring code.
"""

import enum
import hashlib
import io
from typing import NamedTuple

from .errors import ConfigError
from .tokens import VERB_LINK, compile_pos_map, inverse

TASK_BICKNELL_ACC1 = "bicknell-acc1"
TASK_BICKNELL_ACC2 = "bicknell-acc2"
TASK_CHOW = "chow"
ALL_TASKS = (TASK_BICKNELL_ACC1, TASK_BICKNELL_ACC2, TASK_CHOW)


class VariantKind(enum.Enum):
    DEPS = "deps"
    BOA = "boa"
    BOW = "bow"

    @classmethod
    def from_string(cls, text: str) -> "VariantKind":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ConfigError(f"unknown model variant {text!r}; expected deps, boa, or bow") from None


class Composition(enum.Enum):
    SUM = "sum"
    MULT = "mult"

    @classmethod
    def from_string(cls, text: str) -> "Composition":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ConfigError(f"unknown composition {text!r}; expected sum or mult") from None


# Annotations are evaluated here (no ``from __future__ import annotations``):
# each setting's type picks its parser in ``_FIELD_PARSERS`` below.
class _Settings(NamedTuple):
    # corpus ingestion
    corpus_paths: tuple[str, ...] = ()
    col_form: int = 1
    col_lemma: int = 2
    col_pos: int = 3
    col_head: int = 6
    col_relation: int = 7
    pos_map: str = "N:n,V:v"
    vocab_threshold: int = 1000
    vocab_threshold_inclusive: bool = True
    subject_labels: tuple[str, ...] = ("sbj",)
    object_labels: tuple[str, ...] = ("obj",)
    relation_allowlist: tuple[str, ...] = ()
    relation_denylist: tuple[str, ...] = ()
    window_width: int = 2
    window_filtered_positions: bool = False
    # weighting and spaces
    arg_relations: tuple[str, ...] = ()  # empty = all direct dependency relations
    boa_rank_mode: str = "collapsed"  # or "max": max per-relation score
    boa_space: str = "deps"  # vectors for BOA fillers/candidates; or "window"
    # task slot mappings
    bicknell_agent_slot: str = VERB_LINK
    bicknell_verb_slot: str = "obj"
    chow_agent_slot: str = inverse("sbj")
    chow_patient_slot: str = inverse("obj")
    # datasets and experiment grid
    bicknell_acc1_path: str = ""
    bicknell_acc2_path: str = ""
    chow_path: str = ""
    variant_kinds: tuple[str, ...] = ("deps", "boa", "bow")
    k_values: tuple[int, ...] = (10, 20, 30, 40, 50)
    compositions: tuple[str, ...] = ("sum", "mult")
    # output
    out_dir: str = "out"


class PipelineConfig(_Settings):
    """The settings of a run: an immutable tuple, checked whenever one is made.

    ``config._replace(key=value)`` makes a changed copy through
    ``_make``, which checks it too.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable) -> "PipelineConfig":
        return cls(*iterable)

    def _check(self) -> None:
        if self.vocab_threshold < 1:
            raise ConfigError("vocab_threshold must be >= 1")
        if self.window_width < 1:
            raise ConfigError("window_width must be >= 1")
        columns = (self.col_form, self.col_lemma, self.col_pos, self.col_head, self.col_relation)
        if any(c < 0 for c in columns):
            raise ConfigError("column indices must be >= 0")
        if len(set(columns)) != len(columns):
            raise ConfigError("column indices must be distinct")
        if self.boa_rank_mode not in ("collapsed", "max"):
            raise ConfigError(f"boa_rank_mode must be collapsed or max, got {self.boa_rank_mode!r}")
        if self.boa_space not in ("deps", "window"):
            raise ConfigError(f"boa_space must be deps or window, got {self.boa_space!r}")
        for name in ("variant_kinds", "compositions", "k_values"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be non-empty")
        refuse_repeats("variant_kinds", [VariantKind.from_string(kind).value for kind in self.variant_kinds])
        refuse_repeats("compositions", [Composition.from_string(comp).value for comp in self.compositions])
        if any(k < 1 for k in self.k_values):
            raise ConfigError("k_values must all be >= 1")
        refuse_repeats("k_values", self.k_values)
        compile_pos_map(self.pos_map)  # validates eagerly
        for name in ("bicknell_agent_slot", "bicknell_verb_slot", "chow_agent_slot", "chow_patient_slot", "out_dir"):
            if not getattr(self, name).strip():
                raise ConfigError(f"{name} must be non-empty")


def refuse_repeats(name: str, values) -> None:
    """Raise ``ConfigError`` naming the first repeated value: each grid cell runs once."""
    seen = set()
    for value in values:
        if value in seen:
            raise ConfigError(f"{name} repeats {value!r}")
        seen.add(value)


_BOOL_TRUE = frozenset({"true", "yes", "1"})
_BOOL_FALSE = frozenset({"false", "no", "0"})


def _parse_bool(key: str, value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in _BOOL_TRUE:
        return True
    if lowered in _BOOL_FALSE:
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_str_list(key: str, value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _parse_int_list(key: str, value: str) -> tuple[int, ...]:
    return tuple(_parse_int(key, part) for part in value.split(",") if part.strip())


# each setting's parser, by its type: _Settings is the one list of keys and types
_PARSERS = {
    int: _parse_int,
    bool: _parse_bool,
    str: lambda key, value: value.strip(),
    tuple[str, ...]: _parse_str_list,
    tuple[int, ...]: _parse_int_list,
}
_FIELD_PARSERS = {name: _PARSERS[kind] for name, kind in _Settings.__annotations__.items()}


def config_from_items(items: dict[str, str]) -> PipelineConfig:
    kwargs = {}
    for key, value in items.items():
        parse = _FIELD_PARSERS.get(key)
        if parse is None:
            raise ConfigError(f"unknown config key {key!r}")
        kwargs[key] = parse(key, value)
    return PipelineConfig(**kwargs)


def load_config(path: str, overrides: dict[str, str] | None = None) -> PipelineConfig:
    """Parse a config file; ``overrides`` are applied last (CLI flags)."""
    items: dict[str, str] = {}
    try:
        with io.open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "\0" in line:  # no path may hold one, and open() would raise ValueError
                    raise ConfigError(f"{path} line {line_no}: NUL byte in {raw.rstrip()!r}")
                key, sep, value = line.partition("=")
                if not sep:
                    raise ConfigError(f"{path} line {line_no}: expected key=value, got {raw.rstrip()!r}")
                items[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from None
    if overrides:
        items.update(overrides)
    return config_from_items(items)


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _hash_fields(config: PipelineConfig, names: tuple[str, ...]) -> str:
    text = "".join(f"{name}={_render_value(getattr(config, name))}\n" for name in names)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Fields that determine the raw tensors' content.
INGEST_FIELDS = (
    "corpus_paths", "col_form", "col_lemma", "col_pos", "col_head", "col_relation",
    "pos_map", "vocab_threshold", "vocab_threshold_inclusive", "subject_labels",
    "object_labels", "relation_allowlist", "relation_denylist", "window_width",
    "window_filtered_positions",
)

# Additionally determine the weighted spaces' content.
SPACE_FIELDS = INGEST_FIELDS + ("arg_relations", "boa_rank_mode")


def ingest_hash(config: PipelineConfig) -> str:
    return _hash_fields(config, INGEST_FIELDS)


def space_hash(config: PipelineConfig) -> str:
    return _hash_fields(config, SPACE_FIELDS)


def config_hash(config: PipelineConfig) -> str:
    """Hash of everything that can influence artifact content.

    The output directory is excluded: where artifacts land must not
    change what is in them.
    """
    names = tuple(name for name in _FIELD_PARSERS if name != "out_dir")
    return _hash_fields(config, names)
