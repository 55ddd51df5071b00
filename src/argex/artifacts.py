"""Artifact I/O: every file a stage writes, every artifact read back, and the output lock.

Each file goes to a temporary name and is renamed into place, so none
is ever half-written. An artifact is its bodies, then a sidecar of
sorted ``key=value`` lines, written last, that records their format
version and sha256 (``content_hash``): ``path.meta`` beside one body, a
space archive's manifest beside its four. ``read_artifact``, the one verified read, checks
presence, format, stamps, then bytes, before any loader parses a line.
A stage writes only under ``locked``, which holds the output directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from typing import Iterable, Sequence

from .errors import ConfigError, ConsistencyError, CorpusError, StaleArtifactError

# what a reader expects of a sidecar: key -> (the value, what that value was taken from)
Stamps = dict[str, tuple[str, str]]
# 17 significant digits: enough for exact float64 round-trips. A printf
# format, so a writer can render a whole row of scores in one % operation.
SCORE_FORMAT = "%.17g"


def format_score(value: float) -> str:
    return SCORE_FORMAT % value


def sha256(bodies: Iterable[bytes]) -> str:
    """The hex sha256 of ``bodies`` one after another."""
    digest = hashlib.sha256()
    for data in bodies:
        digest.update(data)
    return digest.hexdigest()


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


def write_bodies(paths: Sequence[str], bodies: Sequence[bytes], sidecar: str, meta: dict[str, str]) -> None:
    """Write each of ``bodies`` to its path, then ``meta`` to ``sidecar``.

    ``meta`` records the bodies' hash, so an interrupted write leaves
    either the previous files or new bodies beside a sidecar that does
    not match them, which their reader refuses.
    """
    for path, data in zip(paths, bodies):
        write_bytes_atomic(path, data)
    write_sidecar(sidecar, meta)


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
    for lineno, line in enumerate(decode_utf8(path, read_bytes(path)).split("\n"), 1):
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CorpusError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key in values:
            raise CorpusError(f"{path}:{lineno}: repeated key {key!r}")
        values[key] = value
    return values


def write_artifact(path: str, body: str, meta: dict[str, str]) -> str:
    """Write ``body``, then its sidecar recording ``meta`` plus its ``content_hash``; returns that hash."""
    data = body.encode("utf-8")
    digest = sha256([data])
    write_bodies([path], [data], sidecar_path(path), {**meta, "content_hash": digest})
    return digest


def read_artifact(paths: Sequence[str], sidecar: str, version: str, stage: str,
                  stamps: Stamps | None = None) -> tuple[tuple[str, ...], dict]:
    """The text of ``paths`` and their ``sidecar``, checked in one order.

    A missing ``sidecar`` names ``argex stage`` to run. Any format
    version but ``version``, then any ``stamps`` key the sidecar holds
    another value for, is stale (re-run ``argex stage``), before a byte
    of ``paths`` is read. Then bodies whose sha256 is not the
    ``content_hash`` are inconsistent. Only then are they decoded.
    """
    name = paths[0] if len(paths) == 1 else os.path.dirname(sidecar)
    if not os.path.exists(sidecar):
        raise CorpusError(f"{sidecar} not found; run `argex {stage}` first")
    meta = read_sidecar(sidecar)
    recorded = meta.get("format_version")
    if recorded != version:
        held = "records no format version" if recorded is None else f"has format version {recorded}"
        raise StaleArtifactError(f"{name} {held}, this argex reads version {version}; re-run `argex {stage}`")
    for key, (expected, against) in (stamps or {}).items():
        if meta.get(key) != expected:
            held = f"recorded {key} {str(meta.get(key))[:12]}.., expected {expected[:12]}.."
            raise StaleArtifactError(f"{name} was produced under a different {against} ({held}); "
                                     f"re-run `argex {stage}`")
    bodies = [read_bytes(path) for path in paths]
    if sha256(bodies) != meta.get("content_hash"):
        raise ConsistencyError(f"{name} does not match the content_hash in {sidecar}")
    return tuple(map(decode_utf8, paths, bodies)), meta


@contextlib.contextmanager
def locked(out_dir: str):
    """Single-writer guard: a stage holds an exclusive ``flock`` on ``out_dir/.lock`` (POSIX only).

    Only ``argex ingest`` makes ``out_dir``. The kernel drops the lock when its process ends, even a killed one,
    so a lock is never stale.
    """
    import fcntl

    if not os.path.isdir(out_dir):
        held = "is not a directory" if os.path.exists(out_dir) else "not found; run `argex ingest` first"
        raise ConfigError(f"output directory {out_dir} {held}")
    lock = os.path.join(out_dir, ".lock")
    with contextlib.ExitStack() as release:
        try:
            # O_NONBLOCK: a FIFO at .lock is refused, not waited on
            fd = os.open(lock, os.O_CREAT | os.O_WRONLY | os.O_NONBLOCK)
            release.callback(os.close, fd)
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # a holder unlinks the file before it lets go: a lock on an unlinked file guards nothing
            held = os.fstat(fd).st_nlink > 0
        except BlockingIOError:
            held = False
        except OSError as exc:
            raise ConfigError(f"cannot lock {lock}: {exc}") from None
        if not held:
            raise ConfigError(f"output directory {out_dir} is locked by another stage")
        try:
            yield
        finally:
            with contextlib.suppress(OSError):
                os.unlink(lock)  # before the close lets go of the lock
