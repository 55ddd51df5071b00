"""Exception hierarchy shared by all pipeline stages."""


class ArgexError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ArgexError):
    """Invalid or inconsistent configuration."""


class CorpusError(ArgexError):
    """Unreadable or structurally unusable corpus input."""


class DatasetError(ArgexError):
    """Malformed evaluation dataset file.

    An error at a line reads ``line N: ...``, or ``PATH line N: ...`` once
    the loader that read the file has set ``path``.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line
        self.path: str | None = None

    def __str__(self) -> str:
        message = super().__str__()
        if self.line is None:
            return message
        where = f"line {self.line}" if self.path is None else f"{self.path} line {self.line}"
        return f"{where}: {message}"


class UndefinedModelError(ArgexError):
    """An operation that needs observed mass was given an empty model."""


class ConsistencyError(ArgexError):
    """Internal invariant violated (corrupted artifact or logic bug)."""


class StaleArtifactError(ArgexError):
    """An artifact on disk was produced under a different configuration or format version."""


class OutOfVocabularyError(ArgexError):
    """Lookup of a token the space does not know."""

    def __init__(self, token):
        super().__init__(f"out-of-vocabulary token: {token}")
        self.token = token


class EmptyPrototypeError(ArgexError):
    """A slot query yielded no fillers to build a prototype from."""

    def __init__(self, query):
        super().__init__(f"no fillers available for query: {query}")
        self.query = query


class SpaceMismatchError(ArgexError):
    """Attempt to combine vectors that live in different spaces."""
