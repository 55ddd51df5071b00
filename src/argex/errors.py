"""Exception hierarchy shared by all pipeline stages."""


class ArgexError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ArgexError):
    """Invalid or inconsistent configuration."""


class CorpusError(ArgexError):
    """Unreadable or structurally unusable corpus input."""


class DatasetError(ArgexError):
    """Malformed evaluation dataset file; an error at a line reads ``PATH line N: ...``."""


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

    def __reduce__(self):  # pickled as it was made, not from its message
        return type(self), (self.token,)


class EmptyPrototypeError(ArgexError):
    """A slot query yielded no fillers to build a prototype from."""

    def __init__(self, query):
        super().__init__(f"no fillers available for query: {query}")
        self.query = query

    def __reduce__(self):
        return type(self), (self.query,)


class SpaceMismatchError(ArgexError):
    """Attempt to combine vectors that live in different spaces."""
