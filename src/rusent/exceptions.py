"""Exception types shared across the toolkit."""


class RusentError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(RusentError, ValueError):
    """Invalid or unknown configuration key/value."""


class EmptyCorpusError(RusentError, ValueError):
    """An operation received a corpus with no usable records."""


class MalformedRowError(RusentError, ValueError):
    """One or more input rows could not be parsed.

    ``rows`` holds (line_number, reason) pairs for every offending row.
    """

    def __init__(self, message, rows=()):
        super().__init__(message)
        self.rows = tuple(rows)


class MissingClassError(RusentError, ValueError):
    """A training set does not contain every sentiment class."""


class NotFittedError(RusentError, ValueError):
    """An estimator was used before ``fit`` was called."""


class DivergedError(RusentError, ValueError):
    """Training ended with a non-finite loss, so the fitted model is unusable."""


class ArtifactError(RusentError, ValueError):
    """A saved model or tf-idf artifact is malformed; the message names the
    file and the offending key."""


class WorkerDiedError(RusentError):
    """A worker process died, killed by a signal say, before it returned its result."""
