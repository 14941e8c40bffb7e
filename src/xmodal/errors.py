"""Exception types shared across the package.

Every error raised on a contract violation derives from XmodalError so
callers (and the CLI) can catch package failures in one place.
"""


class XmodalError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(XmodalError):
    """Two vectors or embedding sets disagree on dimensionality."""


class ZeroVectorError(XmodalError):
    """An all-zero vector reached an operation that needs a nonzero norm."""


class ShapeMismatchError(XmodalError):
    """Matrix shapes are incompatible for the requested operation."""


class InvalidConfigError(XmodalError):
    """A configuration value violates its declared constraints."""


class TooFewItemsError(XmodalError):
    """Too few items to split by species or to train on."""


class NonFiniteLossError(XmodalError):
    """Training produced NaN or Inf; carries the offending step index."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite value at training step {step}")


class NoRelevantItemsError(XmodalError):
    """A ranked list contains no relevant items, so AP is undefined."""


class EmptyGalleryError(XmodalError):
    """Retrieval was asked to rank an empty gallery."""


class KTooLargeError(XmodalError):
    """k exceeds the number of available reference items."""


class MissingPrototypeError(XmodalError):
    """A query label has no matching class prototype."""


class SpeciesMismatchError(XmodalError):
    """Two embedding sets do not cover the same species."""


class UnknownKeyError(XmodalError):
    """The config file contains a key the schema does not define."""


class ConfigFileError(XmodalError):
    """The config file cannot be read as UTF-8 text."""


class ConfigTypeError(XmodalError):
    """A config value failed to parse or violates a bound; names the line."""


class PayloadTooShortError(XmodalError):
    """An embedding file ended before its declared payload."""

    def __init__(self, expected: int, actual: int, what: str = "payload"):
        self.expected = expected
        self.actual = actual
        super().__init__(f"{what} too short: expected {expected} bytes, got {actual}")


class FileFormatError(XmodalError):
    """Bad magic, version, or header fields in a binary artifact."""
