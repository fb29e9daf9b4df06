"""Exception types shared across the slotcast package."""


class SlotcastError(Exception):
    """Base class for all slotcast errors."""


class EmptyCorpus(SlotcastError):
    """A fit operation received zero documents/records."""


class EmptyInput(SlotcastError):
    """An operation received an empty vector where data is required."""


class LengthMismatch(SlotcastError):
    """Paired vectors have different lengths."""


class DegenerateInput(SlotcastError):
    """Input matrix is too small for a meaningful decomposition."""


class DimensionMismatch(SlotcastError):
    """Feature dimensionality does not match the fitted layout."""


class TooFewSamples(SlotcastError):
    """Not enough training rows for the requested model."""


class NonFiniteTarget(SlotcastError):
    """Training targets contain NaN or Inf."""


class Diverged(SlotcastError):
    """Boosting left the float range: the learning rate is too high."""


class NegativeTarget(SlotcastError):
    """Slot-time targets must be non-negative."""


class BundleVersionMismatch(SlotcastError):
    """Serialized bundle was written by an older or newer format version."""


class CorruptBundle(SlotcastError):
    """Serialized bundle failed integrity checks."""


class OverlappingEnvironments(SlotcastError):
    """Train and test environment lists share a label."""


class MalformedRecord(SlotcastError):
    """A JSONL line could not be parsed into a QueryRecord."""


class NonFiniteFeatures(SlotcastError, ValueError):
    """A feature row holds NaN or Inf, e.g. from a loaded model's scaling."""


class ConfigError(SlotcastError, ValueError):
    """A config file has a malformed line or an unknown key, or a config
    setting is of the wrong type, not finite or out of range."""
