"""Exception types raised across the package.

Every error that callers are expected to handle maps to one concrete class
here, so tests and CLI code can distinguish bad input from internal bugs.
"""


class TrackforgeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidBoxError(TrackforgeError):
    """Bounding box with non-finite or non-positive dimensions."""


class InvalidMeasurementError(TrackforgeError):
    """Kalman measurement vector with a non-positive height."""


class DimensionError(TrackforgeError):
    """Vector or matrix dimensions do not match what the operation expects."""


class DegenerateEmbeddingError(TrackforgeError):
    """Embedding with (near-)zero norm cannot be normalized."""


class PrecisionOverflowError(TrackforgeError):
    """Value outside the representable binary16 range."""


class LayoutError(TrackforgeError):
    """Raw model output row has the wrong width."""


class ParseError(TrackforgeError):
    """Malformed input file; message names the offending line or offset."""


class ConsistencyError(TrackforgeError):
    """Embedding sidecar records do not line up with the detection set."""


class DuplicateIdError(TrackforgeError):
    """The same object id appears twice within one frame."""


class ConfigError(TrackforgeError):
    """Invalid configuration value or parameter combination."""


class OrderingError(TrackforgeError):
    """Tracker stepped with a frame index that does not advance."""


class NumericError(TrackforgeError):
    """Singular matrix or other numerical breakdown inside the filter."""


class UndefinedMetricError(TrackforgeError):
    """Metric requested over an empty ground-truth set."""


class PipelineAborted(TrackforgeError):
    """Internal signal: a stage is shutting down because another stage failed."""
