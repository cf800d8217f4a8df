"""Exception hierarchy shared by all flowlab modules.

Two broad families matter for the CLI exit codes: ConfigError (and
subclasses) means the user asked for something invalid; DataError means
the input bytes/rows are broken.
"""


class FlowlabError(Exception):
    """Base class for all flowlab errors."""


class ConfigError(FlowlabError):
    """Invalid configuration or arguments."""


class InvalidArgumentError(ConfigError):
    pass


class StratificationError(ConfigError):
    """A class is too small to stratify."""


class LeakageError(FlowlabError):
    """An operation would let validation/test data influence fitting."""


class TransformMismatchError(FlowlabError):
    """Applying a fitted transform to data it was not fitted for."""


class ShapeError(FlowlabError):
    """Array/label shape mismatch."""


class FitError(FlowlabError):
    """Model fitting failed (e.g. empty training set)."""


class UndefinedMetricError(FlowlabError):
    """Metric is undefined on the given input (e.g. single-class ROC)."""


class DataError(FlowlabError):
    """Malformed input data."""


class UnsupportedFormatError(DataError):
    """Capture file magic not recognized."""


class UnsupportedLinkTypeError(DataError):
    """Capture link type not supported."""


class TruncatedCaptureError(DataError):
    """Capture record header cut short; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset

