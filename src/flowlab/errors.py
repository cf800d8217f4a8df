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


# what json.loads may give for a type besides the type itself: an int is a
# float too. check compares type(), so a bool is neither an int nor a float.
_TAKES = {float: {float, int}}


def check(value, shape, where: str, error: type) -> None:
    """Raise error naming where unless value, as json.loads gives it, has
    shape: a JSON type; a (list or dict, type) pair, which types each item
    or dict value too; or a dict of required keys mapped to shapes."""
    if type(shape) is dict:
        check(value, dict, where, error)
        for key, inner in shape.items():
            if key not in value:
                raise error(f"{where} has no {key!r}")
            check(value[key], inner, f"{where}.{key}", error)
        return
    kind, item = shape if type(shape) is tuple else (shape, None)
    if type(value) not in _TAKES.get(kind, {kind}):
        raise error(f"{where} must be of type {kind.__name__}, "
                    f"got {value!r:.80}")
    items = value.values() if kind is dict else value
    if item and not set(map(type, items)) <= _TAKES.get(item, {item}):
        raise error(f"{where} must hold only {item.__name__} items")
