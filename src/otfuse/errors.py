"""Exception hierarchy shared across the package.

The split between :class:`ValidationError` and :class:`NumericalError`
mirrors the CLI exit codes: bad inputs / malformed files exit 2, numerical
failures (underflow, non-finite values) exit 3.  ``check_real`` and
``check_int`` are the one check of a scalar argument at the library boundary.
"""

import sys

import numpy as np

_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)
FINITE = (-sys.float_info.max, sys.float_info.max)  # check_real bounds admitting every finite real


class OtfuseError(Exception):
    """Base class for all package errors."""


class ValidationError(OtfuseError):
    """Invalid shapes, values, or configuration."""


class DataFormatError(ValidationError):
    """A file on disk could not be parsed into the expected structure."""


class CheckpointFormatError(DataFormatError):
    """Checkpoint payload is corrupt or disagrees with its own specs."""


class CheckpointVersionError(DataFormatError):
    """Checkpoint carries an unrecognized format version."""


class NumericalError(OtfuseError):
    """A computation produced or would produce non-finite values."""


class SinkhornUnderflowError(NumericalError):
    """The Sinkhorn kernel underflowed; the regularization is too small."""


def check_real(name: str, x, bounds: tuple[float, float] | None = None) -> None:
    """Raise ``ValidationError`` unless ``x`` is a real number, not a bool,
    that is finite and positive, or lies in the closed interval ``bounds``.
    Strings, NaN and integers past the largest float fail."""
    if isinstance(x, _REALS) and not isinstance(x, bool):
        # as a Python number: a float32 compared with the largest float overflows
        v = x.item() if isinstance(x, np.generic) else x
        if (0 < v <= sys.float_info.max) if bounds is None else (bounds[0] <= v <= bounds[1]):
            return
    expected = "finite and positive" if bounds is None else f"a real number in [{bounds[0]:g}, {bounds[1]:g}]"
    raise ValidationError(f"{name} must be {expected}, got {x!r}")


def check_int(name: str, x, low: int | None = None) -> None:
    """Raise ``ValidationError`` unless ``x`` is an integer, not a bool, of
    at least ``low`` when that is given."""
    if isinstance(x, bool) or not isinstance(x, _INTEGERS) or (low is not None and x < low):
        expected = "an integer" if low is None else f"an integer >= {low}"
        raise ValidationError(f"{name} must be {expected}, got {x!r}")
