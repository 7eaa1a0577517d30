"""Shared exception types, and the checks of float fields and integer counts.

Every error raised on purpose by this package derives from
:class:`MocorrError`, so callers can catch library failures without
swallowing genuine bugs; every refusal of a count argument or of a
record's float field is one, whatever the type of the value refused.
Validation problems double as ``ValueError`` for ergonomic use with
plain numpy code.
"""

import math
from numbers import Integral, Real


class MocorrError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MocorrError, ValueError):
    """An input violates a documented precondition or type invariant."""


class EvaluationError(MocorrError):
    """A numerical evaluation produced a non-finite value or broke an
    invariant the result relies on."""


class DivergentMomentError(MocorrError):
    """An empirical or analytic moment check flags a divergent integral."""


def _check_floats(record, names, ok, rule: str) -> None:
    """Store each named field of a frozen ``record`` as a float.

    Raises ``ValidationError(f"{name} {rule}")`` unless the value is a real
    number (a numpy one too; not a bool, a string or ``None``), finite, and
    ``ok(value)`` holds.
    """
    for name in names:
        value = getattr(record, name)
        real = isinstance(value, Real) and not isinstance(value, bool)
        try:
            value = float(value) if real else math.nan
        except OverflowError:  # an int past the float range
            value = math.inf
        if not (math.isfinite(value) and ok(value)):
            raise ValidationError(f"{name} {rule}")
        object.__setattr__(record, name, value)


def _check_count(value, name: str, low: int, high: int | None = None) -> int:
    """Return ``value`` as an ``int``: the one check of every count argument.

    Raises ``ValidationError`` unless ``value`` is an integer (a numpy one
    too; not a bool, and not a float even when integral) in ``[low, high]``
    (``high=None`` leaves it unbounded above).
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if high is None and value < low:
        raise ValidationError(f"{name} must be >= {low}")
    if high is not None and not low <= value <= high:
        raise ValidationError(f"{name} must be in [{low}, {high}]")
    return value
