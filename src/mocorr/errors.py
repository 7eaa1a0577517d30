"""Shared exception types, and the field check of the parameter records.

Every error raised on purpose by this package derives from
:class:`MocorrError`, so callers can catch library failures without
swallowing genuine bugs.  Validation problems double as ``ValueError``
for ergonomic use with plain numpy code.
"""

import math


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

    Raises ``ValidationError(f"{name} {rule}")`` unless the value is
    finite and ``ok(value)`` holds.
    """
    for name in names:
        value = float(getattr(record, name))
        if not (math.isfinite(value) and ok(value)):
            raise ValidationError(f"{name} {rule}")
        object.__setattr__(record, name, value)
