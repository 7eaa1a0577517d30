"""Shared exception types.

Every error raised on purpose by this package derives from
:class:`MocorrError`, so callers can catch library failures without
swallowing genuine bugs.  Validation problems double as ``ValueError``
for ergonomic use with plain numpy code.
"""


class MocorrError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MocorrError, ValueError):
    """An input violates a documented precondition or type invariant."""


class EvaluationError(MocorrError):
    """A numerical evaluation produced a non-finite value or broke an
    invariant the result relies on."""


class DivergentMomentError(MocorrError):
    """An empirical or analytic moment check flags a divergent integral."""
