import errno
import os

from hypothesis import HealthCheck, settings

from mocorr import verify
from mocorr.families import FAMILY_TABLE

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# Pass/fail lines collected by the acceptance tests; echoed after the
# run so they survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def sampler_z(sample, family, p):
    """:func:`mocorr.verify.sampler_z` of a ``family`` draw scored at ``p``.

    ``sample`` is a :class:`~mocorr.mo.PairSample` or an ``(n, 2)`` array on
    the family's own scale; a family off the copula scale maps it there
    through its margins at ``p``.
    """
    record = FAMILY_TABLE[family]
    pairs = getattr(sample, "pairs", sample)
    if record.to_copula is not None:
        pairs = record.to_copula(p, pairs)
    return verify.sampler_z(family, p, pairs)


def refuse_replace(monkeypatch, refused=lambda dst: True):
    """Make ``os.replace`` fail, as a rename onto a read-only target does,
    for each destination ``refused`` picks."""
    replace = os.replace

    def refuse(src, dst):
        if refused(str(dst)):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(src), None,
                                  str(dst))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse)
