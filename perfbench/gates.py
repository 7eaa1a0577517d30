"""Correctness gates: one per subcommand, applied to every invocation.

A gate returns a :class:`Verdict`:

- ``pass``: the output is what the subcommand promises;
- ``refused``: exit code 2, the CLI's documented numerical failure.  The
  operation failed, but no wrong answer was printed;
- ``wrong``: anything else, such as a wrong or unreadable result, a
  failed self-check (exit 3) or a crash.

Both ``refused`` and ``wrong`` count as failed operations.  Only
``wrong`` makes a run incorrect.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass

import numpy as np

#: Accuracy promised by the README for the spectral estimator.
MAXCORR_TOLERANCE = 0.02


@dataclass(frozen=True)
class Verdict:
    status: str  # "pass", "refused" or "wrong"
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def _flag(argv: list[str], *names: str) -> str | None:
    for name in names:
        if name in argv:
            return argv[argv.index(name) + 1]
    return None


def _json(stdout: str):
    try:
        return json.loads(stdout), None
    except ValueError as exc:
        return None, Verdict("wrong", f"unreadable JSON report: {exc}")


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _maxcorr(argv, stdout, stderr) -> Verdict:
    report, bad = _json(stdout)
    if bad:
        return bad
    err = report.get("abs_error")
    if not _finite(err):
        return Verdict("wrong", f"abs_error is {err!r}")
    if err > MAXCORR_TOLERANCE:
        return Verdict("wrong", f"abs_error {err:.4g} > {MAXCORR_TOLERANCE}")
    return Verdict("pass")


def _variance(argv, stdout, stderr) -> Verdict:
    if "inequality check: pass" not in stderr:
        return Verdict("wrong", "no 'inequality check: pass' line")
    return Verdict("pass")


def _blocksim(argv, stdout, stderr) -> Verdict:
    report, bad = _json(stdout)
    if bad:
        return bad
    parts = [report[m] for m in ("disjoint", "sliding") if m in report] or [report]
    for part in parts:
        if not _finite(part.get("estimate")):
            return Verdict("wrong", f"non-finite estimate {part.get('estimate')!r}")
    return Verdict("pass")


def _verify(argv, stdout, stderr) -> Verdict:
    report, bad = _json(stdout)
    if bad:
        return bad
    failed = [c.get("name") for c in report.get("checks", []) if c.get("passed") is not True]
    if report.get("passed") is not True or failed or not report.get("checks"):
        return Verdict("wrong", f"battery did not pass: {failed}")
    return Verdict("pass")


def expected_pairs(argv: list[str]) -> np.ndarray:
    """The pairs the library draws for a ``sample`` argument vector."""
    import mocorr

    n = int(_flag(argv, "-n", "--n"))
    stream = mocorr.RngStream(int(_flag(argv, "--seed")))

    def param(name):
        return float(_flag(argv, name))

    family = _flag(argv, "--family")
    sampler = {
        "copula": lambda: mocorr.sample_copula(
            mocorr.CopulaParams(param("--phi"), param("--psi")), n, stream),
        "d_xi": lambda: mocorr.sample_d_xi(mocorr.DXiParam(param("--xi")), n, stream),
        "mo": lambda: mocorr.sample_mo(
            mocorr.MOParams(param("--l1"), param("--l2"), param("--l12")), n, stream),
        "limit_gev": lambda: mocorr.sample_limit_pair(
            mocorr.ZetaOverlap(param("--zeta")), mocorr.GEVShape(param("--gamma")),
            n, stream),
        "gaussian": lambda: mocorr.sample_gaussian_copula(param("--rho"), n, stream),
    }[family]
    return sampler().pairs


def _sample(argv, stdout, stderr) -> Verdict:
    path = pathlib.Path(_flag(argv, "--out"))
    expected = expected_pairs(argv)
    try:
        got = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        meta = json.loads(path.with_name(path.stem + ".meta.json").read_text())
    except (OSError, ValueError) as exc:
        return Verdict("wrong", f"output does not read back: {exc}")
    if got.shape != expected.shape or not np.array_equal(got, expected):
        return Verdict("wrong", f"CSV holds {got.shape} pairs that differ from the "
                                f"library draw of {expected.shape}")
    if meta.get("n") != expected.shape[0]:
        return Verdict("wrong", f"sidecar n {meta.get('n')!r} != {expected.shape[0]}")
    return Verdict("pass")


_GATES = {
    "maxcorr": _maxcorr,
    "variance": _variance,
    "blocksim": _blocksim,
    "verify": _verify,
    "sample": _sample,
}


def check(argv: list[str], returncode: int, stdout: str, stderr: str) -> Verdict:
    """Judge one invocation from its exit code and outputs."""
    if returncode == 2:
        last = stderr.strip().splitlines()[-1:] or [""]
        return Verdict("refused", last[0])
    if returncode != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        return Verdict("wrong", f"exit {returncode}: {last[0]}")
    return _GATES[argv[0]](argv, stdout, stderr)
