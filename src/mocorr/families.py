"""One record per pair family, shared by the CLI and the battery.

Each :class:`Family` names the CLI arguments that carry its parameters
and says how to build the parameters, draw pairs, evaluate the joint
cdf, give the closed-form maximal correlation and bound the drawn
coordinates; families off the copula scale also say how to map their
pairs onto it.  The entries look their library functions up on the
module at call time, so a function rebound there (as
``perfbench/spans.py`` does to trace it) is the one the table calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import extremes, maxcorr, mo
from .errors import ValidationError


@dataclass(frozen=True)
class Family:
    """How to build, draw, evaluate and score one pair family.

    ``args`` holds one ``(name, help, *aliases)`` entry per parameter,
    read from the CLI flags ``--name`` and ``--alias``; ``params(*values)``
    takes their values in order; ``sample(p, n, stream)``, ``cdf(p, x, y)``, ``max_corr(p)``
    and ``as_dict(p)`` take the params it returns.  ``support`` is the
    closed interval ``(low, high)`` holding every drawn coordinate.
    ``to_copula(p, pairs)`` maps an ``(n, 2)`` draw onto [0, 1]^2
    through the margins, and is ``None`` for families already there.
    """

    args: tuple[tuple[str, ...], ...]
    params: Callable
    as_dict: Callable
    sample: Callable
    cdf: Callable
    max_corr: Callable
    support: tuple[float, float]
    to_copula: Callable | None = None


def _rho(rho: float) -> float:
    if not -1.0 < rho < 1.0:
        raise ValidationError("--rho must lie strictly inside (-1, 1)")
    return rho


_UNIT = (0.0, 1.0)

FAMILY_TABLE = {
    "mo": Family(
        (("lam1", "first individual shock rate", "l1"),
         ("lam2", "second individual shock rate", "l2"),
         ("lam12", "common shock rate", "l12")),
        mo.MOParams, lambda p: p.as_dict(),
        lambda p, n, s: mo.sample_mo(p, n, s),
        lambda p, x, y: mo.mo_cdf(p, x, y),
        lambda p: maxcorr.max_corr_from_rates(p), (0.0, math.inf),
        lambda p, pairs: np.column_stack([
            mo.mo_marginal_survival(p, 1, pairs[:, 0]),
            mo.mo_marginal_survival(p, 2, pairs[:, 1]),
        ])),
    "copula": Family(
        (("phi", "first copula exponent"), ("psi", "second copula exponent")),
        mo.CopulaParams, lambda c: c.as_dict(),
        lambda c, n, s: mo.sample_copula(c, n, s),
        lambda c, u, v: mo.copula_cdf(c, u, v),
        lambda c: maxcorr.max_corr_closed(c), _UNIT),
    "d_xi": Family(
        (("xi", "section family parameter"),), mo.DXiParam, lambda d: d.as_dict(),
        lambda d, n, s: mo.sample_d_xi(d, n, s),
        lambda d, u, v: mo.d_xi_cdf(d, u, v),
        lambda d: maxcorr.d_xi_max_corr(d), _UNIT),
    "limit_gev": Family(
        (("zeta", "block overlap fraction"), ("gamma", "GEV shape")),
        lambda zeta, gamma: (extremes.ZetaOverlap(zeta), extremes.GEVShape(gamma)),
        lambda p: {"zeta": p[0].zeta, "gamma": p[1].gamma},
        lambda p, n, s: extremes.sample_limit_pair(*p, n, s),
        lambda p, x, y: extremes.limit_copula_cdf(*p, x, y),
        lambda p: 1.0 - p[0].zeta, (-math.inf, math.inf),
        lambda p, pairs: np.column_stack([
            extremes.gev_cdf(p[1], pairs[:, 0]),
            extremes.gev_cdf(p[1], pairs[:, 1]),
        ])),
    "gaussian": Family(
        (("rho", "correlation"),), _rho, lambda rho: {"rho": rho},
        lambda rho, n, s: maxcorr.sample_gaussian_copula(rho, n, s),
        lambda rho, u, v: maxcorr.gaussian_copula_cdf(rho, u, v),
        abs, _UNIT),
}
