"""One record per pair family, shared by the CLI and the battery.

Each :class:`Family` names the CLI arguments that carry its parameters
and says how to build the parameters, draw one RNG chunk of pairs,
evaluate the joint cdf, give the closed-form maximal correlation and
bound the drawn coordinates; families off the copula scale also say how
to map their pairs onto it and back.  The entries look their library functions
up on the module at call time, so a function rebound there (as
``perfbench/spans.py`` does to trace it) is the one the table calls.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import extremes, maxcorr, mo
from .errors import ValidationError
from .numerics import cell_masses


@dataclass(frozen=True)
class Family:
    """How to build, draw, evaluate and score one pair family.

    ``args`` holds one ``(name, help, *aliases)`` entry per parameter,
    read from the CLI flags ``--name`` and ``--alias``; ``params(*values)``
    takes their values in order; ``cdf(p, x, y)``, ``max_corr(p)`` and
    ``as_dict(p)`` take the params it returns.  ``chunk(p, generator,
    size)`` is the family's only draw code: the ``(size, 2)`` pairs of
    one RNG chunk, which :func:`mocorr.mo.pair_sample` concatenates and
    :func:`mocorr.mo.pair_chunks` hands over one at a time.  ``support(d)`` takes
    the ``as_dict`` form and returns the closed interval ``(low, high)``
    holding every drawn coordinate.
    ``to_copula(p, pairs)`` maps an ``(n, 2)`` draw onto [0, 1]^2
    through the margins, and is ``None`` for families already there;
    ``from_copula(p, t)`` maps grid edges ``t`` back to native
    ``(x_edges, y_edges)``, an infinite one at +-DBL_MAX.
    """

    args: tuple[tuple[str, ...], ...]
    params: Callable
    as_dict: Callable
    chunk: Callable
    cdf: Callable
    max_corr: Callable
    support: Callable
    to_copula: Callable | None = None
    from_copula: Callable | None = None

    def masses(self, p, m: int) -> np.ndarray:
        """Exact masses of the law at ``p`` on the m x m copula-scale grid, by its own cdf."""
        t = np.linspace(0.0, 1.0, m + 1)
        edges = (t, t) if self.from_copula is None else self.from_copula(p, t)
        return cell_masses(lambda x, y: self.cdf(p, x, y), *edges)


def _unit(d: dict) -> tuple[float, float]:
    return 0.0, 1.0


def _mo_edges(p, t):
    # -log(t)/(lambda_j + lambda12) undoes mo_marginal_survival; inf becomes DBL_MAX.
    with np.errstate(divide="ignore", over="ignore"):
        return tuple(np.nan_to_num(-np.log(t) / (lam + p.lambda12))
                     for lam in (p.lambda1, p.lambda2))


def _gev_edges(p, t):
    x = np.concatenate([[-np.inf], extremes.gev_quantile(p[1], t[1:-1]), [np.inf]])
    return (np.nan_to_num(x),) * 2


def _gev_support(d: dict) -> tuple[float, float]:
    if "gamma" not in d:
        raise ValidationError("limit_gev pairs need their params' gamma")
    gamma = d["gamma"]
    if gamma == 0.0:
        return -math.inf, math.inf
    return (-1.0 / gamma, math.inf) if gamma > 0.0 else (-math.inf, -1.0 / gamma)


FAMILY_TABLE = {
    "mo": Family(
        (("lam1", "first individual shock rate", "l1"),
         ("lam2", "second individual shock rate", "l2"),
         ("lam12", "common shock rate", "l12")),
        mo.MOParams, asdict,
        lambda p, g, size: mo._mo_chunk(p, g, size),
        lambda p, x, y: mo.mo_cdf(p, x, y),
        lambda p: maxcorr.max_corr_from_rates(p), lambda d: (0.0, math.inf),
        lambda p, pairs: np.column_stack([
            mo.mo_marginal_survival(p, 1, pairs[:, 0]),
            mo.mo_marginal_survival(p, 2, pairs[:, 1]),
        ]), _mo_edges),
    "copula": Family(
        (("phi", "first copula exponent"), ("psi", "second copula exponent")),
        mo.CopulaParams, asdict,
        lambda c, g, size: mo._copula_chunk(c, g, size),
        lambda c, u, v: mo.copula_cdf(c, u, v),
        lambda c: maxcorr.max_corr_closed(c), _unit),
    "d_xi": Family(
        (("xi", "section family parameter"),), mo.DXiParam, asdict,
        lambda d, g, size: mo._d_xi_chunk(d, g, size),
        lambda d, u, v: mo.copula_cdf(d.copula, u, v),
        lambda d: maxcorr.max_corr_closed(d.copula), _unit),
    "limit_gev": Family(
        (("zeta", "block offset; the blocks share 1 - zeta"), ("gamma", "GEV shape")),
        lambda zeta, gamma: (extremes.ZetaOverlap(zeta), extremes.GEVShape(gamma)),
        lambda p: {"zeta": p[0].zeta, "gamma": p[1].gamma},
        lambda p, g, size: extremes._limit_pair_chunk(*p, g, size),
        lambda p, x, y: extremes.limit_copula_cdf(*p, x, y),
        lambda p: 1.0 - p[0].zeta, _gev_support,
        lambda p, pairs: extremes.gev_cdf(p[1], pairs), _gev_edges),
    "gaussian": Family(
        (("rho", "correlation"),), lambda rho: maxcorr._check_rho(rho),
        lambda rho: {"rho": rho},
        lambda rho, g, size: maxcorr._gaussian_chunk(rho, g, size),
        lambda rho, u, v: maxcorr.gaussian_copula_cdf(rho, u, v),
        abs, _unit),
}
