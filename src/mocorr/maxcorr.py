"""Maximal correlation: closed forms and a nonparametric estimator.

For the shock-model survival copula the maximal correlation equals
``sqrt(phi * psi)``; the power functions ``f_k(x) = x**(k+1) / (k+1)``
attain it in the joint limit ``k = psi*m, l = phi*m, m -> inf`` and all
their moments are available in closed form, which makes them ideal
oracles.  The estimator is fully nonparametric: histogram the pairs,
normalize by the marginals, and take the second singular value of the
resulting operator (the first one is always the trivial pair).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError, _check_floats
from .mo import CopulaParams, MOParams, PairChunks, PairSample, _unit_pair, pair_sample
from .numerics import _check_bins, bin_pairs, ndtr, ndtri, second_singular_value
from .rng import RngStream


@dataclass(frozen=True)
class PowerIndex:
    """Exponent pair ``(k, ell)`` for the power-function family."""

    k: float
    ell: float

    def __post_init__(self):
        _check_floats(self, ("k", "ell"), lambda v: v >= 0, "must be nonnegative and finite")


@dataclass(frozen=True)
class MaxCorrEstimate:
    """Result of the binned spectral estimator."""

    value: float
    m: int
    n: int
    residual: float
    family: str
    params: dict
    seed: RngStream | None

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValidationError("estimate must lie in [0, 1]")

    def to_report(self, closed_form: float | None = None) -> dict:
        """JSON-ready report; pass the closed form to include the error."""
        out = asdict(self)
        out["estimate"] = out.pop("value")
        out["closed_form"] = closed_form
        out["abs_error"] = None if closed_form is None else abs(self.value - closed_form)
        return out


def power_transform(x, k: float):
    """The power function ``f_k(x) = x**(k+1) / (k+1)`` on [0, 1]."""
    if k < 0:
        raise ValidationError("k must be nonnegative")
    x = np.asarray(x, dtype=float)
    out = x ** (k + 1.0) / (k + 1.0)
    return out if out.ndim else float(out)


def var_fk(k: float) -> float:
    """Variance of ``f_k(U)`` for uniform U: ``1 / ((2k+3)(k+2)^2)``."""
    k = float(k)
    if not math.isfinite(k) or k < 0:
        raise ValidationError("k must be nonnegative and finite")
    # Python's float ** raises where * would give inf; there the value is
    # below the smallest float.  ** stays: x*x can differ from it in the last bit.
    try:
        return 1.0 / ((2.0 * k + 3.0) * (k + 2.0) ** 2)
    except OverflowError:
        return 0.0


def power_cov(c: CopulaParams, idx: PowerIndex) -> float:
    """Covariance of ``(f_k(U), f_ell(V))`` under the survival copula.

    Closed form ``phi*psi / ((k+2)(l+2)((k+2)psi + (l+2)phi - phi*psi))``;
    identically 0 when either exponent parameter vanishes.  The index of
    the first margin pairs with psi: splitting the Hoeffding integral
    along v = u^(phi/psi) and collecting terms leaves (k+2)*psi, and
    tensor quadrature, Monte Carlo, and a plain Riemann sum all agree
    with that pairing to their respective accuracies.
    """
    k, ell = idx.k, idx.ell
    if c.phi == 0.0 or c.psi == 0.0:
        return 0.0
    denom = (k + 2.0) * (ell + 2.0) * ((k + 2.0) * c.psi + (ell + 2.0) * c.phi - c.phi * c.psi)
    return c.phi * c.psi / denom


def power_corr(c: CopulaParams, idx: PowerIndex) -> float:
    """Correlation of ``(f_k(U), f_ell(V))`` under the survival copula.

    Closed form
    ``phi*psi*sqrt((2k+3)(2l+3)) / ((k+2)psi + (l+2)phi - phi*psi)``.
    With ``k = phi*m`` and ``l = psi*m`` this increases to
    ``sqrt(phi*psi)`` as ``m`` grows; the section family, at
    ``(xi, 1)`` with ``(k*xi, k)``, gives ``sqrt(xi)`` in the limit.
    """
    k, ell = idx.k, idx.ell
    if c.phi == 0.0 or c.psi == 0.0:
        return 0.0
    # Both sides over s: (2k+3)(2l+3) overflows a float from k, l near 6.7e153,
    # and s = max(k, ell) keeps each factor near 2 there.  Below 1e150, s = 1
    # leaves every operation as in the plain form.
    s = max(k, ell)
    s = s if s > 1e150 else 1.0
    num = c.phi * c.psi * math.sqrt((2.0 * (k / s) + 3.0 / s) * (2.0 * (ell / s) + 3.0 / s))
    return num / ((k / s + 2.0 / s) * c.psi + (ell / s + 2.0 / s) * c.phi - c.phi * c.psi / s)


def max_corr_closed(c: CopulaParams) -> float:
    """Maximal correlation of the survival copula: ``sqrt(phi * psi)``."""
    return math.sqrt(c.phi * c.psi)


def max_corr_from_rates(p: MOParams) -> float:
    """Maximal correlation straight from the shock rates.

    ``lambda12 / (sqrt(lambda1 + lambda12) * sqrt(lambda2 + lambda12))``,
    algebraically identical to ``max_corr_closed(mo_to_copula(p))``.
    """
    return p.lambda12 / (
        math.sqrt(p.lambda1 + p.lambda12) * math.sqrt(p.lambda2 + p.lambda12)
    )


# ---------------------------------------------------------------------------
# Estimator


def estimate_max_corr(sample: PairSample, m: int = 64) -> MaxCorrEstimate:
    """Binned spectral estimate of the maximal correlation.

    Bins the copula-scale pairs onto an ``m x m`` grid, normalizes by
    the marginals and returns the second singular value; the first one
    is the trivial pair.  Requires ``n >= 10 * m**2`` so every bin sees
    a sensible expected count.

    Parameters
    ----------
    sample : PairSample, PairChunks or (n, 2) array
        Coordinates must lie in [0, 1].  A :class:`PairChunks` is drawn
        only after ``m`` and ``n`` pass their checks.
    m : int
        Bins per axis.

    Returns
    -------
    MaxCorrEstimate
        ``residual`` holds the spectral gap ``sigma2 - sigma3``.
    """
    _check_bins(m)
    n = sample.n if isinstance(sample, (PairSample, PairChunks)) else len(sample)
    if n < 10 * int(m) ** 2:
        raise ValidationError(
            f"insufficient sample: the estimator requires n >= 10*m^2 "
            f"(= {10 * int(m) ** 2} for m = {m}), got n = {n}"
        )
    value, gap = second_singular_value(bin_pairs(sample, int(m)))  # validates the pairs
    return MaxCorrEstimate(
        value=value,
        m=int(m),
        n=n,
        residual=gap,
        family=getattr(sample, "family", "copula"),
        params=dict(getattr(sample, "params", {})),
        seed=getattr(sample, "seed", None),
    )


# ---------------------------------------------------------------------------
# Gaussian reference family


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not -1.0 < rho < 1.0:
        raise ValidationError("rho must lie in (-1, 1)")
    return rho


def _gaussian_chunk(rho: float, gen: np.random.Generator, size: int) -> np.ndarray:
    """One chunk of :func:`sample_gaussian_copula`, at a checked ``rho``."""
    z = gen.standard_normal((size, 2))
    z[:, 1] = rho * z[:, 0] + math.sqrt(1.0 - rho * rho) * z[:, 1]
    return ndtr(z)


def sample_gaussian_copula(rho: float, n: int, rng: RngStream) -> PairSample:
    """Pairs ``(Phi(Z1), Phi(Z2))`` with correlated standard normals."""
    return pair_sample("gaussian", _check_rho(rho), n, rng)


#: Rows per block of the 64-node sum in :func:`gaussian_copula_cdf`: its
#: ``(rows, 64)`` temporaries stay a few MB at any input size.
_GAUSS_CDF_ROWS = 4096


def gaussian_copula_cdf(rho: float, u, v):
    """Gaussian copula cdf via a Gauss-Legendre form of the normal integral.

    Uses ``Phi2(x, y; rho) = Phi(x)Phi(y) + (1/2pi) *
    int_0^rho exp(-(x^2 - 2txy + y^2) / (2(1-t^2))) / sqrt(1-t^2) dt``
    with 64 nodes, ``x = ndtri(u)`` and ``y = ndtri(v)`` from
    :mod:`mocorr.numerics`; quantiles are clipped to |x| <= 8, which
    bounds the error by ~1e-15.  On the square's edges the value is
    ``min(u, v)`` exactly, as for every copula.  Each point's 64 terms
    are summed along its own row, so its value does not depend on the
    rest of the batch.
    """
    rho = _check_rho(rho)
    a, b = np.broadcast_arrays(*map(np.atleast_1d, _unit_pair(u, v)))
    x = np.clip(ndtri(np.clip(a, 1e-300, 1.0)), -8.0, 8.0)
    y = np.clip(ndtri(np.clip(b, 1e-300, 1.0)), -8.0, 8.0)
    base = ndtr(x) * ndtr(y)
    if rho != 0.0:
        nodes, weights = np.polynomial.legendre.leggauss(64)
        t = (nodes + 1.0) * (rho / 2.0)
        w = weights * (rho / 2.0)
        one_minus = 1.0 - t * t
        root = np.sqrt(one_minus)
        xs, ys = x.ravel()[:, None], y.ravel()[:, None]
        integral = np.empty(xs.shape[0])
        for i in range(0, xs.shape[0], _GAUSS_CDF_ROWS):
            xb, yb = xs[i:i + _GAUSS_CDF_ROWS], ys[i:i + _GAUSS_CDF_ROWS]
            e = np.exp(-(xb ** 2 - 2.0 * t * xb * yb + yb ** 2) / (2.0 * one_minus))
            e /= root
            e *= w
            integral[i:i + _GAUSS_CDF_ROWS] = e.sum(axis=1)
        base = base + integral.reshape(base.shape) / (2.0 * math.pi)
    edge = (a == 0.0) | (a == 1.0) | (b == 0.0) | (b == 1.0)
    out = np.where(edge, np.minimum(a, b), np.clip(base, 0.0, 1.0))
    return out if np.ndim(u) or np.ndim(v) else float(out[0])
