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


#: Rows per block of the node sums in :func:`gaussian_copula_cdf`: its
#: ``(rows, <= 20)`` temporaries stay small at any input size.
_GAUSS_CDF_ROWS = 4096


def _bvn_upper(h: np.ndarray, k: np.ndarray, r: float) -> np.ndarray:
    """Genz's ``P(X > h, Y > k)`` for standard normals at correlation ``r``.

    A. Genz (2004), Statistics and Computing 14:251-260: below
    ``|r| = 0.925`` a 6-, 12- or 20-point Gauss-Legendre rule over
    ``asin(r)``; above it the 20-point rule over the remainder of a
    series expansion around ``|r| = 1``, which stays accurate as ``|r|``
    tends to 1.  Each row's node terms are summed along that row.
    """
    n = 6 if abs(r) < 0.3 else 12 if abs(r) < 0.75 else 20
    t, w = (q[n // 2:] for q in np.polynomial.legendre.leggauss(n))
    t, w = np.concatenate([1.0 - t, 1.0 + t]), np.concatenate([w, w])
    hk = h * k
    if abs(r) < 0.925:
        asr = math.asin(r) / 2.0
        s = np.sin(asr * t)
        e = np.exp((s * hk[:, None] - ((h * h + k * k) / 2.0)[:, None]) / (1.0 - s * s))
        e *= w
        return ndtr(-h) * ndtr(-k) + e.sum(axis=1) * (asr / (2.0 * math.pi))
    if r < 0.0:
        k, hk = -k, -hk
    a_s = (1.0 - r) * (1.0 + r)
    a = math.sqrt(a_s)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 80.0
    asr = -(bs / a_s + hk) / 2.0
    bvn = np.where(asr > -100.0, a * np.exp(asr)
                   * (1.0 - c * (bs - a_s) * (1.0 - d * bs) / 3.0 + c * d * a_s * a_s), 0.0)
    # Genz drops this term at hk <= -100; under the clip to [-8, 8], |hk| <= 64.
    b = np.sqrt(bs)
    bvn -= (np.exp(-hk / 2.0) * math.sqrt(2.0 * math.pi) * ndtr(-b / a) * b
            * (1.0 - c * bs * (1.0 - d * bs) / 3.0))
    a /= 2.0
    xs = (a * t) ** 2
    rs = np.sqrt(1.0 - xs)
    asr = -(bs[:, None] / xs + hk[:, None]) / 2.0
    sp = 1.0 + c[:, None] * xs * (1.0 + 5.0 * d[:, None] * xs)
    ep = np.exp(-(hk / 2.0)[:, None] * xs / (1.0 + rs) ** 2) / rs
    e = np.where(asr > -100.0, np.exp(asr) * (sp - ep), 0.0)
    e *= w
    bvn = (a * e.sum(axis=1) - bvn) / (2.0 * math.pi)
    if r > 0.0:
        return bvn + ndtr(-np.maximum(h, k))
    return np.where(h >= k, -bvn,
                    np.where(h < 0.0, ndtr(k) - ndtr(h), ndtr(-h) - ndtr(-k)) - bvn)


def gaussian_copula_cdf(rho: float, u, v):
    """Gaussian copula cdf by Genz's bivariate normal algorithm.

    The value at ``(u, v)`` is ``P(X > -x, Y > -y)`` by :func:`_bvn_upper`
    with ``x = ndtri(u)`` and ``y = ndtri(v)`` from :mod:`mocorr.numerics`;
    quantiles are clipped to |x| <= 8, which costs at most ~1e-15.  It is
    within 1.2e-16 of 40-digit references at 372 points, near-diagonal
    ones included, for ``|rho|`` from 0.1 to 0.9999999.  It is clipped to
    the Frechet bounds ``max(u + v - 1, 0) <= C <= min(u, v)`` and on the
    square's edges is ``min(u, v)`` exactly, as for every copula.  Each
    point's node terms are summed along its own row, so its value does not
    depend on the rest of the batch.
    """
    rho = _check_rho(rho)
    a, b = np.broadcast_arrays(*map(np.atleast_1d, _unit_pair(u, v)))
    x = np.clip(ndtri(np.clip(a, 1e-300, 1.0)), -8.0, 8.0)
    y = np.clip(ndtri(np.clip(b, 1e-300, 1.0)), -8.0, 8.0)
    h, k = -x.ravel(), -y.ravel()
    base = np.empty(h.size)
    for i in range(0, h.size, _GAUSS_CDF_ROWS):
        rows = slice(i, i + _GAUSS_CDF_ROWS)
        base[rows] = _bvn_upper(h[rows], k[rows], rho)
    base = base.reshape(x.shape)
    # Every copula lies between the Frechet bounds; the clip keeps the rounding there too.
    upper = np.minimum(a, b)
    out = np.clip(base, np.maximum(a + b - 1.0, 0.0), upper)
    edge = (a == 0.0) | (a == 1.0) | (b == 0.0) | (b == 1.0)
    out = np.where(edge, upper, out)
    return out if np.ndim(u) or np.ndim(v) else float(out[0])
