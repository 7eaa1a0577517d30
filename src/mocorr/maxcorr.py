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

from .errors import ValidationError
from .mo import CopulaParams, DXiParam, MOParams, PairSample, _check_n
from .numerics import bin_pairs, second_singular_value
from .rng import RngStream, draw_iid


@dataclass(frozen=True)
class PowerIndex:
    """Exponent pair ``(k, ell)`` for the power-function family."""

    k: float
    ell: float

    def __post_init__(self):
        for name in ("k", "ell"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value < 0:
                raise ValidationError(f"{name} must be nonnegative and finite")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class MaxCorrEstimate:
    """Result of the binned spectral estimator."""

    value: float
    m: int
    n: int
    residual: float
    family: str
    params: dict
    seed: RngStream | None = None

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
    return 1.0 / ((2.0 * k + 3.0) * (k + 2.0) ** 2)


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
    ``sqrt(phi*psi)`` as ``m`` grows.
    """
    k, ell = idx.k, idx.ell
    if c.phi == 0.0 or c.psi == 0.0:
        return 0.0
    num = c.phi * c.psi * math.sqrt((2.0 * k + 3.0) * (2.0 * ell + 3.0))
    return num / ((k + 2.0) * c.psi + (ell + 2.0) * c.phi - c.phi * c.psi)


def d_xi_corr(d: DXiParam, k: float) -> float:
    """Correlation of ``(f_{k*xi}(S), f_k(T))`` for a section-family pair.

    Closed form ``xi*sqrt((2k+3)(2k*xi+3)) / (2k*xi + xi + 2)``; tends
    to ``sqrt(xi)`` as ``k`` grows.  The larger index sits on the second
    coordinate: Cov(f_a(S), f_b(T)) = xi/((a+2)(b+2)(a+2+xi*(b+1))),
    and only a = k*xi, b = k puts the denominator in the stated form.
    """
    k = float(k)
    if not math.isfinite(k) or k < 0:
        raise ValidationError("k must be nonnegative and finite")
    xi = d.xi
    return xi * math.sqrt((2.0 * k + 3.0) * (2.0 * k * xi + 3.0)) / (2.0 * k * xi + xi + 2.0)


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


def d_xi_max_corr(d: DXiParam) -> float:
    """Maximal correlation of the section family: ``sqrt(xi)``."""
    return math.sqrt(d.xi)


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
    sample : PairSample or (n, 2) array
        Coordinates must lie in [0, 1].
    m : int
        Bins per axis.

    Returns
    -------
    MaxCorrEstimate
        ``residual`` holds the spectral gap ``sigma2 - sigma3``.
    """
    op = bin_pairs(sample, int(m))  # validates the pairs and m
    n = len(getattr(sample, "pairs", sample))
    if n < 10 * int(m) ** 2:
        raise ValidationError(
            f"insufficient sample: the estimator requires n >= 10*m^2 "
            f"(= {10 * int(m) ** 2} for m = {m}), got n = {n}"
        )
    value, gap = second_singular_value(op)
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


def sample_gaussian_copula(rho: float, n: int, rng: RngStream) -> PairSample:
    """Pairs ``(Phi(Z1), Phi(Z2))`` with correlated standard normals."""
    from scipy.special import ndtr  # deferred: only this family needs scipy
    rho = float(rho)
    if not -1.0 < rho < 1.0:
        raise ValidationError("rho must lie in (-1, 1)")
    z = draw_iid(rng, _check_n(n), lambda g, size: g.standard_normal((size, 2)))
    z2 = rho * z[:, 0] + math.sqrt(1.0 - rho * rho) * z[:, 1]
    pairs = np.column_stack([ndtr(z[:, 0]), ndtr(z2)])
    return PairSample(pairs, "gaussian", {"rho": rho}, rng)


def gaussian_copula_cdf(rho: float, u, v):
    """Gaussian copula cdf via a Gauss-Legendre form of the normal integral.

    Uses ``Phi2(x, y; rho) = Phi(x)Phi(y) + (1/2pi) *
    int_0^rho exp(-(x^2 - 2txy + y^2) / (2(1-t^2))) / sqrt(1-t^2) dt``;
    quantiles are clipped to |x| <= 8, which bounds the error by ~1e-15.
    """
    from scipy.special import ndtr, ndtri
    rho = float(rho)
    if not -1.0 < rho < 1.0:
        raise ValidationError("rho must lie in (-1, 1)")
    a = np.atleast_1d(np.asarray(u, dtype=float))
    b = np.atleast_1d(np.asarray(v, dtype=float))
    # Written so that NaN fails the test too.
    if not (np.all((a >= 0) & (a <= 1)) and np.all((b >= 0) & (b <= 1))):
        raise ValidationError("copula arguments must lie in [0, 1]")
    a, b = np.broadcast_arrays(a, b)
    x = np.clip(ndtri(np.clip(a, 1e-300, 1.0)), -8.0, 8.0)
    y = np.clip(ndtri(np.clip(b, 1e-300, 1.0)), -8.0, 8.0)
    base = ndtr(x) * ndtr(y)
    if rho != 0.0:
        nodes, weights = np.polynomial.legendre.leggauss(64)
        t = (nodes + 1.0) * (rho / 2.0)
        w = weights * (rho / 2.0)
        one_minus = 1.0 - t * t
        expo = -(x[..., None] ** 2 - 2.0 * t * x[..., None] * y[..., None] + y[..., None] ** 2) \
            / (2.0 * one_minus)
        base = base + np.tensordot(np.exp(expo) / np.sqrt(one_minus), w, axes=([-1], [0])) \
            / (2.0 * math.pi)
    out = np.clip(base, 0.0, 1.0)
    return out if np.ndim(u) or np.ndim(v) else float(out[0])


def gaussian_oracle(rho: float, n: int, m: int = 64,
                    rng: RngStream | None = None) -> MaxCorrEstimate:
    """Run the estimator on a Gaussian copula draw.

    The population answer is ``|rho|``, independent of the margins,
    which makes this an external calibration for the estimator.
    """
    if rng is None:
        raise ValidationError("gaussian_oracle requires an RngStream")
    sample = sample_gaussian_copula(rho, n, rng)
    return estimate_max_corr(sample, m=m)
