"""Bivariate shock model, its survival copula, and exact samplers.

The model couples two exponential lifetimes through a shared shock:
with independent ``Z1 ~ Exp(lambda1)``, ``Z2 ~ Exp(lambda2)`` and
``Z12 ~ Exp(lambda12)``, the pair is ``X1 = min(Z1, Z12)``,
``X2 = min(Z2, Z12)``.  The shared shock produces an atom on the
diagonal ``{x1 = x2}`` with mass ``lambda12 / (lambda1 + lambda2 + lambda12)``.

On the copula scale the dependence is
``C(u, v) = min(u**(1 - phi) * v, u * v**(1 - psi))`` with
``phi = lambda12 / (lambda1 + lambda12)`` and
``psi = lambda12 / (lambda2 + lambda12)``.  The one-parameter section
``D(u, v) = u**(1 - xi) * min(u**xi, v)`` is the copula at
``(phi, psi) = (xi, 1)``: it couples a uniform directly to the shared
component and is handy as a calibration family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, _check_floats
from .rng import RngStream, draw_uniforms, draw_iid
from .serialize import canonical_json, write_csv

@dataclass(frozen=True)
class MOParams:
    """Shock rates ``(lambda1, lambda2, lambda12)``, all positive and finite."""

    lambda1: float
    lambda2: float
    lambda12: float

    def __post_init__(self):
        _check_floats(self, ("lambda1", "lambda2", "lambda12"), lambda v: v > 0,
                      "must be positive and finite")

    @property
    def tie_probability(self) -> float:
        """Mass of the diagonal atom ``{X1 = X2}``."""
        total = self.lambda1 + self.lambda2 + self.lambda12
        return self.lambda12 / total

    def as_dict(self) -> dict:
        return {"lambda1": self.lambda1, "lambda2": self.lambda2, "lambda12": self.lambda12}


@dataclass(frozen=True)
class CopulaParams:
    """Copula exponents ``phi, psi`` in [0, 1]."""

    phi: float
    psi: float

    def __post_init__(self):
        _check_floats(self, ("phi", "psi"), lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")

    def as_dict(self) -> dict:
        return {"phi": self.phi, "psi": self.psi}


@dataclass(frozen=True)
class DXiParam:
    """Section parameter ``xi`` in (0, 1]."""

    xi: float

    def __post_init__(self):
        _check_floats(self, ("xi",), lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")

    @property
    def copula(self) -> CopulaParams:
        """The same law as a survival copula: ``D_xi = C_{xi,1}``."""
        return CopulaParams(self.xi, 1.0)

    def as_dict(self) -> dict:
        return {"xi": self.xi}


@dataclass(eq=False)
class PairSample:
    """A simulated pair sample plus the metadata needed to reproduce it.

    Attributes
    ----------
    pairs : (n, 2) ndarray
    family : str
        A key of :data:`mocorr.families.FAMILY_TABLE`, whose entry gives
        the coordinate support and whether the pairs are on the copula scale.
    params : dict
        Family parameters, JSON-ready.
    seed : RngStream
        Stream that generated the draw.
    """

    pairs: np.ndarray
    family: str
    params: dict = field(default_factory=dict)
    seed: RngStream | None = None

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValidationError("pairs must be an (n, 2) array")
        if pairs.shape[0] == 0:
            raise ValidationError("pairs must contain at least one row")
        low, high = _family(self.family).support(self.params)
        # min/max propagate NaN and reach any infinity: one pass each.
        lo, hi = pairs.min(), pairs.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValidationError("pair coordinates must be finite")
        if lo < low or hi > high:
            raise ValidationError(
                f"family {self.family!r} has coordinates outside [{low:g}, {high:g}]")
        self.pairs = pairs

    @property
    def n(self) -> int:
        return self.pairs.shape[0]

    @property
    def copula_scale(self) -> bool:
        return _family(self.family).to_copula is None


def _family(name: str):
    # families imports this module, so its table is read at call time.
    from .families import FAMILY_TABLE
    if name not in FAMILY_TABLE:
        raise ValidationError(f"unknown family {name!r}")
    return FAMILY_TABLE[name]


def _broadcast_pair(x1, x2, nonnegative: bool, name: str):
    a = np.asarray(x1, dtype=float)
    b = np.asarray(x2, dtype=float)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValidationError(f"{name} coordinates must be finite")
    if nonnegative and (np.any(a < 0) or np.any(b < 0)):
        raise ValidationError(f"{name} coordinates must be nonnegative")
    return a, b


def mo_survival(p: MOParams, x1, x2):
    """Joint survival ``P(X1 > x1, X2 > x2)``.

    Equals ``exp(-l1*x1 - l2*x2 - l12*max(x1, x2))``; broadcasts over
    array inputs.
    """
    a, b = _broadcast_pair(x1, x2, nonnegative=True, name="survival")
    expo = p.lambda1 * a + p.lambda2 * b + p.lambda12 * np.maximum(a, b)
    out = np.exp(-expo)
    return out if out.ndim else float(out)


def mo_marginal_survival(p: MOParams, which: int, x):
    """Marginal survival of one coordinate, ``exp(-(lambda_j + lambda12) * x)``."""
    if which not in (1, 2):
        raise ValidationError("which must be 1 or 2")
    rate = (p.lambda1 if which == 1 else p.lambda2) + p.lambda12
    a = np.asarray(x, dtype=float)
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ValidationError("coordinate must be nonnegative and finite")
    out = np.exp(-rate * a)
    return out if out.ndim else float(out)


def mo_cdf(p: MOParams, x1, x2):
    """Joint cdf ``P(X1 <= x1, X2 <= x2)`` by inclusion-exclusion."""
    a, b = _broadcast_pair(x1, x2, nonnegative=True, name="cdf")
    out = 1.0 - mo_marginal_survival(p, 1, a) - mo_marginal_survival(p, 2, b) \
        + mo_survival(p, a, b)
    out = np.asarray(out)
    return out if out.ndim else float(out)


def mo_to_copula(p: MOParams) -> CopulaParams:
    """Survival-copula exponents implied by the shock rates."""
    return CopulaParams(
        phi=p.lambda12 / (p.lambda1 + p.lambda12),
        psi=p.lambda12 / (p.lambda2 + p.lambda12),
    )


def _unit_pair(u, v):
    a = np.asarray(u, dtype=float)
    b = np.asarray(v, dtype=float)
    if np.any(a < 0) or np.any(a > 1) or np.any(b < 0) or np.any(b > 1) \
            or not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValidationError("copula arguments must lie in the unit square [0, 1]^2")
    return a, b


def copula_cdf(c: CopulaParams, u, v):
    """Survival copula ``min(u**(1 - phi) * v, u * v**(1 - psi))``.

    The convention ``0**0 = 1`` applies at the boundary exponents.
    """
    a, b = _unit_pair(u, v)
    out = np.minimum(a ** (1.0 - c.phi) * b, a * b ** (1.0 - c.psi))
    return out if out.ndim else float(out)


def perturbed_copula_cdf(c: CopulaParams, eps: float):
    """A deliberately broken copula: adds ``eps * u(1-u)v(1-v)``.

    Useful as a negative control; the perturbation destroys
    max-stability while keeping the margins intact.
    """
    def cdf(u, v):
        a, b = _unit_pair(u, v)
        out = copula_cdf(c, a, b) + eps * a * (1.0 - a) * b * (1.0 - b)
        return out if np.ndim(out) else float(out)

    return cdf


# ---------------------------------------------------------------------------
# Samplers


def _check_n(value: int, name: str = "n") -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or int(value) < 1:
        raise ValidationError(f"{name} must be a positive integer")
    return int(value)


def sample_mo(p: MOParams, n: int, rng: RngStream) -> PairSample:
    """Draw ``n`` shock-model pairs by simulating the three shocks.

    Ties ``X1 == X2`` occur exactly (bit-identical floats) whenever the
    shared shock arrives first.
    """
    n = _check_n(n)
    shocks = draw_iid(rng, n, lambda g, size: g.standard_exponential((size, 3)))
    z1 = shocks[:, 0] / p.lambda1
    z2 = shocks[:, 1] / p.lambda2
    z12 = shocks[:, 2] / p.lambda12
    pairs = np.column_stack([np.minimum(z1, z12), np.minimum(z2, z12)])
    return PairSample(pairs, "mo", p.as_dict(), rng)


def _section(x, z, xi: float):
    """Section draw ``max(x**(1/(1-xi)), z**(1/xi))``: with ``z`` it follows ``C_{xi,1}``.

    The exponent limits are ``x`` at ``xi = 0`` and ``z`` at ``xi = 1``.
    """
    if xi <= 0.0:
        return x
    if xi >= 1.0:
        return z
    return np.maximum(x ** (1.0 / (1.0 - xi)), z ** (1.0 / xi))


def copula_pair_from_uniforms(x, y, z, phi: float, psi: float):
    """Deterministic map from three U(0,1) draws to one copula pair.

    ``U`` and ``V`` are section draws sharing ``z``, so they are
    independent given the shared shock.
    """
    z = np.asarray(z, dtype=float)
    return (_section(np.asarray(x, dtype=float), z, phi),
            _section(np.asarray(y, dtype=float), z, psi))


def sample_copula(c: CopulaParams, n: int, rng: RngStream) -> PairSample:
    """Draw ``n`` pairs from the survival copula, exactly (no inversion)."""
    u, v = copula_pair_from_uniforms(*draw_uniforms(rng, _check_n(n), 3).T, c.phi, c.psi)
    return PairSample(np.column_stack([u, v]), "copula", c.as_dict(), rng)


def sample_d_xi(d: DXiParam, n: int, rng: RngStream) -> PairSample:
    """Draw ``n`` pairs from the section family: a section draw and its ``z``."""
    x, z = draw_uniforms(rng, _check_n(n), 2).T
    return PairSample(np.column_stack([_section(x, z, d.xi), z]), "d_xi", d.as_dict(), rng)


# ---------------------------------------------------------------------------
# Structure checks and export


def max_stability_defect(c: CopulaParams, m: int, grid: int = 101, cdf=None) -> float:
    """Worst-case violation of ``C(u, v) = C(u**(1/m), v**(1/m))**m``.

    Evaluated on a ``grid x grid`` lattice including the boundary.  An
    extreme-value copula returns ~0 (float roundoff only); pass a
    perturbed ``cdf`` to see a positive defect.
    """
    m = _check_n(m, "m")
    if int(grid) < 2:
        raise ValidationError("grid must be >= 2")
    fn = cdf if cdf is not None else (lambda u, v: copula_cdf(c, u, v))
    pts = np.linspace(0.0, 1.0, int(grid))
    U, V = np.meshgrid(pts, pts, indexing="ij")
    direct = fn(U, V)
    rooted = fn(U ** (1.0 / m), V ** (1.0 / m)) ** m
    return float(np.max(np.abs(direct - rooted)))


def write_sample_csv(sample: PairSample, path) -> None:
    """Write a pair sample as CSV plus a JSON metadata sidecar.

    The CSV header is ``u,v`` for copula-scale families and ``x1,x2``
    otherwise; floats are serialized with 17 significant digits so the
    file is byte-reproducible and lossless.  The sidecar lands next to
    the CSV as ``<stem>.meta.json``.
    """
    import pathlib

    path = pathlib.Path(path)
    write_csv(path, "u,v" if sample.copula_scale else "x1,x2", sample.pairs)
    meta = {
        "family": sample.family,
        "params": sample.params,
        "n": sample.n,
        "seed": sample.seed.state_dict() if sample.seed is not None else None,
    }
    sidecar = path.with_name(path.stem + ".meta.json")
    sidecar.write_text(canonical_json(meta) + "\n", encoding="ascii", newline="\n")
