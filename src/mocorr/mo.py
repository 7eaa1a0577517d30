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

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import EvaluationError, ValidationError, _check_floats
from .numerics import _check_range, _pairs
from .rng import RngStream, draw_iid, iter_chunks
from .serialize import canonical_json, csv_text, write_text

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


@dataclass(frozen=True)
class CopulaParams:
    """Copula exponents ``phi, psi`` in [0, 1]."""

    phi: float
    psi: float

    def __post_init__(self):
        _check_floats(self, ("phi", "psi"), lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")


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
        pairs = _pairs(self.pairs)
        _check_support(pairs, self.family, self.params)
        self.pairs = pairs

    @property
    def n(self) -> int:
        return self.pairs.shape[0]

    @property
    def copula_scale(self) -> bool:
        return _family(self.family).to_copula is None


@dataclass(frozen=True, eq=False)
class PairChunks:
    """A pair sample handed over one RNG chunk at a time.

    ``chunks`` yields, once and in order, the ``(size, 2)`` pairs of each
    chunk of the draw: on the copula scale from :func:`pair_chunks`, on the
    family's own from :func:`sample_chunks`.  The other fields are those of
    :class:`PairSample`, with ``n`` the total rows.
    """

    family: str
    params: dict
    seed: RngStream
    n: int
    chunks: object


def pair_sample(family: str, p, n: int, rng: RngStream) -> PairSample:
    """Draw ``n`` pairs of ``family`` at params ``p``: its per-chunk map, concatenated."""
    record = _family(family)
    pairs = draw_iid(rng, _check_n(n), lambda g, size: record.chunk(p, g, size))
    return PairSample(pairs, family, record.as_dict(p), rng)


def sample_chunks(family: str, p, n: int, rng: RngStream) -> PairChunks:
    """Draw ``n`` pairs of ``family`` at params ``p`` lazily, on the family's own scale.

    The chunks are those :func:`pair_sample` concatenates, bit for bit, each
    checked against the family's support as a :class:`PairSample` is when it
    is drawn; no n-sized array is built.
    """
    record = _family(family)
    params = record.as_dict(p)
    n = _check_n(n)

    def chunks():
        for pairs in iter_chunks(rng, n, lambda g, size: record.chunk(p, g, size)):
            _check_support(pairs, family, params)
            yield pairs

    return PairChunks(family, params, rng, n, chunks())


def pair_chunks(family: str, p, n: int, rng: RngStream) -> PairChunks:
    """:func:`sample_chunks` mapped onto [0, 1]^2 by the family's ``to_copula``.

    The chunks concatenate to ``to_copula`` of :func:`pair_sample` at the
    same arguments, bit for bit (the binning checks them on that scale).
    """
    stream = sample_chunks(family, p, n, rng)
    to_copula = _family(family).to_copula
    if to_copula is None:
        return stream
    return replace(stream, chunks=(to_copula(p, pairs) for pairs in stream.chunks))


def _check_support(pairs: np.ndarray, family: str, params: dict) -> None:
    """Refuse non-finite pairs and pairs outside ``family``'s support."""
    low, high = _family(family).support(params)
    _check_range((pairs,), low, high,
                 f"family {family!r} has coordinates outside [{low:g}, {high:g}]",
                 "pair coordinates must be finite")


def _family(name: str):
    # families imports this module, so its table is read at call time.
    from .families import FAMILY_TABLE
    if name not in FAMILY_TABLE:
        raise ValidationError(f"unknown family {name!r}")
    return FAMILY_TABLE[name]


def _broadcast_pair(x1, x2, name: str):
    a = np.asarray(x1, dtype=float)
    b = np.asarray(x2, dtype=float)
    _check_range((a, b), 0.0, np.inf, f"{name} coordinates must be nonnegative",
                 f"{name} coordinates must be finite")
    return a, b


def mo_survival(p: MOParams, x1, x2):
    """Joint survival ``P(X1 > x1, X2 > x2)``.

    Equals ``exp(-l1*x1 - l2*x2 - l12*max(x1, x2))``; broadcasts over
    array inputs.
    """
    a, b = _broadcast_pair(x1, x2, "survival")
    # An exponent past the float range is inf, and exp(-inf) = 0 is the value.
    with np.errstate(over="ignore"):
        expo = p.lambda1 * a + p.lambda2 * b + p.lambda12 * np.maximum(a, b)
    out = np.exp(-expo)
    return out if out.ndim else float(out)


def mo_marginal_survival(p: MOParams, which: int, x):
    """Marginal survival of one coordinate, ``exp(-(lambda_j + lambda12) * x)``."""
    if which not in (1, 2):
        raise ValidationError("which must be 1 or 2")
    rate = (p.lambda1 if which == 1 else p.lambda2) + p.lambda12
    a = np.asarray(x, dtype=float)
    _check_range((a,), 0.0, np.inf, "coordinate must be nonnegative and finite")
    with np.errstate(over="ignore"):
        out = np.exp(-rate * a)
    return out if out.ndim else float(out)


def mo_cdf(p: MOParams, x1, x2):
    """Joint cdf ``P(X1 <= x1, X2 <= x2)`` by inclusion-exclusion."""
    a, b = _broadcast_pair(x1, x2, "cdf")
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
    _check_range((a, b), 0.0, 1.0, "copula arguments must lie in the unit square [0, 1]^2")
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


def _mo_chunk(p: MOParams, gen: np.random.Generator, size: int) -> np.ndarray:
    """One chunk of :func:`sample_mo`: ``(size, 2)`` pairs from the three shocks."""
    shocks = gen.standard_exponential((size, 3))
    with np.errstate(over="ignore"):  # a shock time past the float range is inf
        z1 = shocks[:, 0] / p.lambda1
        z2 = shocks[:, 1] / p.lambda2
        z12 = shocks[:, 2] / p.lambda12
    pairs = np.column_stack([np.minimum(z1, z12), np.minimum(z2, z12)])
    if pairs.max() == np.inf:  # both shocks of a component overflowed; none is NaN
        raise EvaluationError(f"a shock time overflows a float at {p}")
    return pairs


def sample_mo(p: MOParams, n: int, rng: RngStream) -> PairSample:
    """Draw ``n`` shock-model pairs by simulating the three shocks.

    Ties ``X1 == X2`` occur exactly (bit-identical floats) whenever the
    shared shock arrives first.
    """
    return pair_sample("mo", p, n, rng)


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


def _copula_chunk(c: CopulaParams, gen: np.random.Generator, size: int) -> np.ndarray:
    """One chunk of :func:`sample_copula`: section draws from three uniforms."""
    u, v = copula_pair_from_uniforms(*gen.random((size, 3)).T, c.phi, c.psi)
    return np.column_stack([u, v])


def sample_copula(c: CopulaParams, n: int, rng: RngStream) -> PairSample:
    """Draw ``n`` pairs from the survival copula, exactly (no inversion)."""
    return pair_sample("copula", c, n, rng)


def _d_xi_chunk(d: DXiParam, gen: np.random.Generator, size: int) -> np.ndarray:
    """One chunk of :func:`sample_d_xi`: a section draw and its ``z``."""
    x, z = gen.random((size, 2)).T
    return np.column_stack([_section(x, z, d.xi), z])


def sample_d_xi(d: DXiParam, n: int, rng: RngStream) -> PairSample:
    """Draw ``n`` pairs from the section family: a section draw and its ``z``."""
    return pair_sample("d_xi", d, n, rng)


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


def write_sample_csv(sample, path) -> None:
    """Write a pair sample as CSV plus a JSON metadata sidecar.

    ``sample`` is a :class:`PairSample`, or the :class:`PairChunks` of
    :func:`sample_chunks`, written one RNG chunk at a time as it is drawn; a
    row's bytes do not depend on its chunk.  The CSV header is ``u,v`` for
    copula-scale families and ``x1,x2`` otherwise; floats are serialized
    with 17 significant digits so the file is byte-reproducible and
    lossless.  Both files go through :func:`~mocorr.serialize.write_text`,
    the CSV first, so a draw or check that fails part way leaves ``path`` as
    it was.  The sidecar lands next to the CSV as ``<stem>.meta.json`` once
    the CSV is in place.
    """
    import pathlib

    path = pathlib.Path(path)
    header = "u,v" if _family(sample.family).to_copula is None else "x1,x2"
    chunks = getattr(sample, "chunks", None)
    write_text(path, csv_text(header, [sample.pairs] if chunks is None else chunks))
    meta = {
        "family": sample.family,
        "params": sample.params,
        "n": sample.n,
        "seed": asdict(sample.seed) if sample.seed is not None else None,
    }
    write_text(path.with_name(path.stem + ".meta.json"), [canonical_json(meta) + "\n"])
