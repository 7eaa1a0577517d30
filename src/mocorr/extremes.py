"""Block-maxima limits and the disjoint/sliding variance comparison.

A pair of block maxima whose blocks are offset by a fraction ``zeta``
of their length, so that they share a fraction ``1 - zeta``, has, in
the limit, the joint law ``G(x, y) = C(G_gamma(x), G_gamma(y))`` where
``C`` is the survival copula with both exponents ``1 - zeta`` and
``G_gamma`` is the generalized extreme value cdf; ``zeta = 0`` is the
comonotone pair.  For a square-integrable functional ``h`` the
disjoint-blocks asymptotic variance is
``sigma2_db = Var(h(Y))`` while the sliding-blocks one is
``sigma2_sb = 2 * int_0^1 Cov(h(Y1_zeta), h(Y2_zeta)) dzeta``, and
``sigma2_sb <= sigma2_db`` always.  This module computes both routes:
quadrature over Monte Carlo covariances, and direct simulation of long
iid sequences with disjoint or sliding block maxima.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DivergentMomentError, EvaluationError, ValidationError, _check_floats
from .mo import CopulaParams, PairSample, _check_n, copula_cdf, copula_pair_from_uniforms
from .numerics import QuadratureSpec
from .rng import RngStream, draw_iid, draw_uniforms

#: Default rule for the overlap integral.
DEFAULT_ZETA_QUAD = QuadratureSpec(32, 1)

#: Sequence-length cap for the block simulator (doubles, ~400 MB).
MAX_SEQUENCE_LENGTH = 50_000_000


@dataclass(frozen=True)
class GEVShape:
    """Shape parameter of the generalized extreme value law."""

    gamma: float

    def __post_init__(self):
        _check_floats(self, ("gamma",), lambda v: True, "must be finite")


@dataclass(frozen=True)
class ZetaOverlap:
    """Offset of two blocks as a fraction of their length, in [0, 1]; they share ``1 - zeta``."""

    zeta: float

    def __post_init__(self):
        _check_floats(self, ("zeta",), lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")


def gev_cdf(g: GEVShape, x):
    """GEV cdf ``exp(-(1 + gamma*x)**(-1/gamma))`` (Gumbel at gamma=0).

    Outside the support the cdf continues with 0 below a lower endpoint
    (gamma > 0) and 1 above an upper endpoint (gamma < 0).
    """
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValidationError("x must be finite")
    if g.gamma == 0.0:
        out = np.exp(-np.exp(-a))
        return out if out.ndim else float(out)
    w = g.gamma * a
    # exp(-log1p(w)/gamma) instead of (1+w)**(-1/gamma): stable as gamma -> 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        core = np.exp(-np.exp(-np.log1p(np.maximum(w, -1.0)) / g.gamma))
    fill = 0.0 if g.gamma > 0 else 1.0
    out = np.where(w > -1.0, core, fill)
    return out if out.ndim else float(out)


def gev_quantile(g: GEVShape, p):
    """Inverse of :func:`gev_cdf` on (0, 1)."""
    q = np.asarray(p, dtype=float)
    # Written so that NaN fails the test too.
    if not (np.all(q > 0.0) and np.all(q < 1.0)):
        raise ValidationError("quantile levels must lie in (0, 1)")
    logs = -np.log(q)
    if g.gamma == 0.0:
        out = -np.log(logs)
    else:
        # expm1 form of (logs**(-gamma) - 1)/gamma: stable as gamma -> 0
        out = np.expm1(-g.gamma * np.log(logs)) / g.gamma
    return out if out.ndim else float(out)


def limit_copula_cdf(z: ZetaOverlap, g: GEVShape, x, y):
    """Joint cdf of the overlap-limit pair at offset ``zeta`` (blocks share ``1 - zeta``)."""
    c = CopulaParams(1.0 - z.zeta, 1.0 - z.zeta)
    return copula_cdf(c, gev_cdf(g, x), gev_cdf(g, y))


def _safe_levels(u: np.ndarray) -> np.ndarray:
    # Uniform draws can in principle touch 0; keep quantiles finite.
    return np.clip(u, 1e-300, 1.0 - 1e-16)


def _limit_pair(g: GEVShape, zeta: float, xyz: np.ndarray):
    """Overlap-limit pair ``(Y1, Y2)`` at ``zeta`` from ``(n, 3)`` uniforms."""
    phi = 1.0 - zeta
    u, v = copula_pair_from_uniforms(*xyz.T, phi, phi)
    return gev_quantile(g, _safe_levels(u)), gev_quantile(g, _safe_levels(v))


def sample_limit_pair(z: ZetaOverlap, g: GEVShape, n: int, rng: RngStream) -> PairSample:
    """Draw ``n`` overlap-limit pairs on the GEV scale."""
    y1, y2 = _limit_pair(g, z.zeta, draw_uniforms(rng, _check_n(n), 3))
    return PairSample(np.column_stack([y1, y2]), "limit_gev",
                      {"zeta": z.zeta, "gamma": g.gamma}, rng)


# ---------------------------------------------------------------------------
# Functionals and the moment guard


def _log_transform(h, a, gamma):
    if gamma == 0.0:
        return a
    w = 1.0 + gamma * a
    if np.any(w <= 0.0):
        raise ValidationError(f"log_transform undefined outside the gamma={gamma} support")
    return np.log(w) / gamma


#: Each functional's tail order (``h(x)`` grows like ``x**order``; 0 for
#: bounded or logarithmic growth) and its evaluator ``(h, x, gamma)``.
_FUNCTIONALS = {
    "identity": (1, lambda h, a, gamma: a),
    "square": (2, lambda h, a, gamma: a * a),
    "log_transform": (0, _log_transform),
    "indicator": (0, lambda h, a, gamma: (a > h.threshold).astype(float)),
    "const": (0, lambda h, a, gamma: np.ones_like(a)),
}

FUNCTIONAL_NAMES = tuple(_FUNCTIONALS)


@dataclass(frozen=True, eq=False)
class Functional:
    """A functional ``h`` applied to normalized block maxima.

    ``log_transform`` is ``x -> log(1 + gamma*x) / gamma`` (identity at
    gamma = 0), the monotone map sending the gamma-shaped limit to the
    Gumbel law; ``indicator`` needs a ``threshold``.
    """

    name: str
    threshold: float | None = None

    def __post_init__(self):
        if self.name not in _FUNCTIONALS:
            raise ValidationError(f"unknown functional {self.name!r}")
        if self.name == "indicator":
            if self.threshold is None or not math.isfinite(float(self.threshold)):
                raise ValidationError("indicator requires a finite threshold")
            object.__setattr__(self, "threshold", float(self.threshold))

    @classmethod
    def identity(cls):
        return cls("identity")

    @classmethod
    def square(cls):
        return cls("square")

    @classmethod
    def log_transform(cls):
        return cls("log_transform")

    @classmethod
    def indicator(cls, threshold: float):
        return cls("indicator", threshold=threshold)

    @classmethod
    def const(cls):
        return cls("const")

    @property
    def tail_order(self) -> int:
        return _FUNCTIONALS[self.name][0]

    def evaluate(self, x, gamma: float = 0.0):
        """Apply the functional; ``gamma`` matters only to log_transform."""
        out = _FUNCTIONALS[self.name][1](self, np.asarray(x, dtype=float), gamma)
        return out if np.ndim(out) else float(out)

    def as_dict(self) -> dict:
        return {"name": self.name, "threshold": self.threshold}


def check_moments(h: Functional, g: GEVShape, values: np.ndarray | None = None) -> None:
    """Raise :class:`DivergentMomentError` when ``E[h(Y)^4]`` diverges.

    Analytic part: a functional growing like ``x**order`` has a finite
    fourth moment under the gamma-shaped limit iff ``4*order*gamma < 1``.
    Empirical part: if a single term carries more than half of the
    centered fourth-moment sum, the running estimate never settles.
    """
    if g.gamma > 0 and h.tail_order > 0 and 4 * h.tail_order * g.gamma >= 1.0:
        raise DivergentMomentError(
            f"fourth moment of h={h.name} diverges under gamma={g.gamma} "
            f"(needs 4*{h.tail_order}*gamma < 1)"
        )
    if values is None:
        return
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise DivergentMomentError(
            f"h={h.name} produced non-finite values at gamma={g.gamma}"
        )
    if values.size >= 10_000:
        centered = np.abs(values - values.mean()) ** 4
        total = centered.sum()
        if total > 0 and centered.max() / total > 0.5:
            raise DivergentMomentError(
                f"running fourth moment of h={h.name} blows up at gamma={g.gamma}: "
                "a single term dominates the sum"
            )


# ---------------------------------------------------------------------------
# Variances via quadrature over Monte Carlo covariances


@dataclass(eq=False)
class VarianceReport:
    """Both asymptotic variances with their MC errors and the zeta curve."""

    sigma2_db: float
    sigma2_db_se: float
    sigma2_sb: float
    sigma2_sb_se: float
    ratio: float
    degenerate: bool
    per_zeta: list = field(default_factory=list)
    h: dict = field(default_factory=dict)
    gamma: float = 0.0
    n: int = 0
    seed: RngStream | None = None

    def __post_init__(self):
        if not self.degenerate and (self.sigma2_db < 0 or self.sigma2_sb < -1e-12):
            raise ValidationError("variances must be nonnegative")

    @property
    def inequality_excess(self) -> float:
        """``sb - db - 3*sqrt(sb_se^2 + db_se^2)``: > 0 fails the inequality."""
        slack = 3.0 * math.sqrt(self.sigma2_sb_se ** 2 + self.sigma2_db_se ** 2)
        return self.sigma2_sb - self.sigma2_db - slack

    def to_report(self) -> dict:
        out = asdict(self)
        out.update(method="quadrature_mc", block_size=None, per_zeta=[
            {"zeta": z, "cov": c, "se": s} for z, c, s in self.per_zeta])
        return out


def sigma2_db(h: Functional, g: GEVShape, n_mc: int, rng: RngStream) -> tuple[float, float]:
    """Disjoint-blocks variance ``Var(h(Y))`` with its MC standard error."""
    if int(n_mc) < 2:
        raise ValidationError("n_mc must be >= 2")
    check_moments(h, g)
    u = draw_uniforms(rng, int(n_mc), 1).ravel()
    y = gev_quantile(g, _safe_levels(u))
    values = np.asarray(h.evaluate(y, g.gamma), dtype=float)
    check_moments(h, g, values)
    var = float(np.var(values, ddof=1))
    centered = values - values.mean()
    m4 = float(np.mean(centered ** 4))
    se = math.sqrt(max(m4 - var * var, 0.0) / values.size)
    return var, se


def _pair_values(h: Functional, g: GEVShape, zeta: float, xyz: np.ndarray):
    y1, y2 = _limit_pair(g, zeta, xyz)
    return (np.asarray(h.evaluate(y1, g.gamma), dtype=float),
            np.asarray(h.evaluate(y2, g.gamma), dtype=float))


def _cov_se(h1: np.ndarray, h2: np.ndarray) -> tuple[float, float]:
    n = h1.size
    prods = (h1 - h1.mean()) * (h2 - h2.mean())
    cov = float(prods.sum() / (n - 1))
    se = float(np.std(prods, ddof=1) / math.sqrt(n))
    return cov, se


def limit_pair_corr(h: Functional, g: GEVShape, z: ZetaOverlap,
                    n_mc: int, rng: RngStream) -> tuple[float, float]:
    """MC correlation of ``(h(Y1), h(Y2))`` with an SE from 25 chunks.

    Needs ``n_mc >= 4``: the SE takes at least two chunks of two pairs.
    Raises :class:`EvaluationError` when ``h`` is constant on one of the
    chunks (so also when it is constant on the whole draw), where a
    correlation the result needs is undefined.
    """
    if int(n_mc) < 4:
        raise ValidationError("n_mc must be >= 4")
    check_moments(h, g)
    h1, h2 = _pair_values(h, g, z.zeta, draw_uniforms(rng, int(n_mc), 3))
    check_moments(h, g, h1)
    chunks = max(2, min(25, h1.size // 2))
    parts = []
    for i, (a, b) in enumerate(zip(np.array_split(h1, chunks), np.array_split(h2, chunks))):
        if a.min() == a.max() or b.min() == b.max():
            raise EvaluationError(
                f"h={h.name} has zero variance on chunk {i + 1} of {chunks} of the "
                f"draw at zeta={z.zeta}; its correlation is undefined")
        parts.append(float(np.corrcoef(a, b)[0, 1]))
    corr = float(np.corrcoef(h1, h2)[0, 1])
    se = float(np.std(parts, ddof=1) / math.sqrt(len(parts)))
    return corr, se


def sigma2_sb(h: Functional, g: GEVShape, zeta_quad: QuadratureSpec = DEFAULT_ZETA_QUAD,
              n_mc: int = 200_000, rng: RngStream | None = None) -> VarianceReport:
    """Sliding-blocks variance ``2 * int_0^1 Cov dzeta`` via quadrature.

    All overlap nodes reuse one set of underlying uniforms (common
    random numbers), so the integrand is smooth in ``zeta`` and the
    quoted integral SE (a triangle-inequality bound) is conservative.
    """
    if rng is None:
        raise ValidationError("sigma2_sb requires an RngStream")
    check_moments(h, g)
    db, db_se = sigma2_db(h, g, int(n_mc), rng.child(1))
    xyz = draw_uniforms(rng.child(0), int(n_mc), 3)
    nodes, weights = zeta_quad.axis_nodes()
    curve = []
    total = 0.0
    total_se = 0.0
    for zeta, w in zip(nodes, weights):
        h1, h2 = _pair_values(h, g, float(zeta), xyz)
        cov, se = _cov_se(h1, h2)
        curve.append((float(zeta), cov, se))
        total += w * cov
        total_se += w * se
    sb = 2.0 * total
    sb_se = 2.0 * total_se
    degenerate = not db > 0.0
    ratio = float("nan") if degenerate else sb / db
    return VarianceReport(
        sigma2_db=db,
        sigma2_db_se=db_se,
        sigma2_sb=sb,
        sigma2_sb_se=sb_se,
        ratio=ratio,
        degenerate=degenerate,
        per_zeta=curve,
        h=h.as_dict(),
        gamma=g.gamma,
        n=int(n_mc),
        seed=rng,
    )


def indicator_cov_exact(z: ZetaOverlap, g: GEVShape, threshold: float) -> float:
    """Closed-form ``Cov(1{Y1 > t}, 1{Y2 > t})`` at one overlap."""
    G = gev_cdf(g, threshold)
    joint_below = limit_copula_cdf(z, g, threshold, threshold)
    both_above = 1.0 - 2.0 * G + joint_below
    p = 1.0 - G
    return float(both_above - p * p)


#: Below this ``1 - G``, ``sigma2_sb_indicator_exact`` sums a series: the
#: direct form cancels there, to a relative error of about ``1e-16/(1-G)``.
_INDICATOR_SERIES_CUTOFF = 0.25


def sigma2_sb_indicator_exact(g: GEVShape, threshold: float) -> float:
    """Closed-form sliding-blocks variance for an indicator functional.

    ``2 * int_0^1 (G**(1+zeta) - G**2) dzeta = 2*(G*(G-1)/log(G) - G**2)``
    with ``G = gev_cdf(g, threshold)``; 0 at ``G`` in {0, 1}.

    With ``e = 1 - G`` that is ``2*G*N/L`` for ``L = -log(1-e)`` and
    ``N = e + (1-e)*log(1-e) = sum_{n>=2} e**n/(n*(n-1))``, i.e.
    ``G*e*(1 - e/6 - e**2/12 - 19*e**3/360 - ...)`` with Gregory
    coefficients. Below the cutoff, ``N``'s first 29 terms (the rest is
    under 1e-20 of it) and ``log1p`` keep the result relatively exact.
    """
    G = gev_cdf(g, threshold)
    if G <= 0.0 or G >= 1.0:
        return 0.0
    e = 1.0 - G
    if e >= _INDICATOR_SERIES_CUTOFF:
        return 2.0 * (G * (G - 1.0) / math.log(G) - G * G)
    n_over_e2 = 0.0
    for n in range(30, 1, -1):
        n_over_e2 = n_over_e2 * e + 1.0 / (n * (n - 1))
    return 2.0 * G * e * e * n_over_e2 / -math.log1p(-e)


# ---------------------------------------------------------------------------
# Block-maxima simulation


def _pareto_scaling(r: int, alpha):
    if alpha is None or not math.isfinite(float(alpha)) or float(alpha) <= 0:
        raise ValidationError("pareto requires alpha > 0")
    alpha = float(alpha)
    return 1.0 / alpha, r ** (1.0 / alpha), 0.0


#: Per base distribution: one chunk of the iid sequence,
#: ``draw(generator, size, alpha)``, and the normalizing constants
#: ``scaling(r, alpha) -> (gamma, a_r, b_r)``.
_BASE = {
    "exp": (lambda gen, size, alpha: gen.standard_exponential(size),
            lambda r, alpha: (0.0, 1.0, math.log(r))),
    "uniform": (lambda gen, size, alpha: gen.random(size),
                lambda r, alpha: (-1.0, 1.0 / r, 1.0)),
    "pareto": (lambda gen, size, alpha: gen.pareto(alpha, size) + 1.0, _pareto_scaling),
    "gumbel": (lambda gen, size, alpha: gen.gumbel(size=size),
               lambda r, alpha: (0.0, 1.0, math.log(r))),
}

DISTRIBUTIONS = tuple(_BASE)


def doa_scaling(dist: str, r: int, alpha: float | None = None) -> tuple[float, float, float]:
    """Classical normalizing constants ``(gamma, a_r, b_r)`` for block size r.

    exp(1): (0, 1, log r); uniform: (-1, 1/r, 1); pareto(alpha):
    (1/alpha, r**(1/alpha), 0); gumbel: (0, 1, log r), exact for all r.
    The uniform and pareto rows target the classical Weibull/Frechet
    forms, affine relabelings of the standard GEV.
    """
    if dist not in _BASE:
        raise ValidationError(f"unknown distribution {dist!r}; pick one of {DISTRIBUTIONS}")
    if int(r) < 1:
        raise ValidationError("block size r must be >= 1")
    return _BASE[dist][1](int(r), alpha)


def _block_scaling(dist: str, r: int, n_blocks: int,
                   alpha: float | None = None) -> tuple[float, float, float]:
    """Check the block-simulation sizes, then return :func:`doa_scaling`.

    Cheap enough to run before any Monte Carlo, so the CLI calls it
    ahead of the work as well.
    """
    if int(n_blocks) < 2:
        raise ValidationError("n_blocks must be >= 2")
    total = int(r) * int(n_blocks)
    if total > MAX_SEQUENCE_LENGTH:
        raise ValidationError(
            f"sequence length r*n_blocks = {total} exceeds the cap "
            f"{MAX_SEQUENCE_LENGTH}; reduce r or n_blocks"
        )
    return doa_scaling(dist, r, alpha)


def sliding_max(x: np.ndarray, r: int) -> np.ndarray:
    """Maxima over all length-``r`` windows of ``x`` (two-pass, O(n))."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if int(r) < 1:
        raise ValidationError("window length must be >= 1")
    r = int(r)
    if r > n:
        raise ValidationError("window longer than the sequence")
    if r == 1:
        return x.copy()
    pad = (-n) % r
    padded = np.concatenate([x, np.full(pad, -np.inf)])
    blocks = padded.reshape(-1, r)
    prefix = np.maximum.accumulate(blocks, axis=1).ravel()
    suffix = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.maximum(suffix[: n - r + 1], prefix[r - 1: n])


def _lag_window_estimate(y: np.ndarray, r: int) -> float:
    """Rectangular lag-window long-run variance of the sliding series.

    ``(1/r) * sum_{|k| < r} chat_k`` equals ``(N/r)`` times the
    estimated variance of the sliding mean; trapezoid exactness over the
    overlap grid makes it a consistent estimate of the overlap integral.

    With ``yc`` the centered series and ``w_t = sum_{j=t}^{min(t+r-1, n-1)}
    yc_j``, ``chat_0 + 2 * sum_{k=1}^{r-1} chat_k = (2 yc.w - yc.yc) / n``,
    so one cumsum gives it in O(n) time and memory.  It is summed as
    ``yc.(yc + 2 v) / n`` with ``v = w - yc``: at ``r = 1`` the window
    ``v`` is exactly 0 and the result is ``np.var(y)``.
    """
    n = y.size
    yc = y - y.mean()
    # c[i] = sum_{j<i} yc_j, held at its total past i = n, so that
    # v_t = sum_{j=t+1}^{min(t+r-1, n-1)} yc_j = c[t+r] - c[t+1].
    c = np.empty(n + r)
    c[0] = 0.0
    np.cumsum(yc, out=c[1:n + 1])
    c[n + 1:] = c[n]
    v = c[r:r + n] - c[1:n + 1]
    v *= 2.0
    v += yc
    v *= yc
    return float(v.sum() / n / r)


@dataclass(frozen=True)
class BlockSimResult:
    """One block-maxima simulation estimate with a resampled SE.

    ``segments`` is the number of disjoint segments behind ``se``; ``se``
    is NaN (null in a report) exactly when it is below 2.
    """

    estimate: float
    se: float
    segments: int
    mode: str
    dist: str
    alpha: float | None
    r: int
    n_blocks: int
    gamma: float
    a_r: float
    b_r: float
    h: dict = field(default_factory=dict)
    seed: RngStream | None = None

    def to_report(self) -> dict:
        return asdict(self)


def block_maxima_simulate(dist: str, r: int, n_blocks: int, mode: str,
                          h: Functional, rng: RngStream,
                          alpha: float | None = None) -> BlockSimResult:
    """Simulate an iid sequence and estimate one asymptotic variance.

    ``disjoint``: the empirical variance of ``h`` over the ``n_blocks``
    normalized disjoint block maxima, estimating the disjoint-blocks
    variance.  ``sliding``: the lag-window long-run variance of ``h``
    over all sliding-window maxima (the variance of the sliding mean,
    scaled back by blocks), estimating the sliding-blocks variance.  The
    lag-window sum ``chat_0 + 2 * sum_{k<r} chat_k`` is
    ``(2 yc.w - yc.yc) / n`` with ``w`` the forward window sums of the
    centered series ``yc``, a difference of one cumsum, so the sliding
    estimate costs O(n).  Standard errors come from re-running the
    estimator on up to 20 disjoint segments of the same sequence.
    """
    if mode not in ("disjoint", "sliding"):
        raise ValidationError("mode must be 'disjoint' or 'sliding'")
    gamma, a_r, b_r = _block_scaling(dist, r, n_blocks, alpha)
    r, n_blocks = int(r), int(n_blocks)
    g = GEVShape(gamma)
    check_moments(h, g)
    x = draw_iid(rng, r * n_blocks, lambda gen, size: _BASE[dist][0](gen, size, alpha))

    sliding = mode == "sliding"
    maxima = sliding_max(x, r) if sliding else x.reshape(n_blocks, r).max(axis=1)
    # Normalized in place: two fewer sequence-sized temporaries at the peak.
    maxima -= b_r
    maxima /= a_r
    values = np.asarray(h.evaluate(maxima, gamma), dtype=float)
    check_moments(h, g, values)

    def estimator(seg):
        return _lag_window_estimate(seg, r) if sliding else float(np.var(seg, ddof=1))

    estimate = estimator(values)
    # Up to 20 segments, each spanning at least two blocks.
    k = min(20, values.size // (2 * r) if sliding else n_blocks // 2)
    se = float("nan")
    if k >= 2:
        parts = [estimator(seg) for seg in np.array_split(values, k)]
        se = float(np.std(parts, ddof=1) / math.sqrt(k))

    return BlockSimResult(
        estimate=estimate,
        se=se,
        segments=k,
        mode=mode,
        dist=dist,
        alpha=None if dist != "pareto" else float(alpha),
        r=r,
        n_blocks=n_blocks,
        gamma=gamma,
        a_r=a_r,
        b_r=b_r,
        h=h.as_dict(),
        seed=rng,
    )
