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
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DivergentMomentError, EvaluationError, ValidationError, _check_floats
from .mo import CopulaParams, PairSample, copula_cdf, pair_sample
from .numerics import (QuadratureSpec, _check_range, _disjoint_maxima, _lag_window_estimate,
                       _sliding_values)
from .rng import RngStream, draw_uniforms, iter_chunks

#: Sequence-length cap for the block simulator.  The sequence is drawn in
#: chunks, but sliding mode holds one value of ``h`` per window, so this
#: bounds that array (doubles, ~400 MB) and the run time.
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


#: The smallest normal float.  Below it ``gamma * x`` loses the digits of
#: ``x`` (a subnormal has fewer than 53 bits), while such a ``gamma`` is
#: the Gumbel law to within the float precision: it is evaluated as 0.
_GAMMA_TINY = 2.2250738585072014e-308


def gev_cdf(g: GEVShape, x):
    """GEV cdf ``exp(-(1 + gamma*x)**(-1/gamma))`` (Gumbel at gamma=0), as ``exp(-exp(-l))``.

    ``l`` is the Gumbel value :func:`_l_gamma` of ``x``, so outside the support
    the cdf continues with 0 below a lower endpoint (gamma > 0) and 1 above an
    upper endpoint (gamma < 0).  A subnormal ``gamma`` is the Gumbel case.
    """
    a = np.asarray(x, dtype=float)
    _check_range((a,), -np.inf, np.inf, "x must be finite")
    # exp(-l) past the float range is inf, and exp(-inf) = 0 is the value.
    with np.errstate(over="ignore"):
        out = np.exp(-np.exp(-_l_gamma(a, g.gamma)))
    return out if out.ndim else float(out)


#: Uniform draws can in principle touch 0 (Gumbel value ``-inf``); Gumbel
#: values are clipped to those of the levels ``1e-300`` and ``1 - 1e-16``
#: to keep quantiles finite.
_GUMBEL_CLIP = tuple(float(-np.log(-np.log(q))) for q in (1e-300, 1.0 - 1e-16))


def _to_gumbel(w: np.ndarray) -> np.ndarray:
    """``-log(-log w)`` in place: uniforms to standard Gumbel values, 0 to ``-inf``."""
    with np.errstate(divide="ignore"):
        np.log(w, out=w)
        np.negative(w, out=w)
        np.log(w, out=w)
    return np.negative(w, out=w)


def _q_gamma(s: np.ndarray, gamma: float) -> np.ndarray:
    """GEV quantile ``expm1(gamma*s)/gamma`` of Gumbel values ``s`` in place.

    ``s`` itself at gamma = 0 and at a subnormal gamma (see ``_GAMMA_TINY``);
    ``+-exp(gamma*s - log|gamma|)`` where ``expm1`` would overflow.
    """
    if abs(gamma) >= _GAMMA_TINY:
        with np.errstate(over="ignore"):
            s *= gamma
            big = np.flatnonzero(s >= math.log(np.finfo(float).max))
            far = np.copysign(np.exp(s.flat[big] - math.log(abs(gamma))), gamma)
            np.expm1(s, out=s)  # stable as gamma -> 0
        s /= gamma
        s.flat[big] = far
    return s


def _l_gamma(x: np.ndarray, gamma: float, refuse: str | None = None) -> np.ndarray:
    """Gumbel value ``log1p(gamma*x)/gamma`` of GEV values ``x``, undoing :func:`_q_gamma`.

    ``x`` itself where ``_q_gamma`` is the identity; ``log|gamma| + log|x|``
    stands for ``log1p`` where ``gamma*x`` overflows.  At and below a lower
    support endpoint it is ``-inf``, at and above an upper one ``+inf``, or,
    given ``refuse``, a ValidationError with that message.
    """
    if abs(gamma) < _GAMMA_TINY:
        return x
    # log1p keeps the digits of gamma*x that 1 + gamma*x would round away.
    with np.errstate(over="ignore"):
        w = np.multiply(x, gamma, out=np.empty_like(x))
    if refuse is not None and np.any(w <= -1.0):
        raise ValidationError(refuse)
    big = np.flatnonzero(w == np.inf)
    with np.errstate(divide="ignore", over="ignore"):
        np.maximum(w, -1.0, out=w)
        np.log1p(w, out=w)
        w.flat[big] = math.log(abs(gamma)) + np.log(np.abs(x.flat[big]))
        w /= gamma
    return w


def gev_quantile(g: GEVShape, p):
    """Inverse of :func:`gev_cdf` on (0, 1)."""
    q = np.array(p, dtype=float)
    # Written so that NaN fails the test too.
    if not (np.all(q > 0.0) and np.all(q < 1.0)):
        raise ValidationError("quantile levels must lie in (0, 1)")
    out = _q_gamma(_to_gumbel(q), g.gamma)
    return out if out.ndim else float(out)


def limit_copula_cdf(z: ZetaOverlap, g: GEVShape, x, y):
    """Joint cdf of the overlap-limit pair at offset ``zeta`` (blocks share ``1 - zeta``)."""
    c = CopulaParams(1.0 - z.zeta, 1.0 - z.zeta)
    return copula_cdf(c, gev_cdf(g, x), gev_cdf(g, y))


def _limit_pair_chunk(z: ZetaOverlap, g: GEVShape, gen: np.random.Generator,
                      size: int) -> np.ndarray:
    """One chunk of :func:`sample_limit_pair`; a float overflow is an EvaluationError."""
    y1, y2 = _pair_values(Functional("identity"), g, z.zeta,
                          _to_gumbel(gen.random((size, 3))))
    pairs = np.column_stack([y1, y2])
    if not np.all(np.isfinite(pairs)):
        raise EvaluationError(
            f"a limit_gev quantile overflows a float at gamma={g.gamma:g}")
    return pairs


def sample_limit_pair(z: ZetaOverlap, g: GEVShape, n: int, rng: RngStream) -> PairSample:
    """Draw ``n`` overlap-limit pairs on the GEV scale; a float overflow is an EvaluationError."""
    return pair_sample("limit_gev", (z, g), n, rng)


# ---------------------------------------------------------------------------
# Functionals and the moment guard


#: Each functional's tail order (``h(x)`` grows like ``x**order``; 0 for
#: bounded or logarithmic growth) and its evaluator ``(h, x, gamma)``.
_FUNCTIONALS = {
    "identity": (1, lambda h, a, gamma: a),
    "square": (2, lambda h, a, gamma: a * a),
    "log_transform": (0, lambda h, a, gamma: _l_gamma(
        a, gamma, f"log_transform undefined outside the gamma={gamma} support")),
    "indicator": (0, lambda h, a, gamma: (a > h.threshold).astype(float)),
    "const": (0, lambda h, a, gamma: np.ones_like(a)),
}

FUNCTIONAL_NAMES = tuple(_FUNCTIONALS)


@dataclass(frozen=True, eq=False)
class Functional:
    """A functional ``h`` applied to normalized block maxima.

    ``log_transform`` is ``x -> log(1 + gamma*x) / gamma`` (identity at
    gamma = 0 and at a subnormal gamma), the monotone map sending the
    gamma-shaped limit to the Gumbel law; ``indicator`` needs a ``threshold``.
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

    @property
    def tail_order(self) -> int:
        return _FUNCTIONALS[self.name][0]

    def evaluate(self, x, gamma: float = 0.0):
        """Apply the functional; ``gamma`` matters only to log_transform."""
        out = _FUNCTIONALS[self.name][1](self, np.asarray(x, dtype=float), gamma)
        return out if np.ndim(out) else float(out)


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
    low, high = (values.min(), values.max()) if values.size else (0.0, 0.0)
    if not np.isfinite((low, high)).all():
        raise DivergentMomentError(
            f"h={h.name} produced non-finite values at gamma={g.gamma}"
        )
    if values.size >= 10_000:
        # The largest term from the extremes, the sum by blocks: no copy.
        mean, total = values.mean(), 0.0
        top = np.square(np.square(max(high - mean, mean - low)))
        for i in range(0, values.size, 1 << 14):
            total += np.square(np.square(values[i:i + (1 << 14)] - mean)).sum()
        if total > 0 and top / total > 0.5:
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
    per_zeta: list
    h: Functional
    gamma: float
    n: int
    seed: RngStream

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
    values = _h_values(h, g, _to_gumbel(draw_uniforms(rng, int(n_mc), 1).ravel()))
    check_moments(h, g, values)
    var = float(np.var(values, ddof=1))
    centered = values - values.mean()
    m4 = float(np.mean(centered ** 4))
    se = math.sqrt(max(m4 - var * var, 0.0) / values.size)
    return var, se


def _h_values(h: Functional, g: GEVShape, s: np.ndarray) -> np.ndarray:
    """``h(Q_gamma(s))`` from Gumbel values ``s``, clipped to ``_GUMBEL_CLIP`` in place.

    ``log_transform`` undoes ``Q_gamma``, so it is ``s`` itself.
    """
    np.clip(s, *_GUMBEL_CLIP, out=s)
    if h.name == "log_transform":
        return s
    return np.asarray(h.evaluate(_q_gamma(s, g.gamma), g.gamma), dtype=float)


def _pair_values(h: Functional, g: GEVShape, zeta: float, gumbel: np.ndarray):
    """``(h(Y1), h(Y2))`` at ``zeta`` from an ``(n, 3)`` draw already on the Gumbel scale.

    On that scale the section draw ``max(x**(1/zeta), z**(1/(1-zeta)))``
    is the shifted maximum ``max(g_x + log zeta, g_z + log1p(-zeta))``.
    """
    with np.errstate(divide="ignore"):
        # log(0) = -inf keeps the edges exact: zeta = 0 gives g_z, zeta = 1 gives g_x.
        shift, shared = np.log(zeta), gumbel[:, 2] + np.log1p(-zeta)
    values = []
    for col in (gumbel[:, 0], gumbel[:, 1]):
        s = col + shift
        np.maximum(s, shared, out=s)
        values.append(_h_values(h, g, s))
    return values


def _cov_se(h1: np.ndarray, h2: np.ndarray) -> tuple[float, float]:
    n = h1.size
    prods = h1 - h1.mean()
    prods *= h2 - h2.mean()
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
    h1, h2 = _pair_values(h, g, z.zeta, _to_gumbel(draw_uniforms(rng, int(n_mc), 3)))
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


def sigma2_sb(h: Functional, g: GEVShape, zeta_nodes: int = 32, n_mc: int = 200_000,
              rng: RngStream | None = None) -> VarianceReport:
    """Sliding-blocks variance ``2 * int_0^1 Cov dzeta`` on ``zeta_nodes`` Gauss-Legendre nodes.

    All overlap nodes reuse one set of underlying uniforms (common
    random numbers), so the integrand is smooth in ``zeta`` and the
    quoted integral SE (a triangle-inequality bound) is conservative.
    The set is mapped to the Gumbel scale once; each node is then two
    shifted maxima of it (see :func:`_pair_values`).  Raises
    :class:`EvaluationError` when a variance comes out negative or
    non-finite.
    """
    nodes, weights = QuadratureSpec(zeta_nodes, 1).axis_nodes()
    if rng is None:
        raise ValidationError("sigma2_sb requires an RngStream")
    check_moments(h, g)
    db, db_se = sigma2_db(h, g, int(n_mc), rng.child(1))
    gumbel = _to_gumbel(draw_uniforms(rng.child(0), int(n_mc), 3))
    curve = []
    total = 0.0
    total_se = 0.0
    for zeta, w in zip(nodes, weights):
        h1, h2 = _pair_values(h, g, float(zeta), gumbel)
        cov, se = _cov_se(h1, h2)
        curve.append((float(zeta), cov, se))
        total += w * cov
        total_se += w * se
    sb = 2.0 * total
    sb_se = 2.0 * total_se
    degenerate = not db > 0.0
    # The report's own check would call this invalid input; the cause is numerical.
    if not all(map(math.isfinite, (db, db_se, sb, sb_se))) or (
            not degenerate and sb < -1e-12):
        raise EvaluationError(
            f"Monte Carlo variances are negative or non-finite at gamma={g.gamma:g}: "
            f"sigma2_sb = {sb:.6g}, sigma2_db = {db:.6g}")
    ratio = float("nan") if degenerate else sb / db
    return VarianceReport(
        sigma2_db=db,
        sigma2_db_se=db_se,
        sigma2_sb=sb,
        sigma2_sb_se=sb_se,
        ratio=ratio,
        degenerate=degenerate,
        per_zeta=curve,
        h=h,
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
    try:
        a_r = r ** (1.0 / alpha)
    except OverflowError:
        a_r = math.inf
    return 1.0 / alpha, a_r, 0.0


def _pareto_draw(gen, size, alpha):
    x = gen.pareto(alpha, size)
    x += 1.0
    return x


#: Per base distribution: one chunk of the iid sequence,
#: ``draw(generator, size, alpha)``, and the normalizing constants
#: ``scaling(r, alpha) -> (gamma, a_r, b_r)``.
_BASE = {
    "exp": (lambda gen, size, alpha: gen.standard_exponential(size),
            lambda r, alpha: (0.0, 1.0, math.log(r))),
    "uniform": (lambda gen, size, alpha: gen.random(size),
                lambda r, alpha: (-1.0, 1.0 / r, 1.0)),
    "pareto": (_pareto_draw, _pareto_scaling),
    "gumbel": (lambda gen, size, alpha: gen.gumbel(size=size),
               lambda r, alpha: (0.0, 1.0, math.log(r))),
}

DISTRIBUTIONS = tuple(_BASE)


def doa_scaling(dist: str, r: int, alpha: float | None = None) -> tuple[float, float, float]:
    """Classical normalizing constants ``(gamma, a_r, b_r)`` for block size r.

    exp(1): (0, 1, log r); uniform: (-1, 1/r, 1); pareto(alpha):
    (1/alpha, r**(1/alpha), 0), with ``a_r = inf`` where that overflows a
    float; gumbel: (0, 1, log r), exact for all r.
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
    blocks = (np.concatenate([x, np.full(pad, -np.inf)]) if pad else x).reshape(-1, r)
    prefix = np.maximum.accumulate(blocks, axis=1).ravel()
    # Written through a reversed view, so the suffix maxima come out in order.
    suffix = np.empty_like(blocks)
    np.maximum.accumulate(blocks[:, ::-1], axis=1, out=suffix[:, ::-1])
    return np.maximum(suffix.ravel()[: n - r + 1], prefix[r - 1: n])


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
    h: Functional
    seed: RngStream

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
    centered series ``yc``, differences of its running sums, so the
    sliding estimate costs O(n).  Standard errors come from re-running
    the estimator on up to 20 disjoint segments of the same sequence.

    The sequence is drawn one RNG chunk at a time and never held whole:
    disjoint mode keeps the ``n_blocks`` maxima, sliding mode the
    ``r*n_blocks - r + 1`` values of ``h`` and the ``r - 1`` draws that
    open the next chunk's windows.  Every check runs before the draw.
    """
    if mode not in ("disjoint", "sliding"):
        raise ValidationError("mode must be 'disjoint' or 'sliding'")
    gamma, a_r, b_r = _block_scaling(dist, r, n_blocks, alpha)
    r, n_blocks = int(r), int(n_blocks)
    if not math.isfinite(gamma):
        raise EvaluationError(f"the shape gamma = 1/alpha overflows at alpha={alpha:g}")
    g = GEVShape(gamma)
    check_moments(h, g)
    if not math.isfinite(a_r):
        raise EvaluationError(
            f"the normalizing constant a_r = r**(1/alpha) overflows at r={r}, alpha={alpha:g}")
    chunks = iter_chunks(rng, r * n_blocks,
                         lambda gen, size: _BASE[dist][0](gen, size, alpha))

    def finish(maxima):
        # Normalized in place, then mapped by h.
        maxima -= b_r
        maxima /= a_r
        return np.asarray(h.evaluate(maxima, gamma), dtype=float)

    sliding = mode == "sliding"
    if sliding:
        values = _sliding_values(chunks, r, r * n_blocks,
                                 lambda run: finish(sliding_max(run, r)))
    else:
        values = finish(_disjoint_maxima(chunks, r, n_blocks))
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
        h=h,
        seed=rng,
    )
