"""Deterministic numerical kernels.

Composite Gauss-Legendre nodes on the unit interval and quadrature on
the unit square, histogram binning of pair samples, the second singular
value of the normalized binned operator from a dense SVD, and a binned
goodness of fit: exact cell masses of a cdf by inclusion-exclusion and
Pearson's chi-square of bin counts against them, as a z score.

The standard normal cdf ``ndtr`` is numpy Cody ``erfc``, a block of
values at a time; the quantile ``ndtri`` is the standard library's
Wichura AS241 (``statistics.NormalDist.inv_cdf``), one value at a time.

The block simulation's kernels work on a sequence handed over in chunks:
disjoint block maxima, the values of all sliding windows, and the
rectangular lag-window long-run variance, made a block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, ValidationError, _check_count


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre rule on [0, 1] (per axis).

    :func:`quad_2d` takes its tensor product on the unit square; a 1-D
    integral uses :meth:`axis_nodes` directly.

    Parameters
    ----------
    nodes_per_axis : int
        Gauss-Legendre nodes per panel, exact for polynomials of degree
        <= 2*nodes_per_axis - 1 on each panel.
    subdivisions : int
        Equal panels per axis.
    """

    nodes_per_axis: int = 32
    subdivisions: int = 8

    def __post_init__(self):
        for name, low, high in (("nodes_per_axis", 2, 1024), ("subdivisions", 1, 4096)):
            object.__setattr__(self, name, _check_count(getattr(self, name), name, low, high))

    def axis_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the composite rule on [0, 1]."""
        x, w = np.polynomial.legendre.leggauss(self.nodes_per_axis)
        h = 1.0 / self.subdivisions
        starts = np.arange(self.subdivisions) * h
        nodes = (starts[:, None] + (x[None, :] + 1.0) * (h / 2.0)).ravel()
        weights = np.tile(w * (h / 2.0), self.subdivisions)
        return nodes, weights


#: Default rule for covariance integrals on the unit square.
DEFAULT_QUAD_2D = QuadratureSpec(32, 8)


def quad_2d(f, spec: QuadratureSpec = DEFAULT_QUAD_2D) -> float:
    """Integrate ``f`` over the unit square with a tensor GL rule.

    ``f`` must broadcast over coordinate grids ``(U, V)``.
    """
    nodes, weights = spec.axis_nodes()
    U, V = np.meshgrid(nodes, nodes, indexing="ij")
    values = np.asarray(f(U, V), dtype=float)
    if values.shape != U.shape:
        raise ValidationError("integrand must return one value per grid node")
    bad = ~np.isfinite(values)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise EvaluationError(f"integrand is non-finite at node ({nodes[i]}, {nodes[j]})")
    return float(weights @ values @ weights)


# ---------------------------------------------------------------------------
# Standard normal cdf and quantile

# Each tuple holds a polynomial's coefficients, highest degree first.
# Cody (1969), "Rational Chebyshev approximations for the error function",
# as in his CALERF: erf(y) = y * P(y^2) / Q(y^2) for |y| <= 0.46875 ...
_ERF_NUM = (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
            3.77485237685302021e02, 3.20937758913846947e03)
_ERF_DEN = (1.0, 2.36012909523441209e01, 2.44024637934444173e02,
            1.28261652607737228e03, 2.84423683343917062e03)
# ... exp(y^2) erfc(y) = P(y) / Q(y) for 0.46875 < y <= 4 ...
_ERFC_NUM = (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
             6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
             1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03)
_ERFC_DEN = (1.0, 1.57449261107098347e01, 1.17693950891312499e02,
             5.37181101862009858e02, 1.62138957456669019e03, 3.29079923573345963e03,
             4.36261909014324716e03, 3.43936767414372164e03, 1.23033935480374942e03)
# ... and exp(y^2) erfc(y) = (1/sqrt(pi) - s P(s) / Q(s)) / y, s = 1/y^2, for y > 4.
_ERFC_TAIL_NUM = (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
                  1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4)
_ERFC_TAIL_DEN = (1.0, 2.56852019228982242e00, 1.87295284992346725e00,
                  5.27905102951428412e-1, 6.05183413124413191e-2, 2.33520497626869185e-3)
_RSQRT_PI = 5.6418958354775628695e-1
_RSQRT_2 = 7.0710678118654752440e-1


def _ratio(num, den, x: np.ndarray) -> np.ndarray:
    """``num(x) / den(x)``, both by Horner's rule in place."""
    top = np.multiply(x, num[0])
    bottom = np.multiply(x, den[0])
    for c, d in zip(num[1:-1], den[1:-1]):
        top += c
        top *= x
        bottom += d
        bottom *= x
    top += num[-1]
    bottom += den[-1]
    top /= bottom
    return top


def _split(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices where ``mask`` holds and where it does not.

    Gathering and scattering by index is several times faster than by a
    boolean mask when the mask changes at random from element to element.
    """
    return np.flatnonzero(mask), np.flatnonzero(~mask)


#: Elements per block of :func:`ndtr`: a block's dozen temporaries stay in
#: cache, which makes it 2-3x faster at 1e6.
_NORMAL_BLOCK = 1 << 14


def _ndtr_block(a: np.ndarray, out: np.ndarray) -> None:
    x = a * _RSQRT_2
    central, tail = _split(np.abs(x) <= 0.46875)
    xc = x.take(central)
    erf = _ratio(_ERF_NUM, _ERF_DEN, xc * xc)
    erf *= xc
    erf *= 0.5
    erf += 0.5
    out.put(central, erf)
    # |a| >= 40 gives 0 or 1 either way; the clip keeps y * y finite and
    # inf out of a - h.
    at = np.clip(a.take(tail), -40.0, 40.0)
    y = np.abs(at) * _RSQRT_2
    half = np.empty(y.shape)  # exp(y^2) erfc(y) until the factors below
    mid, far = _split(y <= 4.0)
    half.put(mid, _ratio(_ERFC_NUM, _ERFC_DEN, y.take(mid)))
    yf = y.take(far)
    s = 1.0 / (yf * yf)
    r = _ratio(_ERFC_TAIL_NUM, _ERFC_TAIL_DEN, s)
    r *= s
    np.subtract(_RSQRT_PI, r, out=r)
    r /= yf
    half.put(far, r)
    h = np.trunc(at * 16.0)
    h /= 16.0
    d = at - h
    d *= at + h
    d *= -0.5
    h *= h
    h *= -0.5
    half *= np.exp(h, out=h)
    half *= np.exp(d, out=d)
    half *= 0.5  # erfc(y) / 2
    # ndtr(a) is erfc(y)/2 below 0 and 1 - erfc(y)/2 above: 0 or 1 minus +-half.
    np.copysign(half, at, out=half)
    np.subtract(at > 0.0, half, out=half)
    out.put(tail, half)


def ndtr(a):
    """Standard normal cdf, within 5 ulp wherever it is a normal float.

    Cody's rational ``erfc`` at ``x = a / sqrt(2)``, one range at a time
    (``|x| <= 0.46875``, ``<= 4``, beyond).  Outside the central range the
    Gaussian factor comes from ``a`` itself, as
    ``exp(-h^2/2) * exp(-(a - h)(a + h)/2)`` with ``h = trunc(16a)/16``,
    so rounding ``x`` costs no accuracy in the tails.  ``ndtr(-inf) = 0``
    and ``ndtr(inf) = 1``.
    """
    a = np.asarray(a, dtype=float)
    flat = a.ravel()
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _NORMAL_BLOCK):
        stop = start + _NORMAL_BLOCK
        _ndtr_block(flat[start:stop], out[start:stop])
    out = out.reshape(a.shape)
    return out if out.ndim else float(out)


def ndtri(p):
    """Standard normal quantile, within 5 ulp on [1e-300, 1 - 1e-16].

    ``statistics.NormalDist().inv_cdf``, Wichura's AS241, one value at a
    time.  ``ndtri(0) = -inf``, ``ndtri(1) = inf``; NaN outside [0, 1].
    """
    from statistics import NormalDist  # imports decimal, fractions, random: only here

    p = np.asarray(p, dtype=float)
    out = np.where(p == 0.0, -np.inf, np.where(p == 1.0, np.inf, np.nan))
    inside = (p > 0.0) & (p < 1.0)
    out[inside] = list(map(NormalDist().inv_cdf, p[inside].tolist()))
    return out if out.ndim else float(out)


def _pairs(sample) -> np.ndarray:
    """The ``(n, 2)`` float pairs of a :class:`~mocorr.mo.PairSample` or array, ``n >= 1``."""
    pairs = np.asarray(getattr(sample, "pairs", sample), dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValidationError("sample must be an (n, 2) array of pairs")
    if pairs.shape[0] == 0:
        raise ValidationError("sample must contain at least one pair")
    return pairs


def _check_range(arrays, low, high, message: str, finite_message: str | None = None):
    """Refuse non-finite values, then values outside [low, high], in any of ``arrays``.

    One ``min`` and one ``max`` per array (they propagate NaN and reach
    any infinity) scan it twice; an empty array passes.
    """
    bounds = [(a.min(), a.max()) for a in arrays if a.size]
    if not all(np.isfinite(lo) and np.isfinite(hi) for lo, hi in bounds):
        raise ValidationError(finite_message or message)
    if any(lo < low or hi > high for lo, hi in bounds):
        raise ValidationError(message)


# ---------------------------------------------------------------------------
# Binned operator and its second singular value


@dataclass(frozen=True, eq=False)
class BinnedOperator:
    """Joint histogram masses on an m x m grid with their marginals.

    Invariants (checked on construction): all masses nonnegative, total
    mass 1 within 1e-12.  The marginals are the row and column sums of
    ``joint_mass``, stored so the SVD need not recompute them.
    """

    joint_mass: np.ndarray
    row_marginal: np.ndarray = field(init=False)
    col_marginal: np.ndarray = field(init=False)

    def __post_init__(self):
        joint = np.asarray(self.joint_mass, dtype=float)
        if joint.ndim != 2 or joint.shape[0] != joint.shape[1] or joint.shape[0] < 2:
            raise ValidationError("joint_mass must be a square matrix with m >= 2")
        # Written so that NaN fails the test too.
        if not np.all(joint >= 0):
            raise ValidationError("masses must be nonnegative")
        if abs(joint.sum() - 1.0) > 1e-12:
            raise ValidationError("joint mass must sum to 1 within 1e-12")
        object.__setattr__(self, "joint_mass", joint)
        object.__setattr__(self, "row_marginal", joint.sum(axis=1))
        object.__setattr__(self, "col_marginal", joint.sum(axis=0))

    @property
    def m(self) -> int:
        return self.joint_mass.shape[0]


def _check_bins(m) -> int:
    """Bins per axis of :func:`bin_pairs`, an integer in [2, 4096]."""
    return _check_count(m, "m", 2, 4096)


#: Rows per block of the binning kernel: its index temporaries stay near
#: a few MB at any sample size, and a default RNG chunk of 1e6 / 16
#: pairs is one block.
_BIN_ROWS = 1 << 16


def bin_pairs(sample, m: int) -> BinnedOperator:
    """Histogram a copula-scale pair sample onto an m x m grid.

    Coordinates must lie in [0, 1]; the value 1.0 falls in the last bin.
    Bin ``k`` is ``[e_k, e_{k+1})`` with ``e = linspace(0, 1, m + 1)``,
    so the counts equal those of ``np.histogram2d`` on ``[0, 1]^2``.
    A :class:`~mocorr.mo.PairChunks` is binned chunk by chunk as it is
    drawn, so no n-sized array exists; an array or a
    :class:`~mocorr.mo.PairSample` is one chunk.  Every block is
    range-checked as it is binned, whatever its source (a sample's pairs
    can change after it was built), and all go through one block kernel,
    which gives the same integer counts for the same pairs.
    """
    counts = _bin_counts(sample, m)
    return BinnedOperator(counts / counts.sum())


def _bin_counts(sample, m) -> np.ndarray:
    """The ``(m, m)`` integer counts of :func:`bin_pairs`."""
    m = _check_bins(m)
    chunks = getattr(sample, "chunks", None)
    if chunks is None:
        chunks = (_pairs(sample),)
    edges = np.linspace(0.0, 1.0, m + 1)
    # x * m can round across an edge by one ulp, so check against the
    # edges themselves; the infinite ends send x = 1 to the last bin.
    lower, upper = np.append(edges[:m], np.inf), np.append(edges[1:m], np.inf)
    counts = np.zeros(m * m, dtype=np.intp)
    for pairs in chunks:
        for start in range(0, pairs.shape[0], _BIN_ROWS):
            x = pairs[start:start + _BIN_ROWS].ravel()  # u0, v0, u1, v1, ...
            _check_range((x,), 0.0, 1.0, "coordinates must lie in [0, 1] (copula scale)")
            idx = (x * m).astype(np.intp)
            idx -= x < lower[idx]
            idx += x >= upper[idx]
            counts += np.bincount(idx[0::2] * m + idx[1::2], minlength=m * m)
    return counts.reshape(m, m)


def second_singular_value(op: BinnedOperator) -> tuple[float, float]:
    """Second singular value of the marginal-normalized operator.

    The matrix ``A[i, j] = joint[i, j] / sqrt(row[i] * col[j])`` (over
    nonzero marginals) has top singular pair ``(1, sqrt(row), sqrt(col))``;
    a dense SVD of ``A`` gives the whole spectrum, and the top value is
    checked against 1 within 1e-12 before the next one is taken.

    Returns ``(sigma2, sigma2 - sigma3)`` with ``sigma2`` clamped to
    [0, 1]; a small spectral gap means ``sigma2`` is poorly separated
    from the rest of the spectrum.  Raises :class:`EvaluationError` if
    the top singular value is not 1.
    """
    rows = op.row_marginal > 0
    cols = op.col_marginal > 0
    u1 = np.sqrt(op.row_marginal[rows])
    v1 = np.sqrt(op.col_marginal[cols])
    A = op.joint_mass[np.ix_(rows, cols)] / np.outer(u1, v1)
    sigma = np.linalg.svd(A, compute_uv=False)
    if not abs(sigma[0] - 1.0) <= 1e-12:
        raise EvaluationError(
            f"top singular value of the normalized operator is {sigma[0]!r}, not 1")
    # Fewer than three occupied rows or columns: the missing values are 0.
    sigma2, sigma3 = np.clip(np.append(sigma[1:3], [0.0, 0.0])[:2], 0.0, 1.0)
    return float(sigma2), float(sigma2 - sigma3)


# ---------------------------------------------------------------------------
# Exact cell masses and the binned chi-square


def cell_masses(cdf, x_edges, y_edges) -> np.ndarray:
    """Masses of the cells between consecutive edges, by inclusion-exclusion of ``cdf``.

    ``cdf`` broadcasts over the grid of edges, then ``np.diff`` runs along
    each axis.  Edges falling along both axes give the same masses as rising ones.
    """
    values = np.asarray(cdf(*np.meshgrid(x_edges, y_edges, indexing="ij")), dtype=float)
    return np.diff(np.diff(values, axis=0), axis=1)


def chi2_z(counts, masses) -> float:
    """Pearson's chi-square of bin ``counts`` against exact cell ``masses``, as a z score.

    Cells expected to hold fewer than 5 points are pooled into one, and a
    pool itself expected below 5 joins the smallest other cell; a point
    in a cell of no mass (0 or, by rounding, below) gives ``inf``.  ``X^2`` on
    ``k`` degrees of freedom, one fewer than the cells used, becomes
    ``z = ((X^2/k)^(1/3) - 1 + 2/(9k)) / sqrt(2/(9k))`` (Wilson-Hilferty).
    """
    counts = np.asarray(counts, dtype=float).ravel()
    masses = np.asarray(masses, dtype=float).ravel()
    if counts.shape != masses.shape or abs(masses.sum() - 1.0) > 1e-9:
        raise ValidationError("need one count per cell and masses summing to 1 within 1e-9")
    if np.any(counts[masses <= 0.0]):
        return math.inf
    expected = counts.sum() * masses
    small = expected < 5.0
    pool = counts[small].sum(), expected[small].sum()
    observed, expected = counts[~small], expected[~small]
    if pool[1] >= 5.0:
        observed, expected = np.append(observed, pool[0]), np.append(expected, pool[1])
    elif observed.size:
        i = np.argmin(expected)
        observed[i] += pool[0]
        expected[i] += pool[1]
    k = observed.size - 1
    if k < 1:
        raise ValidationError("the chi-square needs two cells expected to hold 5 points")
    x2 = float(np.sum((observed - expected) ** 2 / expected))
    h = 2.0 / (9.0 * k)
    return ((x2 / k) ** (1.0 / 3.0) - 1.0 + h) / math.sqrt(h)


# ---------------------------------------------------------------------------
# Chunked sequences: block maxima, sliding windows, lag-window variance


#: Values per block of :func:`_lag_window_estimate`: its temporaries are a
#: few blocks, whatever the length of the series.
_LAG_BLOCK = 1 << 14


def _lag_window_estimate(y: np.ndarray, r: int) -> float:
    """Rectangular lag-window long-run variance of the sliding series.

    ``(1/r) * sum_{|k| < r} chat_k`` equals ``(N/r)`` times the
    estimated variance of the sliding mean; trapezoid exactness over the
    overlap grid makes it a consistent estimate of the overlap integral.

    With ``yc`` the centered series and ``w_t = sum_{j=t}^{min(t+r-1, n-1)}
    yc_j``, ``chat_0 + 2 * sum_{k=1}^{r-1} chat_k = (2 yc.w - yc.yc) / n``,
    so the running sums ``c_i = sum_{j<i} yc_j`` give it in O(n) time.  It
    is summed as ``yc.(yc + 2 v) / n`` with ``v_t = w_t - yc_t =
    c_{t+r} - c_{t+1}`` (``c`` held at its total past ``n``): at ``r = 1``
    ``v`` is exactly 0 and the result is ``np.var(y)``.  The running sums
    are made a block of ``t`` at a time by two cursors ``r - 1`` apart, so
    no n-sized temporary is made.
    """
    n = y.size
    mean = y.mean()
    step = min(n, _LAG_BLOCK)

    def running(pos, total, k):
        # c_{pos+1}, ..., c_{pos+k} from total = c_pos.  One add.accumulate
        # from the carried total gives the values of one cumsum over all of
        # yc, bit for bit.
        c = np.empty(k + 1)
        c[0] = total
        m = max(0, min(k, n - pos))
        np.subtract(y[pos:pos + m], mean, out=c[1:m + 1])
        np.add.accumulate(c[:m + 1], out=c[:m + 1])
        c[m + 1:] = c[m]
        return c[1:]

    ahead = 0.0  # c_{r-1}, where the far cursor starts
    for pos in range(0, r - 1, step):
        ahead = running(pos, ahead, min(step, r - 1 - pos))[-1]
    behind = total = 0.0
    for pos in range(0, n, step):
        k = min(step, n - pos)
        v = running(pos + r - 1, ahead, k)
        ahead = v[-1]
        c = running(pos, behind, k)
        v -= c
        behind = c[-1]
        yc = y[pos:pos + k] - mean
        v *= 2.0
        v += yc
        v *= yc
        total += v.sum()
    return float(total / n / r)


def _disjoint_maxima(chunks, r: int, n_blocks: int) -> np.ndarray:
    """The maxima of the ``n_blocks`` length-``r`` blocks of the concatenated ``chunks``.

    A block split between chunks is carried as its partial maximum.
    """
    maxima = np.empty(n_blocks)
    done, filled, partial = 0, 0, -np.inf
    for x in chunks:
        if filled:
            head = x[:r - filled]
            partial = max(partial, head.max())
            filled += head.size
            x = x[head.size:]
            if filled == r:
                maxima[done] = partial
                done, filled = done + 1, 0
        full = x.size // r
        maxima[done:done + full] = x[:full * r].reshape(full, r).max(axis=1)
        done += full
        if x.size > full * r:
            partial, filled = x[full * r:].max(), x.size - full * r
    return maxima


def _sliding_values(chunks, r: int, n: int, windows) -> np.ndarray:
    """The ``n - r + 1`` values of all length-``r`` windows of the concatenated
    ``chunks``, which hold ``n`` values; ``windows(x)`` gives those of the
    ``x.size - r + 1`` windows of a run ``x``.

    The last ``r - 1`` values of a chunk open the next chunk's windows, so only
    those values and one chunk are held beside the result.
    """
    values = np.empty(n - r + 1)
    done, tail = 0, np.empty(0)
    for x in chunks:
        run = np.concatenate([tail, x]) if tail.size else x
        if run.size >= r:
            part = windows(run)
            values[done:done + part.size] = part
            done += part.size
        tail = run[max(0, run.size - (r - 1)):].copy()
    return values
