"""Deterministic numerical kernels.

Composite Gauss-Legendre nodes on the unit interval and quadrature on
the unit square, a two-sided bivariate ECDF distance, histogram binning
of pair samples, and the second singular value of the normalized binned
operator from a dense SVD.

The ECDF distance sorts the sample once, by x then y, and takes both
sides of every jump from one merge-counting pass over y in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, ValidationError


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
        if not 2 <= int(self.nodes_per_axis) <= 1024:
            raise ValidationError("nodes_per_axis must be in [2, 1024]")
        if not 1 <= int(self.subdivisions) <= 4096:
            raise ValidationError("subdivisions must be in [1, 4096]")
        object.__setattr__(self, "nodes_per_axis", int(self.nodes_per_axis))
        object.__setattr__(self, "subdivisions", int(self.subdivisions))

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


def _pairs(sample) -> np.ndarray:
    """The ``(n, 2)`` float pairs of a :class:`~mocorr.mo.PairSample` or array, ``n >= 1``."""
    pairs = np.asarray(getattr(sample, "pairs", sample), dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValidationError("sample must be an (n, 2) array of pairs")
    if pairs.shape[0] == 0:
        raise ValidationError("sample must contain at least one pair")
    return pairs


# ---------------------------------------------------------------------------
# Bivariate ECDF distance


def _dense_codes(a: np.ndarray) -> np.ndarray:
    # Integer codes preserving order and ties.
    _, codes = np.unique(a, return_inverse=True)
    return codes.astype(np.int64)


def _count_prev(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each position i, count earlier positions j with
    codes[j] < codes[i] and with codes[j] <= codes[i].

    Bottom-up merge counting of the inclusive side; O(n log^2 n) with
    vectorized levels.  The last level leaves the codes in stable sorted
    order, where the earlier equal codes of each position are its offset
    in its run, so the strict side needs no search of its own.
    """
    n = codes.shape[0]
    size = 1 << int(np.ceil(np.log2(n))) if n > 1 else 1
    pad_code = codes.max(initial=0) + 1
    ys = np.full(size, pad_code, dtype=np.int64)
    ys[:n] = codes
    pos = np.arange(size)
    le = np.zeros(size, dtype=np.int64)
    offset = pad_code + 1
    width = 1
    while width < size:
        pairs = size // (2 * width)
        block = ys.reshape(pairs, 2 * width)
        pos_block = pos.reshape(pairs, 2 * width)
        # Rows are value-disjoint after offsetting, so one flat search works.
        row_off = (np.arange(pairs, dtype=np.int64) * offset)[:, None]
        flat_left = (block[:, :width] + row_off).ravel()
        flat_right = (block[:, width:] + row_off).ravel()
        located = np.searchsorted(flat_left, flat_right, side="right")
        located -= np.repeat(np.arange(pairs, dtype=np.int64) * width, width)
        le[pos_block[:, width:].ravel()] += located
        order = np.argsort(block, axis=1, kind="stable")
        ys = np.take_along_axis(block, order, axis=1).ravel()
        pos = np.take_along_axis(pos_block, order, axis=1).ravel()
        width *= 2
    equal_before = np.empty(size, dtype=np.int64)
    equal_before[pos] = np.arange(size) - _run_starts(ys)
    return le[:n] - equal_before[:n], le[:n]


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Index of the first row of each row's run of identical ``keys``."""
    new_run = np.zeros(keys[0].shape[0], dtype=bool)
    new_run[0] = True
    for key in keys:
        new_run[1:] |= key[1:] != key[:-1]
    return np.maximum.accumulate(np.where(new_run, np.arange(new_run.shape[0]), 0))


def ecdf_ks(sample, cdf) -> float:
    """Kolmogorov-Smirnov style distance between a pair sample and a cdf.

    The empirical joint cdf is compared with ``cdf`` at every sample
    point from both sides of the jump: with inclusive counts
    ``#{x_j <= x_i, y_j <= y_i}/n`` and with strict counts (the
    lower-left corner of the jump cell).  ``cdf`` must broadcast over
    coordinate arrays.

    Parameters
    ----------
    sample : PairSample or (n, 2) array
    cdf : callable
        ``cdf(x, y) -> array`` of joint cdf values.

    Returns
    -------
    float
        ``max_i max(|F_n(x_i, y_i) - C(x_i, y_i)|, |F_n(x_i-, y_i-) - C(x_i, y_i)|)``.
    """
    pairs = _pairs(sample)
    n = pairs.shape[0]
    x, y = pairs[:, 0], pairs[:, 1]
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("sample coordinates must be finite")
    target = np.asarray(cdf(x, y), dtype=float)
    if target.shape != x.shape:
        raise ValidationError("cdf must return one value per sample point")
    if not np.all(np.isfinite(target)):
        raise ValidationError("cdf returned non-finite values on the sample")

    # In (x asc, y asc) order every row before i has x_j <= x_i.  Of the
    # earlier rows with y_j < y_i, those in i's x-run do not have x_j < x_i,
    # and they are the rows from the x-run's start to the (x, y)-run's.
    # The later rows that count inclusively are the rest of i's (x, y) run,
    # so le + 1 is the inclusive count at the run's last row; at its other
    # rows it lies between the strict and inclusive counts of the same
    # point, where the cdf takes the same value, so it never raises the
    # maximum.
    cy = _dense_codes(y)
    order = np.lexsort((cy, x))
    xs, ys = x[order], cy[order]
    lt, le = _count_prev(ys)
    strict = lt - (_run_starts(xs, ys) - _run_starts(xs))
    inclusive = le + 1
    target = target[order]
    upper = np.abs(inclusive / n - target)
    lower = np.abs(strict / n - target)
    return float(max(upper.max(), lower.max()))


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


def bin_pairs(sample, m: int) -> BinnedOperator:
    """Histogram a copula-scale pair sample onto an m x m grid.

    Coordinates must lie in [0, 1]; the value 1.0 falls in the last bin.
    Bin ``k`` is ``[e_k, e_{k+1})`` with ``e = linspace(0, 1, m + 1)``,
    so the counts equal those of ``np.histogram2d`` on ``[0, 1]^2``.
    A :class:`~mocorr.mo.PairSample` of a copula-scale family checked
    its range on construction and is not scanned again.
    """
    pairs = _pairs(sample)
    if not 2 <= int(m) <= 4096:
        raise ValidationError("m must be in [2, 4096]")
    m = int(m)
    # min/max propagate NaN, so the comparison also rejects it.
    if not getattr(sample, "copula_scale", False) \
            and not (pairs.min() >= 0.0 and pairs.max() <= 1.0):
        raise ValidationError("coordinates must lie in [0, 1] (copula scale)")
    edges = np.linspace(0.0, 1.0, m + 1)
    x = pairs.ravel()  # u0, v0, u1, v1, ...
    idx = (x * m).astype(np.intp)
    # x * m can round across an edge by one ulp, so check against the
    # edges themselves; the infinite ends send x = 1 to the last bin.
    idx -= x < np.append(edges[:m], np.inf)[idx]
    idx += x >= np.append(edges[1:m], np.inf)[idx]
    counts = np.bincount(idx[0::2] * m + idx[1::2], minlength=m * m).reshape(m, m)
    return BinnedOperator(counts / pairs.shape[0])


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
