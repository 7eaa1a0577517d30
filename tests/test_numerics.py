import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mocorr.errors import EvaluationError, ValidationError
from mocorr.families import FAMILY_TABLE
from mocorr.extremes import GEVShape, gev_cdf
from mocorr.mo import (
    CopulaParams,
    MOParams,
    PairSample,
    copula_cdf,
    mo_cdf,
    mo_marginal_survival,
    mo_survival,
    mo_to_copula,
)
from mocorr.numerics import (
    BinnedOperator,
    QuadratureSpec,
    _bin_counts,
    bin_pairs,
    cell_masses,
    chi2_z,
    quad_2d,
    second_singular_value,
)
from mocorr.rng import RngStream, draw_uniforms


class TestQuadrature:
    def test_constant(self):
        assert quad_2d(lambda u, v: np.ones_like(u)) == pytest.approx(1.0, abs=1e-14)

    def test_bilinear(self):
        assert quad_2d(lambda u, v: u * v) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("a,b", [(3, 5), (20, 31), (63, 63)])
    def test_polynomial_exactness(self, a, b):
        # Gauss rules are exact through degree 2*nodes - 1 per axis.
        value = quad_2d(lambda u, v: u ** a * v ** b)
        assert value == pytest.approx(1.0 / ((a + 1) * (b + 1)), abs=1e-12)

    def test_kink_integrand_frozen_value(self):
        # Hand-computed covariance integral for phi = psi = 0.5 at the
        # lowest power index: 0.25 / 7.
        spec = QuadratureSpec(32, 128)
        value = quad_2d(
            lambda u, v: np.minimum(u ** 0.5 * v, u * v ** 0.5) - u * v, spec)
        assert value == pytest.approx(0.25 / 7.0, abs=1e-8)

    def test_nonfinite_integrand_reported(self):
        with np.errstate(invalid="ignore"), pytest.raises(EvaluationError, match="node"):
            quad_2d(lambda u, v: np.log(u - 0.5))

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            QuadratureSpec(0, 1)


class TestCellMassesAndChi2:
    def test_independence_masses_are_the_cell_areas(self):
        t = np.linspace(0.0, 1.0, 9)
        masses = cell_masses(lambda u, v: u * v, t, t)
        assert masses.shape == (8, 8)
        np.testing.assert_allclose(masses, 1.0 / 64, rtol=0, atol=1e-17)

    def test_edges_falling_on_both_axes_give_the_same_masses(self):
        c = CopulaParams(0.3, 0.7)
        t = np.linspace(0.0, 1.0, 17)
        rising = cell_masses(lambda u, v: copula_cdf(c, u, v), t, t)
        falling = cell_masses(lambda u, v: copula_cdf(c, u, v), t[::-1], t[::-1])
        np.testing.assert_array_equal(falling, rising[::-1, ::-1])

    @pytest.mark.parametrize("family, args, copula", [
        ("mo", (1.0, 2.0, 1.5), lambda p: mo_to_copula(p)),
        ("mo", (0.3, 2.5, 0.4), lambda p: mo_to_copula(p)),
        ("limit_gev", (0.3, 0.2), lambda p: CopulaParams(1 - p[0].zeta, 1 - p[0].zeta)),
        ("limit_gev", (0.7, -0.5), lambda p: CopulaParams(1 - p[0].zeta, 1 - p[0].zeta)),
        ("limit_gev", (0.1, 0.0), lambda p: CopulaParams(1 - p[0].zeta, 1 - p[0].zeta)),
        ("limit_gev", (0.5, 3.0), lambda p: CopulaParams(1 - p[0].zeta, 1 - p[0].zeta)),
    ])
    def test_native_masses_are_the_copula_masses(self, family, args, copula):
        # Each family's own cdf at the preimages of the uniform edges, the
        # far ones at +-DBL_MAX, against the copula on the uniform edges.
        p = FAMILY_TABLE[family].params(*args)
        native = FAMILY_TABLE[family].masses(p, 16)
        assert native.min() >= 0.0
        np.testing.assert_allclose(native, FAMILY_TABLE["copula"].masses(copula(p), 16),
                                   rtol=0, atol=5e-16)

    def test_z_from_the_formula(self):
        # Four cells expected 25 each: X^2 = (25 + 25 + 0 + 0) / 25 on 3 df.
        h = 2.0 / 27.0
        expected = ((2.0 / 3.0) ** (1.0 / 3.0) - 1.0 + h) / math.sqrt(h)
        z = chi2_z(np.array([[30, 20], [25, 25]]), np.full((2, 2), 0.25))
        assert z == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("quantile", [0.5, 0.9, 0.999, 0.99997])
    def test_z_is_the_normal_quantile_of_the_chi2_tail(self, quantile):
        # At the battery's 255 degrees of freedom, Wilson-Hilferty is
        # within 0.01 of the exact normal score, out to z = 4.
        stats = pytest.importorskip("scipy.stats")
        k = 255
        x2 = stats.chi2.ppf(quantile, k)
        n = 1_000_000
        masses = np.full(k + 1, 1.0 / (k + 1))
        # Counts that give X^2 = x2: one cell high, one low, the rest exact.
        d = math.sqrt(x2 * (n / (k + 1)) / 2.0)
        counts = np.full(k + 1, n / (k + 1))
        counts[0] += d
        counts[1] -= d
        assert chi2_z(counts, masses) == pytest.approx(stats.norm.ppf(quantile), abs=0.01)

    def test_cells_expected_below_five_are_pooled(self):
        masses = np.array([0.45, 0.45, 0.04, 0.03, 0.03])
        # Expected 45, 45 and a pool of 10 holding 10: X^2 = 0 on 2 df.
        z = chi2_z(np.array([45, 45, 2, 5, 3]), masses)
        h = 2.0 / 18.0
        assert z == pytest.approx((-1.0 + h) / math.sqrt(h), rel=1e-15)

    def test_a_pool_expected_below_five_joins_the_smallest_cell(self):
        # Alone, a pool expected to hold 0.01 points that holds one would
        # add 98 to X^2; with the cell expected 49.99 it adds nothing.
        masses = np.array([0.5, 0.4999, 0.00006, 0.00004])
        z = chi2_z(np.array([50, 49, 0, 1]), masses)
        h = 2.0 / 9.0
        assert z == pytest.approx((-1.0 + h) / math.sqrt(h), abs=1e-6)

    def test_a_point_in_a_cell_of_no_mass_is_infinite(self):
        masses = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert chi2_z(np.array([[500, 0], [0, 500]]), masses) < 0.0
        assert chi2_z(np.array([[500, 1], [0, 499]]), masses) == math.inf

    @pytest.mark.parametrize("counts, masses, message", [
        (np.ones(4), np.full(3, 1.0 / 3), "one count per cell"),
        (np.ones(4), np.full(4, 0.3), "summing to 1"),
        (np.array([10, 0]), np.array([1.0, 0.0]), "two cells"),
    ])
    def test_refusals(self, counts, masses, message):
        with pytest.raises(ValidationError, match=message):
            chi2_z(counts, masses)

    def test_counts_are_those_behind_bin_pairs(self):
        pairs = RngStream(9).generator().random((1000, 2))
        counts = _bin_counts(pairs, 8)
        assert counts.dtype.kind == "i" and counts.sum() == 1000
        np.testing.assert_array_equal(bin_pairs(pairs, 8).joint_mass, counts / 1000)


class TestBinnedOperator:
    def test_single_cell(self):
        pts = np.full((50, 2), 0.01)
        op = bin_pairs(pts, 4)
        assert op.joint_mass[0, 0] == 1.0
        assert op.joint_mass.sum() == 1.0

    def test_comonotone_two_bins(self):
        u = RngStream(2).generator().random(1000)
        op = bin_pairs(np.column_stack([u, u]), 2)
        assert op.joint_mass[0, 1] == 0.0
        assert op.joint_mass[1, 0] == 0.0

    def test_uniform_cells_concentrate(self):
        pts = draw_uniforms(RngStream(13), 1_000_000, 2)
        op = bin_pairs(pts, 10)
        assert np.max(np.abs(op.joint_mass - 0.01)) < 0.01

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="copula scale"):
            bin_pairs(np.array([[0.5, 1.5]]), 4)

    def test_nan_mass_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            BinnedOperator(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_value_one_lands_in_last_bin(self):
        op = bin_pairs(np.array([[1.0, 1.0]]), 3)
        assert op.joint_mass[2, 2] == 1.0

    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match="copula scale"):
            bin_pairs(np.array([[0.5, np.nan]]), 4)

    @pytest.mark.parametrize("m", [3, 10, 64, 100])
    def test_counts_match_histogram2d_at_the_edges(self, m):
        # Every edge, its floating-point neighbours on both sides, and 1.0:
        # the values where floor(x * m) and the edge array can disagree.
        edges = np.linspace(0.0, 1.0, m + 1)
        x = np.concatenate([edges, np.nextafter(edges[1:], 0.0),
                            np.nextafter(edges[:-1], 1.0), [1.0]])
        y = np.roll(x, 7)
        reference, _, _ = np.histogram2d(x, y, bins=m, range=[[0.0, 1.0], [0.0, 1.0]])
        op = bin_pairs(np.column_stack([x, y]), m)
        np.testing.assert_array_equal(op.joint_mass, reference / len(x))


class TestSecondSingularValue:
    def test_independence_product_masses(self):
        row = np.array([0.1, 0.2, 0.3, 0.4])
        col = np.array([0.25, 0.25, 0.25, 0.25])
        op = BinnedOperator(np.outer(row, col))
        assert second_singular_value(op)[0] <= 1e-8

    def test_comonotone_two_by_two(self):
        op = BinnedOperator(np.diag([0.5, 0.5]))
        assert second_singular_value(op)[0] == pytest.approx(1.0, abs=1e-10)

    def test_matches_full_svd(self):
        gen = RngStream(21).generator()
        joint = gen.random((16, 16))
        joint /= joint.sum()
        op = BinnedOperator(joint)
        A = joint / np.sqrt(np.outer(op.row_marginal, op.col_marginal))
        reference = np.linalg.svd(A, compute_uv=False)[1]
        assert second_singular_value(op)[0] == pytest.approx(reference, abs=1e-9)

    def test_permutation_invariance(self):
        gen = RngStream(22).generator()
        joint = gen.random((12, 12))
        joint /= joint.sum()
        base, _ = second_singular_value(BinnedOperator(joint))
        pr, pc = gen.permutation(12), gen.permutation(12)
        permuted, _ = second_singular_value(BinnedOperator(joint[np.ix_(pr, pc)]))
        assert permuted == pytest.approx(base, abs=1e-9)

    def test_value_in_unit_interval(self):
        sample = draw_uniforms(RngStream(33), 50_000, 2)
        value, _ = second_singular_value(bin_pairs(sample, 16))
        assert 0.0 <= value <= 1.0

    def test_gap_is_distance_to_third_value(self):
        gen = RngStream(34).generator()
        joint = gen.random((16, 16))
        joint /= joint.sum()
        op = BinnedOperator(joint)
        A = joint / np.sqrt(np.outer(op.row_marginal, op.col_marginal))
        reference = np.linalg.svd(A, compute_uv=False)
        _, gap = second_singular_value(op)
        assert gap == pytest.approx(reference[1] - reference[2], abs=1e-12)

    def test_gap_with_two_occupied_bins_is_the_value(self):
        op = BinnedOperator(np.array([[0.3, 0.1], [0.1, 0.5]]))
        value, gap = second_singular_value(op)
        assert gap == value

    def test_top_value_off_one_rejected(self):
        # Marginals that do not normalize the joint mass, set past the
        # constructor's checks, break the invariant sigma1 = 1.
        op = BinnedOperator(np.diag([0.5, 0.5]))
        object.__setattr__(op, "row_marginal", np.array([0.25, 0.25]))
        with pytest.raises(EvaluationError, match="top singular value"):
            second_singular_value(op)

    def test_empty_rows_are_tolerated(self):
        # A bin with zero mass must be excluded, not divided by.
        joint = np.zeros((4, 4))
        joint[0, 0] = joint[1, 1] = 0.5
        op = BinnedOperator(joint)
        assert second_singular_value(op)[0] == pytest.approx(1.0, abs=1e-10)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2 ** 32))
def test_random_operators_stay_in_unit_interval(m, seed):
    gen = np.random.default_rng(seed)
    joint = gen.random((m, m))
    joint /= joint.sum()
    value, _ = second_singular_value(BinnedOperator(joint))
    assert 0.0 <= value <= 1.0


def _pairs_with(x):
    return np.column_stack([np.full_like(x, 0.5), x])


#: Every coordinate range check in the package, entered through its public
#: call with ``x`` holding the coordinates under test: ``(call, low, high,
#: non-finite message, out-of-range message, message for an empty x)``.
#: A message of None means the call answers, for an empty x an empty array.
RANGE_SITES = {
    "PairSample": (lambda x: PairSample(_pairs_with(x), "copula"), 0.0, 1.0,
                   "pair coordinates must be finite",
                   "family 'copula' has coordinates outside [0, 1]",
                   "sample must contain at least one pair"),
    "mo_cdf": (lambda x: mo_cdf(MOParams(1.0, 2.0, 1.5), np.full_like(x, 0.5), x),
               0.0, np.inf, "cdf coordinates must be finite",
               "cdf coordinates must be nonnegative", None),
    "mo_marginal_survival": (lambda x: mo_marginal_survival(MOParams(1.0, 2.0, 1.5), 2, x),
                             0.0, np.inf, "coordinate must be nonnegative and finite",
                             "coordinate must be nonnegative and finite", None),
    "copula_cdf": (lambda x: copula_cdf(CopulaParams(0.3, 0.7), x, np.full_like(x, 0.5)),
                   0.0, 1.0, "copula arguments must lie in the unit square [0, 1]^2",
                   "copula arguments must lie in the unit square [0, 1]^2", None),
    "bin_pairs": (lambda x: bin_pairs(_pairs_with(x), 8), 0.0, 1.0,
                  "coordinates must lie in [0, 1] (copula scale)",
                  "coordinates must lie in [0, 1] (copula scale)",
                  "sample must contain at least one pair"),
    "gev_cdf": (lambda x: gev_cdf(GEVShape(0.2), x), -np.inf, np.inf, "x must be finite",
                None, None),
}


def _range_cases():
    for site, (call, low, high, finite, outside, _) in RANGE_SITES.items():
        for value in (np.nan, np.inf, -np.inf):
            yield pytest.param(call, value, finite, id=f"{site}-{value}")
        for bound, away in ((low, -np.inf), (high, np.inf)):
            if np.isfinite(bound):
                yield pytest.param(call, np.nextafter(bound, away), outside,
                                   id=f"{site}-ulp-outside-{bound:g}")
                yield pytest.param(call, bound, None, id=f"{site}-on-{bound:g}")


@pytest.mark.parametrize("call,value,message", _range_cases())
def test_each_range_check_keeps_its_message(call, value, message):
    x = np.array([0.25, value, 0.5])
    if message is None:
        call(x)
    else:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call(x)


@pytest.mark.parametrize("site", sorted(RANGE_SITES))
def test_each_range_check_on_an_empty_array(site):
    call, *_, message = RANGE_SITES[site]
    if message is None:
        assert np.size(call(np.empty(0))) == 0
    else:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call(np.empty(0))


def test_a_non_finite_value_outranks_an_out_of_range_one():
    # Across both arguments: the finiteness check runs first.
    with pytest.raises(ValidationError, match="^survival coordinates must be finite$"):
        mo_survival(MOParams(1.0, 2.0, 1.5), -1.0, np.nan)
