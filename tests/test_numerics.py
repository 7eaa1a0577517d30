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
    pair_sample,
    sample_copula,
)
from mocorr.numerics import (
    BinnedOperator,
    QuadratureSpec,
    bin_pairs,
    ecdf_ks,
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


class TestEcdfKs:
    def test_single_point_against_independence(self):
        sample = np.array([[0.5, 0.5]])
        assert ecdf_ks(sample, lambda u, v: u * v) == pytest.approx(0.75)

    def test_matches_brute_force(self):
        gen = RngStream(5).generator()
        pts = gen.random((400, 2))
        # Duplicate some rows to exercise the tie handling.
        pts[50:60] = pts[0]
        pts[:, 1][100:110] = pts[:, 1][0]
        cases = [pts]
        # Both coordinates tie: points of a k x k lattice.
        cases += [gen.integers(0, k, (n, 2)) / k for k in (1, 2, 3, 5) for n in (1, 2, 60)]
        ties_x, ties_y = pts[:60].copy(), pts[:60].copy()
        ties_x[:, 0] = np.round(ties_x[:, 0] * 4) / 4
        ties_y[:, 1] = np.round(ties_y[:, 1] * 4) / 4
        cases += [ties_x, ties_y, np.repeat(pts[:1], 30, axis=0), pts[:1], pts[:2],
                  4.0 * pts[:300] - 3.0, gen.integers(-3, 2, (60, 2)).astype(float)]

        def brute(sample, cdf):
            worst = 0.0
            n = len(sample)
            for a, b in sample:
                le = np.sum((sample[:, 0] <= a) & (sample[:, 1] <= b)) / n
                lt = np.sum((sample[:, 0] < a) & (sample[:, 1] < b)) / n
                c = float(cdf(np.array([a]), np.array([b]))[0])
                worst = max(worst, abs(le - c), abs(lt - c))
            return worst

        def spike(a, b, height):
            return lambda u, v: np.where((u == a) & (v == b), height, 0.5)

        for case in cases:
            cdfs = [lambda u, v: u * v]
            if len(case) <= 60:
                # A cdf far off at one point makes the distance that point's
                # own count, 2 - strict/n or 1 + inclusive/n, so that no
                # miscount hides under the maximum.
                cdfs += [spike(a, b, h) for a, b in np.unique(case, axis=0)
                         for h in (-1.0, 2.0)]
            for cdf in cdfs:
                assert ecdf_ks(case, cdf) == pytest.approx(brute(case, cdf), abs=1e-15)

    # One draw per family at the battery's ks_n = 100,000.  A single
    # miscounted point moves the distance by ~1e-5, far inside every KS
    # threshold, so the counts are pinned by the exact float.
    @pytest.mark.parametrize("family, args, expected", [
        ("mo", (1.0, 2.0, 1.5), 0.002782952173324249),
        ("copula", (0.3, 0.7), 0.002893290173391516),
        ("d_xi", (0.5,), 0.0030692637545379764),
        ("limit_gev", (0.3, 0.2), 0.0030090992928311633),
        ("gaussian", (0.5,), 0.0027365063983201265),
    ])
    def test_exact_value_at_battery_size(self, family, args, expected):
        record = FAMILY_TABLE[family]
        p = record.params(*args)
        sample = pair_sample(family, p, 100_000, RngStream(11))
        assert ecdf_ks(sample, lambda x, y: record.cdf(p, x, y)) == expected

    def test_sample_against_own_cdf_small(self):
        c = CopulaParams(0.4, 0.8)
        sample = sample_copula(c, 100_000, RngStream(17))
        assert ecdf_ks(sample, lambda u, v: copula_cdf(c, u, v)) < 0.01

    def test_identical_statistic_for_agreeing_cdfs(self):
        pts = RngStream(9).generator().random((200, 2))
        a = ecdf_ks(pts, lambda u, v: u * v)
        b = ecdf_ks(pts, lambda u, v: u * v + 0.0)
        assert a == b

    def test_empty_sample_rejected(self):
        with pytest.raises(ValidationError):
            ecdf_ks(np.empty((0, 2)), lambda u, v: u * v)


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
    "ecdf_ks": (lambda x: ecdf_ks(_pairs_with(x), lambda u, v: u * v), -np.inf, np.inf,
                "sample coordinates must be finite", None,
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
