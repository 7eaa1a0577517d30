import decimal
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import sampler_z
from mocorr.errors import DivergentMomentError, EvaluationError, ValidationError
from mocorr import extremes
from mocorr.extremes import (
    DISTRIBUTIONS,
    MAX_SEQUENCE_LENGTH,
    Functional,
    GEVShape,
    ZetaOverlap,
    block_maxima_simulate,
    check_moments,
    doa_scaling,
    gev_cdf,
    gev_quantile,
    indicator_cov_exact,
    limit_copula_cdf,
    limit_pair_corr,
    sample_limit_pair,
    sigma2_db,
    sigma2_sb,
    sigma2_sb_indicator_exact,
    sliding_max,
)
from mocorr.maxcorr import estimate_max_corr
from mocorr.mo import PairSample, copula_pair_from_uniforms
from mocorr.numerics import QuadratureSpec
from mocorr.rng import RngStream, chunk_sizes, draw_iid, draw_uniforms

GUMBEL_VAR = math.pi ** 2 / 6.0

shapes = st.floats(min_value=-0.9, max_value=2.0)
levels = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)

FAST_ZETA_NODES = 16


class TestGev:
    def test_frozen_values(self):
        assert gev_cdf(GEVShape(1.0), 0.0) == pytest.approx(math.exp(-1.0), abs=1e-16)
        assert gev_cdf(GEVShape(0.0), 0.0) == pytest.approx(math.exp(-1.0), abs=1e-16)

    def test_support_endpoints(self):
        g = GEVShape(-0.5)
        # upper endpoint -1/gamma = 2
        assert gev_cdf(g, 2.0) == 1.0
        assert gev_cdf(g, 5.0) == 1.0
        g = GEVShape(1.0)
        assert gev_cdf(g, -1.0) == 0.0
        assert gev_cdf(g, -3.0) == 0.0

    @given(shapes, levels)
    def test_quantile_round_trip(self, gamma, p):
        g = GEVShape(gamma)
        assert gev_cdf(g, gev_quantile(g, p)) == pytest.approx(p, abs=1e-9)

    def test_quantile_domain(self):
        with pytest.raises(ValidationError):
            gev_quantile(GEVShape(0.0), 0.0)
        with pytest.raises(ValidationError):
            gev_quantile(GEVShape(0.0), 1.0)
        with pytest.raises(ValidationError, match=r"\(0, 1\)"):
            gev_quantile(GEVShape(0.0), float("nan"))
        with pytest.raises(ValidationError, match=r"\(0, 1\)"):
            gev_quantile(GEVShape(0.5), np.array([0.2, np.nan, 0.7]))

    @pytest.mark.parametrize("gamma", [0.0, 1e-9, 0.2, -0.25, -3.0, 5.0])
    def test_quantile_matches_the_direct_expression(self, gamma):
        # The Gumbel-scale route performs the same float operations in the
        # same order as the direct expression, so the bits agree.
        q = np.concatenate([draw_uniforms(RngStream(99), 200_000, 1).ravel(),
                            [5e-324, 1e-300, 0.5, 1.0 - 2.0 ** -53]])
        logs = -np.log(q)
        expected = -np.log(logs) if gamma == 0.0 else np.expm1(-gamma * np.log(logs)) / gamma
        assert np.array_equal(gev_quantile(GEVShape(gamma), q), expected)

    def test_quantile_leaves_the_callers_array_alone(self):
        for q in (np.array(0.3), np.array([0.1, 0.5, 0.9])):
            before = q.copy()
            gev_quantile(GEVShape(0.2), q)
            np.testing.assert_array_equal(q, before)

    def test_cdf_monotone(self):
        x = np.linspace(-4, 6, 200)
        for gamma in (-0.5, 0.0, 1.0):
            values = gev_cdf(GEVShape(gamma), x)
            assert np.all(np.diff(values) >= 0)

    @pytest.mark.parametrize("gamma", [5e-324, -5e-324, 1e-310])
    def test_subnormal_gamma_is_the_gumbel_law(self, gamma):
        # gamma*s keeps no digits of s below the smallest normal float.
        g, gumbel = GEVShape(gamma), GEVShape(0.0)
        q = np.array([1e-300, 0.1, 0.5, 0.8, 0.99, 1.0 - 2.0 ** -53])
        assert np.array_equal(gev_quantile(g, q), gev_quantile(gumbel, q))
        x = np.array([-700.0, -3.0, 0.0, 1.5, 40.0, 1e300])
        assert np.array_equal(gev_cdf(g, x), gev_cdf(gumbel, x))
        assert gev_cdf(g, 1.5) == gev_cdf(gumbel, 1.5)
        assert g.gamma == gamma

    def test_gamma_must_be_finite(self):
        with pytest.raises(ValidationError):
            GEVShape(float("nan"))

    @staticmethod
    def two_branch_cdf(gamma, x):
        """The cdf as a Gumbel branch and a clamped GEV branch filled outside the support."""
        a = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if abs(gamma) < 2.2250738585072014e-308:
                return np.exp(-np.exp(-a))
            w = gamma * a
            # Past an overflowing gamma*x, log1p(gamma*x) is log|gamma| + log|x|.
            gumbel = np.where(w == np.inf, np.log(abs(gamma)) + np.log(np.abs(a)),
                              np.log1p(np.maximum(w, -1.0))) / gamma
            core = np.exp(-np.exp(-gumbel))
        return np.where(w > -1.0, core, 0.0 if gamma > 0 else 1.0)

    @pytest.mark.parametrize("gamma", [0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e-9,
                                       0.2, -0.3, 1.0, -1.0, 50.0, 1e300, -1e300,
                                       1.7976931348623157e308])
    def test_cdf_is_the_two_branch_expression(self, gamma):
        # One inverse map gives the same bits as the two branches, without a
        # warning, at the support endpoints and at the far ends of the line.
        x = np.concatenate([np.linspace(-50.0, 50.0, 2001),
                            [-1.7976931348623157e308, -1e300, -700.0, 700.0, 1e300,
                             1.7976931348623157e308]])
        end = -1.0 / gamma if gamma != 0.0 else math.inf
        if math.isfinite(end):
            x = np.concatenate([x, [end, np.nextafter(end, -np.inf), np.nextafter(end, np.inf)]])
        assert np.array_equal(gev_cdf(GEVShape(gamma), x), self.two_branch_cdf(gamma, x))


class TestLimitCopula:
    def test_full_overlap_is_comonotone(self):
        g = GEVShape(0.3)
        x, y = 0.7, 1.4
        expected = min(gev_cdf(g, x), gev_cdf(g, y))
        assert limit_copula_cdf(ZetaOverlap(0.0), g, x, y) == pytest.approx(
            expected, abs=1e-15)

    def test_no_overlap_is_independence(self):
        g = GEVShape(0.3)
        x, y = 0.7, 1.4
        expected = gev_cdf(g, x) * gev_cdf(g, y)
        assert limit_copula_cdf(ZetaOverlap(1.0), g, x, y) == pytest.approx(
            expected, abs=1e-15)

    def test_frozen_half_overlap(self):
        value = limit_copula_cdf(ZetaOverlap(0.5), GEVShape(1.0), 0.0, 0.0)
        assert value == pytest.approx(0.22313016014842982, abs=1e-16)

    def test_zeta_domain(self):
        with pytest.raises(ValidationError):
            ZetaOverlap(1.5)


class TestSampleLimitPair:
    def test_overflow_is_a_numerical_failure(self):
        # expm1(200*s) overflows for Gumbel values s above 3.55, about 3% of them.
        with pytest.raises(EvaluationError, match="gamma=200"):
            sample_limit_pair(ZetaOverlap(0.3), GEVShape(200.0), 1000, RngStream(79))

    def test_full_overlap_equal_coordinates(self):
        s = sample_limit_pair(ZetaOverlap(0.0), GEVShape(0.5), 1000, RngStream(80))
        np.testing.assert_allclose(s.pairs[:, 0], s.pairs[:, 1], rtol=1e-12)

    def test_ks_against_cdf(self):
        # The battery's chi-square: the draw fits its own cdf, not zeta + 0.04.
        z, g = ZetaOverlap(0.4), GEVShape(0.2)
        s = sample_limit_pair(z, g, 100_000, RngStream(81))
        assert sampler_z(s, "limit_gev", (z, g)) < 4.0
        assert sampler_z(s, "limit_gev", (ZetaOverlap(0.44), g)) > 4.0

    def test_estimator_recovers_overlap_complement(self):
        z, g = ZetaOverlap(0.5), GEVShape(1.0)
        s = sample_limit_pair(z, g, 1_000_000, RngStream(82))
        u = np.column_stack([gev_cdf(g, s.pairs[:, 0]), gev_cdf(g, s.pairs[:, 1])])
        copula_scale = PairSample(u, "copula", {"phi": 0.5, "psi": 0.5}, s.seed)
        est = estimate_max_corr(copula_scale, m=64)
        assert abs(est.value - 0.5) < 0.02

    def test_support_follows_gamma(self):
        params = {"zeta": 0.3, "gamma": 0.2}
        with pytest.raises(ValidationError, match="outside"):
            PairSample(np.array([[-10.0, 0.0]]), "limit_gev", params)
        # The endpoint -1/gamma is in the support; one ulp beyond it is not.
        for gamma, step in ((0.2, -1.0), (-0.2, 1.0)):
            params = {"zeta": 0.3, "gamma": gamma}
            endpoint = -1.0 / gamma
            PairSample(np.array([[endpoint, 0.0]]), "limit_gev", params)
            beyond = np.nextafter(endpoint, endpoint + step)
            with pytest.raises(ValidationError, match="outside"):
                PairSample(np.array([[0.0, beyond]]), "limit_gev", params)
        PairSample(np.array([[-1e300, 1e300]]), "limit_gev", {"zeta": 0.3, "gamma": 0.0})
        with pytest.raises(ValidationError, match="gamma"):
            PairSample(np.array([[0.0, 0.0]]), "limit_gev")


class TestFunctionals:
    def test_log_transform_gumbelizes(self):
        # after the log map every shape shares the Gumbel variance
        h = Functional("log_transform")
        # At gamma = 50 and -3, 1 + gamma*x rounds to 0 at the clipped
        # levels; on the Gumbel scale log_transform never forms it.
        for gamma in (-3.0, -0.25, 0.0, 0.5, 1.0, 50.0):
            var, se = sigma2_db(h, GEVShape(gamma), 400_000, RngStream(83))
            assert abs(var - GUMBEL_VAR) <= 3 * se

    def test_log_transform_is_identity_at_gumbel(self):
        x = np.linspace(-2, 5, 50)
        np.testing.assert_allclose(
            Functional("log_transform").evaluate(x, 0.0), x, atol=1e-12)

    def test_log_transform_at_a_tiny_gamma_is_near_identity(self):
        # log(1 + gamma*x) would round gamma*x to a multiple of 2**-52.
        x = np.linspace(-2, 5, 50)
        np.testing.assert_allclose(
            Functional("log_transform").evaluate(x, 1e-10), x, rtol=1e-9, atol=0.0)
        with pytest.raises(ValidationError, match="support"):
            Functional("log_transform").evaluate(np.array([-1e10]), 1e-10)

    @pytest.mark.parametrize("gamma", [5e-324, -5e-324, 1e-310])
    def test_log_transform_at_a_subnormal_gamma_is_the_identity(self, gamma):
        # The Gumbel rule of gev_cdf and the quantile: gamma*x keeps no digits of x.
        assert Functional("log_transform").evaluate(1.5, gamma) == 1.5
        x = np.array([-1e300, -3.0, 0.0, 1.5, 1e300])
        assert np.array_equal(Functional("log_transform").evaluate(x, gamma), x)

    def test_log_transform_past_an_overflowing_gamma_x(self):
        # log1p(1e600) / 1e300 = 600 ln(10) / 1e300, though 1e300 * 1e300 overflows.
        h = Functional("log_transform")
        assert h.evaluate(1e300, 1e300) == pytest.approx(1.3815510557964274e-297, rel=1e-15)
        assert h.evaluate(-1e300, -1e300) == pytest.approx(-1.3815510557964274e-297, rel=1e-15)
        with pytest.raises(ValidationError, match="support"):
            h.evaluate(-1e300, 1e300)

    def test_indicator(self):
        h = Functional("indicator", threshold=0.25)
        np.testing.assert_array_equal(
            h.evaluate(np.array([0.0, 0.25, 0.3])), [0.0, 0.0, 1.0])

    def test_indicator_requires_threshold(self):
        with pytest.raises(ValidationError):
            Functional("indicator")

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            Functional("cube")


class TestMomentGuard:
    def test_square_heavy_tail_rejected(self):
        with pytest.raises(DivergentMomentError):
            check_moments(Functional("square"), GEVShape(0.5))

    def test_boundary_rejected(self):
        with pytest.raises(DivergentMomentError):
            check_moments(Functional("identity"), GEVShape(0.25))

    def test_valid_combinations_pass(self):
        check_moments(Functional("square"), GEVShape(0.1))
        check_moments(Functional("identity"), GEVShape(0.2))
        check_moments(Functional("log_transform"), GEVShape(5.0))
        check_moments(Functional("indicator", threshold=0.0), GEVShape(5.0))

    def test_empirical_guard_trips_on_dominant_term(self):
        values = np.zeros(20_000)
        values[0] = 1e12
        with pytest.raises(DivergentMomentError, match="single term"):
            check_moments(Functional("identity"), GEVShape(0.0), values)

    def test_nonfinite_values_rejected(self):
        values = np.array([0.0, np.inf] + [1.0] * 100)
        with pytest.raises(DivergentMomentError):
            check_moments(Functional("identity"), GEVShape(0.0), values)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    @pytest.mark.parametrize("size", [3, 50_000])
    def test_nan_and_minus_inf_rejected(self, bad, size):
        values = np.ones(size)
        values[size // 2] = bad
        with pytest.raises(DivergentMomentError, match="non-finite"):
            check_moments(Functional("identity"), GEVShape(0.0), values)

    def test_empty_values_pass(self):
        check_moments(Functional("identity"), GEVShape(0.0), np.array([]))

    @pytest.mark.parametrize("alpha", [0.8, 1.5, 3.0, 8.0])
    def test_blocked_guard_decides_as_the_centered_copy(self, alpha):
        # Heavy tails straddle the 1/2 share; 40,000 values make three blocks of the sum.
        for seed in range(20):
            values = np.random.default_rng(seed).pareto(alpha, 40_000)
            centered = values - values.mean()
            centered *= centered
            centered *= centered
            trips = centered.max() / centered.sum() > 0.5
            if trips:
                with pytest.raises(DivergentMomentError, match="single term"):
                    check_moments(Functional("identity"), GEVShape(0.0), values)
            else:
                check_moments(Functional("identity"), GEVShape(0.0), values)

    def test_guard_makes_no_copy_of_the_values(self):
        values = np.random.default_rng(5).standard_normal(1_000_000)
        tracemalloc.start()
        try:
            check_moments(Functional("identity"), GEVShape(0.0), values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * values.nbytes


class TestDisjointVariance:
    def test_indicator_closed_form(self):
        # Var(1{Y > 0}) at gamma=1: G(0) = e^{-1}
        p = 1.0 - math.exp(-1.0)
        target = p * (1.0 - p)
        var, se = sigma2_db(Functional("indicator", threshold=0.0), GEVShape(1.0),
                            500_000, RngStream(84))
        assert target == pytest.approx(0.23254415793482963, abs=1e-16)
        assert abs(var - target) <= 3 * se

    def test_gumbel_identity(self):
        var, se = sigma2_db(Functional("identity"), GEVShape(0.0),
                            500_000, RngStream(85))
        assert abs(var - GUMBEL_VAR) <= 3 * se

    def test_const_degenerate(self):
        var, _ = sigma2_db(Functional("const"), GEVShape(0.0), 10_000, RngStream(86))
        assert var == 0.0


class TestOverlapCovariance:
    def test_endpoints(self):
        # zeta = 0 is the comonotone pair Y1 = Y2; zeta = 1 is independent.
        h, g = Functional("identity"), GEVShape(0.0)
        corr0, _ = limit_pair_corr(h, g, ZetaOverlap(0.0), 200_000, RngStream(87))
        assert corr0 == pytest.approx(1.0, abs=1e-12)
        corr1, se1 = limit_pair_corr(h, g, ZetaOverlap(1.0), 200_000, RngStream(88))
        assert abs(corr1) <= 3 * se1

    def test_corr_bounded_by_overlap_complement(self):
        h, g = Functional("log_transform"), GEVShape(0.5)
        for i, zeta in enumerate((0.2, 0.5, 0.8)):
            corr, se = limit_pair_corr(h, g, ZetaOverlap(zeta), 200_000,
                                       RngStream(89).child(i))
            assert corr <= (1.0 - zeta) + 3 * se

    @pytest.mark.parametrize("n_mc", [1, 2, 3])
    def test_corr_rejects_too_few_pairs(self, n_mc):
        # Its SE needs two chunks of two pairs; fewer gave NaN.
        with pytest.raises(ValidationError, match="n_mc"):
            limit_pair_corr(Functional("identity"), GEVShape(0.0), ZetaOverlap(0.5),
                            n_mc, RngStream(91))

    @pytest.mark.parametrize("h", [Functional("const"), Functional("indicator", threshold=1e6),
                                   Functional("indicator", threshold=4.0)])
    def test_corr_rejects_functional_constant_on_the_draw(self, h):
        # The correlation divides by a zero standard deviation there; the
        # 4.0 indicator is constant on one SE chunk only.
        with pytest.raises(EvaluationError, match="zero variance"):
            limit_pair_corr(h, GEVShape(0.0), ZetaOverlap(0.5), 1000, RngStream(92))

    def test_indicator_exact_vs_mc(self):
        # Every node of sigma2_sb's covariance curve against the closed form.
        g, t = GEVShape(0.3), 0.8
        report = sigma2_sb(Functional("indicator", threshold=t), g, FAST_ZETA_NODES, 400_000,
                           RngStream(90))
        for zeta, cov, se in report.per_zeta:
            assert abs(cov - indicator_cov_exact(ZetaOverlap(zeta), g, t)) <= 3 * se


def _old_map_values(h, g, zeta, xyz):
    """``(h(Y1), h(Y2))`` through the copula sampler and ``gev_quantile``: the oracle."""
    u, v = copula_pair_from_uniforms(*xyz.T, 1.0 - zeta, 1.0 - zeta)
    return [np.asarray(h.evaluate(gev_quantile(g, np.clip(w, 1e-300, 1 - 1e-16)), g.gamma),
                       dtype=float) for w in (u, v)]


def _assert_close(new, old):
    # 1e-10 relative, or 1e-12 absolute near 0.
    assert abs(new - old) <= max(1e-10 * abs(old), 1e-12), (new, old)


class TestGumbelEngine:
    """The overlap integrand on the Gumbel scale against the uniform-scale map."""

    @pytest.mark.parametrize("h,gamma", [
        (Functional("identity"), 0.0), (Functional("identity"), 0.2),
        (Functional("identity"), -0.25), (Functional("square"), 0.1),
        (Functional("log_transform"), 0.2), (Functional("indicator", threshold=1.5), 0.5),
    ])
    def test_cov_matches_old_map_at_every_node(self, h, gamma):
        g = GEVShape(gamma)
        xyz = draw_uniforms(RngStream(96), 50_000, 3)
        gumbel = extremes._to_gumbel(xyz.copy())
        nodes, _ = QuadratureSpec(8, 1).axis_nodes()
        for zeta in nodes:
            new = extremes._cov_se(*extremes._pair_values(h, g, float(zeta), gumbel))
            old = extremes._cov_se(*_old_map_values(h, g, float(zeta), xyz))
            for a, b in zip(new, old):
                _assert_close(a, b)

    @pytest.mark.parametrize("gamma", [0.0, 0.2, -0.25, 0.5])
    @pytest.mark.parametrize("zeta", [0.0, 0.3, 1.0])
    def test_zero_uniform_is_clipped_like_the_old_map(self, zeta, gamma):
        h, g = Functional("identity"), GEVShape(gamma)
        xyz = draw_uniforms(RngStream(97), 8, 3)
        xyz[0] = 0.0
        xyz[1, 0] = xyz[2, 2] = xyz[3, 1] = 0.0
        new = extremes._pair_values(h, g, zeta, extremes._to_gumbel(xyz.copy()))
        for a, b in zip(new, _old_map_values(h, g, zeta, xyz)):
            assert np.all(np.isfinite(a))
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.2, -0.25, 0.5])
    @pytest.mark.parametrize("zeta", [0.0, 0.3, 1.0])
    def test_sampler_matches_old_map(self, zeta, gamma):
        g = GEVShape(gamma)
        new = sample_limit_pair(ZetaOverlap(zeta), g, 50_000, RngStream(99)).pairs
        old = np.column_stack(_old_map_values(Functional("identity"), g, zeta,
                                              draw_uniforms(RngStream(99), 50_000, 3)))
        if zeta in (0.0, 1.0):
            # One column passes through the section map unchanged.
            np.testing.assert_array_equal(new, old)
        else:
            assert np.all(np.abs(new - old) <= np.maximum(1e-10 * np.abs(old), 1e-12))

    @pytest.mark.parametrize("h,gamma", [
        (h, gamma) for h in (Functional("identity"), Functional("square"),
                             Functional("indicator", threshold=1.5), Functional("const"))
        for gamma in (0.0, 0.2, -0.25) if h.tail_order * gamma < 0.25])
    def test_sigma2_db_matches_old_map(self, h, gamma):
        # Clipping on the Gumbel scale is clipping the levels, mapped.
        g = GEVShape(gamma)
        u = draw_uniforms(RngStream(99).child(1), 50_000, 1).ravel()
        values = np.asarray(h.evaluate(gev_quantile(g, np.clip(u, 1e-300, 1 - 1e-16)),
                                       gamma), dtype=float)
        var = float(np.var(values, ddof=1))
        m4 = float(extremes._fourth_power_sum(values, values.mean()) / values.size)
        se = math.sqrt(max(m4 - var * var, 0.0) / values.size)
        assert sigma2_db(h, g, 50_000, RngStream(99).child(1)) == (var, se)

    @pytest.mark.parametrize("zeta", [0.0, 1.0])
    def test_edges_raise_no_runtime_warning(self, zeta):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            limit_pair_corr(Functional("identity"), GEVShape(0.2), ZetaOverlap(zeta),
                            1000, RngStream(98))


class TestSlidingVariance:
    def test_zeta_quadrature_normalization(self):
        nodes, weights = QuadratureSpec(32, 1).axis_nodes()
        assert 2.0 * float(weights @ (1.0 - nodes)) == pytest.approx(1.0, abs=1e-12)

    def test_indicator_matches_exact_oracle(self):
        g, t = GEVShape(0.5), 1.2
        report = sigma2_sb(Functional("indicator", threshold=t), g, FAST_ZETA_NODES,
                           150_000, RngStream(91))
        exact = sigma2_sb_indicator_exact(g, t)
        assert abs(report.sigma2_sb - exact) <= 3 * report.sigma2_sb_se

    @pytest.mark.parametrize("gamma", [-0.25, 0.0, 0.5])
    @pytest.mark.parametrize("level", [0.1, 0.5, 0.9, 0.999])
    def test_indicator_closed_form_vs_quadrature(self, gamma, level):
        # The 32-node Gauss-Legendre sum over the overlap is the oracle.
        g = GEVShape(gamma)
        t = gev_quantile(g, level)
        nodes, weights = np.polynomial.legendre.leggauss(32)
        covs = [indicator_cov_exact(ZetaOverlap((z + 1.0) / 2.0), g, t) for z in nodes]
        oracle = float(weights @ covs)
        assert abs(sigma2_sb_indicator_exact(g, t) - oracle) <= 1e-15

    def test_indicator_closed_form_ratio(self):
        g = GEVShape(0.0)
        t = gev_quantile(g, 0.9)
        G = gev_cdf(g, t)
        assert G == pytest.approx(0.9, abs=1e-15)
        ratio = sigma2_sb_indicator_exact(g, t) / (G * (1.0 - G))
        assert ratio == pytest.approx(0.98244316, abs=1e-8)

    @pytest.mark.parametrize("gamma", [-0.25, 0.0, 0.5])
    @pytest.mark.parametrize("tail", [1e-3, 1e-6, 1e-9, 1e-12, 0.2, 0.3])
    def test_indicator_closed_form_relative_near_one(self, gamma, tail):
        # 60-digit decimal evaluation of 2*(G*(G-1)/ln G - G^2) at the same G:
        # as G -> 1 the value is ~G*(1-G), so only a relative bound tests it.
        g = GEVShape(gamma)
        t = gev_quantile(g, 1.0 - tail)
        G = gev_cdf(g, t)
        assert 0.5 * tail < 1.0 - G < 2.0 * tail
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            d = decimal.Decimal(G)
            oracle = float(2 * (d * (d - 1) / d.ln() - d * d))
        assert abs(sigma2_sb_indicator_exact(g, t) - oracle) <= 1e-14 * oracle

    @pytest.mark.parametrize("gamma,t", [(0.5, -3.0), (0.0, 40.0), (-0.5, 3.0)])
    def test_indicator_closed_form_at_cdf_edges(self, gamma, t):
        # G = 0 below the lower endpoint, G = 1 in float or above the upper one.
        assert gev_cdf(GEVShape(gamma), t) in (0.0, 1.0)
        assert sigma2_sb_indicator_exact(GEVShape(gamma), t) == 0.0

    def test_inequality_grid(self):
        cases = [
            (Functional("identity"), -0.25),
            (Functional("identity"), 0.0),
            (Functional("log_transform"), 0.5),
            (Functional("indicator", threshold=1.0), 0.5),
        ]
        for i, (h, gamma) in enumerate(cases):
            report = sigma2_sb(h, GEVShape(gamma), FAST_ZETA_NODES,
                               60_000, RngStream(92).child(i))
            slack = 3 * math.hypot(report.sigma2_sb_se, report.sigma2_db_se)
            assert report.sigma2_sb <= report.sigma2_db + slack
            assert not report.degenerate
            assert report.ratio == pytest.approx(
                report.sigma2_sb / report.sigma2_db)

    def test_const_degenerate(self):
        report = sigma2_sb(Functional("const"), GEVShape(0.0), FAST_ZETA_NODES,
                           10_000, RngStream(93))
        assert report.degenerate
        assert math.isnan(report.ratio)
        assert abs(report.sigma2_sb) <= 1e-12

    def test_negative_mc_variance_is_an_evaluation_error(self):
        # Far out in gamma < 0 the sliding estimate is dominated by a few
        # huge values and comes out negative.
        with pytest.raises(EvaluationError, match="negative or non-finite"):
            sigma2_sb(Functional("identity"), GEVShape(-50.0), 4,
                      2000, RngStream(20240601))

    @pytest.mark.parametrize("zeta_nodes", [1, 1025])
    def test_node_count_checked_before_the_draw(self, zeta_nodes, monkeypatch):
        monkeypatch.setattr(extremes, "draw_uniforms", lambda *args: pytest.fail("drew"))
        with pytest.raises(ValidationError, match="nodes_per_axis"):
            sigma2_sb(Functional("square"), GEVShape(0.5), zeta_nodes, 1000, RngStream(95))

    def test_divergent_moments_raise(self):
        with pytest.raises(DivergentMomentError):
            sigma2_sb(Functional("square"), GEVShape(0.5), FAST_ZETA_NODES,
                      10_000, RngStream(94))

    def test_report_round_trip(self):
        report = sigma2_sb(Functional("identity"), GEVShape(0.0), FAST_ZETA_NODES,
                           20_000, RngStream(95))
        payload = report.to_report()
        assert payload["method"] == "quadrature_mc"
        assert len(payload["per_zeta"]) == 16
        assert payload["seed"] == {"seed": 95, "stream_id": 0}
        assert {"zeta", "cov", "se"} == set(payload["per_zeta"][0])


class TestDoaScaling:
    def test_frozen_tuples(self):
        assert doa_scaling("exp", 100) == (0.0, 1.0, math.log(100))
        assert doa_scaling("uniform", 50) == (-1.0, 0.02, 1.0)
        assert doa_scaling("pareto", 16, alpha=4.0) == (0.25, 2.0, 0.0)
        assert doa_scaling("gumbel", 7) == (0.0, 1.0, math.log(7))

    def test_registry(self):
        assert set(DISTRIBUTIONS) == {"exp", "uniform", "pareto", "gumbel"}

    def test_pareto_overflow_is_infinite(self):
        # 10**1000 is past the float range: a_r is inf, not an OverflowError.
        assert doa_scaling("pareto", 10, 1e-3) == (1000.0, math.inf, 0.0)
        assert doa_scaling("pareto", 1, 1e-3) == (1000.0, 1.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            doa_scaling("cauchy", 10)
        with pytest.raises(ValidationError):
            doa_scaling("pareto", 10)
        with pytest.raises(ValidationError):
            doa_scaling("exp", 0)


class TestParetoDraw:
    @pytest.mark.parametrize("alpha", [0.01, 0.5, 2, 5, 1000])
    def test_matches_the_generator_pareto(self, alpha):
        ref_gen = RngStream(120).generator()
        gen = RngStream(120).generator()
        ref = ref_gen.pareto(alpha, 200_000) + 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = extremes._pareto_draw(gen, 200_000, alpha)
        assert got.dtype == ref.dtype and np.array_equal(np.isinf(got), np.isinf(ref))
        assert alpha != 0.01 or np.isinf(got).any()  # overflow is inf, with no warning
        # Apart in ulps: the bit patterns of positive floats are ordered.
        ulps = np.abs(got.view(np.int64) - ref.view(np.int64))
        # In [2**53, 2**54] the + 1 is a rounding tie, which can double one
        # ulp of expm1 into two.
        assert np.all(ulps <= np.where((ref >= 2.0 ** 53) & (ref <= 2.0 ** 54), 2, 1))
        assert gen.random() == ref_gen.random()


class TestSlidingMax:
    @given(st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
    def test_matches_brute_force(self, r, seed):
        x = RngStream(seed % 2 ** 31).generator().random(max(r, 50))
        expected = np.array([x[i:i + r].max() for i in range(x.size - r + 1)])
        np.testing.assert_array_equal(sliding_max(x, r), expected)

    def test_window_one_is_identity(self):
        x = np.array([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(sliding_max(x, 1), x)

    def test_window_too_long(self):
        with pytest.raises(ValidationError):
            sliding_max(np.zeros(5), 6)


def _fft_lag_window(y, r):
    """The lag-window estimate through the FFT autocovariance: the oracle."""
    n = y.size
    yc = y - y.mean()
    size = 1 << int(np.ceil(np.log2(2 * n)))
    spectrum = np.fft.rfft(yc, size)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), size)[:r] / n
    return float((acov[0] + 2.0 * acov[1:].sum()) / r)


def _sliding_values(r, n_blocks, seed):
    """The series block_maxima_simulate('exp', r, n_blocks, 'sliding',
    identity) estimates from, drawn from the same stream."""
    x = draw_iid(RngStream(seed), r * n_blocks,
                 lambda gen, size: extremes._BASE["exp"][0](gen, size, None))
    return sliding_max(x, r) - math.log(r)


class TestLagWindow:
    # Round-off bound relative to acov[0]; absolute, since at r = n the
    # true value is 0 and both forms return round-off there.
    TOL = 1e-12

    @pytest.fixture(scope="class")
    def series(self):
        x = RngStream(104).generator().standard_exponential(200_000 + 99)
        return sliding_max(x, 100) - math.log(100)

    @pytest.mark.parametrize("r", ["1", "2", "n/2", "n"])
    def test_matches_fft_oracle(self, series, r):
        n = series.size
        r = {"1": 1, "2": 2, "n/2": n // 2, "n": n}[r]
        new = extremes._lag_window_estimate(series, r)
        assert abs(new - _fft_lag_window(series, r)) <= self.TOL * np.var(series)

    def test_window_one_is_the_variance(self, series):
        var = np.var(series)
        assert abs(extremes._lag_window_estimate(series, 1) - var) <= 1e-15 * var

    def test_every_short_length_matches_fft_oracle(self):
        y = RngStream(105).generator().standard_exponential(7)
        for n in range(2, 8):
            for r in range(1, n + 1):
                new = extremes._lag_window_estimate(y[:n], r)
                assert abs(new - _fft_lag_window(y[:n], r)) <= self.TOL * np.var(y[:n])

    def test_simulation_segments_match_fft_oracle(self):
        r, n_blocks = 100, 2000
        result = block_maxima_simulate("exp", r, n_blocks, "sliding",
                                       Functional("identity"), RngStream(106))
        values = _sliding_values(r, n_blocks, 106)
        assert extremes._lag_window_estimate(values, r) == result.estimate
        segments = np.array_split(values, result.segments)
        assert len({seg.size for seg in segments}) == 2
        parts = []
        for seg in segments:
            parts.append(extremes._lag_window_estimate(seg, r))
            assert abs(parts[-1] - _fft_lag_window(seg, r)) <= self.TOL * np.var(seg)
        assert np.std(parts, ddof=1) / math.sqrt(len(parts)) == result.se


class TestBlockSimulation:
    def test_unit_block_uniform_variance(self):
        result = block_maxima_simulate("uniform", 1, 50_000, "disjoint",
                                       Functional("identity"), RngStream(96))
        # r=1 normalization maps U to U-1, whose variance is 1/12
        assert abs(result.estimate - 1.0 / 12.0) <= max(3 * result.se, 1e-3)

    def test_gumbel_disjoint_exact_at_all_block_sizes(self):
        result = block_maxima_simulate("gumbel", 50, 4000, "disjoint",
                                       Functional("identity"), RngStream(97))
        assert abs(result.estimate - GUMBEL_VAR) <= max(4 * result.se, 0.02)
        assert result.gamma == 0.0 and result.b_r == pytest.approx(math.log(50))

    def test_sliding_below_disjoint_target(self):
        sim = block_maxima_simulate("gumbel", 100, 3000, "sliding",
                                    Functional("identity"), RngStream(98))
        oracle = sigma2_sb(Functional("identity"), GEVShape(0.0), FAST_ZETA_NODES,
                           100_000, RngStream(99))
        assert abs(sim.estimate - oracle.sigma2_sb) <= 0.15
        assert sim.estimate < GUMBEL_VAR

    def test_pareto_heavy_tail_identity_rejected(self):
        with pytest.raises(DivergentMomentError):
            block_maxima_simulate("pareto", 100, 100, "disjoint",
                                  Functional("identity"), RngStream(100), alpha=3.0)

    def test_sequence_cap(self):
        with pytest.raises(ValidationError, match="cap"):
            block_maxima_simulate("exp", MAX_SEQUENCE_LENGTH, 2, "disjoint",
                                  Functional("identity"), RngStream(101))

    def test_mode_validated(self):
        with pytest.raises(ValidationError):
            block_maxima_simulate("exp", 10, 10, "running",
                                  Functional("identity"), RngStream(102))

    def test_report_fields(self):
        result = block_maxima_simulate("pareto", 20, 200, "disjoint",
                                       Functional("log_transform"), RngStream(103),
                                       alpha=8.0)
        payload = result.to_report()
        assert payload["dist"] == "pareto" and payload["alpha"] == 8.0
        assert payload["gamma"] == pytest.approx(0.125)
        assert payload["h"]["name"] == "log_transform"
        assert payload["seed"] == {"seed": 103, "stream_id": 0}

    @staticmethod
    def _peak(mode):
        r, n_blocks = 100, 2000
        tracemalloc.start()
        try:
            block_maxima_simulate("exp", r, n_blocks, mode, Functional("identity"),
                                  RngStream(108))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (8 * r * n_blocks)

    def test_sliding_peak_holds_no_dead_draw(self):
        # The draw is never held, and the moment guard copies no more than
        # a block: the values of h and a chunk's worth of draws and
        # lag-window blocks are what remain at the peak.
        assert self._peak("sliding") < 2.1

    def test_disjoint_peak_holds_one_chunk(self):
        # One RNG chunk (a sixteenth of the draw) and the block maxima.
        assert self._peak("disjoint") < 0.5

    @pytest.mark.parametrize("mode", ["disjoint", "sliding"])
    @pytest.mark.parametrize("r", [1, 5])
    def test_se_null_exactly_below_two_segments(self, mode, r):
        for n_blocks in (2, 3):
            result = block_maxima_simulate("exp", r, n_blocks, mode,
                                           Functional("identity"), RngStream(107))
            assert result.segments < 2
            assert math.isnan(result.se)
            assert result.to_report()["segments"] == result.segments
        result = block_maxima_simulate("exp", r, 40, mode,
                                       Functional("identity"), RngStream(107))
        assert result.segments >= 2
        assert math.isfinite(result.se)


def _cumsum_lag_window(y, r):
    """The lag-window estimate over whole-sequence arrays: one cumsum ``c``
    of the centered series and the window sums ``v`` read off it."""
    n = y.size
    yc = y - y.mean()
    c = np.empty(n + r)
    c[0] = 0.0
    np.cumsum(yc, out=c[1:n + 1])
    c[n + 1:] = c[n]
    v = c[r:r + n] - c[1:n + 1]
    v *= 2.0
    v += yc
    v *= yc
    return float(v.sum() / n / r)


def _whole_array_maxima(dist, r, n_blocks, mode, rng, alpha):
    """The normalized block maxima from the whole sequence, drawn at once."""
    _, a_r, b_r = doa_scaling(dist, r, alpha)
    x = draw_iid(rng, r * n_blocks,
                 lambda gen, size: extremes._BASE[dist][0](gen, size, alpha))
    maxima = sliding_max(x, r) if mode == "sliding" else x.reshape(n_blocks, r).max(axis=1)
    maxima -= b_r
    maxima /= a_r
    return maxima


def _whole_array_estimate(maxima, dist, r, n_blocks, mode, h, alpha):
    """``(estimate, se, segments)`` of block_maxima_simulate from the whole
    array of maxima, the oracle, and the variance of the values of ``h``."""
    gamma = doa_scaling(dist, r, alpha)[0]
    values = np.asarray(h.evaluate(maxima.copy(), gamma), dtype=float)
    check_moments(h, GEVShape(gamma), values)
    sliding = mode == "sliding"

    def estimator(seg):
        return _cumsum_lag_window(seg, r) if sliding else float(np.var(seg, ddof=1))

    k = min(20, values.size // (2 * r) if sliding else n_blocks // 2)
    se = float("nan")
    if k >= 2:
        parts = [estimator(seg) for seg in np.array_split(values, k)]
        se = float(np.std(parts, ddof=1) / math.sqrt(k))
    return (estimator(values), se, k), float(np.var(values))


class TestStreamedSimulation:
    """The chunk-streamed simulation against the whole-array one."""

    #: Bound on the change of a sliding estimate or SE, relative to the larger
    #: of it and the variance of the values of h: the lag window sums its
    #: terms block by block instead of in one pairwise sum, and the terms
    #: are of the variance's size.  At 2 or 3 blocks the estimate is a
    #: difference of such terms that nearly cancels, so only that scale holds.
    SLIDING_RTOL = 1e-14

    #: Thresholds at which each base distribution's indicator is not constant.
    THRESHOLD = {"exp": 0.5, "gumbel": 0.5, "pareto": 1.0, "uniform": -0.7}

    ALPHA = 10.0  # gamma = 0.1: every functional keeps a fourth moment

    SIZES = [(r, n_blocks) for r in (1, 5, 999, 1000, 1001, 70001) for n_blocks in (2, 3, 2000)
             if r * n_blocks <= 1_000_000 or n_blocks == 2000 and r < 70001]

    def _functionals(self, dist, r, n_blocks):
        """Every functional; above 1e6 draws two per distribution in turn,
        which still takes each functional to each of those sizes."""
        names = extremes.FUNCTIONAL_NAMES
        if r * n_blocks > 1_000_000:
            first = 2 * DISTRIBUTIONS.index(dist) + r
            names = [names[first % len(names)], names[(first + 1) % len(names)]]
        return [Functional("indicator", self.THRESHOLD[dist]) if name == "indicator"
                else Functional(name) for name in names]

    @pytest.mark.parametrize("mode", ["disjoint", "sliding"])
    @pytest.mark.parametrize("r,n_blocks", SIZES)
    @pytest.mark.parametrize("dist", DISTRIBUTIONS)
    def test_matches_the_whole_array_simulation(self, dist, r, n_blocks, mode):
        rng = RngStream(110)
        alpha = self.ALPHA if dist == "pareto" else None
        maxima = _whole_array_maxima(dist, r, n_blocks, mode, rng, alpha)
        for h in self._functionals(dist, r, n_blocks):
            try:
                expected, scale = _whole_array_estimate(maxima, dist, r, n_blocks, mode, h,
                                                        alpha)
            except DivergentMomentError as exc:
                with pytest.raises(DivergentMomentError, match=re.escape(str(exc))):
                    block_maxima_simulate(dist, r, n_blocks, mode, h, rng, alpha=alpha)
                continue
            result = block_maxima_simulate(dist, r, n_blocks, mode, h, rng, alpha=alpha)
            got = (result.estimate, result.se, result.segments)
            if mode == "disjoint":
                np.testing.assert_array_equal(got, expected, err_msg=h.name)
            else:
                assert got[2] == expected[2]
                for new, old in zip(got[:2], expected[:2]):
                    assert new == old or math.isnan(new) and math.isnan(old) or \
                        abs(new - old) <= self.SLIDING_RTOL * max(abs(old), scale), \
                        (h.name, new, old, scale)

    def test_a_block_longer_than_a_chunk(self):
        # r = 70001 with 3 blocks: each block spans several RNG chunks, so the
        # partial maximum and the sliding carry cross more than one chunk.
        r, n_blocks = 70_001, 3
        assert max(chunk_sizes(r * n_blocks)) < r
        self.test_matches_the_whole_array_simulation("uniform", r, n_blocks, "disjoint")
        self.test_matches_the_whole_array_simulation("uniform", r, n_blocks, "sliding")

    def test_checks_run_before_the_draw(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the sequence was drawn")

        monkeypatch.setattr(extremes, "iter_chunks", refuse)
        with pytest.raises(ValidationError, match="exceeds the cap"):
            block_maxima_simulate("exp", 25_000_001, 2, "sliding", Functional("identity"),
                                  RngStream(1))
        with pytest.raises(ValidationError, match="n_blocks must be >= 2"):
            block_maxima_simulate("exp", 10, 1, "disjoint", Functional("identity"),
                                  RngStream(1))
        with pytest.raises(DivergentMomentError):
            block_maxima_simulate("pareto", 10, 10, "sliding", Functional("square"),
                                  RngStream(1), alpha=2.0)
