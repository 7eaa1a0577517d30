import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mocorr.errors import DivergentMomentError, EvaluationError, ValidationError
from mocorr.extremes import (
    DEFAULT_ZETA_QUAD,
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
    limit_pair_cov,
    limit_pair_corr,
    sample_limit_pair,
    sigma2_db,
    sigma2_sb,
    sigma2_sb_indicator_exact,
    sliding_max,
)
from mocorr.maxcorr import estimate_max_corr
from mocorr.mo import PairSample
from mocorr.numerics import QuadratureSpec, ecdf_ks
from mocorr.rng import RngStream

GUMBEL_VAR = math.pi ** 2 / 6.0

shapes = st.floats(min_value=-0.9, max_value=2.0)
levels = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)

FAST_ZETA_QUAD = QuadratureSpec(16, 1)


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

    def test_cdf_monotone(self):
        x = np.linspace(-4, 6, 200)
        for gamma in (-0.5, 0.0, 1.0):
            values = gev_cdf(GEVShape(gamma), x)
            assert np.all(np.diff(values) >= 0)

    def test_gamma_must_be_finite(self):
        with pytest.raises(ValidationError):
            GEVShape(float("nan"))


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
    def test_full_overlap_equal_coordinates(self):
        s = sample_limit_pair(ZetaOverlap(0.0), GEVShape(0.5), 1000, RngStream(80))
        np.testing.assert_allclose(s.pairs[:, 0], s.pairs[:, 1], rtol=1e-12)

    def test_ks_against_cdf(self):
        z, g = ZetaOverlap(0.4), GEVShape(0.2)
        s = sample_limit_pair(z, g, 100_000, RngStream(81))
        assert ecdf_ks(s, lambda x, y: limit_copula_cdf(z, g, x, y)) < 0.01

    def test_estimator_recovers_overlap_complement(self):
        z, g = ZetaOverlap(0.5), GEVShape(1.0)
        s = sample_limit_pair(z, g, 1_000_000, RngStream(82))
        u = np.column_stack([gev_cdf(g, s.pairs[:, 0]), gev_cdf(g, s.pairs[:, 1])])
        copula_scale = PairSample(u, "copula", {"phi": 0.5, "psi": 0.5}, s.seed)
        est = estimate_max_corr(copula_scale, m=64)
        assert abs(est.value - 0.5) < 0.02


class TestFunctionals:
    def test_log_transform_gumbelizes(self):
        # after the log map every shape shares the Gumbel variance
        h = Functional.log_transform()
        for gamma in (-0.25, 0.0, 0.5, 1.0):
            var, se = sigma2_db(h, GEVShape(gamma), 400_000, RngStream(83))
            assert abs(var - GUMBEL_VAR) <= 3 * se

    def test_log_transform_is_identity_at_gumbel(self):
        x = np.linspace(-2, 5, 50)
        np.testing.assert_allclose(
            Functional.log_transform().evaluate(x, 0.0), x, atol=1e-12)

    def test_indicator(self):
        h = Functional.indicator(0.25)
        np.testing.assert_array_equal(
            h.evaluate(np.array([0.0, 0.25, 0.3])), [0.0, 0.0, 1.0])

    def test_indicator_requires_threshold(self):
        with pytest.raises(ValidationError):
            Functional("indicator")

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            Functional("cube")

    def test_as_dict_round(self):
        d = Functional.indicator(1.5).as_dict()
        assert d["name"] == "indicator" and d["threshold"] == 1.5


class TestMomentGuard:
    def test_square_heavy_tail_rejected(self):
        with pytest.raises(DivergentMomentError):
            check_moments(Functional.square(), GEVShape(0.5))

    def test_boundary_rejected(self):
        with pytest.raises(DivergentMomentError):
            check_moments(Functional.identity(), GEVShape(0.25))

    def test_valid_combinations_pass(self):
        check_moments(Functional.square(), GEVShape(0.1))
        check_moments(Functional.identity(), GEVShape(0.2))
        check_moments(Functional.log_transform(), GEVShape(5.0))
        check_moments(Functional.indicator(0.0), GEVShape(5.0))

    def test_empirical_guard_trips_on_dominant_term(self):
        values = np.zeros(20_000)
        values[0] = 1e12
        with pytest.raises(DivergentMomentError, match="single term"):
            check_moments(Functional.identity(), GEVShape(0.0), values)

    def test_nonfinite_values_rejected(self):
        values = np.array([0.0, np.inf] + [1.0] * 100)
        with pytest.raises(DivergentMomentError):
            check_moments(Functional.identity(), GEVShape(0.0), values)


class TestDisjointVariance:
    def test_indicator_closed_form(self):
        # Var(1{Y > 0}) at gamma=1: G(0) = e^{-1}
        p = 1.0 - math.exp(-1.0)
        target = p * (1.0 - p)
        var, se = sigma2_db(Functional.indicator(0.0), GEVShape(1.0),
                            500_000, RngStream(84))
        assert target == pytest.approx(0.23254415793482963, abs=1e-16)
        assert abs(var - target) <= 3 * se

    def test_gumbel_identity(self):
        var, se = sigma2_db(Functional.identity(), GEVShape(0.0),
                            500_000, RngStream(85))
        assert abs(var - GUMBEL_VAR) <= 3 * se

    def test_const_degenerate(self):
        var, _ = sigma2_db(Functional.const(), GEVShape(0.0), 10_000, RngStream(86))
        assert var == 0.0

    def test_rng_required(self):
        with pytest.raises(ValidationError):
            sigma2_db(Functional.identity(), GEVShape(0.0), 100)


class TestOverlapCovariance:
    def test_endpoints(self):
        h, g = Functional.identity(), GEVShape(0.0)
        cov0, se0 = limit_pair_cov(h, g, ZetaOverlap(0.0), 200_000, RngStream(87))
        assert abs(cov0 - GUMBEL_VAR) <= 3 * se0
        cov1, se1 = limit_pair_cov(h, g, ZetaOverlap(1.0), 200_000, RngStream(88))
        assert abs(cov1) <= 3 * se1

    def test_corr_bounded_by_overlap_complement(self):
        h, g = Functional.log_transform(), GEVShape(0.5)
        for i, zeta in enumerate((0.2, 0.5, 0.8)):
            corr, se = limit_pair_corr(h, g, ZetaOverlap(zeta), 200_000,
                                       RngStream(89).child(i))
            assert corr <= (1.0 - zeta) + 3 * se

    @pytest.mark.parametrize("n_mc", [1, 2, 3])
    def test_corr_rejects_too_few_pairs(self, n_mc):
        # Its SE needs two chunks of two pairs; fewer gave NaN.
        with pytest.raises(ValidationError, match="n_mc"):
            limit_pair_corr(Functional.identity(), GEVShape(0.0), ZetaOverlap(0.5),
                            n_mc, RngStream(91))

    @pytest.mark.parametrize("h", [Functional.const(), Functional.indicator(1e6),
                                   Functional.indicator(4.0)])
    def test_corr_rejects_functional_constant_on_the_draw(self, h):
        # The correlation divides by a zero standard deviation there; the
        # 4.0 indicator is constant on one SE chunk only.
        with pytest.raises(EvaluationError, match="zero variance"):
            limit_pair_corr(h, GEVShape(0.0), ZetaOverlap(0.5), 1000, RngStream(92))

    def test_indicator_exact_vs_mc(self):
        g, t = GEVShape(0.3), 0.8
        z = ZetaOverlap(0.4)
        exact = indicator_cov_exact(z, g, t)
        cov, se = limit_pair_cov(Functional.indicator(t), g, z,
                                 400_000, RngStream(90))
        assert abs(cov - exact) <= 3 * se


class TestSlidingVariance:
    def test_zeta_quadrature_normalization(self):
        nodes, weights = DEFAULT_ZETA_QUAD.axis_nodes()
        assert 2.0 * float(weights @ (1.0 - nodes)) == pytest.approx(1.0, abs=1e-12)

    def test_indicator_matches_exact_oracle(self):
        g, t = GEVShape(0.5), 1.2
        report = sigma2_sb(Functional.indicator(t), g, FAST_ZETA_QUAD,
                           150_000, RngStream(91))
        exact = sigma2_sb_indicator_exact(g, t, FAST_ZETA_QUAD)
        assert abs(report.sigma2_sb - exact) <= 3 * report.sigma2_sb_se

    def test_inequality_grid(self):
        cases = [
            (Functional.identity(), -0.25),
            (Functional.identity(), 0.0),
            (Functional.log_transform(), 0.5),
            (Functional.indicator(1.0), 0.5),
        ]
        for i, (h, gamma) in enumerate(cases):
            report = sigma2_sb(h, GEVShape(gamma), FAST_ZETA_QUAD,
                               60_000, RngStream(92).child(i))
            slack = 3 * math.hypot(report.sigma2_sb_se, report.sigma2_db_se)
            assert report.sigma2_sb <= report.sigma2_db + slack
            assert not report.degenerate
            assert report.ratio == pytest.approx(
                report.sigma2_sb / report.sigma2_db)

    def test_const_degenerate(self):
        report = sigma2_sb(Functional.const(), GEVShape(0.0), FAST_ZETA_QUAD,
                           10_000, RngStream(93))
        assert report.degenerate
        assert math.isnan(report.ratio)
        assert abs(report.sigma2_sb) <= 1e-12

    def test_divergent_moments_raise(self):
        with pytest.raises(DivergentMomentError):
            sigma2_sb(Functional.square(), GEVShape(0.5), FAST_ZETA_QUAD,
                      10_000, RngStream(94))

    def test_report_round_trip(self):
        report = sigma2_sb(Functional.identity(), GEVShape(0.0), FAST_ZETA_QUAD,
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

    def test_validation(self):
        with pytest.raises(ValidationError):
            doa_scaling("cauchy", 10)
        with pytest.raises(ValidationError):
            doa_scaling("pareto", 10)
        with pytest.raises(ValidationError):
            doa_scaling("exp", 0)


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


class TestBlockSimulation:
    def test_unit_block_uniform_variance(self):
        result = block_maxima_simulate("uniform", 1, 50_000, "disjoint",
                                       Functional.identity(), RngStream(96))
        # r=1 normalization maps U to U-1, whose variance is 1/12
        assert abs(result.estimate - 1.0 / 12.0) <= max(3 * result.se, 1e-3)

    def test_gumbel_disjoint_exact_at_all_block_sizes(self):
        result = block_maxima_simulate("gumbel", 50, 4000, "disjoint",
                                       Functional.identity(), RngStream(97))
        assert abs(result.estimate - GUMBEL_VAR) <= max(4 * result.se, 0.02)
        assert result.gamma == 0.0 and result.b_r == pytest.approx(math.log(50))

    def test_sliding_below_disjoint_target(self):
        sim = block_maxima_simulate("gumbel", 100, 3000, "sliding",
                                    Functional.identity(), RngStream(98))
        oracle = sigma2_sb(Functional.identity(), GEVShape(0.0), FAST_ZETA_QUAD,
                           100_000, RngStream(99))
        assert abs(sim.estimate - oracle.sigma2_sb) <= 0.15
        assert sim.estimate < GUMBEL_VAR

    def test_pareto_heavy_tail_identity_rejected(self):
        with pytest.raises(DivergentMomentError):
            block_maxima_simulate("pareto", 100, 100, "disjoint",
                                  Functional.identity(), RngStream(100), alpha=3.0)

    def test_sequence_cap(self):
        with pytest.raises(ValidationError, match="cap"):
            block_maxima_simulate("exp", MAX_SEQUENCE_LENGTH, 2, "disjoint",
                                  Functional.identity(), RngStream(101))

    def test_mode_validated(self):
        with pytest.raises(ValidationError):
            block_maxima_simulate("exp", 10, 10, "running",
                                  Functional.identity(), RngStream(102))

    def test_report_fields(self):
        result = block_maxima_simulate("pareto", 20, 200, "disjoint",
                                       Functional.log_transform(), RngStream(103),
                                       alpha=8.0)
        payload = result.to_report()
        assert payload["dist"] == "pareto" and payload["alpha"] == 8.0
        assert payload["gamma"] == pytest.approx(0.125)
        assert payload["h"]["name"] == "log_transform"
        assert payload["seed"] == {"seed": 103, "stream_id": 0}
