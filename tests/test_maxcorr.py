import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import multivariate_normal, norm

from mocorr.cli import main
from mocorr.errors import ValidationError
from mocorr.maxcorr import (
    PowerIndex,
    d_xi_corr,
    d_xi_max_corr,
    estimate_max_corr,
    gaussian_copula_cdf,
    gaussian_oracle,
    max_corr_closed,
    max_corr_from_rates,
    power_corr,
    power_cov,
    power_transform,
    sample_gaussian_copula,
    var_fk,
)
from mocorr.mo import CopulaParams, DXiParam, MOParams, copula_cdf, sample_copula, sample_d_xi
from mocorr.numerics import QuadratureSpec, ecdf_ks, quad_2d
from mocorr.rng import RngStream

unit = st.floats(min_value=0.0, max_value=1.0)
inner = st.floats(min_value=0.05, max_value=0.95)
power = st.floats(min_value=0.0, max_value=30.0)


class TestVarFk:
    def test_k_zero_is_uniform_variance(self):
        assert var_fk(0.0) == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_k_one(self):
        assert var_fk(1.0) == pytest.approx(1.0 / 45.0, abs=1e-15)

    def test_mc_check(self):
        u = RngStream(61).generator().random(1_000_000)
        values = power_transform(u, 1.0)
        est = float(np.var(values))
        centered = (values - values.mean()) ** 2
        se = float(np.std(centered)) / math.sqrt(len(u))
        assert abs(est - 1.0 / 45.0) <= 3 * se

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            var_fk(-0.5)


class TestPowerCov:
    def test_zero_at_boundary_parameter(self):
        assert power_cov(CopulaParams(0.0, 0.7), PowerIndex(1, 2)) == 0.0
        assert power_cov(CopulaParams(0.7, 0.0), PowerIndex(1, 2)) == 0.0

    def test_frozen_symmetric_value(self):
        value = power_cov(CopulaParams(0.5, 0.5), PowerIndex(0, 0))
        assert value == pytest.approx(0.25 / 7.0, abs=1e-15)

    @pytest.mark.parametrize("phi,psi,k,ell", [
        (0.5, 0.5, 0.0, 0.0),
        (0.3, 0.7, 1.0, 2.0),
        (0.822, 0.08, 2.919, 0.703),
        (0.539, 0.892, 3.263, 0.011),
    ])
    def test_hoeffding_quadrature_agreement(self, phi, psi, k, ell):
        c = CopulaParams(phi, psi)
        spec = QuadratureSpec(32, 128)

        def integrand(u, v):
            # survival form P(U>u, V>v) - (1-u)(1-v) equals C(u,v) - uv
            survival = 1.0 - u - v + copula_cdf(c, u, v)
            return (survival - (1.0 - u) * (1.0 - v)) * u ** k * v ** ell

        closed = power_cov(c, PowerIndex(k, ell))
        assert closed == pytest.approx(quad_2d(integrand, spec), abs=1e-8)

    def test_mc_agreement(self):
        c = CopulaParams(0.25, 0.8)
        idx = PowerIndex(1.5, 0.5)
        s = sample_copula(c, 1_000_000, RngStream(62))
        a = power_transform(s.pairs[:, 0], idx.k)
        b = power_transform(s.pairs[:, 1], idx.ell)
        prods = (a - a.mean()) * (b - b.mean())
        se = float(np.std(prods)) / math.sqrt(s.n)
        assert abs(float(np.mean(prods)) - power_cov(c, idx)) <= 3 * se


class TestPowerCorr:
    def test_comonotone_lowest_index(self):
        assert power_corr(CopulaParams(1, 1), PowerIndex(0, 0)) == pytest.approx(1.0)

    def test_frozen_symmetric_value(self):
        value = power_corr(CopulaParams(0.5, 0.5), PowerIndex(0, 0))
        assert value == pytest.approx(3.0 / 7.0, abs=1e-15)

    @given(inner, inner, power, power)
    def test_consistency_triangle(self, phi, psi, k, ell):
        c = CopulaParams(phi, psi)
        idx = PowerIndex(k, ell)
        rebuilt = power_cov(c, idx) / math.sqrt(var_fk(k) * var_fk(ell))
        assert power_corr(c, idx) == pytest.approx(rebuilt, abs=1e-12)

    @given(inner, inner, power, power)
    def test_dominated_by_supremum(self, phi, psi, k, ell):
        c = CopulaParams(phi, psi)
        assert power_corr(c, PowerIndex(k, ell)) <= max_corr_closed(c) + 1e-12

    def test_paper_approach_value(self):
        # Index scaling proportional to (phi, psi) climbs to sqrt(phi*psi);
        # at m = 1e4 the gap is below 1e-3 for phi=0.3, psi=0.7.
        m = 10_000
        c = CopulaParams(0.3, 0.7)
        value = power_corr(c, PowerIndex(0.3 * m, 0.7 * m))
        assert value == pytest.approx(math.sqrt(0.21), abs=1e-3)
        assert value <= math.sqrt(0.21)

    @given(inner, inner)
    def test_approach_within_tolerance_everywhere(self, phi, psi):
        m = 10_000
        c = CopulaParams(phi, psi)
        value = power_corr(c, PowerIndex(phi * m, psi * m))
        assert abs(value - math.sqrt(phi * psi)) < 1e-3

    @given(inner, inner, power, power)
    def test_symmetry_under_joint_swap(self, phi, psi, k, ell):
        a = power_corr(CopulaParams(phi, psi), PowerIndex(k, ell))
        b = power_corr(CopulaParams(psi, phi), PowerIndex(ell, k))
        assert a == pytest.approx(b, abs=1e-14)


class TestDXiCorr:
    def test_comonotone(self):
        assert d_xi_corr(DXiParam(1.0), 3.7) == pytest.approx(1.0, abs=1e-15)

    def test_frozen_k_zero(self):
        assert d_xi_corr(DXiParam(0.5), 0.0) == pytest.approx(0.6, abs=1e-15)

    def test_limit_at_large_k(self):
        assert d_xi_corr(DXiParam(0.5), 1e4) == pytest.approx(math.sqrt(0.5), abs=1e-3)

    @given(st.floats(0.05, 1.0), st.floats(0.0, 50.0))
    def test_bounded_by_sqrt_xi(self, xi, k):
        d = DXiParam(xi)
        assert d_xi_corr(d, k) <= d_xi_max_corr(d) + 1e-12

    def test_mc_agreement_moderate_k(self):
        # The smaller index k*xi rides on the first coordinate.
        xi, k = 0.5, 5.0
        d = DXiParam(xi)
        s = sample_d_xi(d, 1_000_000, RngStream(63))
        a = power_transform(s.pairs[:, 0], k * xi)
        b = power_transform(s.pairs[:, 1], k)
        a = a - a.mean()
        b = b - b.mean()
        corr = float(np.mean(a * b) / math.sqrt(np.mean(a * a) * np.mean(b * b)))
        chunks = [slice(i * 50_000, (i + 1) * 50_000) for i in range(20)]
        per = [float(np.mean(a[sl] * b[sl])
                     / math.sqrt(np.mean(a[sl] ** 2) * np.mean(b[sl] ** 2)))
               for sl in chunks]
        se = float(np.std(per)) / math.sqrt(len(per))
        assert abs(corr - d_xi_corr(d, k)) <= 3 * se


class TestClosedForms:
    def test_boundaries(self):
        assert max_corr_closed(CopulaParams(1, 1)) == 1.0
        assert max_corr_closed(CopulaParams(0, 0.5)) == 0.0

    def test_exact_square(self):
        assert max_corr_closed(CopulaParams(0.25, 0.25)) == pytest.approx(0.25, abs=1e-16)

    def test_rates_route_frozen(self):
        assert max_corr_from_rates(MOParams(2, 3, 5)) == pytest.approx(
            0.6681531047810609, abs=1e-15)

    @given(st.floats(0.05, 20), st.floats(0.05, 20), st.floats(0.05, 20))
    def test_rates_identity(self, l1, l2, l12):
        p = MOParams(l1, l2, l12)
        via_copula = max_corr_closed(
            CopulaParams(l12 / (l1 + l12), l12 / (l2 + l12)))
        direct = l12 / math.sqrt((l1 + l12) * (l2 + l12))
        assert max_corr_from_rates(p) == pytest.approx(direct, abs=1e-12)
        assert max_corr_from_rates(p) == pytest.approx(via_copula, abs=1e-12)


class TestEstimator:
    def test_copula_target(self):
        c = CopulaParams(0.5, 0.5)
        s = sample_copula(c, 250_000, RngStream(64))
        est = estimate_max_corr(s, m=32)
        assert abs(est.value - 0.5) < 0.02
        assert est.m == 32 and est.n == 250_000
        assert 0.0 <= est.residual <= est.value

    def test_d_xi_target(self):
        d = DXiParam(0.5)
        s = sample_d_xi(d, 250_000, RngStream(65))
        assert abs(estimate_max_corr(s, m=32).value - math.sqrt(0.5)) < 0.02

    def test_independence_near_zero(self):
        s = sample_copula(CopulaParams(0, 0), 250_000, RngStream(66))
        assert estimate_max_corr(s, m=32).value <= 0.05

    def test_insufficient_sample_rejected(self):
        s = sample_copula(CopulaParams(0.5, 0.5), 1000, RngStream(67))
        with pytest.raises(ValidationError, match=r"10.*m"):
            estimate_max_corr(s, m=64)

    def test_mo_scale_rejected(self):
        from mocorr.mo import sample_mo

        s = sample_mo(MOParams(1, 1, 1), 50_000, RngStream(68))
        with pytest.raises(ValidationError):
            estimate_max_corr(s, m=16)

    def test_swap_symmetry(self):
        c = CopulaParams(0.3, 0.8)
        s = sample_copula(c, 250_000, RngStream(69))
        est = estimate_max_corr(s, m=32).value
        from mocorr.mo import PairSample

        swapped = PairSample(pairs=s.pairs[:, ::-1].copy(), family=s.family,
                             params=s.params, seed=s.seed)
        est_swapped = estimate_max_corr(swapped, m=32).value
        assert est == pytest.approx(est_swapped, abs=1e-6)

    def test_report_fields(self):
        c = CopulaParams(0.25, 0.49)
        s = sample_copula(c, 50_000, RngStream(70))
        report = estimate_max_corr(s, m=16).to_report(closed_form=0.35)
        assert report["closed_form"] == 0.35
        assert report["family"] == "copula"
        assert report["abs_error"] == pytest.approx(abs(report["estimate"] - 0.35))
        assert set(report) >= {"family", "params", "n", "m", "estimate",
                               "closed_form", "abs_error", "residual", "seed"}

    def test_submultiplicativity_of_estimates(self):
        grid = (0.5, 0.7, 0.9)
        needed = sorted({x for x in grid} | {a * b for a in grid for b in grid})
        est = {}
        for i, xi in enumerate(needed):
            s = sample_d_xi(DXiParam(xi), 160_000, RngStream(71).child(i))
            est[xi] = estimate_max_corr(s, m=32).value
        for a in grid:
            for b in grid:
                assert est[a * b] <= est[a] * est[b] + 0.05

    def test_functional_equation_on_estimates(self):
        for i, xi in enumerate((0.6, 0.8)):
            s1 = sample_d_xi(DXiParam(xi), 200_000, RngStream(72).child(2 * i))
            s2 = sample_d_xi(DXiParam(xi * xi), 200_000, RngStream(72).child(2 * i + 1))
            r1 = estimate_max_corr(s1, m=32).value
            r2 = estimate_max_corr(s2, m=32).value
            assert r1 == pytest.approx(math.sqrt(r2), abs=0.03)

    def test_dyadic_point(self):
        xi = 2.0 ** -0.5
        s = sample_d_xi(DXiParam(xi), 250_000, RngStream(73))
        assert abs(estimate_max_corr(s, m=32).value - 2.0 ** -0.25) < 0.02


EDGE_GRID = (0.0, 0.3, 0.7, 0.98, 0.999, 1.0)


class TestEstimatorDomainEdges:
    """Every point of the documented domain gets an answer within the
    README's +/- 0.02 at n = 1e6, m = 64, comonotone corners included."""

    @pytest.mark.parametrize("i,phi,psi",
                             [(i, *p) for i, p in
                              enumerate(itertools.product(EDGE_GRID, EDGE_GRID))])
    def test_copula_grid(self, i, phi, psi):
        c = CopulaParams(phi, psi)
        est = estimate_max_corr(sample_copula(c, 1_000_000, RngStream(80).child(i)), m=64)
        assert abs(est.value - max_corr_closed(c)) <= 0.02
        assert 0.0 <= est.residual <= est.value

    @pytest.mark.parametrize("i,xi", enumerate((0.5, 0.999, 1.0)))
    def test_d_xi_grid(self, i, xi):
        d = DXiParam(xi)
        est = estimate_max_corr(sample_d_xi(d, 1_000_000, RngStream(81).child(i)), m=64)
        assert abs(est.value - d_xi_max_corr(d)) <= 0.02

    def test_cli_near_comonotone_shock_model(self, capsys):
        code = main(["maxcorr", "--family", "mo", "--l1", "0.001", "--l2", "0.001",
                     "--l12", "5", "-n", "100000", "--m", "32"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert json.loads(captured.out)["abs_error"] <= 0.02


class TestEstimatorNoiseFloor:
    """At independence the estimate is sampling noise alone, about
    ``2*sqrt(m-1)/sqrt(n)``: the error that the README quotes below n = 1e6."""

    @pytest.mark.parametrize("n", [40_960, 200_000, 1_000_000])
    @pytest.mark.parametrize("seed", [82, 83, 84])
    def test_independence_reads_the_noise_formula(self, n, seed):
        m = 64
        est = estimate_max_corr(sample_copula(CopulaParams(0.0, 0.0), n, RngStream(seed)), m=m)
        floor = 2.0 * math.sqrt(m - 1) / math.sqrt(n)
        assert 0.75 * floor <= est.value <= 1.25 * floor


class TestGaussian:
    def test_cdf_matches_scipy(self):
        gen = RngStream(74).generator()
        for rho in (-0.8, -0.3, 0.3, 0.95):
            u = gen.random(40)
            v = gen.random(40)
            mine = gaussian_copula_cdf(rho, u, v)
            ref = multivariate_normal(cov=[[1.0, rho], [rho, 1.0]]).cdf(
                np.column_stack([norm.ppf(u), norm.ppf(v)]))
            np.testing.assert_allclose(mine, ref, atol=5e-14)

    def test_cdf_margins(self):
        u = np.linspace(0.01, 0.99, 9)
        np.testing.assert_allclose(gaussian_copula_cdf(0.6, u, np.ones_like(u)), u,
                                   atol=1e-12)

    def test_cdf_rejects_nan(self):
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            gaussian_copula_cdf(0.5, np.array([np.nan, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            gaussian_copula_cdf(0.5, 0.5, float("nan"))

    def test_sampler_ks(self):
        s = sample_gaussian_copula(0.6, 100_000, RngStream(75))
        assert ecdf_ks(s, lambda u, v: gaussian_copula_cdf(0.6, u, v)) < 0.01

    def test_oracle_at_zero(self):
        est = gaussian_oracle(0.0, 250_000, 32, RngStream(76))
        assert est.value <= 0.05

    def test_oracle_sign_free(self):
        plus = gaussian_oracle(0.6, 250_000, 32, RngStream(77))
        minus = gaussian_oracle(-0.6, 250_000, 32, RngStream(78))
        assert abs(plus.value - 0.6) < 0.02
        assert abs(minus.value - 0.6) < 0.02

    def test_rho_validated(self):
        with pytest.raises(ValidationError):
            sample_gaussian_copula(1.0, 100, RngStream(79))
