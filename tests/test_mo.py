import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import sampler_z
from mocorr.errors import EvaluationError, ValidationError
from mocorr.extremes import GEVShape, ZetaOverlap
from mocorr.families import FAMILY_TABLE
from mocorr.maxcorr import PowerIndex
from mocorr.mo import (
    CopulaParams,
    DXiParam,
    MOParams,
    PairSample,
    copula_cdf,
    max_stability_defect,
    mo_cdf,
    mo_marginal_survival,
    mo_survival,
    mo_to_copula,
    perturbed_copula_cdf,
    sample_copula,
    sample_d_xi,
    sample_mo,
    write_sample_csv,
)
from mocorr.numerics import chi2_z
from mocorr.rng import RngStream, draw_uniforms

rates = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
unit_open = st.floats(min_value=0.01, max_value=0.99)
unit_closed = st.floats(min_value=0.0, max_value=1.0)


class TestSurvival:
    def test_origin(self):
        assert mo_survival(MOParams(1, 1, 1), 0.0, 0.0) == 1.0

    def test_frozen_value(self):
        # exp(-1 - 1 - 1) at the unit point with unit rates.
        assert mo_survival(MOParams(1, 1, 1), 1.0, 1.0) == pytest.approx(
            0.04978706836786394, abs=1e-15)

    def test_collapses_to_marginal_on_axis(self):
        p = MOParams(2, 3, 1)
        assert mo_survival(p, 1.0, 0.0) == pytest.approx(math.exp(-3.0), abs=1e-15)
        assert mo_survival(p, 1.0, 0.0) == pytest.approx(
            mo_marginal_survival(p, 1, 1.0), abs=1e-15)

    def test_negative_coordinate_rejected(self):
        with pytest.raises(ValidationError):
            mo_survival(MOParams(1, 1, 1), -0.1, 0.5)

    @given(rates, rates, rates, st.floats(0, 5), st.floats(0, 5))
    def test_survival_copula_identity(self, l1, l2, l12, x1, x2):
        p = MOParams(l1, l2, l12)
        c = mo_to_copula(p)
        direct = mo_survival(p, x1, x2)
        composed = copula_cdf(
            c, mo_marginal_survival(p, 1, x1), mo_marginal_survival(p, 2, x2))
        assert composed == pytest.approx(direct, abs=1e-12)

    @given(rates, rates, rates, st.floats(0, 5), st.floats(0, 5))
    def test_cdf_inclusion_exclusion_bounds(self, l1, l2, l12, x1, x2):
        p = MOParams(l1, l2, l12)
        value = mo_cdf(p, x1, x2)
        assert -1e-12 <= value <= 1.0 + 1e-12


# Per record field: a valid record, the rule in its message, one finite
# value outside the domain (None where there is none) and the endpoints
# the domain includes.
RECORD_FIELDS = [
    (MOParams, {"lambda1": 1, "lambda2": 2, "lambda12": 3}, name,
     "must be positive and finite", 0.0, ())
    for name in ("lambda1", "lambda2", "lambda12")
] + [
    (CopulaParams, {"phi": 0.5, "psi": 0.5}, name, "must lie in [0, 1]", 1.5, (0, 1))
    for name in ("phi", "psi")
] + [
    (DXiParam, {"xi": 0.5}, "xi", "must lie in (0, 1]", 0.0, (1,)),
    (GEVShape, {"gamma": 0.5}, "gamma", "must be finite", None, ()),
    (ZetaOverlap, {"zeta": 0.5}, "zeta", "must lie in [0, 1]", -0.25, (0, 1)),
] + [
    (PowerIndex, {"k": 1, "ell": 2}, name, "must be nonnegative and finite", -0.5, (0,))
    for name in ("k", "ell")
]


@pytest.mark.parametrize("record, valid, name, rule, outside, endpoints", RECORD_FIELDS,
                         ids=[f"{r.__name__}.{n}" for r, _, n, *_ in RECORD_FIELDS])
def test_record_field_rule(record, valid, name, rule, outside, endpoints):
    message = f"^{re.escape(f'{name} {rule}')}$"
    for bad in (math.nan, math.inf, -math.inf, outside):
        if bad is not None:
            with pytest.raises(ValidationError, match=message):
                record(**{**valid, name: bad})
    for value in endpoints:
        stored = getattr(record(**{**valid, name: value}), name)
        assert type(stored) is float and stored == value
    stored = record(**valid)
    assert all(type(getattr(stored, key)) is float for key in valid)


class TestCopulaParams:
    def test_from_rates(self):
        c = mo_to_copula(MOParams(1, 1, 1))
        assert (c.phi, c.psi) == (0.5, 0.5)

    def test_dominant_shared_shock(self):
        c = mo_to_copula(MOParams(0.001, 0.001, 1000))
        assert c.phi > 0.999 and c.psi > 0.999

    def test_rates_consistency_frozen(self):
        # lam12 / sqrt((lam1+lam12)(lam2+lam12)) at (2, 3, 5): 5/sqrt(56).
        c = mo_to_copula(MOParams(2, 3, 5))
        assert math.sqrt(c.phi * c.psi) == pytest.approx(
            0.6681531047810609, abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            CopulaParams(1.5, 0.5)
        with pytest.raises(ValidationError):
            MOParams(1.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            DXiParam(0.0)


class TestCopulaCdf:
    @given(unit_closed, unit_closed, unit_closed)
    def test_uniform_margins(self, phi, psi, u):
        c = CopulaParams(phi, psi)
        assert copula_cdf(c, u, 1.0) == pytest.approx(u, abs=1e-15)
        assert copula_cdf(c, 1.0, u) == pytest.approx(u, abs=1e-15)
        assert copula_cdf(c, u, 0.0) == 0.0
        assert copula_cdf(c, 0.0, u) == 0.0

    def test_boundary_parameters(self):
        u, v = 0.3, 0.8
        assert copula_cdf(CopulaParams(0, 0), u, v) == pytest.approx(u * v)
        assert copula_cdf(CopulaParams(1, 1), u, v) == pytest.approx(min(u, v))

    def test_frozen_value(self):
        assert copula_cdf(CopulaParams(0.5, 0.5), 0.25, 0.25) == pytest.approx(0.125)

    @given(unit_closed, unit_closed,
           st.tuples(unit_closed, unit_closed, unit_closed, unit_closed))
    def test_rectangle_mass_nonnegative(self, phi, psi, corners):
        c = CopulaParams(phi, psi)
        u1, u2 = sorted(corners[:2])
        v1, v2 = sorted(corners[2:])
        mass = (copula_cdf(c, u2, v2) - copula_cdf(c, u1, v2)
                - copula_cdf(c, u2, v1) + copula_cdf(c, u1, v1))
        assert mass >= -1e-12

    @given(unit_closed, unit_closed, unit_closed, unit_closed)
    def test_frechet_bounds(self, phi, psi, u, v):
        value = copula_cdf(CopulaParams(phi, psi), u, v)
        assert max(u + v - 1.0, 0.0) - 1e-12 <= value <= min(u, v) + 1e-12

    def test_domain_validated(self):
        with pytest.raises(ValidationError):
            copula_cdf(CopulaParams(0.5, 0.5), 1.2, 0.5)


def _section_formula(xi, u, v):
    # The section family's own form, kept as the oracle for C_{xi,1}.
    return u ** (1.0 - xi) * np.minimum(u ** xi, v)


class TestDXiCdf:
    @pytest.mark.parametrize("xi", [1e-9, 0.05, 0.3, 0.5, 0.75, 0.999, 1.0])
    def test_section_is_copula_at_xi_1(self, xi):
        pts = np.linspace(0.0, 1.0, 401)
        U, V = np.meshgrid(pts, pts, indexing="ij")
        gap = np.abs(copula_cdf(DXiParam(xi).copula, U, V) - _section_formula(xi, U, V))
        assert gap.max() <= 2.3e-16

    @given(st.floats(0.01, 1.0), unit_closed)
    def test_margins(self, xi, u):
        d = DXiParam(xi)
        assert copula_cdf(d.copula, u, 1.0) == pytest.approx(u, abs=1e-15)
        assert copula_cdf(d.copula, 1.0, u) == pytest.approx(u, abs=1e-15)

    def test_comonotone_boundary(self):
        assert copula_cdf(DXiParam(1.0).copula, 0.3, 0.8) == pytest.approx(0.3)
        assert copula_cdf(DXiParam(1.0).copula, 0.8, 0.3) == pytest.approx(0.3)

    def test_frozen_value(self):
        assert copula_cdf(DXiParam(0.5).copula, 0.25, 0.4) == pytest.approx(0.2)


class TestSamplers:
    def test_mo_survival_matches(self):
        p = MOParams(1, 1, 1)
        s = sample_mo(p, 100_000, RngStream(41))
        frac = float(np.mean((s.pairs[:, 0] > 1.0) & (s.pairs[:, 1] > 1.0)))
        target = math.exp(-3.0)
        se = math.sqrt(target * (1 - target) / s.n)
        assert abs(frac - target) <= 3 * se

    def test_mo_marginal_mean(self):
        p = MOParams(1, 1, 1)
        s = sample_mo(p, 100_000, RngStream(42))
        x1 = s.pairs[:, 0]
        se = float(np.std(x1)) / math.sqrt(s.n)
        assert abs(float(np.mean(x1)) - 0.5) <= 3 * se

    @pytest.mark.parametrize("p", [MOParams(1, 1, 1), MOParams(2, 3, 5)])
    def test_mo_tie_fraction(self, p):
        s = sample_mo(p, 100_000, RngStream(43))
        frac = float(np.mean(s.pairs[:, 0] == s.pairs[:, 1]))
        target = p.lambda12 / (p.lambda1 + p.lambda2 + p.lambda12)
        se = math.sqrt(target * (1 - target) / s.n)
        assert abs(frac - target) <= 3 * se

    def test_copula_sampler_ks(self):
        # The battery's chi-square: the draw fits its own copula, not phi + 0.01.
        c = CopulaParams(0.5, 0.5)
        s = sample_copula(c, 100_000, RngStream(44))
        assert sampler_z(s, "copula", c) < 4.0
        assert sampler_z(s, "copula", CopulaParams(0.51, 0.5)) > 4.0

    def test_copula_comonotone_degenerate(self):
        s = sample_copula(CopulaParams(1, 1), 1000, RngStream(45))
        np.testing.assert_array_equal(s.pairs[:, 0], s.pairs[:, 1])

    def test_copula_independence_degenerate(self):
        c = CopulaParams(0, 0)
        s = sample_copula(c, 100_000, RngStream(46))
        assert sampler_z(s, "copula", c) < 4.0
        # C_{phi, 0} is independence at every phi; both exponents at 0.04 are not.
        assert sampler_z(s, "copula", CopulaParams(0.04, 0.04)) > 4.0

    def test_copula_power_corr_frozen(self):
        # Corr(f_0(U), f_0(V)) at phi = psi = 0.5 is 0.75/1.75.
        s = sample_copula(CopulaParams(0.5, 0.5), 100_000, RngStream(47))
        u = s.pairs[:, 0] - s.pairs[:, 0].mean()
        v = s.pairs[:, 1] - s.pairs[:, 1].mean()
        corr = float(np.mean(u * v) / np.sqrt(np.mean(u * u) * np.mean(v * v)))
        assert corr == pytest.approx(0.42857142857142855, abs=3 * 1.0 / math.sqrt(s.n))

    def test_d_xi_sampler_ks(self):
        d = DXiParam(0.5)
        s = sample_d_xi(d, 100_000, RngStream(48))
        assert sampler_z(s, "d_xi", d) < 4.0
        assert sampler_z(s, "d_xi", DXiParam(0.51)) > 4.0

    @pytest.mark.parametrize("xi", [0.3, 1.0])
    def test_d_xi_sampler_is_section_map(self, xi):
        # Two columns (x, z), mapped to (max(x**(1/(1-xi)), z**(1/xi)), z).
        s = sample_d_xi(DXiParam(xi), 1000, RngStream(50))
        x, z = draw_uniforms(RngStream(50), 1000, 2).T
        first = z if xi == 1.0 else np.maximum(x ** (1.0 / (1.0 - xi)), z ** (1.0 / xi))
        np.testing.assert_array_equal(s.pairs, np.column_stack([first, z]))

    def test_d_xi_comonotone_boundary(self):
        s = sample_d_xi(DXiParam(1.0), 1000, RngStream(49))
        np.testing.assert_array_equal(s.pairs[:, 0], s.pairs[:, 1])

    def test_d_xi_power_corr_frozen(self):
        # Corr(f_{0.5}(S), f_1(T)) at xi = 0.5: 0.5*sqrt(4*5)/3.5.
        s = sample_d_xi(DXiParam(0.5), 200_000, RngStream(50))
        a = s.pairs[:, 0] ** 1.5 / 1.5
        b = s.pairs[:, 1] ** 2.0 / 2.0
        a -= a.mean()
        b -= b.mean()
        corr = float(np.mean(a * b) / np.sqrt(np.mean(a * a) * np.mean(b * b)))
        assert corr == pytest.approx(0.6388765649999399, abs=3 * 1.5 / math.sqrt(s.n))

    def test_mo_transformed_to_copula_scale_ks(self):
        p = MOParams(2, 3, 5)
        c = mo_to_copula(p)
        s = sample_mo(p, 100_000, RngStream(51))
        transformed = np.column_stack([
            mo_marginal_survival(p, 1, s.pairs[:, 0]),
            mo_marginal_survival(p, 2, s.pairs[:, 1]),
        ])
        assert sampler_z(transformed, "copula", c) < 4.0
        assert sampler_z(transformed, "copula", CopulaParams(c.phi + 0.01, c.psi)) > 4.0
        # The native draw against the shock model's own cdf: the same counts.
        assert sampler_z(s, "mo", p) == pytest.approx(sampler_z(transformed, "copula", c),
                                                      abs=1e-9)

    def test_a_shifted_margin_fails_on_the_margins(self):
        # lambda12 + 0.06 tilts both margins on the copula scale: spread over
        # the 256 joint cells it stays under 4, on the margins it does not.
        p = MOParams(1.0, 2.0, 1.5)
        s = sample_mo(MOParams(1.0, 2.0, 1.56), 100_000, RngStream(53))
        u = FAMILY_TABLE["mo"].to_copula(p, s.pairs)
        counts = np.histogram2d(u[:, 0], u[:, 1], bins=16, range=[[0, 1], [0, 1]])[0]
        assert chi2_z(counts, FAMILY_TABLE["mo"].masses(p, 16)) < 4.0
        assert sampler_z(s, "mo", p) > 4.0

    def test_mo_shock_overflow(self):
        # A shock time past the float range is inf; the minimum with the other
        # shock hides it, and a coordinate that stays inf is a numerical failure.
        s = sample_mo(MOParams(1e-300, 1.0, 5e-324), 1000, RngStream(1))
        assert np.all(np.isfinite(s.pairs))
        with pytest.raises(EvaluationError, match="overflows"):
            sample_mo(MOParams(5e-324, 1.0, 5e-324), 1000, RngStream(1))

    def test_zero_draws_rejected(self):
        with pytest.raises(ValidationError):
            sample_copula(CopulaParams(0.5, 0.5), 0, RngStream(1))

    def test_sample_scale_validated(self):
        with pytest.raises(ValidationError):
            PairSample(pairs=np.array([[0.5, 1.5]]), family="copula",
                       params={"phi": 0.5, "psi": 0.5}, seed=RngStream(1))
        with pytest.raises(ValidationError):
            PairSample(pairs=np.array([[-0.5, 1.5]]), family="mo",
                       params={}, seed=RngStream(1))


class TestMaxStability:
    @given(unit_closed, unit_closed, st.sampled_from([2, 3, 5]))
    def test_defect_tiny(self, phi, psi, m):
        assert max_stability_defect(CopulaParams(phi, psi), m, grid=41) <= 1e-12

    def test_independence_defect_at_rounding_floor(self):
        # (u^(1/m))^m re-rounds, so "exact" means one ulp here.
        assert max_stability_defect(CopulaParams(0, 0), 4, grid=21) <= 1e-15

    def test_perturbation_detected(self):
        c = CopulaParams(0.5, 0.5)
        bad = perturbed_copula_cdf(c, 0.01)
        assert max_stability_defect(c, 2, grid=101, cdf=bad) > 1e-4


class TestCsvExport:
    def test_round_trip_with_sidecar(self, tmp_path):
        s = sample_copula(CopulaParams(0.25, 0.75), 100, RngStream(52))
        path = tmp_path / "pairs.csv"
        write_sample_csv(s, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "u,v"
        values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(values, s.pairs)

        meta = json.loads((tmp_path / "pairs.meta.json").read_text())
        assert meta["family"] == "copula"
        assert meta["n"] == 100
        assert meta["params"] == {"phi": 0.25, "psi": 0.75}
        assert meta["seed"] == {"seed": 52, "stream_id": 0}

    def test_mo_scale_header(self, tmp_path):
        s = sample_mo(MOParams(1, 2, 3), 10, RngStream(53))
        path = tmp_path / "mo.csv"
        write_sample_csv(s, path)
        assert path.read_text().splitlines()[0] == "x1,x2"
