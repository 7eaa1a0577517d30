"""Acceptance battery: every headline claim checked end to end.

Each criterion is a pure function of fixed seeds returning a report
dict with a ``passed`` flag.  First runs are cached; the last criterion
reruns everything from scratch and requires byte-identical canonical
reports, so the whole battery doubles as a determinism check.
"""

import math

import numpy as np
import pytest

import conftest
from mocorr.extremes import (
    Functional,
    GEVShape,
    ZetaOverlap,
    block_maxima_simulate,
    gev_quantile,
    limit_copula_cdf,
    sample_limit_pair,
    sigma2_sb,
)
from mocorr.maxcorr import (
    PowerIndex,
    estimate_max_corr,
    gaussian_copula_cdf,
    max_corr_closed,
    max_corr_from_rates,
    power_corr,
    power_transform,
    sample_gaussian_copula,
    var_fk,
)
from mocorr.mo import (
    CopulaParams,
    DXiParam,
    MOParams,
    copula_cdf,
    max_stability_defect,
    mo_cdf,
    mo_to_copula,
    sample_copula,
    sample_d_xi,
    sample_mo,
)
from mocorr.numerics import QuadratureSpec, ecdf_ks, quad_2d
from mocorr.rng import RngStream
from mocorr.serialize import canonical_json

_CACHE: dict[int, str] = {}


def _chunked_corr(a: np.ndarray, b: np.ndarray, chunks: int = 20):
    """Correlation with a replication standard error."""
    corr = float(np.corrcoef(a, b)[0, 1])
    parts = [
        float(np.corrcoef(x, y)[0, 1])
        for x, y in zip(np.array_split(a, chunks), np.array_split(b, chunks))
    ]
    se = float(np.std(parts, ddof=1) / math.sqrt(len(parts)))
    return corr, se


def criterion_1() -> dict:
    """Estimator recovers sqrt(phi*psi) on random copula parameters."""
    root = RngStream(20260819)
    params = root.generator().uniform(0.05, 0.95, (10, 2))
    cases = []
    for i, (phi, psi) in enumerate(params):
        c = CopulaParams(float(phi), float(psi))
        s = sample_copula(c, 1_000_000, root.child(i))
        est = estimate_max_corr(s, m=64)
        target = max_corr_closed(c)
        cases.append({
            "phi": c.phi, "psi": c.psi, "target": target,
            "estimate": est.value, "abs_error": abs(est.value - target),
        })
    worst = max(case["abs_error"] for case in cases)
    return {"criterion": 1, "n": 1_000_000, "m": 64, "tolerance": 0.02,
            "worst_abs_error": worst, "cases": cases,
            "passed": bool(worst <= 0.02)}


def criterion_2() -> dict:
    """Rate-form closed expression equals the copula-form one exactly."""
    gen = RngStream(20260820).generator()
    rates = gen.uniform(0.05, 20.0, (10, 3))
    worst = 0.0
    cases = []
    for l1, l2, l12 in rates:
        p = MOParams(float(l1), float(l2), float(l12))
        direct = p.lambda12 / math.sqrt(
            (p.lambda1 + p.lambda12) * (p.lambda2 + p.lambda12))
        via_copula = max_corr_closed(mo_to_copula(p))
        through = max_corr_from_rates(p)
        err = max(abs(through - direct), abs(via_copula - direct))
        worst = max(worst, err)
        cases.append({"lambda1": p.lambda1, "lambda2": p.lambda2,
                      "lambda12": p.lambda12, "value": direct, "abs_error": err})
    return {"criterion": 2, "tolerance": 1e-12, "worst_abs_error": worst,
            "cases": cases, "passed": bool(worst <= 1e-12)}


def criterion_3() -> dict:
    """Power-function correlation: closed form, quadrature, and MC agree."""
    root = RngStream(20260821)
    gen = root.generator()
    spec = QuadratureSpec(32, 32)
    worst_quad = 0.0
    worst_mc = 0.0
    cases = []
    for i in range(20):
        phi, psi = gen.uniform(0.05, 0.95, 2)
        k, ell = gen.uniform(0.0, 4.0, 2)
        c = CopulaParams(float(phi), float(psi))
        idx = PowerIndex(float(k), float(ell))
        closed = power_corr(c, idx)

        def excess(u, v, c=c, k=idx.k, ell=idx.ell):
            return (copula_cdf(c, u, v) - u * v) * u ** k * v ** ell

        quad_corr = quad_2d(excess, spec) / math.sqrt(var_fk(idx.k) * var_fk(idx.ell))
        quad_err = abs(quad_corr - closed)

        s = sample_copula(c, 1_000_000, root.child(i))
        a = power_transform(s.pairs[:, 0], idx.k)
        b = power_transform(s.pairs[:, 1], idx.ell)
        mc, se = _chunked_corr(a, b)
        mc_sigmas = abs(mc - closed) / se

        worst_quad = max(worst_quad, quad_err)
        worst_mc = max(worst_mc, mc_sigmas)
        cases.append({"phi": c.phi, "psi": c.psi, "k": idx.k, "ell": idx.ell,
                      "closed": closed, "quad_abs_error": quad_err,
                      "mc": mc, "mc_se": se, "mc_sigmas": mc_sigmas})
    passed = worst_quad <= 1e-6 and worst_mc <= 3.0
    return {"criterion": 3, "quad_tolerance": 1e-6, "mc_tolerance_sigmas": 3.0,
            "worst_quad_abs_error": worst_quad, "worst_mc_sigmas": worst_mc,
            "cases": cases, "passed": bool(passed)}


def criterion_4() -> dict:
    """Section-family correlation climbs to sqrt(xi); MC agrees at k=5."""
    root = RngStream(20260822)
    worst_limit = 0.0
    worst_mc = 0.0
    cases = []
    for i in range(1, 10):
        xi = i / 10.0
        d = DXiParam(xi)
        limit_err = abs(power_corr(d.copula, PowerIndex(1e6 * xi, 1e6)) - math.sqrt(xi))

        s = sample_d_xi(d, 1_000_000, root.child(i))
        a = power_transform(s.pairs[:, 0], 5.0 * xi)
        b = power_transform(s.pairs[:, 1], 5.0)
        mc, se = _chunked_corr(a, b)
        closed = power_corr(d.copula, PowerIndex(5.0 * xi, 5.0))
        mc_sigmas = abs(mc - closed) / se

        worst_limit = max(worst_limit, limit_err)
        worst_mc = max(worst_mc, mc_sigmas)
        cases.append({"xi": xi, "limit_abs_error": limit_err, "closed_k5": closed,
                      "mc": mc, "mc_se": se, "mc_sigmas": mc_sigmas})
    passed = worst_limit <= 1e-4 and worst_mc <= 3.0
    return {"criterion": 4, "limit_tolerance": 1e-4, "mc_tolerance_sigmas": 3.0,
            "worst_limit_abs_error": worst_limit, "worst_mc_sigmas": worst_mc,
            "cases": cases, "passed": bool(passed)}


def criterion_5() -> dict:
    """Estimator recovers sqrt(xi) on the section family."""
    root = RngStream(20260823)
    cases = []
    for i, xi in enumerate((0.25, 0.5, 2.0 ** -0.5, 0.75)):
        d = DXiParam(xi)
        s = sample_d_xi(d, 1_000_000, root.child(i))
        est = estimate_max_corr(s, m=64)
        target = max_corr_closed(d.copula)
        cases.append({"xi": xi, "target": target, "estimate": est.value,
                      "abs_error": abs(est.value - target)})
    # the dyadic point pins the quarter power explicitly
    assert cases[2]["target"] == pytest.approx(2.0 ** -0.25, abs=1e-15)
    worst = max(case["abs_error"] for case in cases)
    return {"criterion": 5, "n": 1_000_000, "m": 64, "tolerance": 0.02,
            "worst_abs_error": worst, "cases": cases,
            "passed": bool(worst <= 0.02)}


def criterion_6() -> dict:
    """Estimator recovers |rho| for the Gaussian copula."""
    root = RngStream(20260824)
    cases = []
    for i, rho in enumerate((-0.8, -0.3, 0.0, 0.3, 0.8)):
        est = estimate_max_corr(sample_gaussian_copula(rho, 1_000_000, root.child(i)), m=64)
        cases.append({"rho": rho, "target": abs(rho), "estimate": est.value,
                      "abs_error": abs(est.value - abs(rho))})
    worst = max(case["abs_error"] for case in cases)
    return {"criterion": 6, "n": 1_000_000, "m": 64, "tolerance": 0.02,
            "worst_abs_error": worst, "cases": cases,
            "passed": bool(worst <= 0.02)}


def criterion_7() -> dict:
    """Max-stability identity holds to rounding on a dense grid."""
    gen = RngStream(20260825).generator()
    params = gen.uniform(0.05, 0.95, (10, 2))
    worst = 0.0
    cases = []
    for phi, psi in params:
        c = CopulaParams(float(phi), float(psi))
        defect = max(max_stability_defect(c, m, grid=101) for m in (2, 3, 5))
        worst = max(worst, defect)
        cases.append({"phi": c.phi, "psi": c.psi, "defect": defect})
    return {"criterion": 7, "grid": 101, "m": [2, 3, 5], "tolerance": 1e-12,
            "worst_defect": worst, "cases": cases,
            "passed": bool(worst <= 1e-12)}


def criterion_8() -> dict:
    """Rectangle masses are nonnegative and Frechet bounds hold."""
    gen = RngStream(20260826).generator()
    worst_mass = math.inf
    worst_frechet = 0.0
    for _ in range(20):
        phi, psi = gen.uniform(0.0, 1.0, 2)
        c = CopulaParams(float(phi), float(psi))
        corners = gen.random((4, 10_000))
        ulo = np.minimum(corners[0], corners[1])
        uhi = np.maximum(corners[0], corners[1])
        vlo = np.minimum(corners[2], corners[3])
        vhi = np.maximum(corners[2], corners[3])
        mass = (copula_cdf(c, uhi, vhi) - copula_cdf(c, ulo, vhi)
                - copula_cdf(c, uhi, vlo) + copula_cdf(c, ulo, vlo))
        worst_mass = min(worst_mass, float(mass.min()))
        u = np.concatenate([ulo, uhi])
        v = np.concatenate([vlo, vhi])
        values = copula_cdf(c, u, v)
        lower = np.maximum(u + v - 1.0, 0.0)
        upper = np.minimum(u, v)
        worst_frechet = max(worst_frechet,
                            float((lower - values).max()),
                            float((values - upper).max()))
    passed = worst_mass >= -1e-12 and worst_frechet <= 1e-12
    return {"criterion": 8, "rectangles": 10_000, "parameter_draws": 20,
            "mass_tolerance": -1e-12, "worst_rectangle_mass": worst_mass,
            "worst_frechet_excess": worst_frechet, "passed": bool(passed)}


def criterion_9() -> dict:
    """Every sampler matches its own cdf in KS distance."""
    root = RngStream(20260827)
    gen = root.generator()
    n = 100_000
    cases = []
    worst = 0.0

    def record(family, params_dict, stat):
        nonlocal worst
        worst = max(worst, stat)
        cases.append({"family": family, "params": params_dict, "ks": stat})

    for i in range(5):
        rates = gen.uniform(0.1, 5.0, 3)
        p = MOParams(*map(float, rates))
        s = sample_mo(p, n, root.child(10 + i))
        record("mo", p.as_dict(), ecdf_ks(s, lambda x, y: mo_cdf(p, x, y)))

        phi, psi = gen.uniform(0.05, 0.95, 2)
        c = CopulaParams(float(phi), float(psi))
        s = sample_copula(c, n, root.child(20 + i))
        record("copula", c.as_dict(), ecdf_ks(s, lambda u, v: copula_cdf(c, u, v)))

        d = DXiParam(float(gen.uniform(0.05, 0.95)))
        s = sample_d_xi(d, n, root.child(30 + i))
        record("d_xi", d.as_dict(), ecdf_ks(s, lambda u, v: copula_cdf(d.copula, u, v)))

        z = ZetaOverlap(float(gen.uniform(0.0, 1.0)))
        g = GEVShape(float(gen.uniform(-0.5, 1.0)))
        s = sample_limit_pair(z, g, n, root.child(40 + i))
        record("limit_gev", {"zeta": z.zeta, "gamma": g.gamma},
               ecdf_ks(s, lambda x, y: limit_copula_cdf(z, g, x, y)))

        rho = float(gen.uniform(-0.95, 0.95))
        s = sample_gaussian_copula(rho, n, root.child(50 + i))
        record("gaussian", {"rho": rho},
               ecdf_ks(s, lambda u, v: gaussian_copula_cdf(rho, u, v)))

    return {"criterion": 9, "n": n, "draws_per_family": 5, "tolerance": 0.01,
            "worst_ks": worst, "cases": cases, "passed": bool(worst < 0.01)}


def criterion_10() -> dict:
    """Sliding-blocks variance never beats disjoint, per functional and shape."""
    root = RngStream(20260828)
    n_mc = 200_000
    combos = []
    for gamma in (-0.25, 0.0, 0.5):
        g = GEVShape(gamma)
        hs = [Functional.identity(), Functional.indicator(gev_quantile(g, 0.9)),
              Functional.log_transform()]
        for h in hs:
            if gamma > 0 and h.tail_order > 0 and 4 * h.tail_order * gamma >= 1.0:
                continue
            combos.append((h, g))
    assert len(combos) == 8

    cases = []
    all_pass = True
    for i, (h, g) in enumerate(combos):
        report = sigma2_sb(h, g, n_mc=n_mc, rng=root.child(i))
        ratio = report.ratio
        se_ratio = ratio * math.hypot(report.sigma2_sb_se / report.sigma2_sb,
                                      report.sigma2_db_se / report.sigma2_db)
        ratio_ok = ratio <= 1.0 + 3.0 * se_ratio

        curve_ok = True
        worst_node = 0.0
        db = report.sigma2_db
        for zeta, cov, se in report.per_zeta:
            corr = cov / db
            se_corr = math.hypot(se / db, cov * report.sigma2_db_se / db ** 2)
            excess = corr - (1.0 - zeta) - 3.0 * se_corr
            worst_node = max(worst_node, excess)
            if excess > 0.0:
                curve_ok = False

        ok = ratio_ok and curve_ok
        all_pass = all_pass and ok
        cases.append({"h": h.as_dict(), "gamma": g.gamma, "ratio": ratio,
                      "ratio_se": se_ratio, "sigma2_db": report.sigma2_db,
                      "sigma2_sb": report.sigma2_sb,
                      "worst_node_excess": worst_node, "passed": bool(ok)})
    return {"criterion": 10, "n_mc": n_mc, "combinations": len(combos),
            "cases": cases, "passed": bool(all_pass)}


def criterion_11() -> dict:
    """Block simulation reproduces both asymptotic variances within 10%."""
    root = RngStream(20260829)
    h = Functional.identity()
    g = GEVShape(0.0)
    db_target = math.pi ** 2 / 6.0
    sb_target = sigma2_sb(h, g, n_mc=200_000, rng=root.child(0)).sigma2_sb

    disjoint = block_maxima_simulate("exp", 1000, 2000, "disjoint", h, root.child(1))
    sliding = block_maxima_simulate("exp", 1000, 2000, "sliding", h, root.child(2))
    rel_db = abs(disjoint.estimate - db_target) / db_target
    rel_sb = abs(sliding.estimate - sb_target) / sb_target
    passed = rel_db <= 0.10 and rel_sb <= 0.10
    return {"criterion": 11, "r": 1000, "n_blocks": 2000, "tolerance_rel": 0.10,
            "disjoint_target": db_target, "disjoint_estimate": disjoint.estimate,
            "disjoint_rel_error": rel_db,
            "sliding_target": sb_target, "sliding_estimate": sliding.estimate,
            "sliding_rel_error": rel_sb, "passed": bool(passed)}


RUNNERS = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11,
}


def _run_cached(number: int) -> dict:
    if number not in _CACHE:
        _CACHE[number] = canonical_json(RUNNERS[number]())
    import json

    return json.loads(_CACHE[number])


def _announce(number: int, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def test_criterion_01_estimator_recovers_closed_form():
    r = _run_cached(1)
    _announce(1, r["passed"], f"worst |err| {r['worst_abs_error']:.4f} vs 0.02")
    assert r["passed"]


def test_criterion_02_rate_form_identity():
    r = _run_cached(2)
    _announce(2, r["passed"], f"worst |err| {r['worst_abs_error']:.2e} vs 1e-12")
    assert r["passed"]


def test_criterion_03_triple_agreement():
    r = _run_cached(3)
    _announce(3, r["passed"],
              f"quad {r['worst_quad_abs_error']:.2e} vs 1e-6, "
              f"mc {r['worst_mc_sigmas']:.2f} sigmas vs 3")
    assert r["passed"]


def test_criterion_04_section_family_limit():
    r = _run_cached(4)
    _announce(4, r["passed"],
              f"limit {r['worst_limit_abs_error']:.2e} vs 1e-4, "
              f"mc {r['worst_mc_sigmas']:.2f} sigmas vs 3")
    assert r["passed"]


def test_criterion_05_section_family_estimates():
    r = _run_cached(5)
    _announce(5, r["passed"], f"worst |err| {r['worst_abs_error']:.4f} vs 0.02")
    assert r["passed"]


def test_criterion_06_gaussian_oracle():
    r = _run_cached(6)
    _announce(6, r["passed"], f"worst |err| {r['worst_abs_error']:.4f} vs 0.02")
    assert r["passed"]


def test_criterion_07_max_stability():
    r = _run_cached(7)
    _announce(7, r["passed"], f"worst defect {r['worst_defect']:.2e} vs 1e-12")
    assert r["passed"]


def test_criterion_08_copula_axioms():
    r = _run_cached(8)
    _announce(8, r["passed"],
              f"min mass {r['worst_rectangle_mass']:.2e}, "
              f"frechet excess {r['worst_frechet_excess']:.2e}")
    assert r["passed"]


def test_criterion_09_sampler_fidelity():
    r = _run_cached(9)
    _announce(9, r["passed"], f"worst KS {r['worst_ks']:.4f} vs 0.01")
    assert r["passed"]


def test_criterion_10_variance_inequality():
    r = _run_cached(10)
    worst = max(c["ratio"] for c in r["cases"])
    _announce(10, r["passed"], f"{r['combinations']} combos, worst ratio {worst:.3f}")
    assert r["passed"]


def test_criterion_11_block_simulation():
    r = _run_cached(11)
    _announce(11, r["passed"],
              f"disjoint off {r['disjoint_rel_error']:.1%}, "
              f"sliding off {r['sliding_rel_error']:.1%} vs 10%")
    assert r["passed"]


def test_criterion_12_determinism():
    mismatches = []
    for number, runner in RUNNERS.items():
        first = _run_cached(number)  # ensures the cache is populated
        again = canonical_json(runner())
        if again != _CACHE[number]:
            mismatches.append(number)
        del first
    passed = not mismatches
    detail = "all reports byte-identical" if passed else f"mismatch: {mismatches}"
    _announce(12, passed, detail)
    assert passed
