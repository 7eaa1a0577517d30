"""Self-contained property battery.

Every closed form in the package is cross-checked against an
independent route: quadrature against algebra, samplers against cdfs,
the spectral estimator against the closed-form maximal correlation,
and the sliding/disjoint variance inequality against Monte Carlo.
The battery powers the ``verify`` subcommand; ``quick`` shrinks the
sample sizes so the whole suite finishes well under a minute.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import extremes, maxcorr, mo
from .families import FAMILY_TABLE
from .numerics import QuadratureSpec, ecdf_ks, quad_2d
from .rng import DEFAULT_SEED, RngStream


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class BatterySizes:
    ks_n: int
    ks_draws: int
    est_n: int
    est_m: int
    est_cases: int
    quad_cases: int
    rect_draws: int
    rect_params: int
    var_n_mc: int
    zeta_nodes: int
    defect_grid: int


FULL_SIZES = BatterySizes(
    ks_n=100_000, ks_draws=2, est_n=1_000_000, est_m=64, est_cases=3,
    quad_cases=6, rect_draws=10_000, rect_params=20, var_n_mc=100_000,
    zeta_nodes=32, defect_grid=101,
)

QUICK_SIZES = BatterySizes(
    ks_n=20_000, ks_draws=1, est_n=200_000, est_m=32, est_cases=2,
    quad_cases=3, rect_draws=2_000, rect_params=6, var_n_mc=30_000,
    zeta_nodes=12, defect_grid=41,
)


def _ks_threshold(n: int) -> float:
    # Calibrated so n = 1e5 uses the documented 0.01 cut.
    return 0.01 * math.sqrt(100_000 / n)


def _random_copula(gen) -> mo.CopulaParams:
    phi, psi = gen.uniform(0.05, 0.95, size=2)
    return mo.CopulaParams(float(phi), float(psi))


def check_copula_axioms(sizes: BatterySizes, rng: RngStream) -> CheckResult:
    """Rectangle masses nonnegative, margins uniform, Frechet bounds hold."""
    gen = rng.generator()
    worst_rect = np.inf
    worst_margin = 0.0
    worst_frechet = 0.0
    grid = np.linspace(0.0, 1.0, 41)
    U, V = np.meshgrid(grid, grid, indexing="ij")
    lower = np.maximum(U + V - 1.0, 0.0)
    upper = np.minimum(U, V)
    for _ in range(sizes.rect_params):
        c = _random_copula(gen)
        corners = gen.random((sizes.rect_draws, 4))
        u1 = np.minimum(corners[:, 0], corners[:, 1])
        u2 = np.maximum(corners[:, 0], corners[:, 1])
        v1 = np.minimum(corners[:, 2], corners[:, 3])
        v2 = np.maximum(corners[:, 2], corners[:, 3])
        mass = (mo.copula_cdf(c, u2, v2) - mo.copula_cdf(c, u1, v2)
                - mo.copula_cdf(c, u2, v1) + mo.copula_cdf(c, u1, v1))
        worst_rect = min(worst_rect, float(mass.min()))
        cu = mo.copula_cdf(c, grid, np.ones_like(grid))
        cv = mo.copula_cdf(c, np.ones_like(grid), grid)
        worst_margin = max(worst_margin, float(np.max(np.abs(cu - grid))),
                           float(np.max(np.abs(cv - grid))))
        values = mo.copula_cdf(c, U, V)
        worst_frechet = max(worst_frechet,
                            float(np.max(lower - values)),
                            float(np.max(values - upper)))
    passed = worst_rect >= -1e-12 and worst_margin <= 1e-12 and worst_frechet <= 1e-12
    detail = (f"min rectangle mass {worst_rect:.3e}, margin defect {worst_margin:.3e}, "
              f"frechet defect {worst_frechet:.3e}")
    return CheckResult("copula-axioms", passed, detail)


def check_survival_identity(sizes: BatterySizes, rng: RngStream) -> CheckResult:
    """Joint survival factors through the copula of the marginal survivals."""
    gen = rng.generator()
    worst = 0.0
    for _ in range(sizes.rect_params):
        lam = gen.uniform(0.2, 3.0, size=3)
        p = mo.MOParams(*map(float, lam))
        c = mo.mo_to_copula(p)
        x = gen.uniform(0.0, 2.0, size=(200, 2))
        direct = mo.mo_survival(p, x[:, 0], x[:, 1])
        via_copula = mo.copula_cdf(
            c,
            mo.mo_marginal_survival(p, 1, x[:, 0]),
            mo.mo_marginal_survival(p, 2, x[:, 1]),
        )
        worst = max(worst, float(np.max(np.abs(direct - via_copula))))
    return CheckResult("survival-copula-identity", worst <= 1e-12,
                       f"max |survival - copula(survivals)| = {worst:.3e}")


def check_max_stability(sizes: BatterySizes, rng: RngStream,
                        inject_defect: bool = False) -> CheckResult:
    """Extreme-value structure on the lattice, for several roots."""
    gen = rng.generator()
    worst = 0.0
    for _ in range(max(4, sizes.rect_params // 2)):
        c = _random_copula(gen)
        cdf = mo.perturbed_copula_cdf(c, 0.01) if inject_defect else None
        for m in (2, 3, 5):
            worst = max(worst, mo.max_stability_defect(c, m, sizes.defect_grid, cdf=cdf))
    return CheckResult("max-stability", worst <= 1e-12,
                       f"max defect {worst:.3e} over m in (2, 3, 5)")


#: Per family, in draw order: its random parameters and the label of
#: its worst case.
_KS_CASES = (
    ("copula", lambda gen: gen.uniform(0.05, 0.95, size=2), lambda d: f"copula{d}"),
    ("d_xi", lambda gen: [gen.uniform(0.1, 1.0)], lambda d: f"d_xi{d}"),
    ("mo", lambda gen: gen.uniform(0.3, 2.5, size=3), lambda d: f"mo{d}"),
    ("limit_gev", lambda gen: [gen.uniform(0.1, 0.9), gen.uniform(-0.5, 0.8)],
     lambda d: f"limit_gev(zeta={d['zeta']:.3f}, gamma={d['gamma']:.3f})"),
    ("gaussian", lambda gen: [gen.uniform(-0.85, 0.85)],
     lambda d: f"gaussian(rho={d['rho']:.3f})"),
)


def check_sampler_ks(sizes: BatterySizes, rng: RngStream) -> CheckResult:
    """Each sampler against its own cdf, plus the transformed shock pairs."""
    gen = rng.generator()
    threshold = _ks_threshold(sizes.ks_n)
    worst = 0.0
    worst_name = ""
    stream_index = 0
    for _ in range(sizes.ks_draws):
        for name, draw, label in _KS_CASES:
            family = FAMILY_TABLE[name]
            p = family.params(*map(float, draw(gen)))
            sample = family.sample(p, sizes.ks_n, rng.child(stream_index))
            stream_index += 1
            d = ecdf_ks(sample, lambda x, y: family.cdf(p, x, y))
            if d > worst:
                worst, worst_name = d, label(family.as_dict(p))
            if name == "mo":
                # The same draw taken through the marginal survivals must
                # follow the survival copula.
                c = mo.mo_to_copula(p)
                d = ecdf_ks(family.to_copula(p, sample.pairs),
                            lambda u, v: mo.copula_cdf(c, u, v))
                if d > worst:
                    worst, worst_name = d, f"mo->copula{p.as_dict()}"
    return CheckResult("sampler-ks", worst < threshold,
                       f"worst KS {worst:.4f} ({worst_name}) vs threshold {threshold:.4f}")


def check_quadrature_agreement(sizes: BatterySizes, rng: RngStream) -> CheckResult:
    """Closed-form power covariances against the 2-D quadrature route."""
    gen = rng.generator()
    spec = QuadratureSpec(32, 16)
    worst = 0.0
    for _ in range(sizes.quad_cases):
        c = _random_copula(gen)
        idx = maxcorr.PowerIndex(float(gen.uniform(0.0, 4.0)), float(gen.uniform(0.0, 4.0)))
        closed = maxcorr.power_cov(c, idx)

        def integrand(u, v, c=c, idx=idx):
            return (mo.copula_cdf(c, u, v) - u * v) * u ** idx.k * v ** idx.ell

        worst = max(worst, abs(closed - quad_2d(integrand, spec)))
    return CheckResult("closed-form-vs-quadrature", worst <= 1e-6,
                       f"max |closed - quadrature| = {worst:.3e}")


def check_power_consistency(sizes: BatterySizes, rng: RngStream) -> CheckResult:
    """corr == cov / sqrt(var*var) and corr <= closed maximal correlation."""
    gen = rng.generator()
    worst_identity = 0.0
    worst_bound = -np.inf
    for _ in range(100):
        c = _random_copula(gen)
        idx = maxcorr.PowerIndex(float(gen.uniform(0.0, 30.0)), float(gen.uniform(0.0, 30.0)))
        corr = maxcorr.power_corr(c, idx)
        rebuilt = maxcorr.power_cov(c, idx) / math.sqrt(
            maxcorr.var_fk(idx.k) * maxcorr.var_fk(idx.ell))
        worst_identity = max(worst_identity, abs(corr - rebuilt))
        worst_bound = max(worst_bound, corr - maxcorr.max_corr_closed(c))
    passed = worst_identity <= 1e-12 and worst_bound <= 1e-12
    return CheckResult("power-corr-consistency", passed,
                       f"identity gap {worst_identity:.3e}, bound excess {worst_bound:.3e}")


def check_estimator_closed_form(sizes: BatterySizes, rng: RngStream) -> CheckResult:
    """Spectral estimate within 0.02 of sqrt(phi*psi)."""
    gen = rng.generator()
    worst = 0.0
    worst_name = ""
    for i in range(sizes.est_cases):
        c = _random_copula(gen)
        sample = mo.sample_copula(c, sizes.est_n, rng.child(i))
        est = maxcorr.estimate_max_corr(sample, m=sizes.est_m)
        err = abs(est.value - maxcorr.max_corr_closed(c))
        if err > worst:
            worst, worst_name = err, f"phi={c.phi:.3f}, psi={c.psi:.3f}"
    return CheckResult("estimator-vs-closed-form", worst <= 0.02,
                       f"max |estimate - closed| = {worst:.4f} ({worst_name})")


def check_dxi_estimator(sizes: BatterySizes, rng: RngStream) -> CheckResult:
    """Section-family estimate within 0.02 of sqrt(xi)."""
    worst = 0.0
    for i, xi in enumerate((0.5, 0.75)[: max(1, sizes.est_cases - 1)]):
        d = mo.DXiParam(xi)
        sample = mo.sample_d_xi(d, sizes.est_n, rng.child(i))
        est = maxcorr.estimate_max_corr(sample, m=sizes.est_m)
        worst = max(worst, abs(est.value - maxcorr.d_xi_max_corr(d)))
    return CheckResult("section-family-estimate", worst <= 0.02,
                       f"max |estimate - sqrt(xi)| = {worst:.4f}")


def check_gaussian_oracle(sizes: BatterySizes, rng: RngStream) -> CheckResult:
    """Gaussian copula estimate within 0.02 of |rho| (0.05 at independence)."""
    est0 = maxcorr.gaussian_oracle(0.0, sizes.est_n, sizes.est_m, rng.child(0))
    est6 = maxcorr.gaussian_oracle(0.6, sizes.est_n, sizes.est_m, rng.child(1))
    err6 = abs(est6.value - 0.6)
    passed = est0.value <= 0.05 and err6 <= 0.02
    return CheckResult("gaussian-oracle", passed,
                       f"independence estimate {est0.value:.4f}, |rho=0.6 error| {err6:.4f}")


def check_variance_inequality(sizes: BatterySizes, rng: RngStream) -> CheckResult:
    """sigma2_sb <= sigma2_db within MC noise for two functionals."""
    quad = QuadratureSpec(sizes.zeta_nodes, 1)
    worst = -np.inf
    cases = [
        (extremes.Functional.identity(), extremes.GEVShape(0.0)),
        (extremes.Functional.indicator(extremes.gev_quantile(extremes.GEVShape(0.5), 0.9)),
         extremes.GEVShape(0.5)),
    ]
    for i, (h, g) in enumerate(cases):
        report = extremes.sigma2_sb(h, g, quad, sizes.var_n_mc, rng.child(i))
        slack = 3.0 * math.sqrt(report.sigma2_sb_se ** 2 + report.sigma2_db_se ** 2)
        worst = max(worst, report.sigma2_sb - report.sigma2_db - slack)
    return CheckResult("variance-inequality", worst <= 0.0,
                       f"max (sb - db - 3se) = {worst:.3e}")


def check_zeta_factorization(sizes: BatterySizes, rng: RngStream) -> CheckResult:
    """Per-overlap correlation never exceeds the maximal correlation 1 - zeta."""
    h = extremes.Functional.identity()
    g = extremes.GEVShape(0.0)
    worst = -np.inf
    for i, zeta in enumerate((0.2, 0.5, 0.8)):
        corr, se = extremes.limit_pair_corr(h, g, extremes.ZetaOverlap(zeta),
                                            sizes.var_n_mc, rng.child(i))
        worst = max(worst, corr - (1.0 - zeta) - 3.0 * se)
    return CheckResult("per-zeta-factorization", worst <= 0.0,
                       f"max (corr - (1 - zeta) - 3se) = {worst:.3e}")


def run_battery(seed: int = DEFAULT_SEED, quick: bool = False,
                inject_defect: bool = False) -> list[CheckResult]:
    """Run every check; deterministic given (seed, quick, inject_defect)."""
    sizes = QUICK_SIZES if quick else FULL_SIZES
    root = RngStream(seed)
    checks = [
        ("copula-axioms", check_copula_axioms, {}),
        ("survival-copula-identity", check_survival_identity, {}),
        ("max-stability", check_max_stability, {"inject_defect": inject_defect}),
        ("sampler-ks", check_sampler_ks, {}),
        ("closed-form-vs-quadrature", check_quadrature_agreement, {}),
        ("power-corr-consistency", check_power_consistency, {}),
        ("estimator-vs-closed-form", check_estimator_closed_form, {}),
        ("section-family-estimate", check_dxi_estimator, {}),
        ("gaussian-oracle", check_gaussian_oracle, {}),
        ("variance-inequality", check_variance_inequality, {}),
        ("per-zeta-factorization", check_zeta_factorization, {}),
    ]
    results = []
    for i, (_, fn, kwargs) in enumerate(checks):
        results.append(fn(sizes, root.child(1000 + i), **kwargs))
    return results


def battery_report(results: list[CheckResult], seed: int, quick: bool) -> dict:
    return {
        "seed": seed,
        "quick": quick,
        "passed": all(r.passed for r in results),
        "checks": [asdict(r) for r in results],
    }
