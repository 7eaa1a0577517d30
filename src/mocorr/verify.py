"""Self-contained property battery.

Every closed form in the package is cross-checked against an
independent route: quadrature against algebra, samplers against the
cell masses of their own cdfs (chi-square z scores of the draw and its
margins), the spectral estimator against the closed-form maximal
correlation, and the sliding/disjoint variance inequality against Monte
Carlo.  The battery powers the ``verify`` subcommand; ``quick`` shrinks
every sample size but the samplers' to finish well under a minute.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import extremes, maxcorr, mo
from .families import FAMILY_TABLE
from .numerics import QuadratureSpec, _bin_counts, chi2_z, quad_2d
from .rng import DEFAULT_SEED, RngStream


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class BatterySizes:
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
    est_n=1_000_000, est_m=64, est_cases=3, quad_cases=6, rect_draws=10_000,
    rect_params=20, var_n_mc=100_000, zeta_nodes=32, defect_grid=101,
)

QUICK_SIZES = BatterySizes(
    est_n=200_000, est_m=32, est_cases=2, quad_cases=3, rect_draws=2_000,
    rect_params=6, var_n_mc=30_000, zeta_nodes=12, defect_grid=41,
)


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


#: Per family, in draw order, its random parameters.
_SAMPLER_CASES = (
    ("copula", lambda gen: gen.uniform(0.05, 0.95, size=2)),
    ("d_xi", lambda gen: [gen.uniform(0.1, 1.0)]),
    ("mo", lambda gen: gen.uniform(0.3, 2.5, size=3)),
    ("limit_gev", lambda gen: [gen.uniform(0.1, 0.9), gen.uniform(-0.5, 0.8)]),
    ("gaussian", lambda gen: [gen.uniform(-0.85, 0.85)]),
)

#: Bins per axis, pairs per draw and draws per family of the sampler check in both
#: batteries (2e4 pairs in one draw missed a copula sampler at phi + 0.01 at 13 of
#: seeds 1-40); it fails at a z score above 4.
SAMPLER_BINS, SAMPLER_N, SAMPLER_DRAWS = 16, 100_000, 2


def sampler_z(name: str, p, pairs) -> float:
    """The worst chi-square z of copula-scale ``pairs`` against family ``name`` at ``p``.

    The pairs (an array, a sample or its chunks) are binned as they stream and scored
    against the cell masses of the family's own cdf, and so is each margin in cells of
    two bins, since a shift of a margin spreads thin over the joint cells.
    """
    counts = _bin_counts(pairs, SAMPLER_BINS)
    masses = FAMILY_TABLE[name].masses(p, SAMPLER_BINS)
    margins = ((counts.sum(axis), masses.sum(axis)) for axis in (1, 0))
    return max(chi2_z(counts, masses),
               *(chi2_z(c.reshape(-1, 2).sum(1), m.reshape(-1, 2).sum(1)) for c, m in margins))


def check_sampler_chi2(sizes: BatterySizes, rng: RngStream) -> CheckResult:
    """Each sampler against its own cdf's cell masses."""
    gen = rng.generator()
    scores = []
    for i, (name, draw) in enumerate(_SAMPLER_CASES * SAMPLER_DRAWS):
        family = FAMILY_TABLE[name]
        p = family.params(*map(float, draw(gen)))
        label = family.as_dict(p)
        chunks = mo.pair_chunks(name, p, SAMPLER_N, rng.child(i))
        scores.append((sampler_z(name, p, chunks), f"{name}{label}"))
    worst, worst_name = max(scores)
    return CheckResult("sampler-chi2", worst <= 4.0,
                       f"worst chi2 z {worst:.2f} ({worst_name}) vs 4")


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
        worst_bound = max(worst_bound, corr - FAMILY_TABLE["copula"].max_corr(c))
    passed = worst_identity <= 1e-12 and worst_bound <= 1e-12
    return CheckResult("power-corr-consistency", passed,
                       f"identity gap {worst_identity:.3e}, bound excess {worst_bound:.3e}")


def _estimate_errors(family: str, params, sizes: BatterySizes, rng: RngStream):
    """``|estimate - FAMILY_TABLE[family].max_corr(p)|``, the i-th ``p`` on ``rng.child(i)``."""
    for i, p in enumerate(params):
        est = maxcorr.estimate_max_corr(mo.pair_chunks(family, p, sizes.est_n, rng.child(i)),
                                        m=sizes.est_m)
        yield abs(est.value - FAMILY_TABLE[family].max_corr(p))


def check_estimator_closed_form(sizes: BatterySizes, rng: RngStream) -> CheckResult:
    """Spectral estimate within 0.02 of sqrt(phi*psi)."""
    gen = rng.generator()
    cases = [_random_copula(gen) for _ in range(sizes.est_cases)]
    worst = 0.0
    worst_name = ""
    for c, err in zip(cases, _estimate_errors("copula", cases, sizes, rng)):
        if err > worst:
            worst, worst_name = err, f"phi={c.phi:.3f}, psi={c.psi:.3f}"
    return CheckResult("estimator-vs-closed-form", worst <= 0.02,
                       f"max |estimate - closed| = {worst:.4f} ({worst_name})")


def check_dxi_estimator(sizes: BatterySizes, rng: RngStream) -> CheckResult:
    """Section-family estimate within 0.02 of sqrt(xi)."""
    cases = [mo.DXiParam(xi) for xi in (0.5, 0.75)[: max(1, sizes.est_cases - 1)]]
    worst = max(_estimate_errors("d_xi", cases, sizes, rng))
    return CheckResult("section-family-estimate", worst <= 0.02,
                       f"max |estimate - sqrt(xi)| = {worst:.4f}")


def check_gaussian_oracle(sizes: BatterySizes, rng: RngStream) -> CheckResult:
    """Gaussian copula estimate within 0.02 of |rho| (0.05 at independence)."""
    # At rho = 0 the closed form is 0, so the error is the estimate itself.
    err0, err6 = _estimate_errors("gaussian", (0.0, 0.6), sizes, rng)
    passed = err0 <= 0.05 and err6 <= 0.02
    return CheckResult("gaussian-oracle", passed,
                       f"independence estimate {err0:.4f}, |rho=0.6 error| {err6:.4f}")


def check_variance_inequality(sizes: BatterySizes, rng: RngStream) -> CheckResult:
    """sigma2_sb <= sigma2_db within MC noise for two functionals."""
    worst = -np.inf
    heavy = extremes.GEVShape(0.5)
    cases = [
        (extremes.Functional("identity"), extremes.GEVShape(0.0)),
        (extremes.Functional("indicator", threshold=extremes.gev_quantile(heavy, 0.9)), heavy),
    ]
    for i, (h, g) in enumerate(cases):
        report = extremes.sigma2_sb(h, g, sizes.zeta_nodes, sizes.var_n_mc, rng.child(i))
        worst = max(worst, report.inequality_excess)
    return CheckResult("variance-inequality", worst <= 0.0,
                       f"max (sb - db - 3se) = {worst:.3e}")


def check_zeta_factorization(sizes: BatterySizes, rng: RngStream) -> CheckResult:
    """Per-overlap correlation never exceeds the maximal correlation 1 - zeta."""
    h = extremes.Functional("identity")
    g = extremes.GEVShape(0.0)
    worst = -np.inf
    for i, zeta in enumerate((0.2, 0.5, 0.8)):
        corr, se = extremes.limit_pair_corr(h, g, extremes.ZetaOverlap(zeta),
                                            sizes.var_n_mc, rng.child(i))
        worst = max(worst, corr - (1.0 - zeta) - 3.0 * se)
    return CheckResult("per-zeta-factorization", worst <= 0.0,
                       f"max (corr - (1 - zeta) - 3se) = {worst:.3e}")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS and Windows
        return os.cpu_count() or 1


def run_battery(seed: int = DEFAULT_SEED, quick: bool = False,
                inject_defect: bool = False) -> list[CheckResult]:
    """Run every check, in battery order; deterministic given (seed, quick,
    inject_defect), whatever the CPU count.

    The checks run on one thread per usable CPU: each draws from its own
    child stream, and their heavy parts (numpy draws, ufuncs, ``bincount``)
    release the GIL.  The first check in battery order to raise raises
    here, and the checks not yet started are dropped.  Warning filters are
    process-wide, so a warning made an error fails a worker's check too.
    """
    from concurrent.futures import ThreadPoolExecutor  # ~8 ms: only here

    sizes = QUICK_SIZES if quick else FULL_SIZES
    root = RngStream(seed)
    checks = (check_copula_axioms, check_survival_identity,
              functools.partial(check_max_stability, inject_defect=inject_defect),
              check_sampler_chi2, check_quadrature_agreement, check_power_consistency,
              check_estimator_closed_form, check_dxi_estimator, check_gaussian_oracle,
              check_variance_inequality, check_zeta_factorization)
    streams = [root.child(1000 + i) for i in range(len(checks))]
    pool = ThreadPoolExecutor(max_workers=_usable_cpus())
    try:
        return list(pool.map(lambda fn, stream: fn(sizes, stream), checks, streams))
    finally:
        pool.shutdown(cancel_futures=True)


def battery_report(results: list[CheckResult], seed: int, quick: bool) -> dict:
    return {
        "seed": seed,
        "quick": quick,
        "passed": all(r.passed for r in results),
        "checks": [asdict(r) for r in results],
    }
