"""Bivariate Marshall-Olkin dependence: closed forms, samplers, estimators.

The package covers the survival copula of the bivariate Marshall-Olkin
law, its maximal correlation sqrt(phi*psi), a binned spectral estimator
for the maximal correlation of any bivariate sample, and the
sliding-vs-disjoint block variance comparison for extreme value limits.
"""

from .errors import (
    DivergentMomentError,
    EvaluationError,
    MocorrError,
    ValidationError,
)
from .extremes import (
    BlockSimResult,
    DISTRIBUTIONS,
    Functional,
    GEVShape,
    VarianceReport,
    ZetaOverlap,
    block_maxima_simulate,
    check_moments,
    doa_scaling,
    gev_cdf,
    gev_quantile,
    limit_copula_cdf,
    limit_pair_corr,
    sample_limit_pair,
    sigma2_db,
    sigma2_sb,
    sigma2_sb_indicator_exact,
    sliding_max,
)
from .families import FAMILY_TABLE
from .maxcorr import (
    MaxCorrEstimate,
    PowerIndex,
    estimate_max_corr,
    gaussian_copula_cdf,
    max_corr_closed,
    max_corr_from_rates,
    power_corr,
    power_cov,
    power_transform,
    sample_gaussian_copula,
    var_fk,
)
from .mo import (
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
    sample_copula,
    sample_d_xi,
    sample_mo,
    write_sample_csv,
)
from .numerics import (
    BinnedOperator,
    QuadratureSpec,
    bin_pairs,
    ecdf_ks,
    quad_2d,
    second_singular_value,
)
from .rng import DEFAULT_SEED, RngStream
from .verify import battery_report, run_battery

FAMILIES = tuple(FAMILY_TABLE)

__version__ = "0.1.0"

__all__ = [
    "BinnedOperator",
    "BlockSimResult",
    "CopulaParams",
    "DEFAULT_SEED",
    "DISTRIBUTIONS",
    "DivergentMomentError",
    "DXiParam",
    "EvaluationError",
    "FAMILIES",
    "Functional",
    "GEVShape",
    "MaxCorrEstimate",
    "MocorrError",
    "MOParams",
    "PairSample",
    "PowerIndex",
    "QuadratureSpec",
    "RngStream",
    "ValidationError",
    "VarianceReport",
    "ZetaOverlap",
    "battery_report",
    "bin_pairs",
    "block_maxima_simulate",
    "check_moments",
    "copula_cdf",
    "doa_scaling",
    "ecdf_ks",
    "estimate_max_corr",
    "gaussian_copula_cdf",
    "gev_cdf",
    "gev_quantile",
    "limit_copula_cdf",
    "limit_pair_corr",
    "max_corr_closed",
    "max_corr_from_rates",
    "max_stability_defect",
    "mo_cdf",
    "mo_marginal_survival",
    "mo_survival",
    "mo_to_copula",
    "power_corr",
    "power_cov",
    "power_transform",
    "quad_2d",
    "run_battery",
    "sample_copula",
    "sample_d_xi",
    "sample_gaussian_copula",
    "sample_limit_pair",
    "sample_mo",
    "second_singular_value",
    "sigma2_db",
    "sigma2_sb",
    "sigma2_sb_indicator_exact",
    "sliding_max",
    "write_sample_csv",
]
