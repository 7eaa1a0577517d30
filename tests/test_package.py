import types

import mocorr

# The package's public surface: every name ``from mocorr import *`` gives.
EXPORTED = set("""
BinnedOperator BlockSimResult CopulaParams DEFAULT_SEED DISTRIBUTIONS DXiParam
DivergentMomentError EvaluationError FAMILIES FAMILY_TABLE Functional GEVShape MOParams
MaxCorrEstimate MocorrError PairSample PowerIndex QuadratureSpec RngStream
ValidationError VarianceReport ZetaOverlap battery_report bin_pairs
block_maxima_simulate check_moments copula_cdf doa_scaling estimate_max_corr
gaussian_copula_cdf gev_cdf gev_quantile limit_copula_cdf limit_pair_corr
max_corr_closed max_corr_from_rates max_stability_defect mo_cdf mo_marginal_survival
mo_survival mo_to_copula power_corr power_cov power_transform quad_2d run_battery
sample_copula sample_d_xi sample_gaussian_copula sample_limit_pair sample_mo
second_singular_value sigma2_db sigma2_sb sigma2_sb_indicator_exact sliding_max var_fk
write_sample_csv
""".split())


def test_all_is_every_public_name_once():
    public = {name for name, value in vars(mocorr).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(mocorr.__all__) == len(set(mocorr.__all__))
    assert set(mocorr.__all__) == public == EXPORTED


def test_star_import_gives_every_exported_name():
    namespace = {}
    exec("from mocorr import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTED
