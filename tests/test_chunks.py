"""The RNG chunk as the unit of work: per-chunk maps and the streamed estimator."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from mocorr import extremes, maxcorr, mo, verify
from mocorr.cli import main
from mocorr.errors import ValidationError
from mocorr.families import FAMILY_TABLE
from mocorr.maxcorr import estimate_max_corr
from mocorr.mo import PairChunks, PairSample, pair_chunks, pair_sample
from mocorr.numerics import _BIN_ROWS, bin_pairs, ndtr
from mocorr.rng import RngStream, draw_iid, draw_uniforms

PARAMS = {
    "copula": mo.CopulaParams(0.3, 0.7),
    "d_xi": mo.DXiParam(0.5),
    "mo": mo.MOParams(1.0, 2.0, 1.5),
    "limit_gev": (extremes.ZetaOverlap(0.3), extremes.GEVShape(0.2)),
    "gaussian": 0.6,
}

ARGS = {
    "copula": ["--phi", "0.3", "--psi", "0.7"],
    "d_xi": ["--xi", "0.5"],
    "mo": ["--l1", "1", "--l2", "2", "--l12", "1.5"],
    "limit_gev": ["--zeta", "0.3", "--gamma", "0.2"],
    "gaussian": ["--rho", "0.6"],
}


def _old_copula(c, n, rng):
    u, v = mo.copula_pair_from_uniforms(*draw_uniforms(rng, n, 3).T, c.phi, c.psi)
    return np.column_stack([u, v])


def _old_d_xi(d, n, rng):
    x, z = draw_uniforms(rng, n, 2).T
    return np.column_stack([mo._section(x, z, d.xi), z])


def _old_mo(p, n, rng):
    shocks = draw_iid(rng, n, lambda g, size: g.standard_exponential((size, 3)))
    z1 = shocks[:, 0] / p.lambda1
    z2 = shocks[:, 1] / p.lambda2
    z12 = shocks[:, 2] / p.lambda12
    return np.column_stack([np.minimum(z1, z12), np.minimum(z2, z12)])


def _old_limit_gev(p, n, rng):
    z, g = p
    y1, y2 = extremes._pair_values(extremes.Functional("identity"), g, z.zeta,
                                   extremes._to_gumbel(draw_uniforms(rng, n, 3)))
    return np.column_stack([y1, y2])


def _old_gaussian(rho, n, rng):
    z = draw_iid(rng, n, lambda g, size: g.standard_normal((size, 2)))
    z2 = rho * z[:, 0] + math.sqrt(1.0 - rho * rho) * z[:, 1]
    return np.column_stack([ndtr(z[:, 0]), ndtr(z2)])


#: Each sampler's whole-array expression before the per-chunk maps: the oracle.
OLD_SAMPLERS = {
    "copula": _old_copula,
    "d_xi": _old_d_xi,
    "mo": _old_mo,
    "limit_gev": _old_limit_gev,
    "gaussian": _old_gaussian,
}


#: Each family's public sampler, in the generic ``(p, n, rng)`` form.
PUBLIC_SAMPLERS = {
    "copula": mo.sample_copula,
    "d_xi": mo.sample_d_xi,
    "mo": mo.sample_mo,
    "limit_gev": lambda p, n, rng: extremes.sample_limit_pair(*p, n, rng),
    "gaussian": maxcorr.sample_gaussian_copula,
}


@pytest.mark.parametrize("n", [1, 15, 16, 17, 65_537, 1_000_000])
@pytest.mark.parametrize("family", sorted(PARAMS))
def test_sampler_equals_its_whole_array_expression(family, n):
    p, rng = PARAMS[family], RngStream(9001)
    expected = OLD_SAMPLERS[family](p, n, rng)
    for sample in (pair_sample(family, p, n, rng), PUBLIC_SAMPLERS[family](p, n, rng)):
        np.testing.assert_array_equal(sample.pairs, expected)
        assert sample.family == family and sample.seed == rng
        assert sample.params == FAMILY_TABLE[family].as_dict(p)


@pytest.mark.parametrize("family", sorted(PARAMS))
def test_chunks_concatenate_to_the_copula_scale_sample(family):
    p, rng, n = PARAMS[family], RngStream(3), 40_017
    record = FAMILY_TABLE[family]
    pairs = pair_sample(family, p, n, rng).pairs
    if record.to_copula is not None:
        pairs = record.to_copula(p, pairs)
    stream = pair_chunks(family, p, n, rng)
    assert (stream.family, stream.params, stream.seed, stream.n) == \
        (family, record.as_dict(p), rng, n)
    chunks = list(stream.chunks)
    assert len(chunks) == 16
    np.testing.assert_array_equal(np.concatenate(chunks), pairs)
    native = mo.sample_chunks(family, p, n, rng)
    assert (native.family, native.params, native.seed, native.n) == \
        (family, record.as_dict(p), rng, n)
    np.testing.assert_array_equal(np.concatenate(list(native.chunks)),
                                  pair_sample(family, p, n, rng).pairs)


@pytest.mark.parametrize("family", sorted(PARAMS))
def test_streamed_report_equals_the_in_memory_estimate(family, capsys):
    p, n, m = PARAMS[family], 200_000, 32
    record = FAMILY_TABLE[family]
    sample = pair_sample(family, p, n, RngStream(17))
    if record.to_copula is not None:
        # The copula-scale pairs, under the family's own name and params.
        sample = PairSample(record.to_copula(p, sample.pairs), "copula",
                            sample.params, sample.seed)
    expected = estimate_max_corr(sample, m=m).to_report(closed_form=record.max_corr(p))
    expected["family"] = family
    assert main(["maxcorr", "--family", family, *ARGS[family], "-n", str(n),
                 "--m", str(m), "--seed", "17"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(expected))


def test_binning_blocks_and_chunks_count_alike():
    # Three full kernel blocks and a partial one, against numpy's histogram.
    pairs = draw_uniforms(RngStream(5), 3 * _BIN_ROWS + 5, 2)
    pairs[:7] = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.25], [1.0, 1.0],
                 [0.0, 0.0], [0.125, 0.875], [1 / 3, 2 / 3]]
    m = 24
    counts, _, _ = np.histogram2d(pairs[:, 0], pairs[:, 1], bins=m, range=[[0, 1], [0, 1]])
    in_memory = bin_pairs(pairs, m).joint_mass
    np.testing.assert_array_equal(in_memory, counts / pairs.shape[0])
    chunked = PairChunks("copula", {}, None, pairs.shape[0],
                         iter(np.array_split(pairs, 7)))
    np.testing.assert_array_equal(bin_pairs(chunked, m).joint_mass, in_memory)


class TestChecksBeforeTheDraw:
    @staticmethod
    def _untouched(n):
        def chunks():
            raise AssertionError("the sample was drawn")
            yield  # pragma: no cover

        return PairChunks("copula", {}, None, n, chunks())

    def test_insufficient_sample_is_refused_undrawn(self):
        with pytest.raises(ValidationError, match=r"^insufficient sample: the estimator "
                           r"requires n >= 10\*m\^2 \(= 40960 for m = 64\), got n = 1000$"):
            estimate_max_corr(self._untouched(1000), m=64)

    def test_bad_m_is_refused_undrawn(self):
        for m in (1, 4097):
            with pytest.raises(ValidationError, match=r"m must be in \[2, 4096\]"):
                estimate_max_corr(self._untouched(10**9), m=m)

    def test_cli_checks_n_before_an_overflowing_draw(self, capsys):
        # The limit_gev draw at gamma=60 overflows; the size check comes first.
        assert main(["maxcorr", "--family", "limit_gev", "--zeta", "0.3", "--gamma", "60",
                     "-n", "1000", "--m", "64"]) == 1
        assert capsys.readouterr().err == (
            "error: insufficient sample: the estimator requires n >= 10*m^2 "
            "(= 40960 for m = 64), got n = 1000\n")

    def test_cli_overflow_is_still_a_numerical_failure(self, capsys):
        assert main(["maxcorr", "--family", "limit_gev", "--zeta", "0.3",
                     "--gamma", "60"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical failure: a limit_gev quantile overflows a float at gamma=60\n")


@pytest.mark.parametrize("family,target,value,message", [
    ("copula", "_copula_chunk", np.nan, "pair coordinates must be finite"),
    ("mo", "_mo_chunk", -1.0, "family 'mo' has coordinates outside [0, inf]"),
    ("mo", "mo_marginal_survival", 1.5, "coordinates must lie in [0, 1] (copula scale)"),
])
def test_each_chunk_is_checked_like_a_pair_sample(monkeypatch, capsys, family, target,
                                                  value, message):
    # The family table looks its maps up on the module at call time.
    if target == "mo_marginal_survival":
        monkeypatch.setattr(mo, target, lambda p, which, x: np.full(len(x), value))
    else:
        monkeypatch.setattr(mo, target, lambda p, g, size: np.full((size, 2), value))
    assert main(["maxcorr", "--family", family, *ARGS[family], "-n", "50000",
                 "--m", "8"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value", [1.5, np.nan])
def test_a_sample_edited_after_construction_is_refused(value):
    # The binning checks every block it bins; it trusts no flag of the sample.
    sample = pair_sample("copula", PARAMS["copula"], 50_000, RngStream(5))
    sample.pairs[0, 0] = value
    with pytest.raises(ValidationError,
                       match=r"^coordinates must lie in \[0, 1\] \(copula scale\)$"):
        estimate_max_corr(sample, m=8)


@pytest.mark.parametrize("check,family,wrong", [
    (verify.check_estimator_closed_form, "copula", lambda c: c.phi * c.psi),
    (verify.check_power_consistency, "copula", lambda c: c.phi * c.psi),
    (verify.check_dxi_estimator, "d_xi", lambda d: d.xi),
    (verify.check_gaussian_oracle, "gaussian", lambda rho: rho * rho),
])
def test_verify_scores_against_the_table_closed_form(monkeypatch, check, family, wrong):
    rng = RngStream(23)
    right = check(verify.QUICK_SIZES, rng)
    monkeypatch.setitem(FAMILY_TABLE, family,
                        dataclasses.replace(FAMILY_TABLE[family], max_corr=wrong))
    result = check(verify.QUICK_SIZES, rng)
    assert not result.passed and result.detail != right.detail


@pytest.mark.parametrize("family", sorted(PARAMS))
def test_maxcorr_never_holds_the_whole_sample(family, capsys):
    n = 200_000
    argv = ["maxcorr", "--family", family, *ARGS[family], "-n", str(n), "--m", "64"]
    assert main(argv) == 0  # warm-up: imports are not counted
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One (n, 2) float array alone is n * 16 bytes.
    assert peak < n * 16, peak


@pytest.mark.parametrize("check", [verify.check_estimator_closed_form,
                                   verify.check_dxi_estimator,
                                   verify.check_gaussian_oracle])
def test_verify_estimator_checks_never_hold_the_whole_sample(check):
    sizes = dataclasses.replace(verify.QUICK_SIZES, est_n=200_000)
    rng = RngStream(23)
    expected = check(sizes, rng)  # warm-up: imports are not counted
    tracemalloc.start()
    try:
        result = check(sizes, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == expected
    # One (n, 2) float array alone is n * 16 bytes.
    assert peak < sizes.est_n * 16, peak


def test_verify_sampler_check_never_holds_a_whole_draw(monkeypatch):
    monkeypatch.setattr(verify, "SAMPLER_N", 200_000)
    rng = RngStream(23)
    # Warm-up: imports are not counted.
    expected = verify.check_sampler_chi2(verify.QUICK_SIZES, rng)
    tracemalloc.start()
    try:
        result = verify.check_sampler_chi2(verify.QUICK_SIZES, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == expected
    # One (n, 2) float array alone is n * 16 bytes.
    assert peak < verify.SAMPLER_N * 16, peak


@pytest.mark.parametrize("family", sorted(PARAMS))
def test_sample_writes_the_bytes_of_the_whole_sample(family, tmp_path):
    # 40,017 pairs: sixteen RNG chunks of 2,501 and 2,500 rows, none a
    # multiple of the formatter's block.
    p, n = PARAMS[family], 40_017
    mo.write_sample_csv(pair_sample(family, p, n, RngStream(19)), tmp_path / "whole.csv")
    assert main(["sample", "--family", family, *ARGS[family], "-n", str(n), "--seed", "19",
                 "--out", str(tmp_path / "streamed.csv")]) == 0
    for suffix in (".csv", ".meta.json"):
        assert (tmp_path / f"streamed{suffix}").read_bytes() == \
            (tmp_path / f"whole{suffix}").read_bytes()
    # No temporary file is left beside them.
    assert len(list(tmp_path.iterdir())) == 4


@pytest.mark.parametrize("family", sorted(PARAMS))
def test_sample_never_holds_the_whole_sample(family, tmp_path, capsys):
    n = 200_000
    argv = ["sample", "--family", family, *ARGS[family], "-n", str(n),
            "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 0  # warm-up: imports are not counted
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One (n, 2) float array alone is n * 16 bytes.
    assert peak < n * 16, peak
