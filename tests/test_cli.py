import contextlib
import dataclasses
import errno
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import refuse_replace
from mocorr import FAMILIES, extremes, mo, verify
from mocorr.cli import _family_params, build_parser, main
from mocorr.errors import EvaluationError, ValidationError
from mocorr.families import FAMILY_TABLE
from mocorr.maxcorr import max_corr_closed, power_corr, PowerIndex
from mocorr.mo import CopulaParams, PairSample, copula_cdf, pair_sample
from mocorr.rng import RngStream


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSample:
    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, err = run_cli(
                capsys, "sample", "--family", "mo", "--l1", "1", "--l2", "1",
                "--l12", "1", "-n", "1000", "--seed", "7", "--out", str(p))
            assert code == 0
            assert "wrote 1000 pairs" in err
        assert paths[0].read_bytes() == paths[1].read_bytes()
        meta0 = (tmp_path / "a.meta.json").read_bytes()
        meta1 = (tmp_path / "b.meta.json").read_bytes()
        assert meta0 == meta1

    def test_different_seed_differs(self, tmp_path, capsys):
        out = []
        for seed in ("7", "8"):
            p = tmp_path / f"s{seed}.csv"
            run_cli(capsys, "sample", "--family", "copula", "--phi", "0.5",
                    "--psi", "0.5", "-n", "100", "--seed", seed, "--out", str(p))
            out.append(p.read_bytes())
        assert out[0] != out[1]

    def test_tie_fraction_round_trip(self, tmp_path, capsys):
        p = tmp_path / "ties.csv"
        n = 100_000
        code, _, _ = run_cli(
            capsys, "sample", "--family", "mo", "--l1", "1", "--l2", "1",
            "--l12", "1", "-n", str(n), "--seed", "3", "--out", str(p))
        assert code == 0
        data = np.loadtxt(p, delimiter=",", skiprows=1)
        tie = float(np.mean(data[:, 0] == data[:, 1]))
        target = 1.0 / 3.0
        assert abs(tie - target) <= 3 * math.sqrt(target * (1 - target) / n)

    def test_out_required(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--family", "copula",
                               "--phi", "0.5", "--psi", "0.5", "-n", "10")
        assert code == 1
        assert "--out" in err

    def test_invalid_phi_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--family", "copula", "--phi", "1.5", "--psi",
            "0.5", "-n", "10", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "[0, 1]" in err
        # rho = 1 lies outside the open interval on every family subcommand.
        for argv in (["sample", "-n", "10", "--out", str(tmp_path / "x.csv")],
                     ["cdf-eval", "--at", "0.5", "0.5"],
                     ["maxcorr", "-n", "20000", "--m", "8"]):
            code, out, err = run_cli(capsys, *argv, "--family", "gaussian", "--rho", "1")
            assert code == 1
            assert out == ""
            assert "rho must lie in (-1, 1)" in err
        assert not (tmp_path / "x.csv").exists()

    def test_missing_family_param(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--family", "d_xi", "-n", "10",
            "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "--xi" in err

    def test_limit_gev_overflow_is_a_numerical_failure(self, tmp_path, capsys):
        # expm1(60*s) overflows for the Gumbel values s above 11.83, about
        # 15 in a million; it used to end in "pair coordinates must be finite".
        path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "sample", "--family", "limit_gev", "--zeta", "0.3", "--gamma", "60",
            "-n", "1000000", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: ") and "gamma=60" in err
        assert not path.exists()

    def test_mo_overflow_is_a_numerical_failure(self, tmp_path, capsys):
        # Both shocks of the first component overflow: the input is valid, the
        # float range is not enough; it used to end in "pair coordinates must be finite".
        path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "sample", "--family", "mo", "--l1", "5e-324", "--l2", "1",
            "--l12", "5e-324", "-n", "1000", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: ") and "overflows" in err
        assert not path.exists()

    def test_refused_mid_stream_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch):
        # The map of the third RNG chunk fails after two chunks were written.
        chunk, calls = mo._mo_chunk, []

        def failing(p, g, size):
            calls.append(size)
            if len(calls) == 3:
                raise EvaluationError("chunk 3 overflows")
            return chunk(p, g, size)

        monkeypatch.setattr(mo, "_mo_chunk", failing)
        path, sidecar = tmp_path / "x.csv", tmp_path / "x.meta.json"
        argv = ["sample", "--family", "mo", "--l1", "1", "--l2", "2", "--l12", "1.5",
                "-n", "100000", "--out", str(path)]
        assert run_cli(capsys, *argv) == (2, "", "numerical failure: chunk 3 overflows\n")
        assert len(calls) == 3
        assert list(tmp_path.iterdir()) == []
        # A file already at --out, and its sidecar, are left untouched.
        path.write_bytes(b"x1,x2\n1,2\n")
        sidecar.write_bytes(b"{}\n")
        calls.clear()
        assert run_cli(capsys, *argv)[0] == 2
        assert len(calls) == 3
        assert path.read_bytes() == b"x1,x2\n1,2\n" and sidecar.read_bytes() == b"{}\n"
        assert sorted(tmp_path.iterdir()) == [path, sidecar]

    def test_unwritable_out_path(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x.csv")
        code, _, err = run_cli(
            capsys, "sample", "--family", "copula", "--phi", "0.5", "--psi",
            "0.5", "-n", "10", "--out", out)
        assert code == 1
        assert "error" in err
        assert repr(out) in err and ".tmp" not in err


class TestCdfEval:
    def test_values_match_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "cdf-eval", "--family", "copula", "--phi", "0.5", "--psi",
            "0.5", "--at", "0.5", "0.5", "--at", "0.25", "0.9")
        assert code == 0
        payload = json.loads(out)
        c = CopulaParams(0.5, 0.5)
        for row in payload["points"]:
            assert row["value"] == pytest.approx(
                copula_cdf(c, row["u"], row["v"]), abs=1e-15)

    def test_out_of_range_point_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "cdf-eval", "--family", "copula", "--phi", "0.5", "--psi",
            "0.5", "--at", "1.2", "0.5")
        assert code == 1
        assert "unit square" in err

    def test_mo_scale_points_unrestricted(self, capsys):
        code, out, _ = run_cli(
            capsys, "cdf-eval", "--family", "mo", "--l1", "1", "--l2", "2",
            "--l12", "0.5", "--at", "1.5", "2.5")
        assert code == 0
        assert json.loads(out)["points"][0]["value"] > 0

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "cdf-eval", "--family", "copula", "--phi", "0.5", "--psi",
            "0.5", "--at", "0.5", "0.5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "u,v,value"
        assert len(lines) == 2

    def test_csv_out_file_matches_stdout(self, tmp_path, capsys):
        argv = ["cdf-eval", "--family", "copula", "--phi", "0.3", "--psi", "0.7",
                "--at", "0.5", "0.5", "--at", "0.25", "0.9", "--format", "csv"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        path = tmp_path / "cdf.csv"
        code, _, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0, err
        assert path.read_bytes() == out.encode("ascii")

    def test_requires_a_point(self, capsys):
        code, _, err = run_cli(capsys, "cdf-eval", "--family", "copula",
                               "--phi", "0.5", "--psi", "0.5")
        assert code == 1
        assert "--at" in err

    def test_nan_point_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "cdf-eval", "--family", "gaussian", "--rho", "0.5",
            "--at", "nan", "0.5")
        assert code == 1
        assert out == ""
        assert "unit square" in err


FAMILY_ARGS = {
    "mo": ["--l1", "1", "--l2", "2", "--l12", "1.5"],
    "copula": ["--phi", "0.3", "--psi", "0.7"],
    "d_xi": ["--xi", "0.5"],
    "limit_gev": ["--zeta", "0.3", "--gamma", "0.2"],
    "gaussian": ["--rho", "0.5"],
}


class TestFamilyTable:
    def test_table_covers_every_family(self):
        assert set(FAMILY_TABLE) == set(FAMILY_ARGS)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_draw_lies_inside_support(self, family, capsys):
        record, params = _family_params(build_parser().parse_args(
            ["maxcorr", "--family", family, *FAMILY_ARGS[family]]))
        sample = pair_sample(family, params, 20_000, RngStream(6))
        low, high = record.support(sample.params)
        assert low <= sample.pairs.min() and sample.pairs.max() <= high
        for bound, step in ((low, -1.0), (high, 1.0)):
            if math.isfinite(bound):
                outside = sample.pairs.copy()
                outside[0, 0] = np.nextafter(bound, bound + step)
                with pytest.raises(ValidationError, match="outside"):
                    PairSample(outside, family, sample.params, sample.seed)

    @pytest.mark.parametrize("gamma", ["-0.5", "0", "0.2"])
    def test_limit_gev_sample_inside_gamma_support(self, gamma, tmp_path, capsys):
        path = tmp_path / "s.csv"
        code, _, err = run_cli(capsys, "sample", "--family", "limit_gev", "--zeta", "0.3",
                               "--gamma", gamma, "-n", "20000", "--seed", "8",
                               "--out", str(path))
        assert code == 0, err
        pairs = np.loadtxt(path, delimiter=",", skiprows=1)
        low, high = FAMILY_TABLE["limit_gev"].support({"gamma": float(gamma)})
        assert low <= pairs.min() and pairs.max() <= high

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_runs_through_each_subcommand(self, family, tmp_path, capsys):
        args = ["--family", family, *FAMILY_ARGS[family], "--seed", "5"]
        code, _, err = run_cli(capsys, "sample", *args, "-n", "2000",
                               "--out", str(tmp_path / "s.csv"))
        assert code == 0, err
        code, out, err = run_cli(capsys, "cdf-eval", *args, "--at", "0.25", "0.5")
        assert code == 0, err
        assert 0.0 <= json.loads(out)["points"][0]["value"] <= 1.0
        code, out, err = run_cli(capsys, "maxcorr", *args, "-n", "20000", "--m", "8")
        assert code == 0, err
        assert math.isfinite(json.loads(out)["abs_error"])
        assert json.loads(out)["family"] == family

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("command", ["sample", "cdf-eval", "maxcorr"])
    def test_other_family_flag_refused(self, family, command, tmp_path, capsys):
        other = next(f for f in FAMILY_ARGS if f != family)
        flag, value = FAMILY_ARGS[other][:2]
        size = ["-n", "10"] if command == "sample" else []
        code, out, err = run_cli(capsys, command, "--family", family, *FAMILY_ARGS[family],
                                 flag, value, *size, "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert out == ""
        assert not (tmp_path / "x.csv").exists()
        name = next(n for n, *aliases in FAMILY_TABLE[other].args
                    if flag.lstrip("-") in (n, *aliases))
        assert f"--{name} does not apply to --family {family}" in err

    def test_copula_maxcorr_refuses_xi(self, capsys):
        code, _, err = run_cli(capsys, "maxcorr", "--family", "copula", "--phi", "0.3",
                               "--psi", "0.7", "--xi", "0.2", "-n", "20000", "--m", "8")
        assert code == 1
        assert "--xi does not apply" in err

    def test_own_flags_and_aliases_accepted(self, capsys):
        for rates in (["--lam1", "1", "--lam2", "2", "--lam12", "1.5"],
                      ["--l1", "1", "--lam2", "2", "--l12", "1.5"]):
            code, out, err = run_cli(capsys, "cdf-eval", "--family", "mo", *rates,
                                     "--at", "0.5", "0.5")
            assert code == 0, err
            assert json.loads(out)["params"] == {"lambda1": 1.0, "lambda2": 2.0,
                                                 "lambda12": 1.5}

    @pytest.mark.parametrize("command", ["variance", "blocksim"])
    def test_functional_choices_come_from_the_table(self, command):
        (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
        (h,) = [a for a in commands.choices[command]._actions if a.dest == "h"]
        assert h.choices == tuple(name.replace("_", "-")
                                  for name in extremes.FUNCTIONAL_NAMES)


class TestCorr:
    def test_reruns_identical_and_consistent(self, capsys):
        argv = ("corr", "--family", "copula", "--phi", "0.3", "--psi", "0.7",
                "--k", "1", "--ell", "2")
        code, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        c = CopulaParams(0.3, 0.7)
        assert payload["corr"] == pytest.approx(
            power_corr(c, PowerIndex(1, 2)), abs=1e-15)
        assert payload["max_corr"] == pytest.approx(max_corr_closed(c), abs=1e-15)
        assert payload["gap"] == pytest.approx(
            payload["max_corr"] - payload["corr"], abs=1e-15)

    def test_d_xi_family(self, capsys):
        code, out, _ = run_cli(capsys, "corr", "--family", "d_xi", "--xi",
                               "0.5", "--k", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["corr"] == pytest.approx(0.6, abs=1e-15)
        assert payload["max_corr"] == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert sorted(payload) == ["corr", "family", "gap", "k", "max_corr", "params"]

    @pytest.mark.parametrize("extra", [["--ell", "7"], ["--phi", "0.3"], ["--psi", "0.3"]])
    def test_d_xi_refuses_copula_flags(self, extra, capsys):
        code, out, err = run_cli(capsys, "corr", "--family", "d_xi", "--xi", "0.5",
                                 "--k", "1", *extra)
        assert code == 1
        assert out == ""
        assert f"{extra[0]} does not apply to --family d_xi" in err

    def test_copula_refuses_xi(self, capsys):
        code, out, err = run_cli(capsys, "corr", "--family", "copula", "--phi", "0.3",
                                 "--psi", "0.7", "--k", "1", "--xi", "0.5")
        assert code == 1
        assert "--xi does not apply to --family copula" in err

    def test_out_file(self, tmp_path, capsys):
        p = tmp_path / "corr.json"
        code, out, _ = run_cli(capsys, "corr", "--family", "copula", "--phi",
                               "0.5", "--psi", "0.5", "--k", "0", "--out", str(p))
        assert code == 0
        assert out == ""
        assert json.loads(p.read_text())["corr"] == pytest.approx(3.0 / 7.0)


EDGE_K = ["1e200", "1e300", "1.7976931348623157e308"]


@pytest.mark.parametrize("argv", [
    *(["corr", "--family", "copula", "--phi", "1", "--psi", "1", "--k", k] for k in EDGE_K),
    *(["corr", "--family", "d_xi", "--xi", "0.5", "--k", k] for k in EDGE_K),
    ["cdf-eval", "--family", "mo", "--l1", "1", "--l2", "1", "--l12", "1", "--at", "1e308", "0"],
], ids=" ".join)
def test_far_edges_answer_without_warning_or_null(argv):
    # A float overflow in the closed forms used to end in a traceback
    # (var_fk), a null corr (power_corr) or a RuntimeWarning (mo_survival).
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "mocorr.cli",
                           *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "null" not in proc.stdout
    report = json.loads(proc.stdout)
    if argv[0] == "cdf-eval":
        assert report["points"][0]["value"] == 0.0
    else:
        assert report["corr"] == pytest.approx(report["max_corr"], rel=1e-12)
        assert report["max_corr"] == (1.0 if "copula" in argv else math.sqrt(0.5))


class TestMaxcorr:
    def test_copula_estimate(self, capsys):
        code, out, _ = run_cli(
            capsys, "maxcorr", "--family", "copula", "--phi", "0.5", "--psi",
            "0.5", "-n", "200000", "--m", "32", "--seed", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["closed_form"] == 0.5
        assert abs(payload["estimate"] - 0.5) < 0.02
        assert payload["abs_error"] < 0.02

    def test_mo_family_ranks_margins(self, capsys):
        code, out, _ = run_cli(
            capsys, "maxcorr", "--family", "mo", "--l1", "2", "--l2", "3",
            "--l12", "5", "-n", "200000", "--m", "32", "--seed", "12")
        assert code == 0
        payload = json.loads(out)
        assert payload["closed_form"] == pytest.approx(0.6681531047810609)
        assert abs(payload["estimate"] - payload["closed_form"]) < 0.02

    def test_limit_gev_family_ranks_margins(self, capsys):
        code, out, _ = run_cli(
            capsys, "maxcorr", "--family", "limit_gev", "--zeta", "0.5",
            "--gamma", "1", "-n", "200000", "--m", "32", "--seed", "13")
        assert code == 0
        payload = json.loads(out)
        assert payload["closed_form"] == 0.5
        assert abs(payload["estimate"] - 0.5) < 0.02

    def test_limit_gev_below_minus_one_maps_outside_its_support(self, capsys):
        # The copula-scale pairs reach 1, past the upper endpoint 2/3.
        code, out, err = run_cli(
            capsys, "maxcorr", "--family", "limit_gev", "--zeta", "0.3",
            "--gamma", "-1.5", "-n", "20000", "--m", "8", "--seed", "3")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["family"] == "limit_gev"
        assert payload["params"] == {"zeta": 0.3, "gamma": -1.5}

    def test_limit_gev_overflow_is_a_numerical_failure(self, capsys):
        code, out, err = run_cli(
            capsys, "maxcorr", "--family", "limit_gev", "--zeta", "0.3", "--gamma", "60")
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: ") and "gamma=60" in err

    def test_insufficient_sample(self, capsys):
        code, _, err = run_cli(
            capsys, "maxcorr", "--family", "copula", "--phi", "0.5", "--psi",
            "0.5", "-n", "1000", "--m", "64")
        assert code == 1
        assert "10" in err and "m" in err


class TestVariance:
    def test_identity_gumbel(self, capsys):
        code, out, err = run_cli(
            capsys, "variance", "--h", "identity", "--gamma", "0",
            "--n-mc", "50000", "--zeta-nodes", "12")
        assert code == 0
        payload = json.loads(out)
        assert payload["sigma2_sb"] <= payload["sigma2_db"]
        assert abs(payload["sigma2_db"] - math.pi ** 2 / 6) < 0.05
        assert "inequality check: pass" in err

    @pytest.mark.parametrize("argv", [
        # The quantile overflows to inf, which the indicator maps to 1;
        # default sizes, so that some Gumbel values pass 709.78/60.
        ["--h", "indicator", "--threshold", "1.5", "--gamma", "60"],
        # 1 + gamma*x rounds to 0 at the clipped levels; log_transform is
        # the Gumbel value itself and never forms it.
        ["--h", "log-transform", "--gamma", "50", "--n-mc", "2000", "--zeta-nodes", "4"],
    ], ids=["indicator", "log-transform"])
    def test_large_gamma_passes_without_warnings(self, argv, capsys):
        # RuntimeWarning is an error under the suite's warning filter.
        code, out, err = run_cli(capsys, "variance", *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["sigma2_sb"] <= payload["sigma2_db"]
        assert err == "inequality check: pass (sliding <= disjoint within 3 standard errors)\n"

    def test_const_degenerate(self, capsys):
        code, _, err = run_cli(
            capsys, "variance", "--h", "const", "--gamma", "0",
            "--n-mc", "10000", "--zeta-nodes", "8")
        assert code == 0
        assert "skipped (degenerate" in err

    def test_divergent_moment_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "variance", "--h", "square", "--gamma", "0.5",
            "--n-mc", "10000", "--zeta-nodes", "8")
        assert code == 2
        assert "numerical failure" in err

    def test_negative_mc_variance_is_a_numerical_failure(self, capsys):
        # Far out in gamma < 0 the Monte Carlo sliding variance comes out
        # negative: a numerical failure (exit 2), not invalid input (exit 1).
        code, out, err = run_cli(
            capsys, "variance", "--h", "identity", "--gamma", "-50",
            "--n-mc", "2000", "--zeta-nodes", "4")
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: Monte Carlo variances are negative")

    def test_indicator_requires_threshold(self, capsys):
        code, _, err = run_cli(
            capsys, "variance", "--h", "indicator", "--gamma", "0",
            "--n-mc", "10000", "--zeta-nodes", "8")
        assert code == 1
        assert "--threshold" in err

    def test_threshold_ignored_unless_indicator(self, capsys):
        code, out, err = run_cli(
            capsys, "variance", "--h", "identity", "--threshold", "3", "--gamma", "0",
            "--n-mc", "10000", "--zeta-nodes", "4")
        assert code == 0, err
        assert json.loads(out)["h"] == {"name": "identity", "threshold": None}

    def test_csv_zeta_curve(self, capsys):
        code, out, _ = run_cli(
            capsys, "variance", "--h", "log-transform", "--gamma", "0.5",
            "--n-mc", "20000", "--zeta-nodes", "8", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "zeta,cov,se"
        assert len(lines) == 9

    # A rare event: a negative cov and cells below 1e-4, printed with an exponent.
    ZETA_CSV = ["variance", "--h", "indicator", "--threshold", "7", "--gamma", "0",
                "--n-mc", "20000", "--zeta-nodes", "8", "--format", "csv", "--seed", "9"]

    def test_csv_stdout_matches_out_file(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, *self.ZETA_CSV)
        assert code == 0
        path = tmp_path / "zeta.csv"
        code, _, err = run_cli(capsys, *self.ZETA_CSV, "--out", str(path))
        assert code == 0, err
        assert path.read_bytes() == out.encode("ascii")
        assert ",-8.4" in out and "e-05," in out

    def test_csv_to_a_text_only_stdout(self, capsys):
        # An io.StringIO has no binary .buffer; the CSV still prints as text.
        code, out, _ = run_cli(capsys, *self.ZETA_CSV)
        assert code == 0
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = main(list(self.ZETA_CSV))
        assert code == 0
        assert text.getvalue() == out

    def test_blocksim_attachment(self, capsys):
        code, out, _ = run_cli(
            capsys, "variance", "--h", "identity", "--gamma", "0",
            "--n-mc", "30000", "--zeta-nodes", "8",
            "--blocksim-dist", "exp", "--blocksim-r", "100",
            "--blocksim-blocks", "400")
        assert code == 0
        payload = json.loads(out)
        sim = payload["block_simulation"]
        assert set(sim) == {"disjoint", "sliding"}
        assert abs(sim["disjoint"]["estimate"] - payload["sigma2_db"]) < 0.5
        # 400 blocks: 20 disjoint segments; 39,901 sliding maxima: 20 too.
        assert sim["disjoint"]["segments"] == sim["sliding"]["segments"] == 20

    def test_blocksim_shape_contradiction(self, capsys):
        code, _, err = run_cli(
            capsys, "variance", "--h", "identity", "--gamma", "0",
            "--n-mc", "10000", "--zeta-nodes", "8",
            "--blocksim-dist", "uniform", "--blocksim-r", "100",
            "--blocksim-blocks", "100")
        assert code == 1
        assert "contradicts" in err

    @pytest.mark.parametrize("flags, message", [
        (["--blocksim-dist", "exp"], "requires --blocksim-r"),
        (["--blocksim-dist", "exp", "--blocksim-r", "100"], "requires --blocksim-r"),
        (["--blocksim-dist", "uniform", "--blocksim-r", "100", "--blocksim-blocks", "100"],
         "contradicts"),
        (["--format", "csv", "--blocksim-dist", "exp", "--blocksim-r", "100",
          "--blocksim-blocks", "200"], "no CSV form"),
        (["--blocksim-dist", "exp", "--blocksim-r", "10", "--blocksim-blocks", "1"],
         "n_blocks must be >= 2"),
        (["--blocksim-dist", "exp", "--blocksim-r", "100000", "--blocksim-blocks", "1000"],
         "exceeds the cap"),
    ])
    def test_blocksim_flags_checked_before_monte_carlo(self, flags, message, capsys,
                                                       monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Monte Carlo ran before the flags were checked")

        monkeypatch.setattr(extremes, "sigma2_sb", refuse)
        monkeypatch.setattr(extremes, "block_maxima_simulate", refuse)
        code, out, err = run_cli(capsys, "variance", "--h", "identity", "--gamma", "0",
                                 *flags)
        assert code == 1
        assert out == ""
        assert message in err


class TestBlocksim:
    def test_unit_block_uniform(self, capsys):
        code, out, _ = run_cli(
            capsys, "blocksim", "--dist", "uniform", "--r", "1", "--n-blocks",
            "20000", "--mode", "disjoint")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["estimate"] - 1.0 / 12.0) < 0.005
        assert payload["gamma"] == -1.0

    def test_both_modes_report_ratio(self, capsys):
        code, out, _ = run_cli(
            capsys, "blocksim", "--dist", "exp", "--r", "50", "--n-blocks",
            "400", "--mode", "both")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"disjoint", "sliding", "ratio"}
        assert payload["ratio"] == pytest.approx(
            payload["sliding"]["estimate"] / payload["disjoint"]["estimate"])

    @pytest.mark.parametrize("n_blocks", ["2", "3"])
    def test_se_null_exactly_below_two_segments(self, n_blocks, capsys):
        code, out, _ = run_cli(
            capsys, "blocksim", "--dist", "exp", "--r", "5", "--n-blocks",
            n_blocks, "--mode", "both")
        assert code == 0
        payload = json.loads(out)
        for mode in ("disjoint", "sliding"):
            assert payload[mode]["segments"] < 2
            assert payload[mode]["se"] is None
        code, out, _ = run_cli(
            capsys, "blocksim", "--dist", "exp", "--r", "5", "--n-blocks",
            "40", "--mode", "both")
        payload = json.loads(out)
        for mode in ("disjoint", "sliding"):
            assert payload[mode]["segments"] >= 2
            assert math.isfinite(payload[mode]["se"])

    def test_ratio_null_when_disjoint_estimate_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "blocksim", "--dist", "exp", "--r", "5", "--n-blocks",
            "40", "--mode", "both", "--h", "const")
        assert code == 0
        payload = json.loads(out)
        assert payload["disjoint"]["estimate"] == 0.0
        assert payload["ratio"] is None

    def test_pareto_identity_divergent(self, capsys):
        code, _, err = run_cli(
            capsys, "blocksim", "--dist", "pareto", "--alpha", "3", "--r",
            "100", "--n-blocks", "100", "--mode", "disjoint")
        assert code == 2
        assert "numerical failure" in err

    @pytest.mark.parametrize("h,message", [
        (["--h", "identity"], "fourth moment of h=identity diverges"),
        (["--h", "indicator", "--threshold", "1"], "a_r = r**(1/alpha) overflows"),
    ])
    def test_pareto_scaling_overflow(self, capsys, h, message):
        # r**(1/alpha) is past the float range at alpha = 1e-3; it used to
        # end in an OverflowError traceback.
        code, out, err = run_cli(
            capsys, "blocksim", "--dist", "pareto", "--alpha", "1e-3", "--r", "10",
            "--n-blocks", "100", *h)
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: ") and message in err

    @pytest.mark.parametrize("h", [[], ["--h", "indicator", "--threshold", "1"]],
                             ids=["identity", "indicator"])
    def test_pareto_shape_overflow(self, capsys, h):
        # gamma = 1/alpha is past the float range; it used to be refused as
        # invalid input ("gamma must be finite").
        code, out, err = run_cli(
            capsys, "blocksim", "--dist", "pareto", "--alpha", "1e-320", "--r", "10",
            "--n-blocks", "100", *h)
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: ") and "Traceback" not in err

    def test_log_transform_keeps_the_spread_at_a_tiny_gamma(self, capsys):
        # gamma = 1e-10: 1 + gamma*x rounds the spread of x away, and the
        # estimate used to read exactly 0 with exit 0.
        code, out, _ = run_cli(
            capsys, "blocksim", "--dist", "pareto", "--alpha", "1e10", "--r", "10",
            "--n-blocks", "100", "--h", "log-transform", "--mode", "disjoint",
            "--seed", "1")
        assert code == 0
        estimate = json.loads(out)["estimate"]
        # Nearly Var(max of 10 Exp(1)) * gamma^2 = 1.55e-20.
        assert 1e-20 < estimate < 2.5e-20, estimate

    @pytest.mark.parametrize("sizes, message", [
        (["--r", "25000001", "--n-blocks", "2"],
         "sequence length r*n_blocks = 50000002 exceeds the cap 50000000"),
        (["--r", "10", "--n-blocks", "1"], "n_blocks must be >= 2"),
    ])
    def test_sizes_checked_before_the_draw(self, sizes, message, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sequence was drawn")

        monkeypatch.setattr(extremes, "iter_chunks", refuse)
        for mode in ("disjoint", "sliding", "both"):
            code, out, err = run_cli(capsys, "blocksim", "--dist", "exp", *sizes,
                                     "--mode", mode)
            assert (code, out) == (1, "")
            assert message in err

    def test_smallest_sizes(self, capsys):
        # One draw per block and two blocks, under the suite's RuntimeWarning filter.
        code, out, _ = run_cli(capsys, "blocksim", "--dist", "exp", "--r", "1",
                               "--n-blocks", "2", "--mode", "both")
        assert code == 0
        payload = json.loads(out)
        for mode in ("disjoint", "sliding"):
            assert payload[mode]["se"] is None and math.isfinite(payload[mode]["estimate"])

    def test_pareto_requires_alpha(self, capsys):
        code, _, err = run_cli(
            capsys, "blocksim", "--dist", "pareto", "--r", "10", "--n-blocks",
            "10", "--mode", "disjoint")
        assert code == 1


class TestVerify:
    def test_quick_battery_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--quick", "--seed", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["quick"] is True
        assert all(line.startswith("ok  ") for line in err.strip().splitlines())

    def test_injected_defect_detected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--quick", "--seed", "5",
                                 "--inject-defect")
        assert code == 3
        assert json.loads(out)["passed"] is False
        assert "FAIL" in err

    def test_a_sampler_drawing_at_phi_plus_001_fails_only_the_sampler_check(
            self, capsys, monkeypatch):
        copula = FAMILY_TABLE["copula"]

        def off_by_001(c, gen, size):
            return copula.chunk(CopulaParams(c.phi + 0.01, c.psi), gen, size)

        monkeypatch.setitem(FAMILY_TABLE, "copula", dataclasses.replace(copula, chunk=off_by_001))
        code, out, _ = run_cli(capsys, "verify", "--quick")
        assert code == 3
        assert [c["name"] for c in json.loads(out)["checks"] if not c["passed"]] == \
            ["sampler-chi2"]

    def test_sampler_chi2_passes_at_seeds_1_to_40(self):
        # On the battery's own stream for the check, child 1003 of the seed;
        # both batteries run the sampler check at the same size.
        for seed in range(1, 41):
            result = verify.check_sampler_chi2(verify.QUICK_SIZES, RngStream(seed).child(1003))
            assert result.passed, (seed, result.detail)


COPULA = ["--family", "copula", "--phi", "0.3", "--psi", "0.7"]


class TestOut:
    """Every output reaches stdout or ``--out`` through the one writer."""

    @pytest.mark.parametrize("argv", [
        ["maxcorr", *COPULA, "-n", "20000", "--m", "16"],
        ["corr", *COPULA, "--k", "2"],
        ["blocksim", "--dist", "exp", "--r", "10", "--n-blocks", "50"],
        ["verify", "--quick", "--seed", "5"],
    ], ids=lambda argv: argv[0])
    def test_stdout_bytes_equal_out_bytes(self, argv, tmp_path, capsys):
        # TestCdfEval and TestVariance compare the --format csv forms.
        code, out, err = run_cli(capsys, *argv)
        path = tmp_path / "out"
        path.write_bytes(b"an older, longer output\n" * 10_000)
        assert run_cli(capsys, *argv, "--out", str(path)) == (code, "", err)
        assert path.read_bytes() == out.encode("ascii") and out

    def test_a_failed_replace_keeps_a_json_out(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "corr.json"
        path.write_bytes(b"{}\n")
        refuse_replace(monkeypatch)
        code, out, err = run_cli(capsys, "corr", *COPULA, "--k", "2", "--out", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: [Errno {errno.EACCES}] Permission denied: {str(path)!r}\n"
        assert path.read_bytes() == b"{}\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("refused", ["x.csv", "x.meta.json"])
    def test_a_failed_replace_keeps_the_sample_files(self, refused, tmp_path, capsys,
                                                     monkeypatch):
        # The CSV is written first, then its sidecar: each is kept when its
        # own replace fails, and a refused CSV stops the sidecar.
        path, sidecar = tmp_path / "x.csv", tmp_path / "x.meta.json"
        path.write_bytes(b"u,v\n1,2\n")
        sidecar.write_bytes(b"{}\n")
        refuse_replace(monkeypatch, lambda dst: dst.endswith(refused))
        argv = ["sample", *COPULA, "-n", "10", "--out", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: [Errno {errno.EACCES}] Permission denied: " \
                      f"{str(tmp_path / refused)!r}\n"
        assert sidecar.read_bytes() == b"{}\n"
        assert (path.read_bytes() == b"u,v\n1,2\n") == (refused == "x.csv")
        assert sorted(tmp_path.iterdir()) == [path, sidecar]

    def test_a_json_out_in_a_missing_directory_is_named(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x.json")
        code, _, err = run_cli(capsys, "corr", *COPULA, "--k", "2", "--out", out)
        assert code == 1
        assert err == f"error: [Errno {errno.ENOENT}] No such file or directory: {out!r}\n"


class TestParsing:
    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "corr", "--family", "copula", "--phi",
                               "0.5", "--psi", "0.5", "--k", "0", "--wat", "1")
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_no_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["sample", "--family", "copula", "--phi", "0.3", "--psi", "0.7", "-n", "10"],
        ["corr", "--phi", "0.3", "--psi", "0.7", "--k", "1"],
        ["maxcorr", "--family", "copula", "--phi", "0.3", "--psi", "0.7",
         "-n", "20000", "--m", "8"],
        ["blocksim", "--dist", "exp", "--r", "10", "--n-blocks", "20"],
        ["verify", "--quick"],
    ], ids=lambda argv: argv[0])
    def test_format_rejected_without_a_csv_form(self, argv, tmp_path, capsys):
        # These subcommands have one output form, so they take no --format.
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"),
                                 "--format", "csv")
        assert code == 1
        assert "--format" in err
        assert not (tmp_path / "out").exists()

    def test_negative_numbers_in_exponent_form(self, tmp_path, capsys):
        mc = ["--n-mc", "2000", "--zeta-nodes", "4"]
        results = [run_cli(capsys, "variance", "--h", "identity", "--gamma", gamma, *mc)
                   for gamma in ("-5e-1", "-0.5")]
        assert results[0][0] == 0
        assert results[0] == results[1]
        code, _, err = run_cli(capsys, "cdf-eval", "--family", "copula", "--phi", "0.3",
                               "--psi", "0.4", "--at", "-2e0", "1")
        assert code == 1
        assert "unit square" in err
        code, _, err = run_cli(capsys, "sample", "--family", "limit_gev", "--zeta", "0.3",
                               "--gamma", "-2.5e-1", "-n", "1000",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 0, err

    @pytest.mark.parametrize("argv,first", [
        (["cdf-eval", "--family", "copula", "--phi", "0.3", "--psi", "0.4",
          "--at", "2", "1"], "unit square"),
        (["corr", "--phi", "0.3", "--psi", "0.7", "--k", "-1"], "k must be"),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_seed_checked_after_the_commands_own_checks(self, argv, first, capsys):
        # cdf-eval and corr draw nothing, yet refuse a seed no stream takes.
        for seed in ("-1", str(2 ** 64)):
            code, out, err = run_cli(capsys, *argv, "--seed", seed)
            assert code == 1 and first in err and not out
            valid = [a if a not in ("2", "-1") else "0.5" for a in argv]
            code, out, err = run_cli(capsys, *valid, "--seed", seed)
            assert (code, out) == (1, "")
            assert err == "error: seed must be in [0, 18446744073709551615]\n"

    def test_console_script_wired(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mocorr.cli", "corr", "--family", "copula",
             "--phi", "0.25", "--psi", "0.25", "--k", "0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["max_corr"] == 0.25

    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mocorr.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "sample" in proc.stdout and "verify" in proc.stdout

    def test_import_leaves_scipy_unloaded(self, tmp_path):
        # numpy is the only runtime dependency: with every scipy import
        # made to fail, every subcommand runs on every family it takes.
        family_args = {
            "copula": ["--phi", "0.3", "--psi", "0.7"],
            "d_xi": ["--xi", "0.5"],
            "mo": ["--l1", "1", "--l2", "2", "--l12", "1.5"],
            "limit_gev": ["--zeta", "0.3", "--gamma", "0.2"],
            "gaussian": ["--rho", "0.6"],
        }
        assert sorted(family_args) == sorted(FAMILIES)
        runs = []
        for family, args in family_args.items():
            fam = ["--family", family, *args]
            runs += [["sample", *fam, "-n", "2000", "--out", str(tmp_path / f"{family}.csv")],
                     ["cdf-eval", *fam, "--at", "0.3", "0.7", "--at", "1", "0"],
                     ["maxcorr", *fam, "-n", "100000", "--m", "32"]]
        runs += [["corr", "--family", "copula", "--phi", "0.3", "--psi", "0.7", "--k", "1"],
                 ["corr", "--family", "d_xi", "--xi", "0.5", "--k", "1"],
                 ["variance", "--h", "identity", "--gamma", "0", "--n-mc", "2000",
                  "--zeta-nodes", "4", "--blocksim-dist", "exp", "--blocksim-r", "10",
                  "--blocksim-blocks", "100"]]
        runs += [["blocksim", "--dist", *dist, "--r", "10", "--n-blocks", "100"]
                 for dist in (["exp"], ["pareto", "--alpha", "5"], ["uniform"])]
        runs += [["verify", "--quick"]]
        probe = ("import contextlib, io, json, sys\n"
                 "sys.modules['scipy'] = None\n"
                 "from mocorr.cli import main\n"
                 "results = []\n"
                 "for argv in json.loads(sys.argv[1]):\n"
                 "    out = io.StringIO()\n"
                 "    with contextlib.redirect_stdout(out):\n"
                 "        results.append([main(argv), out.getvalue()])\n"
                 "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                 "print(json.dumps([results, loaded]))\n")
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", probe, json.dumps(runs)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        results, loaded = json.loads(proc.stdout)
        failed = [argv for argv, (code, _) in zip(runs, results) if code != 0]
        assert not failed, proc.stderr
        assert loaded == ["scipy"]
        gaussian = runs.index(["maxcorr", "--family", "gaussian", "--rho", "0.6",
                               "-n", "100000", "--m", "32"])
        assert json.loads(results[gaussian][1])["abs_error"] < 0.02

    def test_only_the_quantile_imports_statistics(self, tmp_path):
        # ndtri imports statistics when first called: the package import
        # and the Gaussian sampler, which needs only ndtr, skip it; the
        # Gaussian copula cdf takes quantiles and loads it.
        probe = ("import contextlib, io, json, sys\n"
                 "import mocorr\n"
                 "from mocorr.cli import main\n"
                 "gaussian = ['--family', 'gaussian', '--rho', '0.6']\n"
                 "def loaded(*argv):\n"
                 "    with contextlib.redirect_stdout(io.StringIO()):\n"
                 "        assert main(list(argv)) == 0, argv\n"
                 "    return 'statistics' in sys.modules\n"
                 "print(json.dumps(['statistics' in sys.modules,\n"
                 "                  loaded('maxcorr', *gaussian, '-n', '20000', '--m', '16'),\n"
                 "                  loaded('sample', *gaussian, '-n', '1000', '--out', sys.argv[1]),\n"
                 "                  loaded('cdf-eval', *gaussian, '--at', '0.3', '0.7')]))\n")
        proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "gaussian.csv")],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [False, False, False, True]

    def test_only_verify_imports_concurrent_futures(self, tmp_path):
        # run_battery imports the thread pool when first called: the package
        # import and the other subcommands skip it.
        probe = ("import contextlib, io, json, sys\n"
                 "import mocorr\n"
                 "from mocorr.cli import main\n"
                 "def loaded(*argv):\n"
                 "    with contextlib.redirect_stdout(io.StringIO()):\n"
                 "        assert main(list(argv)) == 0, argv\n"
                 "    return 'concurrent.futures' in sys.modules\n"
                 "print(json.dumps(['concurrent.futures' in sys.modules,\n"
                 "                  loaded('maxcorr', '--family', 'copula', '--phi', '0.3',\n"
                 "                         '--psi', '0.7', '-n', '20000', '--m', '16'),\n"
                 "                  loaded('sample', '--family', 'mo', '--l1', '1', '--l2', '2',\n"
                 "                         '--l12', '1.5', '-n', '1000', '--out', sys.argv[1]),\n"
                 "                  loaded('variance', '--h', 'identity', '--gamma', '0',\n"
                 "                         '--n-mc', '2000', '--zeta-nodes', '4'),\n"
                 "                  loaded('blocksim', '--dist', 'exp', '--r', '10',\n"
                 "                         '--n-blocks', '100', '--mode', 'both'),\n"
                 "                  loaded('verify', '--quick')]))\n")
        proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "mo.csv")],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [False, False, False, False, False, True]
