import json
import math
import subprocess
import sys

import numpy as np
import pytest

from mocorr import FAMILIES, extremes
from mocorr.cli import _family_params, build_parser, main
from mocorr.errors import ValidationError
from mocorr.families import FAMILY_TABLE
from mocorr.maxcorr import max_corr_closed, power_corr, PowerIndex
from mocorr.mo import CopulaParams, PairSample, copula_cdf
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

    def test_missing_family_param(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--family", "d_xi", "-n", "10",
            "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "--xi" in err

    def test_unwritable_out_path(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--family", "copula", "--phi", "0.5", "--psi",
            "0.5", "-n", "10", "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 1
        assert "error" in err


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
        sample = record.sample(params, 20_000, RngStream(6))
        low, high = record.support
        assert low <= sample.pairs.min() and sample.pairs.max() <= high
        for bound, step in ((low, -1.0), (high, 1.0)):
            if math.isfinite(bound):
                outside = sample.pairs.copy()
                outside[0, 0] = np.nextafter(bound, bound + step)
                with pytest.raises(ValidationError, match="outside"):
                    PairSample(outside, family, sample.params, sample.seed)

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

    def test_out_file(self, tmp_path, capsys):
        p = tmp_path / "corr.json"
        code, out, _ = run_cli(capsys, "corr", "--family", "copula", "--phi",
                               "0.5", "--psi", "0.5", "--k", "0", "--out", str(p))
        assert code == 0
        assert out == ""
        assert json.loads(p.read_text())["corr"] == pytest.approx(3.0 / 7.0)


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

    def test_pareto_identity_divergent(self, capsys):
        code, _, err = run_cli(
            capsys, "blocksim", "--dist", "pareto", "--alpha", "3", "--r",
            "100", "--n-blocks", "100", "--mode", "disjoint")
        assert code == 2
        assert "numerical failure" in err

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

    def test_import_leaves_scipy_unloaded(self):
        # scipy.special is most of the package import time and only the
        # gaussian family needs it; that path loads it on first use.
        probe = ("import sys, mocorr; "
                 "print(sorted({'scipy.special', 'scipy.linalg'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        proc = subprocess.run(
            [sys.executable, "-m", "mocorr.cli", "maxcorr", "--family", "gaussian",
             "--rho", "0.6", "-n", "100000", "--m", "32"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["abs_error"] < 0.02
