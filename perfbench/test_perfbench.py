"""Self-check of the benchmark: run with ``python3 -m pytest perfbench``.

Runs every workload once at a tiny size in both modes and checks the
output format against ``BENCHMARK.json``, then feeds the correctness
gates corrupted outputs to show they reject them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gates  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_declared_workloads_are_the_ones_run():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == len(workloads.batch(workload, 7, tiny=True))
    declared = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    report = json.loads(report_line)
    assert report["provenance"]["seed"] == 7
    assert len(report["failures"]) == result["failed"]
    if workload != "maxcorr_grid":  # tiny maxcorr sizes are below the 0.02 regime
        assert result["correct"] and result["failed"] == 0, report["failures"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "maxcorr_grid", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_percentiles():
    times = [float(i) for i in range(1, 31)]
    value, info = run.tail(times)
    assert (info["percentile"], info["beyond"]) == (50, 15)
    assert value == pytest.approx(15.5)
    value, info = run.tail(times[:12])
    assert info["percentile"] == 90 and 10.0 < value < 12.0
    assert run.quantile(times[:9], 0.5) == pytest.approx(5.0)
    assert run.quantile(times[:10], 0.5) == pytest.approx(5.5)
    assert run.quantile([7.0], 0.5) == 7.0


def test_tracer_wraps_every_binding_and_restores_them():
    from mocorr import maxcorr, numerics

    original = numerics.bin_pairs
    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        assert maxcorr.bin_pairs is numerics.bin_pairs is not original
        assert maxcorr.bin_pairs.__wrapped__ is original
    finally:
        restore()
    assert maxcorr.bin_pairs is numerics.bin_pairs is original


MAXCORR = ["maxcorr", "--family", "copula", "--phi", "0.3", "--psi", "0.7", "--seed", "1"]


def test_maxcorr_gate():
    assert gates.check(MAXCORR, 0, json.dumps({"abs_error": 0.01}), "").ok
    assert gates.check(MAXCORR, 0, json.dumps({"abs_error": 0.5}), "").status == "wrong"
    assert gates.check(MAXCORR, 0, json.dumps({"abs_error": None}), "").status == "wrong"
    assert gates.check(MAXCORR, 0, '{"abs_error": 0.0', "").status == "wrong"
    assert gates.check(MAXCORR, 2, "", "numerical failure: x\n").status == "refused"
    assert gates.check(MAXCORR, 1, "", "Traceback\n").status == "wrong"


def test_variance_blocksim_and_verify_gates():
    assert gates.check(["variance"], 0, "{}", "inequality check: pass (x)\n").ok
    assert gates.check(["variance"], 0, "{}", "").status == "wrong"
    assert gates.check(["variance"], 3, "{}", "inequality check: FAIL\n").status == "wrong"
    assert gates.check(["blocksim"], 0, json.dumps({"estimate": 1.5}), "").ok
    both = {"disjoint": {"estimate": 1.5}, "sliding": {"estimate": None}}
    assert gates.check(["blocksim"], 0, json.dumps(both), "").status == "wrong"
    good = {"passed": True, "checks": [{"name": "a", "passed": True}]}
    bad = {"passed": True, "checks": [{"name": "a", "passed": False}]}
    assert gates.check(["verify"], 0, json.dumps(good), "").ok
    assert gates.check(["verify"], 0, json.dumps(bad), "").status == "wrong"


def test_sample_gate_rejects_truncated_or_altered_csv(tmp_path):
    import mocorr

    argv = ["sample", "--family", "copula", "--phi", "0.3", "--psi", "0.7", "-n", "500",
            "--seed", "3", "--out", str(tmp_path / "s.csv")]
    sample = mocorr.sample_copula(mocorr.CopulaParams(0.3, 0.7), 500, mocorr.RngStream(3))
    mocorr.write_sample_csv(sample, tmp_path / "s.csv")
    assert gates.check(argv, 0, "", "").ok
    text = (tmp_path / "s.csv").read_text()
    (tmp_path / "s.csv").write_text(text[: len(text) // 2])
    assert gates.check(argv, 0, "", "").status == "wrong"
    (tmp_path / "s.csv").write_text(text.replace("0.", "0.9", 1))
    assert gates.check(argv, 0, "", "").status == "wrong"
    np.testing.assert_array_equal(gates.expected_pairs(argv), sample.pairs)
    (tmp_path / "s.csv").write_text(text)
    meta = tmp_path / "s.meta.json"
    meta.write_text(meta.read_text().replace('"n": 500', '"n": 499'))
    assert gates.check(argv, 0, "", "").status == "wrong"
