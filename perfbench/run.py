"""Benchmark of the ``mocorr`` CLI.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload maxcorr_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` times the CLI as users run it: one subprocess at a time
(a closed loop with one client), repeating the workload's batch while
the next pass still fits in ``--seconds``.  Every invocation goes through
a correctness gate.  The end-to-end metrics are:

- ``setup_s``: median wall time of a fresh ``python -c "import mocorr"``;
- ``wall_s``: median time of one pass over the batch (time to solution);
- ``op_p50_s``: median wall time of one invocation;
- ``op_tail_s``: the highest of the 50/75/90/95/99th percentiles of
  invocation time that has at least ten samples beyond it, or the 90th
  when fewer than 20 invocations ran;

Percentiles of invocation time are Harrell-Davis estimates.
- ``peak_rss_mb``: the largest max-RSS of any invocation.

``--trace 1`` runs the batch in-process through ``mocorr.cli.main``,
each invocation once with span tracing and once without, and reports
per-layer self times and counts, the import breakdown from
``-X importtime`` and the tracing overhead.  Spans go to
``.perfbench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the provenance, the percentile behind ``op_tail_s``, the
failure fraction and each failed invocation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.special import betainc

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gates  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

CLI = "import sys; from mocorr.cli import main; sys.exit(main())"
INVOCATION_TIMEOUT_S = 120.0
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 5
TAIL_LEVELS = (99, 95, 90, 75, 50)
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORTS = {"mocorr": "import.mocorr_s", "scipy.special": "import.scipy_special_s",
           "numpy": "import.numpy_s"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(argv: list[str], cwd: Path, stdout, stderr) -> tuple[float, int, float]:
    """Run ``python argv`` to completion; return (seconds, exit code, max RSS MB)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=_child_env(),
                            stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr)
    killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        # wait4 rather than wait: it also returns this child's resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def _import_probe(repeats: int, flags: list[str]) -> tuple[list[float], list[str]]:
    """Time ``repeats`` fresh imports after one untimed warm-up that fills
    the bytecode caches; return the times and each run's stderr."""
    times, errs = [], []
    for i in range(repeats + 1):
        with tempfile.TemporaryFile(dir=OUT) as err:
            seconds, code, _ = _spawn([*flags, "-c", "import mocorr"], OUT,
                                      subprocess.DEVNULL, err)
            err.seek(0)
            text = err.read().decode("utf-8", "replace")
        if code != 0:
            raise RuntimeError(f"import mocorr failed: {text.strip()}")
        if i:
            times.append(seconds)
            errs.append(text)
    return times, errs


def import_breakdown(repeats: int) -> dict[str, float]:
    """Median cumulative import time, in seconds, of the modules in IMPORTS."""
    _, errs = _import_probe(repeats, ["-X", "importtime"])
    samples = {metric: [] for metric in IMPORTS.values()}
    for text in errs:
        seen = {}
        for line in text.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORTS:
                try:
                    seen[parts[2].strip()] = int(parts[1]) / 1e6
                except ValueError:
                    continue
        for module, metric in IMPORTS.items():
            samples[metric].append(seen.get(module, 0.0))
    return {metric: statistics.median(values) for metric, values in samples.items()}


def quantile(times: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics.  A batch mixes invocations of different cost, and two
    of similar cost trading places would make a single order statistic jump
    from one to the other."""
    ordered = np.sort(times)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    weights = np.diff(betainc(a, b, np.linspace(0.0, 1.0, n + 1)))
    return float(weights @ ordered)


def tail(times: list[float]) -> tuple[float, dict]:
    """Highest listed percentile with at least ten samples beyond it.

    With fewer than 20 samples no listed percentile has ten beyond it,
    and the 90th is reported instead.
    """
    n = len(times)
    for level in TAIL_LEVELS:
        beyond = n - math.ceil(level / 100 * n)
        if beyond >= 10:
            return quantile(times, level / 100), {"percentile": level, "samples": n,
                                                   "beyond": beyond}
    return quantile(times, 0.9), {"percentile": 90, "samples": n,
                                  "beyond": n - math.ceil(0.9 * n),
                                  "rule": "fewer than 20 samples"}


def provenance(workload: str, seed: int, invocations_per_pass: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mocorr").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "workload": workload,
        "seed": seed,
        "invocations_per_pass": invocations_per_pass,
    }


def _with_out(argv: list[str], workdir: Path, index: int) -> list[str]:
    if argv[0] == "sample":
        return argv + ["--out", str(workdir / f"sample-{index}.csv")]
    return argv


def _clean(workdir: Path) -> None:
    for path in workdir.iterdir():
        path.unlink()


class Tally:
    """Verdicts of one run, and the failed invocations by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = []
        self.wrong = 0

    def add(self, argv: list[str], verdict: gates.Verdict) -> None:
        self.attempted += 1
        if not verdict.ok:
            self.failed.append({"argv": " ".join(argv), "status": verdict.status,
                                "reason": verdict.reason})
            self.wrong += verdict.status == "wrong"

    def result(self, metrics: dict) -> dict:
        return {"correct": self.wrong == 0, "attempted": self.attempted,
                "failed": len(self.failed), "metrics": metrics}

    def report(self) -> dict:
        return {"failed_frac": len(self.failed) / self.attempted, "failures": self.failed}


def run_end_to_end(batch: list[list[str]], seconds: int, tiny: bool,
                   workdir: Path) -> tuple[dict, dict]:
    setup, _ = _import_probe(1 if tiny else SETUP_REPEATS, [])
    tally = Tally()
    passes, ops, rss = [], [], []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        pass_time = 0.0
        for i, argv in enumerate(batch):
            argv = _with_out(argv, workdir, i)
            with open(workdir / "stdout", "w+b") as out, open(workdir / "stderr", "w+b") as err:
                op_s, code, op_rss = _spawn(["-c", CLI, *argv], workdir, out, err)
                out.seek(0)
                err.seek(0)
                stdout = out.read().decode("utf-8", "replace")
                stderr = err.read().decode("utf-8", "replace")
            tally.add(argv, gates.check(argv, code, stdout, stderr))
            _clean(workdir)
            pass_time += op_s
            ops.append(op_s)
            rss.append(op_rss)
        passes.append(pass_time)
        elapsed = perf_counter() - start
        if elapsed + (perf_counter() - pass_start) > seconds:
            break
    tail_s, tail_info = tail(ops)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(passes), "unit": "s"},
        "op_p50_s": {"value": quantile(ops, 0.5), "unit": "s"},
        "op_tail_s": {"value": tail_s, "unit": "s"},
        "peak_rss_mb": {"value": max(rss), "unit": "MB"},
    }
    report = {"passes": len(passes), "setup_samples": len(setup), "op_tail": tail_info,
              **tally.report()}
    return tally.result(metrics), report


def run_traced(batch: list[list[str]], tiny: bool, workdir: Path,
               spans_path: Path) -> tuple[dict, dict]:
    """Run the batch in-process through ``mocorr.cli.main``.

    Each invocation runs three times: once to warm the process, then
    untraced and traced, alternating which goes first so that drift falls
    on both sides of the overhead.
    """
    from mocorr import cli

    imports = import_breakdown(1 if tiny else IMPORTTIME_REPEATS)
    tracer = spans.Tracer()
    tally = Tally()
    elapsed = {False: 0.0, True: 0.0}
    for i, argv in enumerate(batch):
        argv = _with_out(argv, workdir, i)
        for traced in (None, False, True) if i % 2 == 0 else (None, True, False):
            out, err = io.StringIO(), io.StringIO()
            tracer.request = i
            restore = tracer.install() if traced else None
            try:
                start = perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                if traced is not None:
                    elapsed[traced] += perf_counter() - start
            finally:
                if restore:
                    restore()
            if traced:
                tally.add(argv, gates.check(argv, code, out.getvalue(), err.getvalue()))
            _clean(workdir)
    tracer.write(spans_path)
    metrics = {name: {"value": value, "unit": "s"} for name, value in imports.items()}
    metrics.update(tracer.metrics())
    metrics.update({
        "trace.untraced_s": {"value": elapsed[False], "unit": "s"},
        "trace.traced_s": {"value": elapsed[True], "unit": "s"},
        "trace.overhead_s": {"value": elapsed[True] - elapsed[False], "unit": "s"},
        "trace.spans": {"value": len(tracer.spans), "unit": "count"},
    })
    return tally.result(metrics), {"spans_file": str(spans_path.relative_to(ROOT)),
                                   **tally.report()}


def _summary(results: dict, reports: dict) -> None:
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:15s} {metric:45s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:15s} {'failed_frac':45s} {reports[name]['failed_frac']:14.6g} "
              f"fraction of {result['attempted']}; correct={result['correct']}")
        for failure in reports[name]["failures"]:
            print(f"{name:15s}   {failure['status']}: {failure['argv']}: {failure['reason']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in an unsigned 64-bit word")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "mocorr" / "__init__.py").is_file():
        print(f"error: no mocorr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Exit through the finally blocks, which stop the running invocation
    # and remove the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results, reports = {}, {}
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        for name in names:
            batch = workloads.batch(name, args.seed, args.tiny)
            if args.trace:
                result, report = run_traced(batch, args.tiny, workdir,
                                            OUT / f"spans-{name}-seed{args.seed}.jsonl")
            else:
                result, report = run_end_to_end(batch, args.seconds, args.tiny, workdir)
            reports[name] = {"provenance": provenance(name, args.seed, len(batch)), **report}
            results[name] = result
            print(json.dumps(reports[name]), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.workload == "all":
        _summary(results, reports)
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
