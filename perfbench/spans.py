"""Span tracing of the ``mocorr`` layers from outside the package.

:meth:`Tracer.install` wraps the public module-level functions of each
layer module and rebinds the wrappers in every ``mocorr`` namespace that
holds the original, so calls through ``from .numerics import bin_pairs``
are caught too.  Each call records a span (request id, span id, parent
id, name, start, end, error) in memory.  Self time is a span's duration
minus the durations of its child spans; calls are single-threaded, so
children never overlap.

A few wrappers also count work at the boundary: the spectral iterations
and non-convergence failures, variates drawn, ECDF points, and computed
sizes (CSV bytes, quadrature nodes, FFT points).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("rng", "mo", "maxcorr", "numerics", "extremes", "verify", "serialize", "cli")

# Per-element helpers cost more to wrap than they take, and the CLI's
# own layer is its entry point: cli.main's self time is argument
# parsing, the rank transform and the report.
_SKIP = {"serialize.format_float"}
_ONLY = {"cli": {"main"}}

VERIFY_CHECKS = (
    "check_copula_axioms", "check_survival_identity", "check_max_stability",
    "check_sampler_ks", "check_quadrature_agreement", "check_power_consistency",
    "check_estimator_closed_form", "check_dxi_estimator", "check_gaussian_oracle",
    "check_variance_inequality", "check_zeta_factorization",
)

#: Layer functions whose summed self time is reported as ``<name>.self_s``.
SELF_TIMES = (
    "cli.main",
    "numerics.bin_pairs", "numerics.second_singular_value_detail",
    "maxcorr.estimate_max_corr",
    "rng.draw_uniforms", "rng.draw_iid", "rng.draw_standard_normals",
    "mo.sample_copula", "mo.sample_mo", "mo.sample_d_xi", "mo.copula_pair_from_uniforms",
    "mo.mo_marginal_survival", "maxcorr.sample_gaussian_copula",
    "extremes.sample_limit_pair",
    "mo.write_sample_csv", "serialize.write_csv", "serialize.canonical_json",
    "numerics.ecdf_ks", "numerics.quad_2d", "numerics.quad_1d",
    "maxcorr.gaussian_copula_cdf", "extremes.limit_copula_cdf",
    "mo.copula_cdf", "mo.mo_cdf", "mo.d_xi_cdf", "extremes.gev_cdf",
    *(f"verify.{name}" for name in VERIFY_CHECKS),
    "extremes.sigma2_sb", "extremes.sigma2_db", "extremes.gev_quantile",
    "extremes.check_moments", "extremes.block_maxima_simulate", "extremes.sliding_max",
)

#: Layer functions whose call count is reported as ``<name>.calls``.
CALLS = (
    "cli.main", "numerics.bin_pairs", "numerics.second_singular_value_detail",
    "numerics.ecdf_ks", "extremes.block_maxima_simulate", "mo.write_sample_csv",
)

#: Counters and their units; "computed" ones are derived from sizes.
COUNTERS = {
    "numerics.spectral_iterations": "count",
    "numerics.spectral_failures": "count",
    "rng.variates": "count",
    "mo.csv_bytes": "B-computed",
    "numerics.ecdf_ks.points": "count",
    "numerics.quad_2d.nodes": "count-computed",
    "extremes.sequence_len": "count",
    "extremes.fft_points": "count-computed",
}


@dataclass(frozen=True)
class Span:
    request: int
    id: int
    parent: int
    name: str
    start: float
    end: float
    error: str | None


def _fft_size(n: int) -> int:
    # Transform length of the lag-window estimator for a series of n.
    return 1 << math.ceil(math.log2(2 * n))


def _lag_window_points(r: int, n_blocks: int) -> int:
    """FFT points of one sliding simulation: the full series, then the
    segments behind its standard error."""
    n = r * n_blocks - r + 1
    points = _fft_size(n)
    k = min(20, n // (2 * r))
    if k >= 2:
        base, extra = divmod(n, k)
        points += extra * _fft_size(base + 1) + (k - extra) * _fft_size(base)
    return points


def _count_spectral(counts, call, result, exc):
    if exc is None:
        counts["numerics.spectral_iterations"] += int(result[2])
    elif type(exc).__name__ == "NonConvergenceError":
        counts["numerics.spectral_failures"] += 1
        counts["numerics.spectral_iterations"] += int(getattr(exc, "iterations", 0) or 0)


def _count_variates(counts, call, result, exc):
    if exc is None:
        counts["rng.variates"] += int(np.size(result))


def _count_csv(counts, call, result, exc):
    if exc is None:
        counts["mo.csv_bytes"] += Path(call.arguments["path"]).stat().st_size


def _count_ecdf(counts, call, result, exc):
    sample = call.arguments["sample"]
    counts["numerics.ecdf_ks.points"] += len(getattr(sample, "pairs", sample))


def _count_quad_2d(counts, call, result, exc):
    spec = call.arguments["spec"]
    counts["numerics.quad_2d.nodes"] += (spec.nodes_per_axis * spec.subdivisions) ** 2


def _count_blocks(counts, call, result, exc):
    r, n_blocks = int(call.arguments["r"]), int(call.arguments["n_blocks"])
    counts["extremes.sequence_len"] += r * n_blocks
    if exc is None and call.arguments["mode"] == "sliding":
        counts["extremes.fft_points"] += _lag_window_points(r, n_blocks)


_HOOKS = {
    "numerics.second_singular_value_detail": _count_spectral,
    "rng.draw_uniforms": _count_variates,
    "rng.draw_standard_normals": _count_variates,
    "rng.draw_iid": _count_variates,
    "mo.write_sample_csv": _count_csv,
    "numerics.ecdf_ks": _count_ecdf,
    "numerics.quad_2d": _count_quad_2d,
    "extremes.block_maxima_simulate": _count_blocks,
}


class Tracer:
    """Collects spans and counters while its wrappers are installed.

    Spans and counts accumulate across installs, so one tracer can cover
    many invocations that are each traced separately.
    """

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(self.request, sid, parent, name, start, end,
                                       None if error is None else type(error).__name__)
                if hook:
                    call = signature.bind(*args, **kwargs)
                    call.apply_defaults()
                    hook(self.counts, call, result, error)
            return result

        return wrapper

    def install(self):
        """Wrap every layer function; return a callable that undoes it."""
        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"mocorr.{layer}")
            except ImportError:
                continue
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in _SKIP or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__ \
                        or (layer in _ONLY and attr not in _ONLY[layer]):
                    continue
                wrappers[fn] = self._wrap(name, fn)
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "mocorr" and not modname.startswith("mocorr."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    patched.append((module, attr, value))

        def restore():
            for module, attr, value in patched:
                setattr(module, attr, value)

        return restore

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and call count per span name."""
        child = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for span in self.spans:
            self_s[span.name] += span.end - span.start - child[span.id]
            calls[span.name] += 1
        return self_s, calls

    def metrics(self) -> dict[str, dict]:
        """Every per-layer metric this module defines; absent layers read 0."""
        self_s, calls = self.self_times()
        out = {f"{name}.self_s": {"value": self_s.get(name, 0.0), "unit": "s"}
               for name in SELF_TIMES}
        out.update({f"{name}.calls": {"value": calls.get(name, 0), "unit": "count"}
                    for name in CALLS})
        out.update({name: {"value": self.counts.get(name, 0), "unit": unit}
                    for name, unit in COUNTERS.items()})
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")
