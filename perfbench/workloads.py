"""The four workloads: fixed batches of ``mocorr`` CLI invocations.

Each workload is a list of argument vectors.  The workload seed is
appended to every invocation as ``--seed``; nothing else about the
inputs depends on it.  ``tiny=True`` shrinks every size so the
benchmark's own test can run each batch in seconds; it keeps the shape
of each batch (same subcommands, families and flags).
"""

from __future__ import annotations


def _maxcorr_grid(tiny: bool) -> list[list[str]]:
    # Sampling, binning and the spectral step do the work; extremes and
    # the CSV writers do none.
    n, m = ("20000", "16") if tiny else ("1000000", "64")
    size = ["-n", n, "--m", m]
    batch = []
    # The domain edges stay in on purpose: power iteration fails to
    # converge near comonotonicity, and the benchmark must show it.
    for phi, psi in [("0", "0"), ("0", "0.5"), ("0.3", "0.7"), ("0.9", "0.2"),
                     ("0.3", "0.3"), ("0.5", "0.5"), ("0.7", "0.7"),
                     ("0.9", "0.9"), ("0.98", "0.98"), ("0.999", "0.999"),
                     ("1", "1")]:
        batch.append(["maxcorr", "--family", "copula", "--phi", phi, "--psi", psi, *size])
    for xi in ("0.5", "0.999", "1"):
        batch.append(["maxcorr", "--family", "d_xi", "--xi", xi, *size])
    batch.append(["maxcorr", "--family", "mo", "--l1", "1", "--l2", "2", "--l12", "1.5", *size])
    batch.append(["maxcorr", "--family", "mo", "--l1", "0.001", "--l2", "0.001", "--l12", "5",
                  "-n", "20000" if tiny else "100000", "--m", "16" if tiny else "32"])
    for rho in ("0", "0.6"):
        batch.append(["maxcorr", "--family", "gaussian", "--rho", rho, *size])
    batch.append(["maxcorr", "--family", "limit_gev", "--zeta", "0.3", "--gamma", "0.2", *size])
    return batch


def _block_variance(tiny: bool) -> list[list[str]]:
    # Per-zeta Monte Carlo covariances, the sliding max and the lag-window
    # FFT do the work; the spectral estimator never runs.
    mc = ["--n-mc", "4000", "--zeta-nodes", "4"] if tiny else []
    r, blocks = ("50", "100") if tiny else ("1000", "2000")
    batch = [
        ["variance", "--h", "identity", "--gamma", "0", *mc],
        ["variance", "--h", "log-transform", "--gamma", "0.2", *mc],
        ["variance", "--h", "indicator", "--threshold", "1.5", "--gamma", "0.5", *mc,
         "--blocksim-dist", "pareto", "--alpha", "2",
         "--blocksim-r", r, "--blocksim-blocks", blocks],
    ]
    for dist in (["exp"], ["pareto", "--alpha", "5"], ["uniform"]):
        for mode in ("disjoint", "sliding"):
            batch.append(["blocksim", "--dist", *dist, "--r", r, "--n-blocks", blocks,
                          "--mode", mode])
    return batch


def _verify_full(tiny: bool) -> list[list[str]]:
    # The only workload that runs ecdf_ks and quad_2d.
    return [["verify", "--quick"] if tiny else ["verify"]]


def _sample_export(tiny: bool) -> list[list[str]]:
    # The maxcorr_grid samplers again, but their output is written rather
    # than estimated from: a writer gain shows only here.
    families = [
        ["copula", "--phi", "0.3", "--psi", "0.7"],
        ["d_xi", "--xi", "0.5"],
        ["mo", "--l1", "1", "--l2", "2", "--l12", "1.5"],
        ["limit_gev", "--zeta", "0.3", "--gamma", "0.2"],
        ["gaussian", "--rho", "0.6"],
    ]
    sizes = ("500", "2000") if tiny else ("100000", "1000000")
    # ``--out`` is filled in per invocation by the runner.
    return [["sample", "--family", *fam, "-n", n] for n in sizes for fam in families]


_BUILDERS = {
    "maxcorr_grid": _maxcorr_grid,
    "block_variance": _block_variance,
    "verify_full": _verify_full,
    "sample_export": _sample_export,
}

WORKLOADS = tuple(_BUILDERS)


def batch(workload: str, seed: int, tiny: bool = False) -> list[list[str]]:
    """Argument vectors of one pass, each ending in ``--seed <seed>``."""
    return [argv + ["--seed", str(seed)] for argv in _BUILDERS[workload](tiny)]
