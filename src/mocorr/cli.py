"""Command line interface.

Subcommands map one-to-one onto the library surface:

- ``sample``    draw pairs from any supported family, write CSV + metadata
- ``cdf-eval``  evaluate a family's joint cdf at explicit points
- ``corr``      closed-form power-function correlations
- ``maxcorr``   binned spectral estimate of the maximal correlation
- ``variance``  disjoint vs sliding block variances for a functional
- ``blocksim``  finite-block simulation of both variance estimators
- ``verify``    the full property battery

Exit codes: 0 success, 1 invalid arguments, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import extremes, maxcorr, mo, verify
from .errors import DivergentMomentError, EvaluationError, ValidationError
from .numerics import QuadratureSpec
from .rng import DEFAULT_SEED, RngStream
from .serialize import _csv_chunks, canonical_json, write_csv


@dataclasses.dataclass(frozen=True)
class RunConfig:
    seed: int
    out: str | None
    format: str


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through the
    # validation path instead so 2 stays reserved for numerical failures.
    def error(self, message):
        raise ValidationError(message)


def _add_family_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", required=True, choices=mo.FAMILIES)
    parser.add_argument("--lam1", "--l1", type=float,
                        help="first individual shock rate (mo)")
    parser.add_argument("--lam2", "--l2", type=float,
                        help="second individual shock rate (mo)")
    parser.add_argument("--lam12", "--l12", type=float,
                        help="common shock rate (mo)")
    parser.add_argument("--phi", type=float, help="first copula exponent (copula)")
    parser.add_argument("--psi", type=float, help="second copula exponent (copula)")
    parser.add_argument("--xi", type=float, help="section family parameter (d_xi)")
    parser.add_argument("--zeta", type=float, help="block overlap fraction (limit_gev)")
    parser.add_argument("--gamma", type=float, help="GEV shape (limit_gev)")
    parser.add_argument("--rho", type=float, help="correlation (gaussian)")


def _require(args: argparse.Namespace, family: str, *names: str) -> list[float]:
    values = []
    for name in names:
        value = getattr(args, name)
        if value is None:
            raise ValidationError(f"--{name} is required for --family {family}")
        values.append(value)
    return values


def _family_params(args: argparse.Namespace):
    """Return (params object, params dict) for the selected family."""
    family = args.family
    if family == "mo":
        p = mo.MOParams(*_require(args, family, "lam1", "lam2", "lam12"))
        return p, p.as_dict()
    if family == "copula":
        c = mo.CopulaParams(*_require(args, family, "phi", "psi"))
        return c, c.as_dict()
    if family == "d_xi":
        d = mo.DXiParam(*_require(args, family, "xi"))
        return d, d.as_dict()
    if family == "limit_gev":
        zeta, gamma = _require(args, family, "zeta", "gamma")
        return (extremes.ZetaOverlap(zeta), extremes.GEVShape(gamma)), {
            "zeta": zeta, "gamma": gamma}
    if family == "gaussian":
        (rho,) = _require(args, family, "rho")
        if not -1.0 < rho < 1.0:
            raise ValidationError("--rho must lie strictly inside (-1, 1)")
        return rho, {"rho": rho}
    raise ValidationError(f"unknown family {family!r}")


def _draw(family: str, params, n: int, stream: RngStream) -> mo.PairSample:
    if family == "mo":
        return mo.sample_mo(params, n, stream)
    if family == "copula":
        return mo.sample_copula(params, n, stream)
    if family == "d_xi":
        return mo.sample_d_xi(params, n, stream)
    if family == "limit_gev":
        zeta, shape = params
        return extremes.sample_limit_pair(zeta, shape, n, stream)
    if family == "gaussian":
        return maxcorr.sample_gaussian_copula(params, n, stream)
    raise ValidationError(f"unknown family {family!r}")


def _cdf(family: str, params):
    if family == "mo":
        return lambda x, y: mo.mo_cdf(params, x, y)
    if family == "copula":
        return lambda u, v: mo.copula_cdf(params, u, v)
    if family == "d_xi":
        return lambda u, v: mo.d_xi_cdf(params, u, v)
    if family == "limit_gev":
        zeta, shape = params
        return lambda x, y: extremes.limit_copula_cdf(zeta, shape, x, y)
    if family == "gaussian":
        return lambda u, v: maxcorr.gaussian_copula_cdf(params, u, v)
    raise ValidationError(f"unknown family {family!r}")


def _closed_form(family: str, params) -> float | None:
    if family == "mo":
        return maxcorr.max_corr_from_rates(params)
    if family == "copula":
        return maxcorr.max_corr_closed(params)
    if family == "d_xi":
        return maxcorr.d_xi_max_corr(params)
    if family == "limit_gev":
        zeta, _ = params
        return 1.0 - zeta.zeta
    if family == "gaussian":
        return abs(params)
    return None


def _functional(args: argparse.Namespace) -> extremes.Functional:
    name = args.h.replace("-", "_")
    if name == "identity":
        return extremes.Functional.identity()
    if name == "square":
        return extremes.Functional.square()
    if name == "log_transform":
        return extremes.Functional.log_transform()
    if name == "const":
        return extremes.Functional.const()
    if name == "indicator":
        if args.threshold is None:
            raise ValidationError("--threshold is required for --h indicator")
        return extremes.Functional.indicator(args.threshold)
    raise ValidationError(f"unknown functional {args.h!r}")


def _emit(report: dict, config: RunConfig) -> None:
    text = canonical_json(report) + "\n"
    if config.out is None:
        sys.stdout.write(text)
    else:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_csv(header: str, rows, config: RunConfig) -> None:
    if config.out is None:
        sys.stdout.writelines(_csv_chunks(header, rows))
    else:
        write_csv(config.out, header, rows)


def cmd_sample(args: argparse.Namespace, config: RunConfig) -> int:
    params, _ = _family_params(args)
    if args.n <= 0:
        raise ValidationError("-n must be a positive integer")
    if config.out is None:
        raise ValidationError("sample requires --out PATH for the CSV payload")
    sample = _draw(args.family, params, args.n, RngStream(config.seed))
    mo.write_sample_csv(sample, config.out)
    sys.stderr.write(f"wrote {sample.n} pairs to {config.out}\n")
    return 0


def cmd_cdf_eval(args: argparse.Namespace, config: RunConfig) -> int:
    params, params_dict = _family_params(args)
    if not args.at:
        raise ValidationError("cdf-eval requires at least one --at U V point")
    cdf = _cdf(args.family, params)
    points = np.asarray(args.at, dtype=float)
    if args.family in mo.COPULA_SCALE_FAMILIES:
        if np.any(points < 0.0) or np.any(points > 1.0):
            raise ValidationError("points must lie in the unit square for this family")
    values = cdf(points[:, 0], points[:, 1])
    rows = [
        {"u": float(u), "v": float(v), "value": float(c)}
        for (u, v), c in zip(points, values)
    ]
    if config.format == "csv":
        _emit_csv("u,v,value", [(r["u"], r["v"], r["value"]) for r in rows], config)
    else:
        _emit({"family": args.family, "params": params_dict, "points": rows}, config)
    return 0


def cmd_corr(args: argparse.Namespace, config: RunConfig) -> int:
    if args.family == "copula":
        c = mo.CopulaParams(*_require(args, "copula", "phi", "psi"))
        idx = maxcorr.PowerIndex(args.k, args.ell if args.ell is not None else args.k)
        report = {
            "family": "copula",
            "params": c.as_dict(),
            "k": idx.k,
            "ell": idx.ell,
            "cov": maxcorr.power_cov(c, idx),
            "var_k": maxcorr.var_fk(idx.k),
            "var_ell": maxcorr.var_fk(idx.ell),
            "corr": maxcorr.power_corr(c, idx),
            "max_corr": maxcorr.max_corr_closed(c),
        }
    elif args.family == "d_xi":
        d = mo.DXiParam(*_require(args, "d_xi", "xi"))
        report = {
            "family": "d_xi",
            "params": d.as_dict(),
            "k": args.k,
            "corr": maxcorr.d_xi_corr(d, args.k),
            "max_corr": maxcorr.d_xi_max_corr(d),
        }
    else:
        raise ValidationError("corr supports --family copula or d_xi")
    report["gap"] = report["max_corr"] - report["corr"]
    _emit(report, config)
    return 0


def cmd_maxcorr(args: argparse.Namespace, config: RunConfig) -> int:
    params, _ = _family_params(args)
    sample = _draw(args.family, params, args.n, RngStream(config.seed))
    if args.family == "mo":
        # Rank the margins through their survival functions first; the
        # estimator expects copula-scale input.
        pairs = np.column_stack([
            mo.mo_marginal_survival(params, 1, sample.pairs[:, 0]),
            mo.mo_marginal_survival(params, 2, sample.pairs[:, 1]),
        ])
        sample = mo.PairSample(pairs=pairs, family="copula",
                               params=sample.params, seed=sample.seed)
    elif args.family == "limit_gev":
        # Same idea: push the GEV margins back to uniform.
        _, shape = params
        pairs = np.column_stack([
            extremes.gev_cdf(shape, sample.pairs[:, 0]),
            extremes.gev_cdf(shape, sample.pairs[:, 1]),
        ])
        sample = mo.PairSample(pairs=pairs, family="copula",
                               params=sample.params, seed=sample.seed)
    est = maxcorr.estimate_max_corr(sample, m=args.m)
    _emit(est.to_report(closed_form=_closed_form(args.family, params)), config)
    return 0


def cmd_variance(args: argparse.Namespace, config: RunConfig) -> int:
    h = _functional(args)
    g = extremes.GEVShape(args.gamma)
    quad = QuadratureSpec("gauss-legendre", args.zeta_nodes, 1)
    report = extremes.sigma2_sb(h, g, quad, args.n_mc, RngStream(config.seed))
    payload = report.to_report()
    if args.blocksim_dist is not None:
        if args.blocksim_r is None or args.blocksim_blocks is None:
            raise ValidationError(
                "--blocksim-dist requires --blocksim-r and --blocksim-blocks")
        gamma_dist = extremes.doa_scaling(args.blocksim_dist, args.blocksim_r,
                                          args.alpha)[0]
        if abs(gamma_dist - args.gamma) > 1e-12:
            raise ValidationError(
                f"--blocksim-dist {args.blocksim_dist} has shape {gamma_dist:g}, "
                f"which contradicts --gamma {args.gamma:g}")
        sim_stream = RngStream(config.seed, stream_id=1)
        payload["block_simulation"] = {
            mode: extremes.block_maxima_simulate(
                args.blocksim_dist, args.blocksim_r, args.blocksim_blocks,
                mode, h, sim_stream.child(i), alpha=args.alpha).to_report()
            for i, mode in enumerate(("disjoint", "sliding"))
        }
    if config.format == "csv":
        _emit_csv("zeta,cov,se", report.per_zeta, config)
    else:
        _emit(payload, config)
    if report.degenerate:
        sys.stderr.write("inequality check: skipped (degenerate functional)\n")
        return 0
    slack = 3.0 * (report.sigma2_sb_se ** 2 + report.sigma2_db_se ** 2) ** 0.5
    if report.sigma2_sb - report.sigma2_db > slack:
        sys.stderr.write("inequality check: FAIL (sliding exceeds disjoint "
                         "beyond 3 standard errors)\n")
        return 3
    sys.stderr.write("inequality check: pass (sliding <= disjoint within "
                     "3 standard errors)\n")
    return 0


def cmd_blocksim(args: argparse.Namespace, config: RunConfig) -> int:
    h = _functional(args)
    modes = ("disjoint", "sliding") if args.mode == "both" else (args.mode,)
    stream = RngStream(config.seed)
    reports = {}
    for i, mode in enumerate(modes):
        result = extremes.block_maxima_simulate(
            args.dist, args.r, args.n_blocks, mode, h, stream.child(i),
            alpha=args.alpha)
        reports[mode] = result.to_report()
    if len(reports) == 1:
        _emit(next(iter(reports.values())), config)
    else:
        ratio = reports["sliding"]["estimate"] / reports["disjoint"]["estimate"] \
            if reports["disjoint"]["estimate"] > 0 else float("nan")
        _emit({"disjoint": reports["disjoint"], "sliding": reports["sliding"],
               "ratio": ratio}, config)
    return 0


def cmd_verify(args: argparse.Namespace, config: RunConfig) -> int:
    results = verify.run_battery(seed=config.seed, quick=args.quick,
                                 inject_defect=args.inject_defect)
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        sys.stderr.write(f"{status} {r.name}: {r.detail}\n")
    _emit(verify.battery_report(results, config.seed, args.quick), config)
    return 0 if all(r.passed for r in results) else 3


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="root RNG seed (default %(default)s)")
    common.add_argument("--out", type=str, default=None,
                        help="output path (default stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format where both are defined")

    parser = _Parser(prog="mocorr", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[common],
                       help="draw pairs and write CSV plus a metadata sidecar")
    _add_family_arguments(p)
    p.add_argument("-n", "--n", type=int, required=True, help="number of pairs")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("cdf-eval", parents=[common],
                       help="evaluate the joint cdf at explicit points")
    _add_family_arguments(p)
    p.add_argument("--at", type=float, nargs=2, action="append",
                   metavar=("U", "V"), help="evaluation point, repeatable")
    p.set_defaults(func=cmd_cdf_eval)

    p = sub.add_parser("corr", parents=[common],
                       help="closed-form power-function correlations")
    p.add_argument("--family", choices=("copula", "d_xi"), default="copula")
    p.add_argument("--phi", type=float)
    p.add_argument("--psi", type=float)
    p.add_argument("--xi", type=float)
    p.add_argument("--k", type=float, required=True, help="power index")
    p.add_argument("--ell", type=float, help="second power index (copula only)")
    p.set_defaults(func=cmd_corr)

    p = sub.add_parser("maxcorr", parents=[common],
                       help="binned spectral maximal-correlation estimate")
    _add_family_arguments(p)
    p.add_argument("-n", "--n", type=int, default=1_000_000, help="sample size")
    p.add_argument("--m", type=int, default=64, help="bins per axis")
    p.set_defaults(func=cmd_maxcorr)

    p = sub.add_parser("variance", parents=[common],
                       help="disjoint vs sliding block variances of a functional")
    p.add_argument("--h", required=True,
                   choices=("identity", "square", "log-transform", "indicator", "const"))
    p.add_argument("--threshold", type=float, help="indicator threshold")
    p.add_argument("--gamma", type=float, required=True, help="GEV shape")
    p.add_argument("--n-mc", type=int, default=200_000,
                   help="Monte Carlo pairs per overlap node")
    p.add_argument("--zeta-nodes", type=int, default=32,
                   help="Gauss-Legendre nodes on the overlap axis")
    p.add_argument("--blocksim-dist", choices=extremes.DISTRIBUTIONS, default=None,
                   help="also attach finite-block simulation estimates")
    p.add_argument("--blocksim-r", type=int, default=None, help="block length")
    p.add_argument("--blocksim-blocks", type=int, default=None,
                   help="number of disjoint blocks")
    p.add_argument("--alpha", type=float, default=None,
                   help="tail index when --blocksim-dist pareto")
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("blocksim", parents=[common],
                       help="finite-block simulation of both variance estimators")
    p.add_argument("--dist", required=True, choices=extremes.DISTRIBUTIONS)
    p.add_argument("--alpha", type=float, default=None,
                   help="tail index (pareto only)")
    p.add_argument("--r", type=int, required=True, help="block length")
    p.add_argument("--n-blocks", type=int, required=True,
                   help="number of disjoint blocks")
    p.add_argument("--mode", choices=("disjoint", "sliding", "both"),
                   default="both")
    p.add_argument("--h", default="identity",
                   choices=("identity", "square", "log-transform", "indicator", "const"))
    p.add_argument("--threshold", type=float, help="indicator threshold")
    p.set_defaults(func=cmd_blocksim)

    p = sub.add_parser("verify", parents=[common],
                       help="run the property battery")
    p.add_argument("--quick", action="store_true",
                   help="smaller sizes, finishes in well under a minute")
    p.add_argument("--inject-defect", action="store_true",
                   help="perturb one copula to prove the battery can fail")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = RunConfig(seed=args.seed, out=args.out, format=args.format)
        return args.func(args, config)
    except (ValidationError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (DivergentMomentError, EvaluationError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
