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
import re
import sys

import numpy as np

from . import extremes, maxcorr, mo, verify
from .errors import DivergentMomentError, EvaluationError, ValidationError
from .families import FAMILY_TABLE
from .rng import DEFAULT_SEED, RngStream
from .serialize import canonical_json, csv_text, write_text


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent: "-5e-1" would read as a flag.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits with status 2 on bad flags; route through the
    # validation path instead so 2 stays reserved for numerical failures.
    def error(self, message):
        raise ValidationError(message)


def _add_family_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", required=True, choices=tuple(FAMILY_TABLE))
    for key, family in FAMILY_TABLE.items():
        for name, text, *aliases in family.args:
            parser.add_argument(f"--{name}", *(f"--{a}" for a in aliases), type=float,
                                help=f"{text} ({key})")


def _family_params(args: argparse.Namespace):
    """Return (family record, params object); refuse other families' flags."""
    for key, other in FAMILY_TABLE.items():
        for name, *_ in other.args:
            if key != args.family and getattr(args, name, None) is not None:
                raise ValidationError(f"--{name} does not apply to --family {args.family}")
    family = FAMILY_TABLE[args.family]
    values = []
    for name, *_ in family.args:
        value = getattr(args, name)
        if value is None:
            raise ValidationError(f"--{name} is required for --family {args.family}")
        values.append(value)
    return family, family.params(*values)


def _functional(args: argparse.Namespace) -> extremes.Functional:
    name = args.h.replace("-", "_")
    if name != "indicator":
        return extremes.Functional(name)
    if args.threshold is None:
        raise ValidationError("--threshold is required for --h indicator")
    return extremes.Functional(name, threshold=args.threshold)


def _emit(report: dict, out: str | None) -> None:
    write_text(out, [canonical_json(report) + "\n"])


def cmd_sample(args: argparse.Namespace) -> int:
    _, params = _family_params(args)
    if args.out is None:
        raise ValidationError("sample requires --out PATH for the CSV payload")
    # Written as it is drawn: only one RNG chunk of pairs is held at a time.
    sample = mo.sample_chunks(args.family, params, args.n, RngStream(args.seed))
    mo.write_sample_csv(sample, args.out)
    sys.stderr.write(f"wrote {sample.n} pairs to {args.out}\n")
    return 0


def cmd_cdf_eval(args: argparse.Namespace) -> int:
    family, params = _family_params(args)
    if not args.at:
        raise ValidationError("cdf-eval requires at least one --at U V point")
    points = np.asarray(args.at, dtype=float)
    values = family.cdf(params, points[:, 0], points[:, 1])
    if args.format == "csv":
        write_text(args.out, csv_text("u,v,value", [np.column_stack([points, values])]))
        return 0
    rows = [{"u": float(u), "v": float(v), "value": float(c)}
            for (u, v), c in zip(points, values)]
    _emit({"family": args.family, "params": family.as_dict(params), "points": rows}, args.out)
    return 0


def cmd_corr(args: argparse.Namespace) -> int:
    family, p = _family_params(args)
    if args.family == "copula":
        idx = maxcorr.PowerIndex(args.k, args.ell if args.ell is not None else args.k)
        report = {"k": idx.k, "ell": idx.ell, "cov": maxcorr.power_cov(p, idx),
                  "var_k": maxcorr.var_fk(idx.k), "var_ell": maxcorr.var_fk(idx.ell),
                  "corr": maxcorr.power_corr(p, idx)}
    else:
        if args.ell is not None:
            raise ValidationError("--ell does not apply to --family d_xi")
        idx = maxcorr.PowerIndex(args.k * p.xi, args.k)
        report = {"k": args.k, "corr": maxcorr.power_corr(p.copula, idx)}
    report.update(family=args.family, params=family.as_dict(p), max_corr=family.max_corr(p))
    report["gap"] = report["max_corr"] - report["corr"]
    _emit(report, args.out)
    return 0


def cmd_maxcorr(args: argparse.Namespace) -> int:
    family, params = _family_params(args)
    # Binned as it is drawn: only one RNG chunk of pairs is held at a time.
    sample = mo.pair_chunks(args.family, params, args.n, RngStream(args.seed))
    report = maxcorr.estimate_max_corr(sample, m=args.m).to_report(
        closed_form=family.max_corr(params))
    _emit(report, args.out)
    return 0


def cmd_variance(args: argparse.Namespace) -> int:
    h = _functional(args)
    g = extremes.GEVShape(args.gamma)
    # The block-simulation flags are checked before any Monte Carlo runs.
    if args.blocksim_dist is not None:
        if args.format == "csv":
            raise ValidationError(
                "--format csv writes only the zeta curve: the block simulation "
                "has no CSV form")
        if args.blocksim_r is None or args.blocksim_blocks is None:
            raise ValidationError(
                "--blocksim-dist requires --blocksim-r and --blocksim-blocks")
        gamma_dist = extremes._block_scaling(args.blocksim_dist, args.blocksim_r,
                                             args.blocksim_blocks, args.alpha)[0]
        if abs(gamma_dist - args.gamma) > 1e-12:
            raise ValidationError(
                f"--blocksim-dist {args.blocksim_dist} has shape {gamma_dist:g}, "
                f"which contradicts --gamma {args.gamma:g}")
    report = extremes.sigma2_sb(h, g, args.zeta_nodes, args.n_mc, RngStream(args.seed))
    payload = report.to_report()
    if args.blocksim_dist is not None:
        payload["block_simulation"] = _simulate(
            args.blocksim_dist, args.blocksim_r, args.blocksim_blocks,
            ("disjoint", "sliding"), h, RngStream(args.seed, stream_id=1), args.alpha)
    if args.format == "csv":
        write_text(args.out, csv_text("zeta,cov,se", [report.per_zeta]))
    else:
        _emit(payload, args.out)
    if report.degenerate:
        sys.stderr.write("inequality check: skipped (degenerate functional)\n")
        return 0
    if report.inequality_excess > 0.0:
        sys.stderr.write("inequality check: FAIL (sliding exceeds disjoint "
                         "beyond 3 standard errors)\n")
        return 3
    sys.stderr.write("inequality check: pass (sliding <= disjoint within "
                     "3 standard errors)\n")
    return 0


def _simulate(dist: str, r: int, n_blocks: int, modes, h: extremes.Functional,
              stream: RngStream, alpha: float | None) -> dict:
    """One block-simulation report per mode, the i-th on ``stream.child(i)``."""
    return {mode: extremes.block_maxima_simulate(dist, r, n_blocks, mode, h, stream.child(i),
                                                 alpha=alpha).to_report()
            for i, mode in enumerate(modes)}


def cmd_blocksim(args: argparse.Namespace) -> int:
    modes = ("disjoint", "sliding") if args.mode == "both" else (args.mode,)
    reports = _simulate(args.dist, args.r, args.n_blocks, modes, _functional(args),
                        RngStream(args.seed), args.alpha)
    if len(reports) == 1:
        _emit(next(iter(reports.values())), args.out)
    else:
        ratio = reports["sliding"]["estimate"] / reports["disjoint"]["estimate"] \
            if reports["disjoint"]["estimate"] > 0 else float("nan")
        _emit({**reports, "ratio": ratio}, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_battery(seed=args.seed, quick=args.quick,
                                 inject_defect=args.inject_defect)
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        sys.stderr.write(f"{status} {r.name}: {r.detail}\n")
    _emit(verify.battery_report(results, args.seed, args.quick), args.out)
    return 0 if all(r.passed for r in results) else 3


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="root RNG seed (default %(default)s)")
    common.add_argument("--out", type=str, default=None,
                        help="output path (default stdout)")
    # Only the subcommands with a CSV form take --format.
    formatted = _Parser(add_help=False)
    formatted.add_argument("--format", choices=("json", "csv"), default="json",
                           help="output format where both are defined")
    functionals = tuple(name.replace("_", "-") for name in extremes.FUNCTIONAL_NAMES)

    parser = _Parser(prog="mocorr", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[common],
                       help="draw pairs and write CSV plus a metadata sidecar")
    _add_family_arguments(p)
    p.add_argument("-n", "--n", type=int, required=True, help="number of pairs")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("cdf-eval", parents=[common, formatted],
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

    p = sub.add_parser("variance", parents=[common, formatted],
                       help="disjoint vs sliding block variances of a functional")
    p.add_argument("--h", required=True, choices=functionals)
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
    p.add_argument("--h", default="identity", choices=functionals)
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
        return args.func(args)
    except (ValidationError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (DivergentMomentError, EvaluationError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
