"""Every subcommand with each float flag at the far edges of the float range.

Each float flag of a small, valid invocation takes in turn 0, the smallest
subnormal, +-1e-300, +-1e300 and +-DBL_MAX while the others keep their
values.  Every run must end with exit code 0, 1 or 2; 1 and 2 with their
``error:`` or ``numerical failure:`` line.  A RuntimeWarning is an error
under the suite's warning filter, so a run that warns fails here too.  On
exit 0 a JSON report may hold null (NaN or inf) only in the fields
documented as nullable.  Each integer flag takes its documented bounds and
one step past each: exit 0 inside, exit 1 with the rule outside.
"""

import contextlib
import io
import json

import pytest

from mocorr.cli import main
from mocorr.extremes import GEVShape, gev_cdf, gev_quantile

EDGES = ("0", "5e-324", "1e-300", "-1e-300", "1e300", "-1e300",
         "1.7976931348623157e308", "-1.7976931348623157e308")

#: Report keys that may be null: ``ratio`` (degenerate variance, zero
#: disjoint estimate), ``se`` (fewer than two segments), and the fields
#: that are null by construction: ``block_size``, ``alpha`` off pareto,
#: ``threshold`` off indicator.
NULLABLE = {"ratio", "se", "block_size", "alpha", "threshold"}

#: Integer-valued flags: argparse refuses a float there before any work.
INT_FLAGS = {"-n", "--m", "--seed", "--r", "--n-blocks", "--n-mc", "--zeta-nodes"}

FAMILIES = {
    "mo": ["--l1", "1", "--l2", "2", "--l12", "1.5"],
    "copula": ["--phi", "0.3", "--psi", "0.7"],
    "d_xi": ["--xi", "0.5"],
    "limit_gev": ["--zeta", "0.3", "--gamma", "0.2"],
    "gaussian": ["--rho", "0.6"],
}

TEMPLATES = {
    **{f"sample-{f}": ["sample", "--family", f, *a, "-n", "1000", "--out", "OUT"]
       for f, a in FAMILIES.items()},
    **{f"cdf-eval-{f}": ["cdf-eval", "--family", f, *a, "--at", "0.3", "0.6"]
       for f, a in FAMILIES.items()},
    **{f"maxcorr-{f}": ["maxcorr", "--family", f, *a, "-n", "20000", "--m", "16"]
       for f, a in FAMILIES.items()},
    # Gumbel: exp(-x) overflows at a far negative x; a far gamma overflows gamma*x.
    "cdf-eval-gumbel": ["cdf-eval", "--family", "limit_gev", "--zeta", "0.3", "--gamma", "0",
                        "--at", "2", "0.5"],
    "corr-copula": ["corr", "--family", "copula", "--phi", "0.3", "--psi", "0.7",
                    "--k", "2", "--ell", "3"],
    "corr-d_xi": ["corr", "--family", "d_xi", "--xi", "0.5", "--k", "2"],
    "variance": ["variance", "--h", "indicator", "--threshold", "1", "--gamma", "0.2",
                 "--n-mc", "2000", "--zeta-nodes", "4"],
    "blocksim": ["blocksim", "--dist", "pareto", "--alpha", "3", "--r", "10",
                 "--n-blocks", "50", "--h", "indicator", "--threshold", "1"],
    "blocksim-log": ["blocksim", "--dist", "pareto", "--alpha", "3", "--r", "10",
                     "--n-blocks", "50", "--h", "log-transform"],
}


def _float_slots(argv):
    """Indices of the float values in ``argv``: each value of a non-integer flag."""
    slots = []
    flag = None
    for i, arg in enumerate(argv):
        if arg.startswith("-") and not arg[1:2].isdigit():
            flag = arg
            continue
        if flag is not None and flag not in INT_FLAGS and arg != "OUT":
            try:
                float(arg)
            except ValueError:
                continue
            slots.append(i)
    return slots


def _nulls(report, path=""):
    """Paths of the null values in a parsed report whose key is not nullable."""
    if isinstance(report, dict):
        return [p for k, v in report.items()
                for p in ([f"{path}.{k}"] if v is None and k not in NULLABLE
                          else _nulls(v, f"{path}.{k}"))]
    if isinstance(report, list):
        return [p for i, v in enumerate(report) for p in _nulls(v, f"{path}[{i}]")]
    return []


def _outcome(argv):
    """``None`` if the run ends as the module docstring requires, else what went wrong."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # a RuntimeWarning raised as an error lands here too
        return f"raised {type(exc).__name__}: {exc}"
    lines = err.getvalue().splitlines()
    if code in (1, 2):
        prefix = "error: " if code == 1 else "numerical failure: "
        return None if lines and lines[-1].startswith(prefix) else f"exit {code}: {lines}"
    if code != 0:
        return f"exit {code}"
    if out.getvalue():
        nulls = _nulls(json.loads(out.getvalue()))
        if nulls:
            return f"null at {nulls}"
    return None


@pytest.mark.parametrize("name", TEMPLATES)
def test_far_float_edges_end_cleanly(name, tmp_path):
    template = [tmp_path / "s.csv" if a == "OUT" else a for a in TEMPLATES[name]]
    assert _outcome([str(a) for a in template]) is None
    failures = []
    for slot in _float_slots(TEMPLATES[name]):
        for edge in EDGES:
            argv = [str(a) for a in template]
            argv[slot] = edge
            problem = _outcome(argv)
            if problem is not None:
                failures.append(f"{' '.join(argv)}: {problem}")
    assert not failures, "\n".join(failures)


SEED_RULE = "seed must be in [0, 18446744073709551615]"

#: Per integer flag, each documented bound and one step past it: ``(value,
#: rule)``, with ``rule`` None where the run must exit 0, else the text its
#: ``error:`` line must hold.  No ``-n`` can reach ``--m 4096``'s bound, so
#: that bound exits 1 on the estimator's sample floor.
INT_EDGES = {
    "-n": [("1", None), ("0", "n must be >= 1")],
    "--m": [("2", None), ("1", "m must be in [2, 4096]"),
            ("4096", "insufficient sample"), ("4097", "m must be in [2, 4096]")],
    "--n-mc": [("2", None), ("1", "n_mc must be >= 2")],
    "--zeta-nodes": [("2", None), ("1", "nodes_per_axis must be in [2, 1024]"),
                     ("1024", None), ("1025", "nodes_per_axis must be in [2, 1024]")],
    "--r": [("1", None), ("0", "block size r must be >= 1")],
    "--n-blocks": [("2", None), ("1", "n_blocks must be >= 2")],
    "--seed": [("0", None), ("-1", SEED_RULE),
               (str(2**64 - 1), None), (str(2**64), SEED_RULE)],
}

#: The estimator needs n >= 10*m^2: at ``--m 2`` the bound of maxcorr's ``-n`` is 40.
MAXCORR_N_EDGES = [("40", None), ("39", "insufficient sample"), ("0", "n must be >= 1")]


def _with(argv, flag, value):
    """``argv`` with ``flag``'s value replaced by ``value``, or appended."""
    if flag not in argv:
        return [*argv, flag, value]
    i = argv.index(flag)
    return [*argv[:i + 1], value, *argv[i + 2:]]


def _edge_problem(argv, rule):
    """``None`` if the run exits 0 (``rule`` None) or 1 naming ``rule``, else what went wrong."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # a RuntimeWarning raised as an error lands here too
        return f"raised {type(exc).__name__}: {exc}"
    lines = err.getvalue().splitlines()
    if rule is None:
        return None if code == 0 else f"exit {code}: {lines}"
    named = lines and lines[-1].startswith("error: ") and rule in lines[-1]
    return None if code == 1 and named else f"exit {code}: {lines}"


def test_int_edges_cover_every_int_flag():
    assert set(INT_EDGES) == INT_FLAGS


@pytest.mark.parametrize("flag", sorted(INT_EDGES))
def test_int_flags_at_their_bounds(flag, tmp_path):
    failures = []
    for template in TEMPLATES.values():
        argv = [str(tmp_path / "s.csv") if a == "OUT" else a for a in template]
        # Every subcommand takes --seed, cdf-eval and corr too though they draw nothing.
        if flag not in argv and flag != "--seed":
            continue
        edges = INT_EDGES[flag]
        if flag == "-n" and argv[0] == "maxcorr":
            argv, edges = _with(argv, "--m", "2"), MAXCORR_N_EDGES
        for value, rule in edges:
            run = _with(argv, flag, value)
            problem = _edge_problem(run, rule)
            if problem is not None:
                failures.append(f"{' '.join(run)}: {problem}")
    assert not failures, "\n".join(failures)


# mpmath references at 50 digits, for the exact float inputs, where gamma*x
# or expm1(gamma*s) overflows a float though the value does not.


def test_gev_cdf_past_an_overflowing_gamma_x():
    assert gev_cdf(GEVShape(1e300), 1e300) == pytest.approx(0.36787944117144232, rel=1e-14)


def test_gev_quantile_past_an_overflowing_expm1():
    # One ulp of the Gumbel value s = 7.11 moves gamma*s, so the quantile,
    # by 8.9e-14 relative at gamma = 100.
    value = gev_quantile(GEVShape(100), 0.9991874997410728)
    assert value == pytest.approx(1.0000000000003514e307, rel=1e-13)


def test_cdf_eval_past_an_overflowing_gamma_x():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["cdf-eval", "--family", "limit_gev", "--zeta", "0.3", "--gamma", "100",
                     "--at", "1e307", "1e307"])
    assert code == 0
    value = json.loads(out.getvalue())["points"][0]["value"]
    assert value == pytest.approx(0.99894387841835903, rel=1e-14)
