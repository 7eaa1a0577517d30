"""``run_battery`` runs its checks on a thread pool: the schedule must not
show in the results, the errors or the warnings."""

import functools
import os
import sys
import threading
import warnings

import numpy as np
import pytest

from mocorr import verify
from mocorr.cli import main
from mocorr.errors import EvaluationError, ValidationError
from mocorr.rng import RngStream


def _serial_battery(seed, inject_defect):
    """The battery one check after another, each on its own child stream."""
    sizes = verify.QUICK_SIZES
    root = RngStream(seed)
    checks = (verify.check_copula_axioms, verify.check_survival_identity,
              functools.partial(verify.check_max_stability, inject_defect=inject_defect),
              verify.check_sampler_chi2, verify.check_quadrature_agreement,
              verify.check_power_consistency, verify.check_estimator_closed_form,
              verify.check_dxi_estimator, verify.check_gaussian_oracle,
              verify.check_variance_inequality, verify.check_zeta_factorization)
    return [fn(sizes, root.child(1000 + i)) for i, fn in enumerate(checks)]


@pytest.mark.parametrize("inject_defect", [False, True])
@pytest.mark.parametrize("seed", [5, 19])  # the quick battery fails at seed 19
def test_the_pool_returns_the_serial_battery(seed, inject_defect, monkeypatch):
    expected = _serial_battery(seed, inject_defect)
    assert verify.run_battery(seed, quick=True, inject_defect=inject_defect) == expected
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert verify._usable_cpus() == 1
    assert verify.run_battery(seed, quick=True, inject_defect=inject_defect) == expected


def test_more_workers_than_cores_switching_often_return_the_serial_battery(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(11)), raising=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = verify.run_battery(5, quick=True)
    finally:
        sys.setswitchinterval(interval)
    assert results == _serial_battery(5, False)


def test_the_first_error_in_battery_order_reaches_the_caller(monkeypatch, capsys):
    # Two workers whatever the machine, so the later check raises first.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    later_raised = threading.Event()

    def earlier(sizes, rng):
        later_raised.wait(timeout=10)
        raise EvaluationError("earlier check")

    def later(sizes, rng):
        later_raised.set()
        raise ValidationError("later check")

    monkeypatch.setattr(verify, "check_survival_identity", earlier)
    monkeypatch.setattr(verify, "check_power_consistency", later)
    with pytest.raises(EvaluationError, match="earlier check"):
        verify.run_battery(5, quick=True)
    assert later_raised.is_set()
    later_raised.clear()
    assert main(["verify", "--quick"]) == 2
    assert capsys.readouterr().err == "numerical failure: earlier check\n"


def test_a_warning_in_a_worker_is_not_lost(monkeypatch):
    def log_of_zero(sizes, rng):
        np.log(np.zeros(3))
        return verify.CheckResult("log-of-zero", True, "")

    monkeypatch.setattr(verify, "check_gaussian_oracle", log_of_zero)
    # pyproject.toml turns RuntimeWarning into an error for the tier-1 tests.
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        verify.run_battery(5, quick=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = verify.run_battery(5, quick=True)
    assert [r.name for r in results].count("log-of-zero") == 1
    assert [str(w.message) for w in caught if w.category is RuntimeWarning] == \
        ["divide by zero encountered in log"]
