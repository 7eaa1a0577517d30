"""The standard normal cdf and quantile: accuracy, ends and the CLI."""

import json
import math
import subprocess
import sys
from statistics import NormalDist

import numpy as np
import pytest
from scipy import special

import mocorr
from mocorr.numerics import _NORMAL_BLOCK, ndtr, ndtri

#: ``(a, Phi(a))``: 60-digit mpmath ``ncdf`` at the exact double ``a``,
#: rounded once to a double.  The ranges of Cody's approximation meet at
#: ``|a| = 0.46875 sqrt(2) = 0.66291`` and ``4 sqrt(2) = 5.65685``.  The
#: first block's ``a * a`` is not a double, so a Gaussian factor taken as
#: ``exp(-a * a / 2)`` misses it by hundreds of ulp in the far tail.
NDTR_REFERENCE = [
    (-37.1234567, 5.878299670651359e-302),
    (-33.3333333, 6.352280184628036e-244),
    (-28.7654321, 2.9041105011596618e-182),
    (-21.1, 3.976805969529671e-99),
    (-12.345678, 2.569970258262207e-35),
    (-7.654321, 9.716814772625021e-15),
    (-4.4444444, 4.405964613339605e-06),
    (-2.7182818, 0.0032810961185348237),
    (1.2345678, 0.891504300472242),
    (3.1415926, 0.9991598416779797),
    (6.060606, 0.9999999993219517),
    (-37.5, 4.605353009581955e-308),
    (-37.0, 5.725571222524577e-300),
    (-36.0, 4.182624065797283e-284),
    (-35.0, 1.1249107064724062e-268),
    (-30.0, 4.906713927148187e-198),
    (-26.5, 4.8461626603033206e-155),
    (-20.0, 2.7536241186062337e-89),
    (-15.5, 1.7344607917938702e-54),
    (-10.0, 7.619853024160525e-24),
    (-8.0, 6.220960574271784e-16),
    (-6.0, 9.86587645037698e-10),
    (-5.6568, 7.711064856975553e-09),
    (-5.6569, 7.706575245071387e-09),
    (-5.0, 2.866515718791939e-07),
    (-4.2, 1.3345749015906327e-05),
    (-3.5, 0.00023262907903552504),
    (-2.0, 0.02275013194817921),
    (-1.0, 0.15865525393145705),
    (-0.6629, 0.2536973008682368),
    (-0.663, 0.2536652770386165),
    (-0.5, 0.3085375387259869),
    (-0.1, 0.460172162722971),
    (-1e-08, 0.4999999960105772),
    (0.25, 0.5987063256829237),
    (0.6629, 0.7463026991317633),
    (0.663, 0.7463347229613835),
    (1.0, 0.8413447460685429),
    (1.5, 0.9331927987311419),
    (2.5, 0.9937903346742238),
    (3.75, 0.9999115827147992),
    (5.0, 0.9999997133484281),
    (5.6569, 0.9999999922934247),
    (6.5, 0.99999999995984),
    (8.0, 0.9999999999999993),
    (8.3, 1.0),
]

#: ``(p, Phi^-1(p))``: Newton steps on 60-digit mpmath ``ncdf`` at the
#: exact double ``p``.  AS241's ranges meet at ``|p - 1/2| = 0.425`` and
#: ``min(p, 1 - p) = exp(-25)``.
NDTRI_REFERENCE = [
    (1e-300, -37.0470962993612),
    (1e-250, -33.79958617269484),
    (1e-200, -30.20559417957964),
    (1e-150, -26.122961190593983),
    (1e-100, -21.273453560965326),
    (1e-50, -14.933337534788489),
    (1e-20, -9.262340089798407),
    (1.3887943864964021e-11, -6.657904643501103),
    (1.3887943864964023e-11, -6.657904643501103),
    (1e-08, -5.612001244174789),
    (1e-05, -4.264890793922825),
    (0.001, -3.0902323061678136),
    (0.02, -2.053748910631823),
    (0.075, -1.439531470938456),
    (0.07500000000000001, -1.439531470938456),
    (0.1, -1.2815515655446004),
    (0.3, -0.5244005127080408),
    (0.49999999, -2.5066282733116222e-08),
    (0.6, 0.2533471031357997),
    (0.8, 0.8416212335729144),
    (0.925, 1.4395314709384561),
    (0.9250000000000002, 1.439531470938457),
    (0.975, 1.9599639845400538),
    (0.999, 3.090232306167813),
    (0.9999999, 5.199337582290661),
    (0.9999999999, 6.361340889697422),
    (0.9999999999999, 7.3487545403000425),
    (0.9999999999999998, 8.125890664701906),
    (0.9999999999999999, 8.209536151601387),
]


def ulps(got, ref):
    ref = np.asarray(ref, dtype=float)
    return np.abs(np.asarray(got) - ref) / np.spacing(np.abs(ref))


class TestNdtr:
    @pytest.mark.parametrize("a,expected", NDTR_REFERENCE)
    def test_reference_value(self, a, expected):
        assert ulps(ndtr(a), expected) <= 5

    def test_reference_values_in_one_batch(self):
        a, expected = np.array(NDTR_REFERENCE).T
        assert ulps(ndtr(a), expected).max() <= 5

    def test_dense_against_scipy(self):
        # scipy's own ndtr drifts below -16 and is off by 1,794 ulp (2.4e-13
        # relative, against mpmath) at -36.83, where this one is off by 1;
        # the reference values above hold the ulps.
        a = np.linspace(-37.0, 8.3, 200_001)
        ref = special.ndtr(a)
        rel = np.abs(ndtr(a) - ref) / ref
        assert rel[a >= -22.0].max() <= 1e-13
        assert rel.max() <= 4e-13

    def test_exact_ends(self):
        assert ndtr(-np.inf) == 0.0 and ndtr(np.inf) == 1.0
        assert ndtr(0.0) == 0.5 and ndtr(-0.0) == 0.5
        assert ndtr(-40.0) == 0.0 and ndtr(40.0) == 1.0
        assert np.isnan(ndtr(np.nan))

    def test_subnormal_results(self):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = ndtr(np.array([-38.0, -38.4, -38.5, -1e300]))
        assert 0.0 < got[0] < 2.3e-308 and 0.0 < got[1] < got[0]
        assert got[2] == 0.0 and got[3] == 0.0

    def test_monotone(self):
        got = ndtr(np.linspace(-40.0, 40.0, 400_001))
        assert np.all(np.diff(got) >= 0.0)
        assert got[0] == 0.0 and got[-1] == 1.0

    def test_shape_and_blocks(self):
        # Values do not depend on the shape or on the block an element
        # falls in.
        a = np.random.default_rng(5).standard_normal((3, _NORMAL_BLOCK + 7)) * 4.0
        got = ndtr(a)
        assert got.shape == a.shape
        assert np.array_equal(got.ravel(), ndtr(a.ravel()[::-1])[::-1])
        assert ndtr(a[1, 5]) == got[1, 5] and isinstance(ndtr(0.3), float)
        assert ndtr(np.empty(0)).shape == (0,)


class TestNdtri:
    @pytest.mark.parametrize("p,expected", NDTRI_REFERENCE)
    def test_reference_value(self, p, expected):
        assert ulps(ndtri(p), expected) <= 5

    def test_dense_against_scipy(self):
        p = np.concatenate([10.0 ** -np.linspace(300.0, 1.0, 20_001),
                            np.linspace(0.0, 1.0, 100_001)[1:-1],
                            1.0 - 10.0 ** -np.linspace(1.0, 16.0, 20_001)])
        ref = special.ndtri(p)
        nonzero = ref != 0.0
        # 5 ulp here plus scipy's own error of up to 3.
        assert ulps(ndtri(p)[nonzero], ref[nonzero]).max() <= 8
        assert np.all(ndtri(p)[~nonzero] == 0.0)

    def test_exact_ends(self):
        assert ndtri(0.0) == -np.inf and ndtri(1.0) == np.inf
        assert ndtri(0.5) == 0.0
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert ndtri(5e-324) < -38.0
        got = ndtri(np.array([-0.1, 1.1, np.nan, -np.inf, np.inf]))
        assert np.all(np.isnan(got))

    def test_monotone(self):
        p = np.unique(np.concatenate([
            [0.0, 1.0], 10.0 ** -np.linspace(320.0, 1.0, 50_001),
            np.linspace(0.0, 1.0, 100_001), 1.0 - 10.0 ** -np.linspace(1.0, 16.0, 50_001)]))
        got = ndtri(p)
        assert np.all(np.diff(got) >= 0.0)
        assert got[0] == -np.inf and got[-1] == np.inf

    def test_is_the_standard_library_quantile(self):
        # Bit for bit on AS241's three ranges (|p - 1/2| <= 0.425, then
        # min(p, 1 - p) above and below exp(-25)), from the least subnormal
        # to the double below 1.
        rng = np.random.default_rng(8)
        p = np.concatenate([rng.random(60_000),
                            10.0 ** -rng.uniform(1.0, 323.0, 20_000),
                            1.0 - 10.0 ** -rng.uniform(1.0, 15.9, 20_000),
                            [5e-324, 1e-300, math.exp(-25.0), 0.075, 0.925,
                             1.0 - math.exp(-25.0), 1.0 - 2.0 ** -53]])
        assert np.all((p > 0.0) & (p < 1.0))
        inv_cdf = NormalDist().inv_cdf
        expected = np.array([inv_cdf(x) for x in p.tolist()])
        assert np.array_equal(ndtri(p), expected)

    def test_round_trip(self):
        p = np.random.default_rng(6).random(10_000)
        np.testing.assert_allclose(ndtr(ndtri(p)), p, rtol=4e-15, atol=0)


def test_internal_to_the_package():
    assert not {"ndtr", "ndtri"} & set(mocorr.__all__)


#: ``cdf-eval --family gaussian`` at ``(0, 0.5)``, ``(5e-324, 1)`` and
#: ``(1, 1)``: on the square's edges every copula is ``min(u, v)``, at any
#: ``rho``, and the clipped quantiles must not show there.
GAUSSIAN_CDF_EVAL = {rho: [0.0, 5e-324, 1.0] for rho in (-0.9999999, 0.6, 0.9999999)}


@pytest.mark.parametrize("rho", sorted(GAUSSIAN_CDF_EVAL))
def test_cdf_eval_gaussian_edges(rho):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "mocorr.cli", "cdf-eval",
         "--family", "gaussian", "--rho", str(rho),
         "--at", "0", "0.5", "--at", "5e-324", "1", "--at", "1", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    values = [point["value"] for point in json.loads(proc.stdout)["points"]]
    assert values == GAUSSIAN_CDF_EVAL[rho]
