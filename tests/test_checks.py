"""One check for every count argument and one for every float field.

A count is an ``int`` or a numpy integer in its documented range: not a
bool, and not a float even when it is integral.  Anything else is a
``ValidationError`` raised before a single variate is drawn, and a numpy
integer gives the result of the equal ``int``.  A float field of a
parameter record is a real number: ``None``, a string or a bool is a
``ValidationError`` too.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from mocorr import extremes, maxcorr, mo, numerics, rng
from mocorr.errors import ValidationError
from mocorr.rng import RngStream

NOT_COUNTS = [2.5, 10.0, np.float64(8), "8", True, np.True_, None, math.inf, math.nan]


class _Undrawable(RngStream):
    """A stream whose generator, and its children's, fails the test when drawn from."""

    def generator(self):
        raise AssertionError("a variate was drawn before the counts were checked")

    def child(self, index):
        return _Undrawable(*dataclasses.astuple(super().child(index)))


COPULA = mo.CopulaParams(0.3, 0.7)
H = extremes.Functional("identity")
G = extremes.GEVShape(0.0)


def _drawn(chunks):
    return np.concatenate(list(chunks.chunks))


#: Per count argument: ``(call(stream, count), a valid count, low, high)``;
#: ``high`` None is no upper bound.
COUNTS = {
    "pair_sample.n": (lambda s, n: mo.pair_sample("copula", COPULA, n, s), 100, 1, None),
    "sample_mo.n": (lambda s, n: mo.sample_mo(mo.MOParams(1, 2, 1.5), n, s), 100, 1, None),
    "sample_copula.n": (lambda s, n: mo.sample_copula(COPULA, n, s), 100, 1, None),
    "sample_d_xi.n": (lambda s, n: mo.sample_d_xi(mo.DXiParam(0.5), n, s), 100, 1, None),
    "sample_gaussian_copula.n": (lambda s, n: maxcorr.sample_gaussian_copula(0.6, n, s),
                                 100, 1, None),
    "sample_limit_pair.n": (lambda s, n: extremes.sample_limit_pair(
        extremes.ZetaOverlap(0.3), G, n, s), 100, 1, None),
    "sample_chunks.n": (lambda s, n: _drawn(mo.sample_chunks("mo", mo.MOParams(1, 2, 1.5),
                                                             n, s)), 100, 1, None),
    "pair_chunks.n": (lambda s, n: _drawn(mo.pair_chunks("gaussian", 0.6, n, s)), 100, 1, None),
    "estimate_max_corr.m": (lambda s, m: maxcorr.estimate_max_corr(
        mo.pair_chunks("copula", COPULA, 1000, s), m), 8, 2, 4096),
    "bin_pairs.m": (lambda s, m: numerics.bin_pairs(
        mo.pair_chunks("copula", COPULA, 1000, s), m), 8, 2, 4096),
    "QuadratureSpec.nodes_per_axis": (lambda s, k: numerics.QuadratureSpec(k, 2), 8, 2, 1024),
    "QuadratureSpec.subdivisions": (lambda s, k: numerics.QuadratureSpec(4, k), 8, 1, 4096),
    "sigma2_db.n_mc": (lambda s, n: extremes.sigma2_db(H, G, n, s), 100, 2, None),
    "sigma2_sb.n_mc": (lambda s, n: extremes.sigma2_sb(H, G, 4, n, s), 100, 2, None),
    "sigma2_sb.zeta_nodes": (lambda s, k: extremes.sigma2_sb(H, G, k, 100, s), 4, 2, 1024),
    "limit_pair_corr.n_mc": (lambda s, n: extremes.limit_pair_corr(
        H, G, extremes.ZetaOverlap(0.3), n, s), 100, 4, None),
    "doa_scaling.r": (lambda s, r: extremes.doa_scaling("exp", r), 10, 1, None),
    "block_maxima_simulate.r": (lambda s, r: extremes.block_maxima_simulate(
        "exp", r, 20, "sliding", H, s), 10, 1, None),
    "block_maxima_simulate.n_blocks": (lambda s, k: extremes.block_maxima_simulate(
        "exp", 10, k, "disjoint", H, s), 20, 2, None),
    "sliding_max.r": (lambda s, r: extremes.sliding_max(np.arange(40.0), r), 10, 1, None),
    "max_stability_defect.m": (lambda s, m: mo.max_stability_defect(COPULA, m, 11), 3, 1,
                               None),
    "max_stability_defect.grid": (lambda s, k: mo.max_stability_defect(COPULA, 3, k), 11, 2,
                                  None),
    "mo_marginal_survival.which": (lambda s, k: mo.mo_marginal_survival(
        mo.MOParams(1, 2, 1.5), k, 1.0), 2, 1, 2),
    "RngStream.seed": (lambda s, k: RngStream(k, 3), 7, 0, 2**64 - 1),
    "RngStream.stream_id": (lambda s, k: RngStream(7, k), 3, 0, 2**64 - 1),
    "RngStream.child.index": (lambda s, k: s.child(k), 3, 0, None),
    "chunk_sizes.n": (lambda s, n: rng.chunk_sizes(n), 100, 0, None),
    "draw_iid.n": (lambda s, n: rng.draw_iid(s, n, lambda g, size: g.random(size)), 100, 0,
                   None),
    "draw_uniforms.n": (lambda s, n: rng.draw_uniforms(s, n, 2), 100, 0, None),
    "draw_uniforms.cols": (lambda s, k: rng.draw_uniforms(s, 100, k), 2, 1, None),
}


def _canon(value):
    """A comparable form of a result that also tells an ``int`` from a numpy integer."""
    if dataclasses.is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        return {k: _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return type(value).__name__, repr(value)


@pytest.mark.parametrize("name", COUNTS)
@pytest.mark.parametrize("bad", NOT_COUNTS, ids=repr)
def test_a_non_integer_count_is_refused_undrawn(name, bad):
    call = COUNTS[name][0]
    with pytest.raises(ValidationError, match=" must be an integer, got "):
        call(_Undrawable(11), bad)


@pytest.mark.parametrize("name", COUNTS)
def test_a_count_out_of_range_is_refused_undrawn(name):
    call, _, low, high = COUNTS[name]
    rule = f"must be >= {low}" if high is None else f"must be in [{low}, {high}]"
    for value in (low - 1,) if high is None else (low - 1, high + 1):
        with pytest.raises(ValidationError, match=re.escape(rule)):
            call(_Undrawable(11), value)


@pytest.mark.parametrize("name", COUNTS)
@pytest.mark.parametrize("kind", [np.int64, np.uint64, np.int32])
def test_a_numpy_integer_count_gives_the_int_result(name, kind):
    call, good, _, _ = COUNTS[name]
    assert _canon(call(RngStream(11), kind(good))) == _canon(call(RngStream(11), good))


#: Every record whose float fields go through the field check, at valid values.
RECORDS = [
    (mo.MOParams, (1.0, 2.0, 1.5)),
    (mo.CopulaParams, (0.3, 0.7)),
    (mo.DXiParam, (0.5,)),
    (extremes.GEVShape, (0.2,)),
    (extremes.ZetaOverlap, (0.3,)),
    (maxcorr.PowerIndex, (2.0, 3.0)),
]

NOT_REALS = [None, "0.3", "x", True, np.True_, 1j, math.nan, math.inf, 10**400]


@pytest.mark.parametrize("record, values", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_a_float_field_refuses_what_is_not_a_real_number(record, values):
    for i, field in enumerate(dataclasses.fields(record)):
        for bad in NOT_REALS:
            args = [*values[:i], bad, *values[i + 1:]]
            with pytest.raises(ValidationError, match=f"^{field.name} "):
                record(*args)


@pytest.mark.parametrize("record, values", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_a_float_field_stores_a_numpy_float_as_a_float(record, values):
    assert _canon(record(*map(np.float64, values))) == _canon(record(*values))
