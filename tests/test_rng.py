import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mocorr.errors import ValidationError
from mocorr.rng import (
    DEFAULT_SEED,
    MC_CHUNKS,
    RngStream,
    chunk_sizes,
    draw_iid,
    draw_uniforms,
)


def test_default_seed_is_fixed_constant():
    assert DEFAULT_SEED == 123456789


def test_stream_is_deterministic():
    a = RngStream(7).generator().random(8)
    b = RngStream(7).generator().random(8)
    np.testing.assert_array_equal(a, b)


def test_distinct_children_differ():
    s = RngStream(7)
    a = s.child(0).generator().random(4)
    b = s.child(1).generator().random(4)
    assert not np.array_equal(a, b)


def test_child_independent_of_parent_consumption():
    s = RngStream(7)
    s.generator().random(1000)
    np.testing.assert_array_equal(
        s.child(3).generator().random(4),
        RngStream(7).child(3).generator().random(4),
    )


@given(st.integers(min_value=0, max_value=10_000))
def test_chunk_sizes_partition(n):
    sizes = chunk_sizes(n)
    assert sum(sizes) == n
    assert len(sizes) <= MC_CHUNKS
    assert max(sizes) - min(sizes) <= 1


def test_draw_uniforms_independent_of_chunking():
    # Same bytes whether or not n divides evenly into chunks.
    a = draw_uniforms(RngStream(3), 1000, 2)
    b = np.concatenate([
        draw_uniforms(RngStream(3), 1000, 2)[:137],
        draw_uniforms(RngStream(3), 1000, 2)[137:],
    ])
    np.testing.assert_array_equal(a, b)
    assert a.shape == (1000, 2)
    assert np.all((a >= 0) & (a < 1))


def test_draw_normals_shape_and_determinism():
    def normals(g, size):
        return g.standard_normal((size, 3))

    a = draw_iid(RngStream(11), 513, normals)
    b = draw_iid(RngStream(11), 513, normals)
    assert a.shape == (513, 3)
    np.testing.assert_array_equal(a, b)


def test_zero_draws_allowed():
    assert draw_uniforms(RngStream(1), 0, 2).shape == (0, 2)
    assert draw_iid(RngStream(1), 0, lambda g, size: g.random((size, 3))).shape == (0, 3)


def test_invalid_seed_rejected():
    with pytest.raises(ValidationError):
        RngStream(-1)
    with pytest.raises(ValidationError):
        RngStream(2 ** 64)


def test_state_dict_round_trip():
    s = RngStream(42, stream_id=5)
    d = s.state_dict()
    assert d == {"seed": 42, "stream_id": 5}
