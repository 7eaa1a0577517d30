"""Reproducible, splittable random number streams.

A stream is a ``(seed, stream_id)`` pair feeding a counter-based Philox
bit generator.  Identical pairs reproduce identical draw sequences on
every platform; distinct pairs give statistically independent streams.
Monte Carlo helpers draw through a fixed number of child streams so the
result depends only on the seed, never on how work is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _check_count

_MASK64 = (1 << 64) - 1

#: Documented default seed used by the command line interface.
DEFAULT_SEED = 123456789

#: Fixed chunk count for Monte Carlo draws.  Chunking is independent of
#: any worker count, so reductions happen in a deterministic order.
MC_CHUNKS = 16


def _splitmix64(x: int) -> int:
    # Standard splitmix64 finalizer; good enough to decorrelate ids.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Key for a reproducible random stream.

    Parameters
    ----------
    seed : int
        Unsigned 64-bit master seed.
    stream_id : int, optional
        Unsigned 64-bit substream selector, default 0.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            object.__setattr__(self, name, _check_count(getattr(self, name), name, 0, _MASK64))

    def generator(self) -> np.random.Generator:
        """Return a fresh Generator positioned at the start of the stream."""
        key = (self.seed << 64) | self.stream_id
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Derive the ``index``-th substream of this stream.

        Children of distinct parents collide only with probability
        ~2**-64; the Philox keying keeps them independent either way.
        """
        index = _check_count(index, "index", 0)
        mixed = _splitmix64(_splitmix64(self.stream_id ^ 0xD1B54A32D192ED03) + index + 1)
        return RngStream(self.seed, mixed)


def chunk_sizes(n: int) -> list[int]:
    """Deterministic split of ``n`` draws into at most ``MC_CHUNKS`` pieces."""
    n = _check_count(n, "n", 0)
    chunks = min(MC_CHUNKS, max(n, 1))
    base, extra = divmod(n, chunks)
    return [base + (1 if i < extra else 0) for i in range(chunks)]


def iter_chunks(stream: RngStream, n: int, draw):
    """Yield ``draw(generator, size)`` for each chunk of ``n``, in order.

    This is the one chunk loop: chunk ``i`` draws from the generator of
    ``stream.child(i)``, so a consumer that takes the chunks one at a
    time sees the same values as one that concatenates them.
    """
    for i, size in enumerate(chunk_sizes(n)):
        yield np.asarray(draw(stream.child(i).generator(), size))


def draw_uniforms(stream: RngStream, n: int, cols: int = 1) -> np.ndarray:
    """Draw an ``(n, cols)`` array of U(0,1) variates, chunk by chunk.

    The result is a pure function of ``(stream, n, cols)``: each chunk
    comes from its own child stream and chunks are concatenated in a
    fixed order, so parallel scheduling could never change the output.
    """
    cols = _check_count(cols, "cols", 1)
    return draw_iid(stream, n, lambda gen, size: gen.random((size, cols)))


def draw_iid(stream: RngStream, n: int, sampler) -> np.ndarray:
    """Chunked draws from ``sampler(generator, size)``, an array whose
    first axis has length ``size``; same determinism contract as
    :func:`draw_uniforms`.
    """
    # n = 0 is one chunk of size 0, so the trailing shape survives.
    return np.concatenate(list(iter_chunks(stream, n, sampler)))
