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

from .errors import ValidationError

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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            value = int(value)
            if not 0 <= value <= _MASK64:
                raise ValidationError(f"{name} must fit in an unsigned 64-bit word")
            object.__setattr__(self, name, value)

    def generator(self) -> np.random.Generator:
        """Return a fresh Generator positioned at the start of the stream."""
        key = (self.seed << 64) | self.stream_id
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Derive the ``index``-th substream of this stream.

        Children of distinct parents collide only with probability
        ~2**-64; the Philox keying keeps them independent either way.
        """
        if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
            raise ValidationError(f"index must be an integer, got {index!r}")
        if index < 0:
            raise ValidationError("index must be nonnegative")
        mixed = _splitmix64(_splitmix64(self.stream_id ^ 0xD1B54A32D192ED03) + int(index) + 1)
        return RngStream(self.seed, mixed)

    def state_dict(self) -> dict:
        """Key as a plain dict, for report metadata."""
        return {"seed": self.seed, "stream_id": self.stream_id}


def chunk_sizes(n: int) -> list[int]:
    """Deterministic split of ``n`` draws into at most ``MC_CHUNKS`` pieces."""
    if n < 0:
        raise ValidationError("n must be nonnegative")
    chunks = min(MC_CHUNKS, max(n, 1))
    base, extra = divmod(n, chunks)
    return [base + (1 if i < extra else 0) for i in range(chunks)]


def _draw_chunks(stream: RngStream, n: int, draw) -> np.ndarray:
    # n = 0 is one chunk of size 0, so the trailing shape survives.
    return np.concatenate([np.asarray(draw(stream.child(i).generator(), size))
                           for i, size in enumerate(chunk_sizes(n))])


def draw_uniforms(stream: RngStream, n: int, cols: int = 1) -> np.ndarray:
    """Draw an ``(n, cols)`` array of U(0,1) variates, chunk by chunk.

    The result is a pure function of ``(stream, n, cols)``: each chunk
    comes from its own child stream and chunks are concatenated in a
    fixed order, so parallel scheduling could never change the output.
    """
    if cols < 1:
        raise ValidationError("cols must be >= 1")
    return _draw_chunks(stream, n, lambda gen, size: gen.random((size, cols)))


def draw_iid(stream: RngStream, n: int, sampler) -> np.ndarray:
    """Chunked draws from ``sampler(generator, size)``, an array whose
    first axis has length ``size``; same determinism contract as
    :func:`draw_uniforms`.
    """
    return _draw_chunks(stream, n, sampler)
