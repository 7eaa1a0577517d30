"""Byte-reproducible report serialization.

The stdlib JSON encoder prints floats with the shortest round-trip
representation, which varies in digit count.  Reports here pin every
float to 17 significant digits (lossless for doubles) and sort object
keys, so identical inputs always produce identical bytes.
"""

from __future__ import annotations

import functools
import json
import math
import os
import pathlib
import sys

import numpy as np

from .errors import ValidationError


def _emit(obj, level: int) -> str:
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        # JSON has no NaN/inf; degenerate quantities serialize as null
        # and carry an explicit flag elsewhere in the report.
        if not math.isfinite(x):
            return "null"
        return f"{x:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [pad_in + _emit(v, level + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        for key in obj:
            if not isinstance(key, str):
                raise ValidationError("report keys must be strings")
        items = [
            pad_in + json.dumps(k, ensure_ascii=True) + ": " + _emit(obj[k], level + 1)
            for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, %.17g floats, two-space indent."""
    return _emit(obj, 0)


#: Rows per formatted chunk of :func:`csv_text`; bounds the temporaries
#: (about 300 bytes a cell) and keeps them in cache.
CSV_CHUNK_ROWS = 4096

# The CSV kernel lays each cell out as six little-endian 64-bit words, NUL
# wherever no character goes, and deletes the NULs in one pass at the end:
#   word 0     the sign, "0." and up to three zeros when k < 0, the first
#              digit and its point slot;
#   words 1-4  the other 16 digits, four (digit, point slot) pairs a word;
#   word 5     "," or "\n" in its first byte (byte 40 of the cell).
# Digit i sits at byte 6 + 2i; a cell with k >= 0 gets "." at byte 7 + 2k.
_WORDS = 6
_SEP = 40


@functools.cache
def _digit_pairs():
    """The four digits of ``g`` as (digit, NUL) pairs at ``[g]``; at
    ``[10_000 + g]`` the same with trailing zeros NUL, for a group with only
    zero groups after it. Built on first use: at import its temporaries
    would add to every invocation's memory."""
    place = 10 ** np.arange(3, -1, -1)
    group = np.arange(10_000)[:, None]
    pairs = (48 + group // place % 10).astype("<u8") << (16 * np.arange(4, dtype="<u8"))
    stripped = pairs * (group % (10 * place) != 0)
    return np.concatenate([pairs.sum(axis=1), stripped.sum(axis=1)]).astype("<u8")


# Word 0's "0." and -k-1 zeros, from byte 1, at [k + 4] for k = -4..-1;
# [4], for k >= 0, is empty.
_LEAD = np.array([int.from_bytes(b"\0" + b"0." + b"0" * (-k - 1), "little")
                  for k in range(-4, 0)] + [0], dtype="<u8")

# 10**j for j = 16 - k, each an exact double; j is 21 when log10 puts a
# cell just above 1e-4 at k = -5.
_VELTKAMP = 2.0 ** 27 + 1.0
_POW10 = np.array([float(10 ** j) for j in range(22)])


def _split(a):
    """Veltkamp split: ``a == hi + lo``, each with at most 26 significant
    bits, so that products of halves are exact."""
    t = _VELTKAMP * a
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _format_cells(x, words) -> bytes:
    """The cells ``x`` (1-D, finite) as ``"%.17g" % x`` would print them,
    each followed by the separator already in ``words[:, 5]``.

    A cell with ``1e-4 <= |x| < 1e16`` that is not an integer prints in
    fixed point with exponent ``k = floor(log10|x|)``. Its 17 digits are
    ``D = round(|x| * 10**(16-k))``: Dekker's two-product gives
    ``|x| * 10**(16-k) == p + err`` exactly; a kept cell's ``p`` lies above
    ``2**53``, so it is an even integer and ``p + rint(err)`` rounds half to
    even as ``%`` does.
    ``1e16 <= D < 1e17`` confirms ``k``; any other cell (zero, tiny, huge,
    integral, a wrong ``log10`` or a carry into the next decade) takes
    ``%`` itself.
    """
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e16) & (np.floor(ax) != ax)
    ax = np.where(fast, ax, 0.5)  # keep log10 finite; those cells are redone
    k = np.floor(np.log10(ax)).astype(np.intp)
    j = 16 - k
    p = ax * _POW10[j]
    a_hi, a_lo = _split(ax)
    b_hi, b_lo = _POW10_HI[j], _POW10_LO[j]
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    digits = p.astype(np.int64) + np.rint(err).astype(np.int64)
    fast &= (digits >= 10 ** 16) & (digits < 10 ** 17)

    first = digits // 10 ** 16
    rest = digits - first * 10 ** 16
    high = rest // 10 ** 8
    low = rest - high * 10 ** 8
    groups = [high // 10_000, high % 10_000, low // 10_000, low % 10_000]
    table = _digit_pairs()
    zero_after = np.full(len(x), 10_000)
    for w in (4, 3, 2, 1):
        words[:, w] = table[groups[w - 1] + zero_after]
        zero_after *= groups[w - 1] == 0
    words[:, 0] = (_LEAD[np.clip(k, -4, 0) + 4]
                   | ((first.astype("<u8") + 48) << 48)
                   | np.signbit(x).astype("<u8") * ord("-"))

    cells = words.view(np.uint8)
    point = np.flatnonzero(fast & (k >= 0))
    cells[point, 7 + 2 * k[point]] = ord(".")
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = (b"%.17g " * len(slow)) % tuple(x[slow].tolist())
        padded = np.array(text.split(), dtype=f"S{_SEP}")
        cells[slow, :_SEP] = padded.view(np.uint8).reshape(-1, _SEP)
    return cells.tobytes().translate(None, b"\0")


def _format_rows(table):
    """Yield the rows of ``table`` as CSV text, ``CSV_CHUNK_ROWS`` at a time."""
    if not len(table):
        return
    rows = min(len(table), CSV_CHUNK_ROWS)
    words = np.zeros((rows, table.shape[1], _WORDS), "<u8")
    seps = words.view(np.uint8)[:, :, _SEP]
    seps[:, :-1] = ord(",")
    seps[:, -1] = ord("\n")
    words = words.reshape(-1, _WORDS)
    for start in range(0, len(table), rows):
        chunk = table[start:start + rows].ravel()
        yield _format_cells(chunk, words[:len(chunk)]).decode("ascii")


def _checked(rows) -> np.ndarray:
    table = np.asarray(rows, dtype=float)
    if not np.isfinite(table).all():
        raise ValidationError("cannot format a non-finite float")
    return table


def csv_text(header: str, tables):
    """Yield CSV text: the ``header`` line, then the rows of each table of the
    iterable ``tables`` in turn, ``CSV_CHUNK_ROWS`` at a time, each cell the
    bytes of ``"%.17g" % x``.

    Each table is checked when it comes, before any of its text is yielded,
    and the header goes out with the first chunk, so a non-finite cell in the
    first table raises before anything is yielded.
    """
    head = header + "\n"
    for rows in tables:
        for chunk in _format_rows(_checked(rows)):
            yield head + chunk
            head = ""
    if head:
        yield head


def write_text(out, parts) -> None:
    """Write the strings of the iterable ``parts`` to ``out``, or to stdout
    when ``out`` is None.

    The text goes to a temporary file beside ``out`` (beside its target, for
    a symlink) that replaces it once all is written.  An error on the way, a
    non-finite CSV cell among them, removes the temporary file and leaves
    ``out`` as it was; an ``OSError`` names ``out``, not the temporary file.
    An ``out`` that exists but is no regular file, such as a pipe or
    ``/dev/stdout``, cannot be replaced and is written in place.
    """
    if out is None:
        sys.stdout.writelines(parts)
        return
    if os.path.exists(out) and not os.path.isfile(out):
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.writelines(parts)
        return
    target = pathlib.Path(out).resolve()
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            fh.writelines(parts)
        os.replace(tmp, target)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise OSError(exc.errno, exc.strerror, str(out)) from exc
        raise
