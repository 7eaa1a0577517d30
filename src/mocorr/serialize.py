"""Byte-reproducible report serialization.

The stdlib JSON encoder prints floats with the shortest round-trip
representation, which varies in digit count.  Reports here pin every
float to 17 significant digits (lossless for doubles) and sort object
keys, so identical inputs always produce identical bytes.
"""

from __future__ import annotations

import itertools
import json
import math

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


#: Rows per formatted string in the CSV writers; bounds the text held in memory.
CSV_CHUNK_ROWS = 65_536


def _csv_chunks(header: str, rows):
    """Check every cell of ``rows`` now, then yield the CSV text lazily: the
    header line, then one ``%.17g`` string per ``CSV_CHUNK_ROWS`` rows."""
    table = np.asarray(rows, dtype=float)
    if not np.isfinite(table).all():
        raise ValidationError("cannot format a non-finite float")
    line = ",".join(["%.17g"] * table.shape[-1]) + "\n"
    chunks = (table[i:i + CSV_CHUNK_ROWS] for i in range(0, len(table), CSV_CHUNK_ROWS))
    return itertools.chain([header + "\n"], (
        (line * len(chunk)) % tuple(chunk.ravel().tolist()) for chunk in chunks))


def write_csv(path, header: str, rows) -> None:
    """Write rows of floats as CSV with 17-significant-digit cells, streamed
    in chunks; a non-finite cell raises before the file is opened."""
    text = _csv_chunks(header, rows)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(text)
