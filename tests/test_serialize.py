"""The streaming CSV writer against the per-row formatter it replaced."""

import math

import numpy as np
import pytest

from mocorr.errors import ValidationError
from mocorr.extremes import GEVShape, ZetaOverlap, sample_limit_pair
from mocorr.maxcorr import sample_gaussian_copula
from mocorr.mo import (
    CopulaParams,
    DXiParam,
    MOParams,
    sample_copula,
    sample_d_xi,
    sample_mo,
    write_sample_csv,
)
from mocorr.rng import RngStream
from mocorr.serialize import CSV_CHUNK_ROWS, write_csv


def per_row_csv(header: str, rows) -> bytes:
    """The writer as it was: one ``%.17g`` cell at a time, one row per loop."""
    def cell(x):
        x = float(x)
        if not math.isfinite(x):
            raise ValidationError("cannot format a non-finite float")
        return f"{x:.17g}"

    lines = [header] + [",".join(cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


SAMPLERS = {
    "copula": lambda n, rng: sample_copula(CopulaParams(0.3, 0.7), n, rng),
    "d_xi": lambda n, rng: sample_d_xi(DXiParam(0.5), n, rng),
    "mo": lambda n, rng: sample_mo(MOParams(1.0, 2.0, 1.5), n, rng),
    "limit_gev": lambda n, rng: sample_limit_pair(ZetaOverlap(0.3), GEVShape(0.2), n, rng),
    "gaussian": lambda n, rng: sample_gaussian_copula(0.6, n, rng),
}

EDGE_VALUES = [0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-4, 1e-5,
               1e16, 1e17, -3.5]


@pytest.mark.parametrize("n", [1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
@pytest.mark.parametrize("family", sorted(SAMPLERS))
def test_samples_match_per_row_writer(tmp_path, family, n):
    sample = SAMPLERS[family](n, RngStream(90))
    path = tmp_path / "s.csv"
    write_sample_csv(sample, path)
    header = "u,v" if sample.copula_scale else "x1,x2"
    assert path.read_bytes() == per_row_csv(header, sample.pairs)


def test_edge_values_single_column(tmp_path):
    path = tmp_path / "edge.csv"
    write_csv(path, "x", [[v] for v in EDGE_VALUES])
    assert path.read_bytes() == per_row_csv("x", [[v] for v in EDGE_VALUES])
    assert path.read_text().splitlines()[1:3] == ["0", "-0"]


def test_edge_values_three_columns(tmp_path):
    rows = [EDGE_VALUES[i:i + 3] for i in range(len(EDGE_VALUES) - 2)]
    rows += [[-v for v in row] for row in rows]
    path = tmp_path / "edge3.csv"
    write_csv(path, "a,b,c", rows)
    assert path.read_bytes() == per_row_csv("a,b,c", rows)


def test_empty_table_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, "zeta,cov,se", [])
    assert path.read_bytes() == b"zeta,cov,se\n" == per_row_csv("zeta,cov,se", [])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_leaves_no_file(tmp_path, bad):
    rows = np.zeros((CSV_CHUNK_ROWS + 5, 2))
    rows[-1, 1] = bad
    path = tmp_path / "bad.csv"
    with pytest.raises(ValidationError, match="non-finite"):
        write_csv(path, "u,v", rows)
    assert not path.exists()
