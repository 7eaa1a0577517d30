"""The one writer, ``write_text``, and the CSV text of ``csv_text`` against
the per-row formatter it replaced."""

import math
import os
import stat
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import refuse_replace
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
from mocorr.serialize import CSV_CHUNK_ROWS, canonical_json, csv_text, write_text


def write_table(path, header: str, rows) -> None:
    """One table of rows to ``path``, as the CLI writes its CSV forms."""
    write_text(path, csv_text(header, [rows]))


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


# One chunk's edges, and those of tables of four and of sixteen whole chunks.
@pytest.mark.parametrize("n", [1] + [k * CSV_CHUNK_ROWS + d for k in (1, 4, 16) for d in (-1, 0, 1)])
@pytest.mark.parametrize("family", sorted(SAMPLERS))
def test_samples_match_per_row_writer(tmp_path, family, n):
    sample = SAMPLERS[family](n, RngStream(90))
    path = tmp_path / "s.csv"
    write_sample_csv(sample, path)
    header = "u,v" if sample.copula_scale else "x1,x2"
    assert path.read_bytes() == per_row_csv(header, sample.pairs)


def test_edge_values_single_column(tmp_path):
    path = tmp_path / "edge.csv"
    write_table(path, "x", [[v] for v in EDGE_VALUES])
    assert path.read_bytes() == per_row_csv("x", [[v] for v in EDGE_VALUES])
    assert path.read_text().splitlines()[1:3] == ["0", "-0"]


def test_edge_values_three_columns(tmp_path):
    rows = [EDGE_VALUES[i:i + 3] for i in range(len(EDGE_VALUES) - 2)]
    rows += [[-v for v in row] for row in rows]
    path = tmp_path / "edge3.csv"
    write_table(path, "a,b,c", rows)
    assert path.read_bytes() == per_row_csv("a,b,c", rows)


def test_empty_table_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_table(path, "zeta,cov,se", [])
    assert path.read_bytes() == b"zeta,cov,se\n" == per_row_csv("zeta,cov,se", [])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_leaves_no_file(tmp_path, bad):
    rows = np.zeros((CSV_CHUNK_ROWS + 5, 2))
    rows[-1, 1] = bad
    path = tmp_path / "bad.csv"
    with pytest.raises(ValidationError, match="non-finite"):
        write_table(path, "u,v", rows)
    assert not path.exists()


def test_a_failed_write_leaves_the_old_file(tmp_path):
    path = tmp_path / "old.csv"
    path.write_bytes(b"u,v\n1,2\n")
    tables = (np.full((3, 2), x) for x in (0.5, math.nan))
    with pytest.raises(ValidationError, match="non-finite"):
        write_text(path, csv_text("u,v", tables))
    assert path.read_bytes() == b"u,v\n1,2\n"
    assert list(tmp_path.iterdir()) == [path]
    write_text(path, csv_text("u,v", (np.full((1, 2), x) for x in (0.5, 0.25))))
    assert path.read_bytes() == b"u,v\n0.5,0.5\n0.25,0.25\n"


def test_a_symlink_keeps_pointing_at_the_new_file(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"old\n")
    link.symlink_to(target)
    write_table(link, "x", [[1.5]])
    assert link.is_symlink() and target.read_bytes() == b"x\n1.5\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_pipe_is_written_not_replaced(tmp_path):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
    reader.start()
    write_table(pipe, "x", [[1.5], [2.0]])
    reader.join(timeout=10)
    assert received == [b"x\n1.5\n2\n"]
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_an_anonymous_pipe_is_written_through_dev_fd():
    # /dev/fd/N of a pipe resolves to no path, so it must be opened as given.
    r, w = os.pipe()
    try:
        write_table(f"/dev/fd/{w}", "x", [[1.5], [2.0]])
        os.close(w)
        w = None
        with os.fdopen(r, "rb") as fh:
            r = None
            assert fh.read() == b"x\n1.5\n2\n"
    finally:
        for fd in (r, w):
            if fd is not None:
                os.close(fd)


def test_an_os_error_names_the_path_not_the_temporary_file(tmp_path):
    path = tmp_path / "missing" / "x.csv"
    with pytest.raises(FileNotFoundError) as info:
        write_table(path, "x", [[1.5]])
    assert info.value.filename == str(path)
    assert not (tmp_path / "missing").exists()


def test_a_failed_replace_keeps_the_old_file_and_names_it(tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    path.write_bytes(b"{}\n")
    refuse_replace(monkeypatch)
    with pytest.raises(PermissionError) as info:
        write_text(path, [canonical_json({"a": 1.5}) + "\n"])
    assert info.value.filename == str(path)
    assert path.read_bytes() == b"{}\n"
    assert list(tmp_path.iterdir()) == [path]


def test_none_writes_stdout(capsys):
    write_text(None, iter(["a", "b\n"]))
    write_text(None, csv_text("x", [[[1.5]]]))
    assert capsys.readouterr().out == "ab\nx\n1.5\n"


@pytest.mark.parametrize("rows", [[[math.nan]],
                                  np.zeros((CSV_CHUNK_ROWS + 5, 2)) + [0, math.nan]])
def test_a_non_finite_first_table_yields_nothing(rows):
    with pytest.raises(ValidationError, match="non-finite"):
        next(csv_text("u", [rows]))


def test_each_table_is_checked_before_its_text():
    parts = csv_text("u,v", [np.full((2, 2), 0.5), [[1.0, math.inf]]])
    assert next(parts) == "u,v\n0.5,0.5\n0.5,0.5\n"
    with pytest.raises(ValidationError, match="non-finite"):
        next(parts)


def test_no_tables_yield_the_header_alone():
    assert list(csv_text("zeta,cov,se", [])) == ["zeta,cov,se\n"]
    assert list(csv_text("u,v", [[], np.zeros((0, 2))])) == ["u,v\n"]
    assert list(csv_text("u,v", [[], [[1.0, 2.0]]])) == ["u,v\n1,2\n"]


# ---------------------------------------------------------------------------
# The vectorized cell kernel is exact: every finite double prints as "%.17g".


def csv_bytes(header: str, rows) -> bytes:
    return "".join(csv_text(header, [rows])).encode("ascii")


def assert_cells_exact(values, columns=1):
    rows = np.asarray(values, dtype=float).reshape(-1, columns)
    header = ",".join("c%d" % i for i in range(columns))
    assert csv_bytes(header, rows) == per_row_csv(header, rows)


@given(st.integers(1, 3).flatmap(lambda width: st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False),
             min_size=width, max_size=width),
    min_size=1, max_size=40)))
def test_any_finite_float_matches_percent(rows):
    assert csv_bytes("x", rows) == per_row_csv("x", rows)


def test_random_bit_patterns():
    bits = np.random.default_rng(2).integers(0, 2 ** 64, size=2 ** 20, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert_cells_exact(values[: len(values) // 2 * 2], columns=2)


def test_powers_of_ten_and_neighbours():
    # Where floor(log10|x|) may be off by one, and the decades' first cells.
    powers = np.array([float(10.0 ** k) for k in range(-6, 18)])
    values = [powers]
    for steps in (1, 2):
        below, above = powers.copy(), powers.copy()
        for _ in range(steps):
            below = np.nextafter(below, 0.0)
            above = np.nextafter(above, np.inf)
        values += [below, above]
    values = np.concatenate(values)
    assert_cells_exact(np.concatenate([values, -values]), columns=2)


def test_halfway_ties_round_to_even():
    # q / 2**(17-k) with q odd has an exact 5 in the 18th significant digit.
    rng = np.random.default_rng(3)
    ties = [1234567890123456.75, 1234567890123457.25, 0.5 ** 17 * 131073]
    for k in range(-4, 16):
        low = math.ceil(10.0 ** k * 2 ** (17 - k))
        high = min(10 ** (k + 1) * 2 ** (17 - k), 2 ** 53)
        q = rng.integers(low // 2, high // 2, size=200) * 2 + 1
        tie = np.ldexp(q.astype(float), k - 17)
        ties += list(tie[(tie >= 10.0 ** k) & (tie < 10.0 ** (k + 1))])
    text = csv_bytes("x", [[t] for t in ties]).decode().split()
    assert text[1] == "1234567890123456.8" and text[2] == "1234567890123457.2"
    assert_cells_exact(ties + [-t for t in ties], columns=1)


def test_carries_integers_and_extremes():
    values = [
        0.99999999999999999, 9.9999999999999995e-5, 0.00099999999999999999,
        9.99999999999999999e14, 999999999999999.9, 99.999999999999997,
        1.0, 2.0, 10.0, 12345.0, 2.0 ** 52, 2.0 ** 53 - 1, 9007199254740993.0,
        123.00000000000001, 0.1, 0.30000000000000004, 1.5, 100.5,
        5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        -1.7976931348623157e308, 1e-4, 1e16, 1e300, 1e-300, 0.0, -0.0,
    ]
    assert_cells_exact(values + [-v for v in values], columns=1)
    assert_cells_exact(values[:27], columns=3)
