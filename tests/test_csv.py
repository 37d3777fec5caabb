"""The CSV block writer against Python's own '%.17g', on both of its paths."""

from __future__ import annotations

import io
import math
from fractions import Fraction

import numpy as np
import pytest

from convmap import _csv
from convmap._csv import BLOCK_ROWS, write_rows


@pytest.fixture(params=["platform", "fallback"])
def path(request, monkeypatch):
    """Run once as this host formats (the vectorized path where long double
    has a 64-bit mantissa) and once with every cell through Python's '%',
    the path hosts without one take."""
    if request.param == "fallback":
        monkeypatch.setattr(_csv, "_FAST", False)
    return request.param


def written(cols, blank=None, stream=io.BytesIO) -> str:
    fp = stream()
    write_rows(fp, cols, blank)
    out = fp.getvalue()
    return out.decode("ascii") if isinstance(out, bytes) else out


def expected(cols, blank=None) -> str:
    rows = np.stack([np.asarray(c, dtype=float) for c in cols], axis=1)
    empty = np.zeros(rows.shape, dtype=bool) if blank is None else np.broadcast_to(blank, rows.shape)
    return "".join(
        ",".join("" if e else "%.17g" % v for v, e in zip(row, flags)) + "\n"
        for row, flags in zip(rows.tolist(), empty.tolist())
    )


def assert_cells(values) -> None:
    values = np.asarray(values, dtype=float)
    got = written([values]).splitlines()
    want = ["%.17g" % v for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want)
    assert not bad, f"{len(bad)} cells differ, first {bad[:3]}"


def signed(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


class TestCells:
    def test_random_bit_patterns(self, path):
        rng = np.random.default_rng(20)
        bits = rng.integers(0, 2**64, 60_000, dtype=np.uint64, endpoint=False)
        assert_cells(bits.view(np.float64))

    def test_subnormals(self, path):
        rng = np.random.default_rng(21)
        bits = rng.integers(1, 2**52, 5_000, dtype=np.uint64)
        assert_cells(signed(bits.view(np.float64)))

    def test_fixed_notation_range(self, path):
        # |v| from 1e-5 to 1e18: both sides of every edge of fixed notation
        rng = np.random.default_rng(22)
        mags = 10.0 ** rng.uniform(-5.0, 18.0, 60_000)
        assert_cells(signed(mags * rng.choice([1.0, 3.0, 7.5], mags.size)))

    def test_exact_ties(self, path):
        # M / 2^17 with M odd has 17 decimals: in [1, 10) it is a 17-digit
        # rounding tie, broken to even
        m = np.arange(2**17 + 1, 10 * 2**17, 2 * 97, dtype=np.int64)
        values = m / 2.0**17
        assert "%.17g" % (1 + 2**-17) == "1.0000076293945312"
        assert_cells(signed(np.concatenate([[1 + 2**-17], values, values / 1e3, values * 1e6])))

    def test_powers_of_ten_and_their_neighbours(self, path):
        # the decade edges, where X = floor(log10|v|) needs its fix-up
        values = []
        for k in range(-20, 25):
            x = float(10**k) if k >= 0 else float(f"1e{k}")
            below = above = x
            for _ in range(4):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
                values += [below, above]
            values.append(x)
        assert_cells(signed(values))

    def test_special_values(self, path):
        assert_cells([1e16, 1e17, -1e16, -1e17, 0.0, -0.0, np.inf, -np.inf, np.nan, 1e-4, 9.9999999999999991e-5])

    def test_whole_numbers(self, path):
        assert_cells(signed([1.0, 10.0, 100.0, 123456.0, 2.0**53, 1e15, 99999999999999984.0, 0.5, 0.25]))


def test_no_double_rounds_up_to_a_power_of_ten():
    # the formatter has no carry step: with X = e - 1, the largest double
    # below 10^e must have y = |v| 10^(16 - X) more than half a unit below
    # 10^17, or its 17 digits would round up to 10^e
    for e in range(-4, 18):
        power = Fraction(10) ** e
        v = float(power)
        while Fraction(v) >= power:
            v = math.nextafter(v, 0.0)
        assert Fraction(10) ** 17 - Fraction(v) * Fraction(10) ** (17 - e) > 8


def test_the_fast_path_takes_most_cells():
    if not _csv._FAST:
        pytest.skip("long double has no 64-bit mantissa here: every cell takes Python's '%'")
    rng = np.random.default_rng(23)
    v = rng.standard_normal(6 * 1000) * 10.0 ** rng.integers(-3, 10, 6 * 1000)
    last = np.tile(np.arange(6) == 5, 1000).astype(np.intp)
    with np.errstate(all="ignore"):
        _, ok = _csv._fast(v, last)
    # left to Python: values whose y lands on a half-integer, and |v| < 9e-5
    assert ok.mean() > 0.97


class TestRows:
    @pytest.mark.parametrize("nrows", [1, 3, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 5, 2 * BLOCK_ROWS + 1])
    def test_partial_blocks(self, path, nrows):
        rng = np.random.default_rng(nrows)
        cols = [rng.standard_normal(nrows) * 10.0 ** rng.integers(-6, 20, nrows) for _ in range(4)]
        assert written(cols) == expected(cols)

    def test_blank_cells_at_a_block_edge(self, path):
        nrows = BLOCK_ROWS + 3
        rng = np.random.default_rng(5)
        cols = [rng.standard_normal(nrows) for _ in range(6)]
        cols[5][[0, BLOCK_ROWS - 1, BLOCK_ROWS + 1]] = np.inf  # what an undefined kappa computes
        blank = np.zeros((nrows, 6), dtype=bool)
        blank[[0, BLOCK_ROWS - 1, BLOCK_ROWS, nrows - 1], 5] = True
        blank[BLOCK_ROWS - 1, 2] = True  # an empty cell inside a row
        text = written(cols, blank)
        assert text == expected(cols, blank)
        lines = text.splitlines()
        assert lines[BLOCK_ROWS - 1].endswith(",") and ",," in lines[BLOCK_ROWS - 1]
        assert not lines[BLOCK_ROWS + 1].endswith(",")

    def test_text_stream(self, path):
        cols = [np.linspace(-2.0, 3.0, 50), np.geomspace(1e-7, 1e20, 50)]
        assert written(cols, stream=io.StringIO) == expected(cols)

    def test_overlong_fallback_cell(self, path):
        # '-1.2345678901234567e-100' and its separator need 25 bytes
        cols = [np.array([-1.2345678901234567e-100, 0.5]), np.array([1.0, -9.8765432109876543e200])]
        assert written(cols) == expected(cols)

    def test_no_rows(self, path):
        assert written([np.array([]), np.array([])]) == ""
