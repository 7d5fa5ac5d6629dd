"""The CSV kernel against Python's formatter, byte for byte.

``'%.17g' % cell`` per cell is the reference: the kernel must write the same
text for every double, from both of its paths (numpy, and Python's
formatter for the cells numpy cannot decide exactly).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openqnet import _csv


def reference(header, table) -> str:
    lines = [",".join(header)]
    lines += [",".join("%.17g" % v for v in row) for row in np.asarray(table, float).tolist()]
    return "\n".join(lines) + "\n"


def written(header, table) -> str:
    return "".join(_csv.csv_chunks(header, np.asarray(table, float)))


def assert_same_text(values, cols=7):
    values = np.asarray(values, float)
    values = np.concatenate([values, np.zeros(-values.size % cols)])
    table = values.reshape(-1, cols)
    header = [f"c{i}" for i in range(cols)]
    got, want = written(header, table), reference(header, table)
    if got != want:
        bad = [(g, w) for g, w in zip(got.splitlines(), want.splitlines()) if g != w]
        pytest.fail(f"{len(bad)} rows differ, first: {bad[0]}")


def test_random_bit_patterns():
    # Every exponent, both signs, subnormals, NaN payloads and infinities.
    rng = np.random.default_rng(1801)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    specials = np.array([0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000001, 0xFFF4000000000123], np.uint64)
    assert np.unique(bits >> np.uint64(52) & np.uint64(0x7FF)).size == 2048
    values = np.concatenate([bits, specials]).view(np.float64)
    assert np.isnan(values).any() and np.isinf(values).any()
    assert (np.abs(values[np.isfinite(values)]) < np.finfo(float).tiny).any()
    assert_same_text(values)


def test_scaled_and_rounded_values():
    # Short decimals and round numbers, where trailing zeros are stripped.
    rng = np.random.default_rng(1802)
    n = 50_000
    scaled = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    rounded = np.rint(rng.random(n) * 10.0 ** rng.integers(0, 18, n)) / 10.0 ** rng.integers(0, 6, n)
    assert_same_text(np.concatenate([scaled, rounded]))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([10.0**k for k in range(-323, 309)])
    assert_same_text(np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)]))


def test_exact_ties_round_half_to_even():
    # Odd m / 2**17 in [1, 10) has 18 significant digits, the last a 5.
    rng = np.random.default_rng(1803)
    m = 2 * rng.integers(2**16, 5 * 2**16, 20_000) + 1
    ties = np.concatenate([[131073, 131075, 10 * 2**17 - 1], m]) / 2**17
    assert "%.17g" % (131073 / 2**17) == "1.0000076293945312"
    # Where 10**p is no double (p = 23, 24), exact ties are k / 2**24 and
    # k / 2**25: the guard sends them to Python's formatter.
    inexact = np.array([k / 2**24 for k in range(3, 16, 2)] + [k / 2**25 for k in (1, 3)])
    *_, unsure = _csv._significands(inexact)
    assert unsure.all()
    assert_same_text(np.concatenate([ties, -ties, inexact, -inexact]))


def test_named_values():
    values = [1e16, 1e17, 99999999999999999.0, 9999999999999998.0, 1.0, -1.0, 0.5, -0.5, 0.0, -0.0,
              5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e-280, 1e300,
              0.0001, 0.00001, 1e-5, 123456789012345678.0, 0.1, 1 / 3, float("nan"), -float("nan"),
              float("inf"), -float("inf")]
    assert_same_text(values)
    assert written(["a", "b"], [[-0.0, float("-nan")]]) == "a,b\n-0,nan\n"


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9).flatmap(lambda w: st.lists(st.lists(st.floats(), min_size=w, max_size=w), min_size=1, max_size=12)))
def test_any_float_table(rows):
    header = [f"c{i}" for i in range(len(rows[0]))]
    assert written(header, rows) == reference(header, rows)


@pytest.mark.parametrize("rows, cols", [(3, _csv._CHUNK_CELLS + 5), (1300, 7), (2, 1)])
def test_chunks_hold_whole_rows(rows, cols):
    # Wider than one chunk, a chunk boundary inside the table, a single column.
    rng = np.random.default_rng(rows * cols)
    table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-8, 8, (rows, cols))
    table[rng.random((rows, cols)) < 0.05] = np.nan
    header = [f"c{i}" for i in range(cols)]
    chunks = list(_csv.csv_chunks(header, table))
    assert len(chunks) == 1 + -(-rows // max(1, _csv._CHUNK_CELLS // cols))
    assert all(chunk.endswith("\n") for chunk in chunks)
    assert "".join(chunks) == reference(header, table)


# Each table's chunks share one workspace. A chunk must write every byte it
# reads, so nothing of an earlier chunk, or of an earlier table, shows.
STEP7 = _csv._CHUNK_CELLS // 7  # rows per chunk of a 7-column table


def ordinary(rng, shape):
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 12, shape)


def test_a_chunk_of_special_cells_leaves_nothing_to_the_next():
    # First chunk: NaN, infinities, cells below 1e-280, guarded ties, -0 and
    # 17-digit negatives; second chunk: short positive values, no special
    # cell. Then a third chunk like the first, to check the way back too.
    rng = np.random.default_rng(1901)
    special = -np.abs(ordinary(rng, (STEP7, 7)))
    cells = [np.nan, np.inf, -np.inf, 1e-300, -1e-300, 5e-324, 3 / 2**24, 1 / 2**25, -0.0, 1e300]
    special.flat[rng.choice(special.size, 2000, replace=False)] = rng.choice(cells, 2000)
    plain = np.round(np.abs(ordinary(rng, (STEP7, 7))), 3)
    table = np.vstack([special, plain, special])
    *_, unsure = _csv._significands(np.array([3 / 2**24, 1 / 2**25]))
    assert unsure.all()
    header = [f"c{i}" for i in range(7)]
    chunks = list(_csv.csv_chunks(header, table))
    assert len(chunks) == 4
    assert "".join(chunks) == reference(header, table)


def test_a_short_last_chunk_ends_at_its_own_rows():
    rng = np.random.default_rng(1902)
    table = ordinary(rng, (2 * STEP7 + 3, 7))
    table[-3:] = [0.5, 1.0, 2.0, 0.25, 0.125, 4.0, 8.0]  # short text after long text
    header = [f"c{i}" for i in range(7)]
    chunks = list(_csv.csv_chunks(header, table))
    assert chunks[-1] == "0.5,1,2,0.25,0.125,4,8\n" * 3
    assert "".join(chunks) == reference(header, table)


def test_tables_of_different_widths_back_to_back_and_interleaved():
    rng = np.random.default_rng(1903)
    narrow, wide = ordinary(rng, (3 * 1365 + 2, 3)), -ordinary(rng, (3 * 819 + 1, 5))
    narrow[::7] = np.nan
    h3, h5 = ["a", "b", "c"], ["a", "b", "c", "d", "e"]
    assert written(h3, narrow) == reference(h3, narrow)
    assert written(h5, wide) == reference(h5, wide)
    pairs = itertools.zip_longest(_csv.csv_chunks(h3, narrow), _csv.csv_chunks(h5, wide), fillvalue="")
    both = [*zip(*pairs)]
    assert "".join(both[0]) == reference(h3, narrow)
    assert "".join(both[1]) == reference(h5, wide)


@pytest.mark.parametrize("rows, cols", [(1, 7), (1, 1), (1, _csv._CHUNK_CELLS + 5), (4, _csv._CHUNK_CELLS + 5)])
def test_one_row_and_one_row_per_chunk(rows, cols):
    rng = np.random.default_rng(rows + cols)
    table = ordinary(rng, (rows, cols))
    table[:, ::11] = -np.inf
    header = [f"c{i}" for i in range(cols)]
    chunks = list(_csv.csv_chunks(header, table))
    assert len(chunks) == 1 + rows
    assert "".join(chunks) == reference(header, table)
