"""CSV text of float64 tables, each cell exactly as ``'%.17g' % cell``.

numpy writes zeros and the finite cells with 1e-280 <= |x| < 1e300. The
correctly rounded 17-digit significand D and decimal exponent X of |x| come
from V = |x|·10**p, p = 16 - X, as hi + lo: hi = fl(|x|·P_hi), lo = Dekker's
exact error of that product plus |x|·P_lo, with 10**p = P_hi + P_lo a
double-double. For 0 <= p <= 22, P_lo = 0 and hi + lo = V exactly, and hi is
an even integer >= 10**16 > 2**53, so D = hi + rint(lo) with ``%g``'s ties to
even. Elsewhere hi + lo is within ~4e-15 of V, and a cell within 1e-12 of a
tie goes to Python's formatter. Near 10**16 and 10**17 no guard is needed:
an exponent one off there gives, after the carry, the same D and X. The
layout is ``%g``'s: fixed notation for -4 <= X < 17, else ``d.ddde±XX``;
trailing zeros and a bare point stripped; ``-`` for negatives and ``-0``.
Python's formatter also writes NaN, ±inf and the magnitudes out of range.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

import numpy as np

# Cells per chunk: about 1.2 MB of temporaries.
_CHUNK_CELLS = 4096
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's splitter for doubles
_TIE_GUARD = 1e-12

# Each cell is laid out in a 32-byte row, NUL where empty, and the join
# drops the NULs. Slot 0 holds the sign, 1-5 the text before the digits
# ("0.000" and the like), 6-22 the 17 digits of D with trailing zeros as NUL,
# 24-28 the exponent, 29 the separator. A row is the bytes of one _CELL item
# from its second byte on. Three masks per decimal exponent X (or code for a
# zero or a Python cell) make the text: one keeps the sign and the integer
# digits and caps the slot after them at '.', so that a point shows only
# before a fraction digit; one adds the fixed text and the integer part's
# zeros; one takes the fraction digits from the rows one byte earlier.
_WIDTH = 32
_CELL = np.dtype([("pad", "V1"), ("sign", "u1"), ("pad2", "V5"), ("lead", "u1"), ("quads", "V16"), ("tail", "V8")])
_SEP_SLOT = 29
_X_MIN, _ZERO, _PYTHON = -300, 320, 321
_PYTHON_MARK = "\x01"


@functools.lru_cache(maxsize=None)
def _power(p: int) -> tuple[float, float, float, float]:
    """10**p as P_hi, P_hi's two Dekker halves, and P_lo, each correctly rounded."""
    num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
    hi = num / den  # int true division rounds correctly
    hi_num, hi_den = hi.as_integer_ratio()
    lo = (num * hi_den - hi_num * den) / (den * hi_den)
    c = _SPLIT * hi
    hi1 = c - (c - hi)
    return hi, hi1, hi - hi1, lo


@functools.lru_cache(maxsize=1)
def _quads() -> np.ndarray:
    """ASCII of 0000..9999 as little-endian uint32, trailing zeros as NUL, then as is."""
    tens, units = np.divmod(np.arange(100, dtype=np.uint32), 10)
    pairs = (tens + 48) | (units + 48) << 8
    stripped = np.where(units, pairs, np.where(tens, tens + 48, 0))
    both = np.where(units[None, :] | tens[None, :], pairs[:, None] | stripped[None, :] << 16, stripped[:, None])
    return np.concatenate([both.ravel(), (pairs[:, None] | pairs[None, :] << 16).ravel()]).astype("<u4")


@functools.lru_cache(maxsize=1)
def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per exponent or code: the three masks, as 32-byte items."""
    # Layout 0 is exponent notation (its digits as at X = 0), 1..21 fixed
    # notation at X = -4..16, 22 a zero and 23 a Python cell.
    x, slot = np.arange(-5, 19)[:, None], np.arange(_WIDTH)
    small, digits, last = (x < 0) & (x > -5), (x == -5) | (x >= 0) & (x <= 16), 6 + np.clip(x, 0, 16)
    integer = digits & (slot >= 6) & (slot <= last)
    keep = np.where(integer | small & (slot >= 6) & (slot <= 22) | (slot == 0) & (x != 18) | (slot == _SEP_SLOT), 0xFF, 0)
    keep = np.where(digits & (slot == last + 1), ord("."), keep)
    before = np.frombuffer(b"\x000.000", np.uint8)[np.minimum(slot, 5)]
    fill = np.where(integer, ord("0"), np.where(small & (slot >= 1) & (slot < 2 - x), before, 0))
    fill[-2:, 1] = ord("0"), ord(_PYTHON_MARK)
    shift = np.where(digits & (slot >= last + 2) & (slot <= 23), 0xFF, 0)
    codes = np.arange(_X_MIN, _PYTHON + 1)
    layout = np.select([codes == _ZERO, codes == _PYTHON, (codes >= -4) & (codes <= 16)], [22, 23, codes + 5])
    keep, fill, shift = (np.asarray(m, np.uint8)[layout] for m in (keep, fill, shift))
    sign, size = np.where(codes < 0, ord("-"), ord("+"))[:, None], np.abs(codes)[:, None]
    text = np.hstack([np.full_like(size, ord("e")), sign, (size >= 100) * (size // 100 + 48), size // [10, 1] % 10 + 48])
    fill[:, 24:29] = (layout == 0)[:, None] * text  # e±XX, or e±XXX
    return tuple(m.view(f"V{_WIDTH}").ravel() for m in (keep, fill, shift))


def _scaled(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo of a·10**p."""
    first, last = int(p.min()), int(p.max())
    table = np.array([_power(q) for q in range(first, last + 1)])
    ph, ph1, ph2, pl = np.take(table, p - first, axis=0).T
    c = a * _SPLIT
    a1 = c - (c - a)
    a2 = a - a1
    hi = a * ph
    lo = (((a1 * ph1 - hi) + a1 * ph2) + a2 * ph1) + a2 * ph2
    if first < 0 or last > 22:  # some 10**p is no double
        lo += a * pl
    return hi, lo


def _significands(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D, X and the cells to leave to Python, for 1e-280 <= a < 1e300."""
    x = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, 16 - x)
    # log10 can miss by one next to a power of ten: move V into [1e16, 1e17).
    near = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if near.size:
        h, l = hi[near], lo[near]
        x[near] += ((h - 1e17) + l >= 0).astype(np.int64) - ((h - 1e16) + l < 0)
        hi[near], lo[near] = _scaled(a[near], 16 - x[near])
    rounded = np.rint(lo)
    unsure = ((x > 16) | (x < -6)) & (np.abs(lo - rounded) > 0.5 - _TIE_GUARD)
    d = hi.astype(np.int64) + rounded.astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    return d, x + carry, unsure


def _chunk_text(cells: np.ndarray, scratch: np.ndarray) -> str:
    """Text of consecutive cells, laid out in a per-call _CELL scratch array."""
    m = cells.size
    a = np.abs(cells)
    vector = (a >= 1e-280) & (a < 1e300)
    d, x, unsure = _significands(np.where(vector, a, 2.0))
    vector &= ~unsure
    np.copyto(x, np.where(a == 0, _ZERO, _PYTHON), where=~vector)

    top = d // 10**8
    low = d - top * 10**8
    lead = top // 10**8
    mid = top - lead * 10**8
    g1, g3 = mid // 10**4, low // 10**4
    g2, g4 = mid - g1 * 10**4, low - g3 * 10**4
    # A 4-digit group keeps its trailing zeros when a later digit is nonzero.
    quads = np.stack([g1 + 10000 * ((g2 | low) != 0), g2 + 10000 * (low != 0), g3 + 10000 * (g4 != 0), g4], axis=1)
    cell = scratch[:m]
    cell["sign"] = np.signbit(cells) * np.uint8(ord("-"))
    cell["lead"] = lead + 48
    cell["quads"] = _quads()[quads].view("V16").ravel()

    keep, fill, shift = _layouts()
    code = x - _X_MIN
    data = scratch.view(np.uint8)
    text = np.minimum(data[1 : 1 + m * _WIDTH], keep[code].view(np.uint8))
    text |= fill[code].view(np.uint8)
    fraction = shift[code].view(np.uint8)
    fraction &= data[: m * _WIDTH]
    text |= fraction
    out = text.tobytes().translate(None, b"\0").decode("ascii")
    if _PYTHON_MARK not in out:
        return out
    python = ["%.17g" % v for v in cells[x == _PYTHON].tolist()]
    return "".join(p + q for p, q in zip(out.split(_PYTHON_MARK), python + [""]))


def csv_chunks(header: Sequence[str], table: np.ndarray) -> Iterator[str]:
    """The header line, then the 2-D table's rows, in chunks of whole rows."""
    yield ",".join(header) + "\n"
    table = np.asarray(table, np.float64)
    rows, cols = table.shape
    step = max(1, _CHUNK_CELLS // cols)
    # One spare item: the last row ends on its first byte.
    scratch = np.zeros(min(rows, step) * cols + 1, _CELL)
    seps = scratch.view(np.uint8)[1 + _SEP_SLOT : -_WIDTH : _WIDTH]
    seps[:] = ord(",")
    seps[cols - 1 :: cols] = ord("\n")
    for start in range(0, rows, step):
        yield _chunk_text(table[start : start + step].ravel(), scratch)
