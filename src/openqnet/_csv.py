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

A table is written in chunks of whole rows (about 4096 cells). Every
chunk-sized array, from the power-table gather to the digit groups and the
32-byte text and mask rows, lives in one workspace allocated per table
(about 163 bytes per cell of a chunk, sized to the table when it fits in
one chunk), and each chunk is computed into it through ufunc and np.take
``out=`` arguments. Fresh arrays per chunk would be mapped and returned to
the system by the allocator chunk after chunk. Only the cells next to a
power of ten, which log10 can misplace, are redone on arrays of their own.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

import numpy as np

# Cells per chunk: a workspace of about 0.65 MB.
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


class _Workspace:
    """Every chunk-sized array of one table, allocated once for all its chunks.

    ``cell`` holds the 32-byte rows (one spare item: the last row ends on its
    first byte), ``words`` eight rows of 8-byte numbers, ``flags`` three rows
    of booleans and ``wide`` 64 bytes per cell. Each stage of a chunk names
    the rows it uses; ``wide`` holds in turn the power-table gather, the
    4-digit groups with their ASCII, and the text and mask rows. A chunk of
    m cells uses the first m of each.
    """

    def __init__(self, cells: int):
        self.cell = np.zeros(cells + 1, _CELL)
        self.words = np.empty((8, cells), np.int64)
        self.flags = np.empty((3, cells), bool)
        self.wide = np.empty(64 * cells, np.uint8)

    def rows(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The int64 and float64 views of ``words`` and the ``flags``, m cells wide."""
        words = self.words[:, :m]
        return words, words.view(np.float64), self.flags[:, :m]

    def wide_rows(self, m: int, dtype, width: int, offset: int = 0) -> np.ndarray:
        """(m, width) items of ``dtype`` from ``wide``, ``offset`` bytes in."""
        size = m * width * np.dtype(dtype).itemsize
        return self.wide[offset : offset + size].view(dtype).reshape(m, width)


def _scaled(a: np.ndarray, p: np.ndarray, ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo of a·10**p, in rows 4 and 5 of ws; p (row 1 or its own) is overwritten."""
    m = a.size
    _, f, _ = ws.rows(m)
    first, last = int(p.min()), int(p.max())
    table = np.array([_power(q) for q in range(first, last + 1)])
    np.subtract(p, first, out=p)
    powers = ws.wide_rows(m, np.float64, 4)
    np.take(table, p, axis=0, out=powers, mode="clip")
    ph, ph1, ph2, pl = powers.T
    a1, a2, hi, lo, term = f[2], f[3], f[4], f[5], f[6]
    np.multiply(a, _SPLIT, out=a1)  # c
    np.subtract(a1, a, out=a2)  # c - a
    np.subtract(a1, a2, out=a1)
    np.subtract(a, a1, out=a2)
    np.multiply(a, ph, out=hi)
    # lo = (((a1·ph1 - hi) + a1·ph2) + a2·ph1) + a2·ph2
    np.multiply(a1, ph1, out=lo)
    np.subtract(lo, hi, out=lo)
    for u, v in ((a1, ph2), (a2, ph1), (a2, ph2)):
        np.multiply(u, v, out=term)
        np.add(lo, term, out=lo)
    if first < 0 or last > 22:  # some 10**p is no double
        np.multiply(a, pl, out=term)
        np.add(lo, term, out=lo)
    return hi, lo


def _significands(a: np.ndarray, ws: _Workspace | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D, X and the cells to leave to Python, for 1e-280 <= a < 1e300.

    Into rows 1 and 0 and flags row 1 of ``ws`` (by default one of a's
    size); rows 2-6, flags row 2 and ``wide`` are scratch.
    """
    m = a.size
    ws = ws or _Workspace(m)
    i, f, b = ws.rows(m)
    x, p = i[0], i[1]
    np.log10(a, out=f[2])
    np.floor(f[2], out=f[2])
    x[...] = f[2]
    np.subtract(16, x, out=p)
    hi, lo = _scaled(a, p, ws)
    # log10 can miss by one next to a power of ten: move V into [1e16, 1e17).
    np.less_equal(hi, 1e16, out=b[1])
    np.greater_equal(hi, 1e17, out=b[2])
    np.logical_or(b[1], b[2], out=b[1])
    near = np.flatnonzero(b[1])
    if near.size:
        h, l = hi[near], lo[near]
        x[near] += ((h - 1e17) + l >= 0).astype(np.int64) - ((h - 1e16) + l < 0)
        hi[near], lo[near] = _scaled(a[near], 16 - x[near], _Workspace(near.size))
    rounded, gap, unsure = f[2], f[3], b[1]
    np.rint(lo, out=rounded)
    np.greater(x, 16, out=unsure)
    np.less(x, -6, out=b[2])
    np.logical_or(unsure, b[2], out=unsure)
    np.subtract(lo, rounded, out=gap)
    np.abs(gap, out=gap)
    np.greater(gap, 0.5 - _TIE_GUARD, out=b[2])
    np.logical_and(unsure, b[2], out=unsure)
    d, carry = i[1], b[2]
    d[...] = hi
    i[6] = rounded
    np.add(d, i[6], out=d)
    np.equal(d, 10**17, out=carry)
    np.copyto(d, 10**16, where=carry)
    np.add(x, carry, out=x)
    return d, x, unsure


def _chunk_text(cells: np.ndarray, ws: _Workspace) -> str:
    """Text of consecutive cells, laid out in the table's workspace."""
    m = cells.size
    i, f, b = ws.rows(m)
    # vector: the cells numpy writes; the others read 2.0 meanwhile.
    a, vector = f[7], b[0]
    np.abs(cells, out=a)
    np.greater_equal(a, 1e-280, out=vector)
    np.less(a, 1e300, out=b[1])
    np.logical_and(vector, b[1], out=vector)
    np.logical_not(vector, out=b[1])
    np.copyto(a, 2.0, where=b[1])
    d, x, unsure = _significands(a, ws)
    # x becomes the layout code: the exponent, or _ZERO, or _PYTHON.
    np.logical_not(unsure, out=unsure)
    np.logical_and(vector, unsure, out=vector)
    np.logical_not(vector, out=b[1])
    np.copyto(x, _PYTHON, where=b[1])
    np.equal(cells, 0.0, out=b[2])
    np.logical_and(b[1], b[2], out=b[2])
    np.copyto(x, _ZERO, where=b[2])

    # The sign, the leading digit and four 4-digit groups of D into the rows.
    cell = ws.cell[:m]
    np.signbit(cells, out=b[1])
    np.multiply(b[1], np.uint8(ord("-")), out=cell["sign"])
    top, low, lead, mid, flagged = i[2], i[3], i[4], i[5], b[1]
    np.floor_divide(d, 10**8, out=top)
    np.multiply(top, 10**8, out=low)
    np.subtract(d, low, out=low)
    np.floor_divide(top, 10**8, out=lead)
    np.multiply(lead, 10**8, out=mid)
    np.subtract(top, mid, out=mid)
    np.add(lead, 48, out=lead)
    cell["lead"] = lead
    groups = ws.wide_rows(m, np.int64, 4)
    g1, g2, g3, g4 = groups.T
    for upper, lower, whole in ((g1, g2, mid), (g3, g4, low)):
        np.floor_divide(whole, 10**4, out=upper)
        np.multiply(upper, 10**4, out=lower)
        np.subtract(whole, lower, out=lower)
    # A 4-digit group keeps its trailing zeros when a later digit is nonzero:
    # its index moves past the 10000 stripped ones.
    np.bitwise_or(g2, low, out=top)
    for group, later in ((g1, top), (g2, low), (g3, g4)):
        np.not_equal(later, 0, out=flagged)
        np.add(group, 10000, out=group, where=flagged)
    ascii = ws.wide_rows(m, np.uint32, 4, offset=32 * m)
    np.take(_quads(), groups, out=ascii, mode="clip")
    cell["quads"] = ascii.view("V16").ravel()

    # The text: each row through its code's three masks.
    keep, fill, shift = _layouts()
    code = x
    np.subtract(x, _X_MIN, out=code)
    data = ws.cell.view(np.uint8)
    text, mask = ws.wide_rows(m, np.uint8, _WIDTH).ravel(), ws.wide_rows(m, np.uint8, _WIDTH, 32 * m).ravel()
    np.take(keep, code, out=text.view(keep.dtype), mode="clip")
    np.minimum(data[1 : 1 + m * _WIDTH], text, out=text)
    np.take(fill, code, out=mask.view(fill.dtype), mode="clip")
    np.bitwise_or(text, mask, out=text)
    np.take(shift, code, out=mask.view(shift.dtype), mode="clip")
    np.bitwise_and(mask, data[: m * _WIDTH], out=mask)
    np.bitwise_or(text, mask, out=text)
    out = text.tobytes().translate(None, b"\0").decode("ascii")
    if _PYTHON_MARK not in out:
        return out
    python = ["%.17g" % v for v in cells[code == _PYTHON - _X_MIN].tolist()]
    return "".join(p + q for p, q in zip(out.split(_PYTHON_MARK), python + [""]))


def csv_chunks(header: Sequence[str], table: np.ndarray) -> Iterator[str]:
    """The header line, then the 2-D table's rows, in chunks of whole rows."""
    yield ",".join(header) + "\n"
    table = np.ascontiguousarray(table, np.float64)
    rows, cols = table.shape
    step = max(1, _CHUNK_CELLS // cols)
    ws = _Workspace(min(rows, step) * cols)
    seps = ws.cell.view(np.uint8)[1 + _SEP_SLOT : -_WIDTH : _WIDTH]
    seps[:] = ord(",")
    seps[cols - 1 :: cols] = ord("\n")
    for start in range(0, rows, step):
        yield _chunk_text(table[start : start + step].ravel(), ws)
