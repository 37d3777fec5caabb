"""CSV rows of float64 columns, each cell exactly ``'%.17g' % v``, written a
block of rows at a time.

The digits.  For a finite v with 1e-4 <= |v| < 1e17 and decimal exponent X,
'%.17g' prints the 17-digit integer D = round(|v| 10^(16 - X)), correctly
rounded with ties to even, in fixed notation with trailing zeros dropped.
Here y = |v| 10^(16 - X) is one long-double product of two doubles:
10^k is an exact double for k <= 22, and 16 - X <= 21.  With a 64-bit
mantissa the product is rounded to nearest, which is monotone and leaves
every long double where it is; every half-integer below 2^57 > 10^17 is a
long double, so the computed y lies on the same side of each half-integer
as the exact y, or on it.  The computed y thus rounds to D unless it
lands exactly on a half-integer; those values, exact ties among them,
are left to Python.  The product is taken as y 2^7 (2^7 10^k is exact
too) and truncated to an integer Y: D is (Y + 64) >> 7, and y is on a
half-integer where Y mod 128 is 64 and y 2^7 = Y.  X starts as
floor(log10|v|), which may be off by one next to a power of ten; there,
comparing y with the exact 10^16 and 10^17 fixes it before y is formed
again.  Rounding never carries y up to 10^17: below each power of ten
from 10^-4 to 10^17, the nearest double is at least 8 units of y away
(tests/test_csv.py checks this).

The bytes.  D splits into 4-digit groups that a table turns into ASCII,
packed little-endian into three 64-bit words per cell, so that shifting
the words moves the characters.  Each layout (separator, sign, X in
[-4, 16], significant digit count) has one row in each of four tables:
the shift that moves the digits after the decimal point into place
(those before it go one byte lower), the masks that keep each part, and
the constant bytes ('-', '0.', '.', the separator).  A cell starts its
slot and zero bytes fill the rest, which are dropped when the block is
joined.

Every other value goes through Python's '%' in one batch per block: those
on a half-integer, X outside [-4, 16] (scientific notation), +-0, inf
and nan, and every value where long double has fewer than 64 mantissa bits
or the byte order is big-endian.
"""

from __future__ import annotations

import io
import sys

import numpy as np

BLOCK_ROWS = 4096
_FAST = np.finfo(np.longdouble).nmant >= 63 and sys.byteorder == "little"

_X_MIN, _X_MAX = -4, 16  # the exponents '%.17g' prints in fixed notation
_NX = _X_MAX - _X_MIN + 1
_SEPS = b",\n"  # between cells, after the last cell of a row
_WORDS = 3  # 64-bit words of a fast cell: at most 23 bytes and the separator

# 2^7 10^k for k = 0..21: exact as doubles, and so as long doubles
_P10_128 = np.array([float(128 * 10**k) for k in range(22)]).astype(np.longdouble)

_GROUP = np.arange(10_000)
# ASCII of a 4-digit group, first digit in the low byte, for the low and
# for the high half of a word
_ASCII4 = sum((_GROUP // 10 ** (3 - i) % 10 + ord("0")) << (8 * i) for i in range(4)).astype(np.uint64)
_ASCII4_HI = _ASCII4 << np.uint64(32)
_ZEROS7 = int.from_bytes(b"0000000", "little")
# trailing zero digits of a 4-digit group (4 for 0)
_TZ4 = sum((_GROUP % 10**i == 0).astype(np.intp) for i in range(1, 5))


def _layout_tables():
    """Per layout (separator, sign, X, significant digits s), in this index
    order: the right shift (in bits) that moves the digits after the
    decimal point (B) into place, the keep masks of the digits before it
    (A, which sit one byte lower) and of B, and the constant bytes, the
    last three as 3 x layouts words.  The digit words hold seven '0'
    characters and then the 17 digits, so digit i sits at byte 7 + i."""
    X, s = (a[..., None] for a in np.meshgrid(np.arange(_X_MIN, _X_MAX + 1), np.arange(1, 18), indexing="ij"))
    pos = np.arange(8 * _WORDS)
    fixed = X >= 0
    k = np.where(fixed, X + 1, 0)  # digits before the point
    z = np.where(fixed, 0, -X - 1)  # zeros between "0." and the digits
    has_dot = ~fixed | (s > k)
    b_lo = np.where(fixed, k + 1, 2)  # the bytes of B
    b_hi = np.where(fixed, s + 1, 2 + z + s)
    keep_a = (pos < k).astype(np.uint8) * np.uint8(0xFF)
    keep_b = ((pos >= b_lo) & (pos < b_hi)).astype(np.uint8) * np.uint8(0xFF)
    const = np.select(
        [pos == np.where(has_dot, b_hi, k), (pos == 0) & ~fixed, (pos == b_lo - 1) & has_dot],
        [ord(","), ord("0"), ord(".")],
    ).astype(np.uint8)
    neg = np.arange(2)[:, None, None]
    shift_b = np.where(fixed, 48, 40 - 8 * z)[..., 0] - 8 * neg

    def signed(b):  # a sign takes byte 0 and moves the others up by one
        return np.stack([b, np.concatenate([np.zeros_like(b[..., :1]), b[..., :-1]], axis=-1)])

    keep_a, keep_b, const = signed(keep_a), signed(keep_b), signed(const)
    const[1, ..., 0] = ord("-")
    const = np.stack([const, np.where(const == ord(","), ord("\n"), const)])  # the last cell of a row
    shape = (2, 2, _NX, 17)

    def words(b):
        b = np.ascontiguousarray(np.broadcast_to(b, shape + (8 * _WORDS,)))
        return np.ascontiguousarray(b.reshape(-1, 8 * _WORDS).view("<u8").T)

    shift_b = np.broadcast_to(shift_b, shape).ravel().astype(np.uint64)
    return shift_b, words(keep_a), words(keep_b), words(const)


_SHIFT_B, _KEEP_A, _KEEP_B, _CONST = _layout_tables()


def _fast(v: np.ndarray, last: np.ndarray):
    """(cells, ok): each cell of v in its fixed-point layout, a row of three
    words (last is 1 where a cell ends its row), and where that is exact
    (elsewhere the words are meaningless)."""
    a = np.abs(v)
    ok = (a >= 9e-5) & (a < 1e17)
    a[~ok] = 3.0  # any value off a power of ten
    lg = np.log10(a)
    X = np.floor(lg).astype(np.int64)
    edge = np.flatnonzero(np.abs(np.rint(lg) - lg) < 1e-9)
    y = a.astype(np.longdouble)
    if edge.size:  # log10 may have rounded across a power of ten
        Xe = np.clip(X[edge], -5, 16)  # 17 where log10 rounded up to it
        ye = y[edge] * _P10_128[16 - Xe]
        X[edge] = Xe + (ye >= 128e17) - (ye < 128e16)
    y *= _P10_128.take(16 - X, mode="clip")  # y 2^7
    Y = y.astype(np.uint64)  # truncated
    half = np.flatnonzero(Y & np.uint64(127) == 64)
    ok[half[y[half] == Y[half]]] = False  # y on a half-integer
    # below 10^17: no carry (see the module docstring)
    D = ((Y + np.uint64(64)) >> np.uint64(7)).view(np.int64)
    ok &= X >= _X_MIN
    X[~ok] = 0

    hi = D // 10**8
    g1 = hi // 10**8
    e = np.stack([hi - g1 * 10**8, D - hi * 10**8])  # digits 1-8 and 9-16
    g_hi = e // 10**4
    g_lo = e - g_hi * 10**4
    d0 = (g1 + ord("0")).view(np.uint64) << np.uint64(56) | np.uint64(_ZEROS7)
    d = np.concatenate([d0[None], _ASCII4.take(g_hi, mode="clip") | _ASCII4_HI.take(g_lo, mode="clip")])

    # layout index: a positive cell with X = 0 and 17 digits, then the
    # separator, the sign and X
    lay = (-_X_MIN * 17 + 16) + last * (2 * _NX * 17) + np.signbit(v) * (_NX * 17) + X * 17
    # one layout per trailing zero digit (g1 >= 1, so at most 16)
    rest = np.flatnonzero(d[2] >> np.uint64(56) == ord("0"))
    for g in (g_lo[1], g_hi[1], g_lo[0], g_hi[0]):
        if not rest.size:
            break
        gr = g[rest]
        lay[rest] -= _TZ4[gr]
        rest = rest[gr == 0]

    # the three words of a cell shift as one little-endian integer, so
    # the characters move t/8 bytes down (8 <= t <= 48)
    t = _SHIFT_B.take(lay, mode="clip")
    B = d >> t
    B[:-1] |= d[1:] << (np.uint64(64) - t)
    A = B >> np.uint64(8)
    A[:-1] |= B[1:] << np.uint64(56)
    cells = A & _KEEP_A.take(lay, axis=1, mode="clip")
    cells |= B & _KEEP_B.take(lay, axis=1, mode="clip")
    cells |= _CONST.take(lay, axis=1, mode="clip")
    return np.stack(cells, axis=1), ok  # a cell's words side by side: cheaper than a strided tobytes


def write_rows(fp, cols, blank=None) -> None:
    """Write CSV rows to fp, one per index of the equal-length float64
    columns cols, each cell exactly ``'%.17g' % v``; cells where the
    boolean array blank (broadcast to rows x columns) is True stay empty.
    fp may be a binary or a text stream.  Rows go out BLOCK_ROWS at a time,
    so only one block is ever held as text."""
    cols = [np.asarray(c, dtype=np.float64) for c in cols]
    nrows, ncols = cols[0].size, len(cols)
    if blank is not None:
        blank = np.broadcast_to(blank, (nrows, ncols))
    as_text = isinstance(fp, io.TextIOBase)
    fmts = (b"%.17g,", b"%.17g\n")
    last = np.tile(np.arange(ncols) == ncols - 1, min(nrows, BLOCK_ROWS)).astype(np.intp)  # ends a row
    for lo in range(0, nrows, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, nrows)
        v = np.stack([c[lo:hi] for c in cols], axis=1).ravel()
        if _FAST:
            with np.errstate(all="ignore"):
                cells, ok = _fast(v, last[: v.size])
        else:
            cells, ok = np.zeros((v.size, _WORDS), dtype="<u8"), np.zeros(v.size, dtype=bool)
        empty = np.flatnonzero(blank[lo:hi]) if blank is not None else np.zeros(0, dtype=np.intp)
        ok[empty] = True
        slow = np.flatnonzero(~ok)
        if slow.size:
            text = [fmts[e] % x for x, e in zip(v[slow].tolist(), last[slow].tolist())]
            width = -(-max(map(len, text)) // 8)
            if width > _WORDS:  # a 24-byte '-d.dddddddddddddddde-ddd' and its separator
                cells = np.hstack([cells, np.zeros((v.size, width - _WORDS), dtype=cells.dtype)])
            cells[slow] = np.array(text, dtype=f"S{8 * cells.shape[1]}").view("<u8").reshape(slow.size, -1)
        if empty.size:
            cells[empty] = 0
            cells[empty, 0] = np.frombuffer(_SEPS, dtype=np.uint8)[last[empty]]
        data = cells.tobytes().translate(None, b"\0")
        fp.write(data.decode("ascii") if as_text else data)
