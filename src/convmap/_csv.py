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


class _BlockFormatter:
    """Formats blocks of rows x ncols cells.  The work arrays are allocated
    once and reused for every block: fresh temporaries of a block's size
    would be paged in again for each one."""

    def __init__(self, rows: int, ncols: int):
        n = rows * ncols
        last = np.zeros(ncols, dtype=np.intp)
        last[-1] = 1
        self.last = np.tile(last, rows)
        # layout index of a positive cell with X = 0 and 17 digits
        self.lay_base = self.last * (2 * _NX * 17) + (-_X_MIN * 17 + 16)
        self.a, self.lg, self.f = np.empty((3, n))
        self.y, self.p = np.empty((2, n), dtype=np.longdouble)
        self.X, self.D, self.hi, self.g1, self.lay, self.i = np.empty((6, n), dtype=np.int64)
        self.Y, self.u, self.t = np.empty((3, n), dtype=np.uint64)
        self.eight, self.g_hi, self.g_lo = np.empty((3, 2, n), dtype=np.int64)
        self.digits, self.A, self.B, self.K = np.empty((4, _WORDS, n), dtype=np.uint64)
        self.ok, self.b = np.empty((2, n), dtype=bool)
        self.cells = np.empty((n, _WORDS), dtype=np.uint64)

    def _fast(self, v: np.ndarray) -> np.ndarray:
        """Writes the fixed-point layout of each cell of v into self.cells;
        returns where it is exact (elsewhere the words are meaningless)."""
        a, lg, f, X, ok, b = self.a, self.lg, self.f, self.X, self.ok, self.b
        np.abs(v, out=a)
        np.greater_equal(a, 9e-5, out=ok)
        np.less(a, 1e17, out=b)
        ok &= b
        np.copyto(a, 3.0, where=~ok)  # any value off a power of ten
        np.log10(a, out=lg)
        np.floor(lg, out=f)
        np.copyto(X, f, casting="unsafe")
        np.rint(lg, out=f)
        f -= lg
        np.abs(f, out=f)
        np.less(f, 1e-9, out=b)
        edge = np.flatnonzero(b)
        y, Y, u, D = self.y, self.Y, self.u, self.D.view(np.uint64)
        np.copyto(y, a)
        if edge.size:  # log10 may have rounded across a power of ten
            Xe = np.clip(X[edge], -5, 16)  # 17 where log10 rounded up to it
            ye = y[edge] * _P10_128[16 - Xe]
            X[edge] = Xe + (ye >= 128e17) - (ye < 128e16)
        np.subtract(16, X, out=self.i)
        np.take(_P10_128, self.i, out=self.p, mode="clip")
        y *= self.p  # y 2^7
        np.copyto(Y, y, casting="unsafe")  # truncated
        np.bitwise_and(Y, np.uint64(127), out=u)
        np.equal(u, 64, out=b)
        half = np.flatnonzero(b)
        ok[half[y[half] == Y[half]]] = False  # y on a half-integer
        np.add(Y, 64, out=D)
        D >>= np.uint64(7)  # below 10^17: no carry (see the module docstring)
        D = self.D
        np.greater_equal(X, _X_MIN, out=b)
        ok &= b
        np.copyto(X, 0, where=~ok)

        hi, g1, e, g_hi, g_lo, d = self.hi, self.g1, self.eight, self.g_hi, self.g_lo, self.digits
        np.floor_divide(D, 10**8, out=hi)
        np.floor_divide(hi, 10**8, out=g1)
        np.multiply(g1, 10**8, out=e[0])
        np.subtract(hi, e[0], out=e[0])  # digits 1-8
        np.multiply(hi, 10**8, out=e[1])
        np.subtract(D, e[1], out=e[1])  # digits 9-16
        np.floor_divide(e, 10**4, out=g_hi)
        np.multiply(g_hi, 10**4, out=g_lo)
        np.subtract(e, g_lo, out=g_lo)
        np.take(_ASCII4, g_hi, out=d[1:], mode="clip")
        np.take(_ASCII4_HI, g_lo, out=self.K[1:], mode="clip")
        d[1:] |= self.K[1:]
        np.add(g1, ord("0"), out=d[0], casting="unsafe")
        d[0] <<= np.uint64(56)
        d[0] |= np.uint64(_ZEROS7)

        lay = self.lay
        np.signbit(v, out=b)
        np.multiply(b, _NX * 17, out=lay)
        lay += self.lay_base
        np.multiply(X, 17, out=self.i)
        lay += self.i
        # one layout per trailing zero digit (g1 >= 1, so at most 16)
        np.right_shift(d[2], np.uint64(56), out=u)
        np.equal(u, ord("0"), out=b)
        rest = np.flatnonzero(b)
        for g in (g_lo[1], g_hi[1], g_lo[0], g_hi[0]):
            if not rest.size:
                break
            gr = g[rest]
            lay[rest] -= _TZ4[gr]
            rest = rest[gr == 0]

        # the three words of a cell shift as one little-endian integer, so
        # the characters move t/8 bytes down (8 <= t <= 48)
        A, B, K, t = self.A, self.B, self.K, self.t
        np.take(_SHIFT_B, lay, out=t, mode="clip")
        np.right_shift(d, t, out=B)
        np.subtract(64, t, out=t)
        np.left_shift(d[1:], t, out=K[1:])
        B[:-1] |= K[1:]
        np.right_shift(B, np.uint64(8), out=A)
        np.left_shift(B[1:], np.uint64(56), out=K[1:])
        A[:-1] |= K[1:]
        np.take(_KEEP_A, lay, axis=1, out=K, mode="clip")
        A &= K
        np.take(_KEEP_B, lay, axis=1, out=K, mode="clip")
        B &= K
        A |= B
        np.take(_CONST, lay, axis=1, out=K, mode="clip")
        np.bitwise_or(A, K, out=self.cells.T)
        return ok

    def format(self, block: np.ndarray, blank: np.ndarray | None) -> bytes:
        """The CSV bytes of the rows of a float64 block; the cells where the
        flat mask blank is True stay empty."""
        v, last, cells = block.ravel(), self.last, self.cells
        if _FAST:
            with np.errstate(all="ignore"):
                ok = self._fast(v)
        else:
            ok = np.zeros(v.size, dtype=bool)
        empty = np.flatnonzero(blank) if blank is not None else np.zeros(0, dtype=np.intp)
        ok[empty] = True
        slow = np.flatnonzero(~ok)
        if slow.size:
            fmts = (b"%.17g,", b"%.17g\n")
            text = [fmts[e] % x for x, e in zip(v[slow].tolist(), last[slow].tolist())]
            width = -(-max(map(len, text)) // 8)
            if width > _WORDS:  # a 24-byte '-d.dddddddddddddddde-ddd' and its separator
                cells = np.hstack([cells, np.zeros((v.size, width - _WORDS), dtype=np.uint64)])
            cells[slow] = np.array(text, dtype=f"S{8 * cells.shape[1]}").view("<u8").reshape(slow.size, -1)
        if empty.size:
            cells[empty] = 0
            cells[empty, 0] = np.frombuffer(_SEPS, dtype=np.uint8)[last[empty]]
        return cells.tobytes().translate(None, b"\0")


def write_rows(fp, cols, blank=None) -> None:
    """Write CSV rows to fp, one per index of the equal-length float64
    columns cols, each cell exactly ``'%.17g' % v``; cells where the
    boolean array blank (broadcast to rows x columns) is True stay empty.
    fp may be a binary or a text stream.  Rows go out BLOCK_ROWS at a time,
    so only one block is ever held as text."""
    cols = [np.asarray(c, dtype=np.float64) for c in cols]
    nrows = cols[0].size
    if blank is not None:
        blank = np.broadcast_to(blank, (nrows, len(cols)))
    text = isinstance(fp, io.TextIOBase)
    formatter = None
    for lo in range(0, nrows, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, nrows)
        if formatter is None or hi - lo != BLOCK_ROWS:
            formatter = _BlockFormatter(hi - lo, len(cols))
        block = np.stack([c[lo:hi] for c in cols], axis=1)
        data = formatter.format(block, None if blank is None else blank[lo:hi].ravel())
        fp.write(data.decode("ascii") if text else data)
