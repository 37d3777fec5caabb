"""Truncated power series at the origin and the arithmetic the generator needs.

Coefficients are stored in ascending order, ``coeffs[k]`` multiplying z**k.
Binary operations truncate to the shorter operand.  Every recurrence used
here (Cauchy product, reciprocal, exponential, antiderivative) is lower
triangular in the coefficients, so the coefficients that survive truncation
are exact; truncation only ever removes high-order terms.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import RadiusExceeded, TruncationTail
from .grid import GridSpec

MIN_ORDER = 3
# the generation order of the library and the CLI: a check over the default
# grid (r <= 0.9) sees ~1e-9 of truncation in the slacks and reads Convex
DEFAULT_ORDER = 384
DEFAULT_RMAX = 0.9
TAIL_REPORT_BAR = 1e-10
# points on the circle |z| = rmax (outer grid rings) may land this far outside
RADIUS_SLACK = 1e-12
# eval_table's running products beat Horner on batches of at most twice as
# many points as coefficients at every order from 8 to 1024 (at that size
# 1.1x at order 8 and at least 1.8x from order 12 up; 8x on 41 points at
# order 192; orders 3 and 4 lose a few microseconds); the entry cap keeps
# their matrix of powers within 1 MB, so no batch over 362 points and no
# grid takes them
RUNNING_PRODUCT_ENTRIES = 1 << 16
# eval_grid's powers of r below this become zero, clear of the subnormals
POWER_FLOOR = 1e-290


def _as_coeffs(values) -> np.ndarray:
    c = np.asarray(values, dtype=complex).ravel()
    if c.size == 0:
        c = np.zeros(1, dtype=complex)
    if not np.all(np.isfinite(c)):
        raise ValueError("series coefficients must be finite")
    if c.size < MIN_ORDER + 1:
        # a third-order jet must always be evaluable
        c = np.concatenate([c, np.zeros(MIN_ORDER + 1 - c.size, dtype=complex)])
    return c


@dataclass(frozen=True)
class PowerSeries:
    """Taylor coefficients at 0 plus the radius within which they are trusted;
    ``phi``, set by ``maps._herglotz_series`` alone, is the generator it was
    integrated from, or None.  Equal series have equal coeffs, rmax and phi."""

    coeffs: np.ndarray
    rmax: float = DEFAULT_RMAX
    phi: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.coeffs))
        rmax = float(self.rmax)
        if not 0.0 < rmax < 1.0:
            raise ValueError(f"rmax must lie in (0, 1), got {rmax}")
        object.__setattr__(self, "rmax", rmax)

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.rmax == other.rmax and self.phi == other.phi and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        # Python complex, so that 0.0 and -0.0, which compare equal, hash alike
        return hash((tuple(self.coeffs.tolist()), self.rmax, self.phi))

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @functools.cached_property
    def table(self) -> np.ndarray:
        """derivative_table(coeffs), built on first use and kept; the
        intermediate series of a recurrence never build it."""
        return derivative_table(self.coeffs)

    def tail_bound(self) -> float:
        """One-term geometric tail estimate |c_M| rmax**M."""
        return float(abs(self.coeffs[-1]) * self.rmax ** self.order)

    def warn_if_tail_large(self, stacklevel: int = 2) -> float:
        """Warn with TruncationTail if the tail at rmax exceeds TAIL_REPORT_BAR,
        at ``warnings.warn``'s stacklevel counted from this method (2 names
        its caller)."""
        tail = self.tail_bound()
        if tail > TAIL_REPORT_BAR:
            warnings.warn(
                f"series tail estimate {tail:.3e} at r = {self.rmax:g} exceeds "
                f"{TAIL_REPORT_BAR:.0e}; raise the order or shrink rmax",
                TruncationTail,
                stacklevel=stacklevel,
            )
        return tail


def series_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product, truncated to the shorter operand."""
    n = min(a.coeffs.size, b.coeffs.size)
    prod = np.convolve(a.coeffs[:n], b.coeffs[:n])[:n]
    return PowerSeries(prod, min(a.rmax, b.rmax))


def series_inv(a: PowerSeries) -> PowerSeries:
    """Reciprocal series; the constant term must be nonzero."""
    c = a.coeffs
    if c[0] == 0:
        raise ZeroDivisionError("cannot invert a series with zero constant term")
    b = np.zeros_like(c)
    b[0] = 1.0 / c[0]
    for m in range(1, c.size):
        # sum_{k=0..m} c_k b_{m-k} = 0
        b[m] = -np.dot(c[1 : m + 1], b[m - 1 :: -1][:m]) / c[0]
    return PowerSeries(b, a.rmax)


def series_exp(a: PowerSeries) -> PowerSeries:
    """exp of a series via the first-order recurrence (exp a)' = a' exp a."""
    c = a.coeffs
    b = np.zeros_like(c)
    b[0] = np.exp(c[0])
    ka = np.arange(c.size) * c  # k * a_k
    for m in range(1, c.size):
        b[m] = np.dot(ka[1 : m + 1], b[m - 1 :: -1][:m]) / m
    return PowerSeries(b, a.rmax)


def series_integrate(a: PowerSeries, c0: complex = 0.0, cap: int | None = None) -> PowerSeries:
    """Termwise antiderivative with constant term c0, optionally capped at order ``cap``."""
    k = np.arange(1, a.coeffs.size + 1)
    out = np.concatenate([[complex(c0)], a.coeffs / k])
    if cap is not None and out.size > cap + 1:
        out = out[: cap + 1]
    return PowerSeries(out, a.rmax)


def derivative_table(coeffs: np.ndarray) -> np.ndarray:
    """Stacked coefficient columns for f, f', f'', f''', zero padded.

    Column j holds the coefficients of the j-th derivative, so one Horner
    pass (``numpy.polynomial.polynomial.polyval``) evaluates the whole jet.
    """
    c = np.asarray(coeffs, dtype=complex)
    table = np.zeros((c.size, 4), dtype=complex)
    table[:, 0] = c
    for j in range(1, 4):
        k = np.arange(1, c.size - j + 1)
        table[: k.size, j] = table[1 : k.size + 1, j - 1] * k
    return table


def _takes_products(size: int, rows: int) -> bool:
    """Whether ``eval_table`` takes running products for a batch of this
    many points on a table of this many rows (see its docstring)."""
    return size <= 2 * rows and size * rows <= RUNNING_PRODUCT_ENTRIES


def eval_table(table: np.ndarray, z: np.ndarray):
    """Evaluate every column of the stacked polynomials at array z.

    A batch of at most twice as many points as the table has rows and at
    most RUNNING_PRODUCT_ENTRIES entries in its matrix of powers takes the
    running products of 1, z, z**2, ... of ``point_columns`` and one matrix
    product over all columns; other arrays use Horner, each column to the
    same bits whatever the other columns of the table.
    """
    n = table.shape[0]
    if not _takes_products(z.size, n):
        return tuple(npoly.polyval(z, table))
    powers = np.empty(z.shape + (n,), dtype=complex)
    powers[..., 0] = 1.0
    powers[..., 1:] = z[..., None]
    np.multiply.accumulate(powers, axis=-1, out=powers)  # cumprod without a copy
    return tuple(np.moveaxis(powers @ table, -1, 0))


def point_columns(table: np.ndarray, z) -> list:
    """Every column of the stacked polynomials at one point z as Python complex:
    running products in a fresh (so reentrant) buffer, one product with the table."""
    powers = np.empty(table.shape[0], dtype=complex)
    powers.fill(z)
    powers[0] = 1.0
    np.multiply.accumulate(powers, out=powers)  # cumprod without a copy
    return (powers @ table).tolist()


def eval_grid(table: np.ndarray, grid: GridSpec):
    """Evaluate every column of the stacked polynomials over the points of a
    polar grid, in ``GridSpec.points`` order, with one inverse FFT per ring.

    With N = ntheta, column c at the point r w**j (w = e^{2 pi i/N}) is
    sum_m r**m a_m w**(j m), where a_m = sum_q table[q N + m, c] (r**N)**q
    folds the rows mod N.  The folds of all rings are one real matrix
    product, and no temporary outgrows the result.  Powers of r below
    POWER_FLOOR become zero: subnormal factors can slow arithmetic down many
    times over, and they weigh nothing against the terms that are kept.
    """
    rows, cols = table.shape
    N = grid.ntheta
    Q = -(-rows // N)
    r = grid.radii()
    folded = np.zeros((cols, Q * N), dtype=complex)
    folded[:, :rows] = table.T
    angle_powers = r[:, None] ** np.arange(N)
    angle_powers[angle_powers < POWER_FLOOR] = 0.0
    ring_powers = r[:, None] ** (N * np.arange(Q))
    ring_powers[ring_powers < POWER_FLOOR] = 0.0
    # per column a real (nr, Q) @ (Q, 2N) product over (re, im) pairs
    folds = np.matmul(ring_powers, folded.view(float).reshape(cols, Q, 2 * N)).view(complex)
    folds *= angle_powers
    vals = np.fft.ifft(folds, axis=-1, norm="forward")
    return tuple(v.reshape(-1) for v in vals)


def in_radius(s: PowerSeries, z):
    """Whether the series is certified at z: |z| <= rmax + RADIUS_SLACK, a
    bool at a Python complex z and a mask over an array."""
    return abs(z) <= s.rmax + RADIUS_SLACK


def certify(s: PowerSeries, worst: float) -> None:
    """Raise RadiusExceeded unless ``in_radius`` holds at |z| = worst."""
    if not in_radius(s, worst):
        raise RadiusExceeded(f"|z| = {worst:.6g} exceeds the certified radius {s.rmax:g}")


def series_jet_fields(s: PowerSeries, z, count: int = 3):
    """(f, f', ..., f^(count)) of the series at array z, or over the points
    of a GridSpec through ``eval_grid``, with f as a callable as
    ``maps._jets`` returns it; count 0 gives f alone.  The running products
    give f with the derivatives; Horner and the grid route evaluate only the
    derivatives until f is called, and count 0 evaluates nothing until then.

    Points outside ``in_radius`` raise RadiusExceeded.
    """
    certify(s, z.rmax if isinstance(z, GridSpec) else float(np.abs(z).max(initial=0.0)))
    table = s.table
    if isinstance(z, GridSpec):
        columns = lambda a, b: eval_grid(table[:, a:b], z)
    elif _takes_products(z.size, table.shape[0]):
        jet = functools.cache(lambda: eval_table(table, z))  # one product gives every column
        columns = lambda a, b: jet()[a:b]
    else:
        columns = lambda a, b: eval_table(table[:, a:b], z)
    return (lambda: columns(0, 1)[0], *(columns(1, count + 1) if count else ()))
