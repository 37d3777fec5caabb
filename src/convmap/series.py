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
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import RadiusExceeded, TruncationTail
from .jet import Jet

MIN_ORDER = 3
DEFAULT_ORDER = 64
DEFAULT_RMAX = 0.9
TAIL_REPORT_BAR = 1e-10
# points on the circle |z| = rmax (outer grid rings) may land this far outside
RADIUS_SLACK = 1e-12


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
    """Taylor coefficients at 0 plus the radius within which they are trusted."""

    coeffs: np.ndarray
    rmax: float = DEFAULT_RMAX

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.coeffs))
        rmax = float(self.rmax)
        if not 0.0 < rmax < 1.0:
            raise ValueError(f"rmax must lie in (0, 1), got {rmax}")
        object.__setattr__(self, "rmax", rmax)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @functools.cached_property
    def table(self) -> np.ndarray:
        """derivative_table(coeffs), built on first use and kept; the
        intermediate series of a recurrence never build it."""
        return derivative_table(self.coeffs)

    def tail_bound(self, r: float | None = None) -> float:
        """One-term geometric tail estimate |c_M| r**M (default r = rmax)."""
        r = self.rmax if r is None else float(r)
        return float(abs(self.coeffs[-1]) * r ** self.order)

    def warn_if_tail_large(self) -> float:
        tail = self.tail_bound()
        if tail > TAIL_REPORT_BAR:
            warnings.warn(
                f"series tail estimate {tail:.3e} at r = {self.rmax:g} exceeds "
                f"{TAIL_REPORT_BAR:.0e}; raise the order or shrink rmax",
                TruncationTail,
                stacklevel=3,
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


def series_derive(a: PowerSeries) -> PowerSeries:
    k = np.arange(1, a.coeffs.size)
    return PowerSeries(a.coeffs[1:] * k, a.rmax)


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
    rows = [np.asarray(coeffs, dtype=complex)]
    for _ in range(3):
        c = rows[-1]
        if c.size > 1:
            rows.append(c[1:] * np.arange(1, c.size))
        else:
            rows.append(np.zeros(1, dtype=complex))
    table = np.zeros((rows[0].size, 4), dtype=complex)
    for j, row in enumerate(rows):
        table[: row.size, j] = row
    return table


def eval_table(table: np.ndarray, z):
    """Evaluate the four stacked polynomials at scalar or array z.

    A scalar z takes the powers 1, z, z**2, ... as one running product and
    the jet as one vector-matrix product; arrays use Horner.
    """
    if np.ndim(z) == 0:
        powers = np.full(table.shape[0], z, dtype=complex)
        powers[0] = 1.0
        np.multiply.accumulate(powers, out=powers)  # cumprod without a copy
        return tuple(np.dot(powers, table).tolist())
    vals = npoly.polyval(z, table)
    return vals[0], vals[1], vals[2], vals[3]


def series_jet_fields(s: PowerSeries, z):
    """(f, f', f'', f''') of the series at scalar or array z.

    Points with |z| > rmax + RADIUS_SLACK raise RadiusExceeded.
    """
    if np.ndim(z) == 0:
        worst = abs(complex(z))
    else:
        worst = float(np.abs(z).max()) if np.size(z) else 0.0
    if worst > s.rmax + RADIUS_SLACK:
        raise RadiusExceeded(f"|z| = {worst:.6g} exceeds the certified radius {s.rmax:g}")
    return eval_table(s.table, z)


def series_eval_jet(s: PowerSeries, z: complex) -> Jet:
    """Jet of the series at z, evaluated and radius-checked by series_jet_fields."""
    z = complex(z)
    f0, f1, f2, f3 = series_jet_fields(s, z)
    return Jet(z, f0, f1, f2, f3, tail=s.tail_bound(abs(z)))
