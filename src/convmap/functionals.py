"""Pointwise diagnostics of a disk map: derivative ratios, the convexity
bounds and their slacks, the level-set normal field, and the density of the
hyperbolic metric on the image.

Sign conventions used throughout: slackN = lhsN - rhsN, so convexity means
slack1 >= 0 everywhere and the strengthened bounds mean slack2, slack3 >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDenominator, SingularPoint
from .grid import GridSpec
from .jet import Jet
from .maps import MapSpec, certified_rmax, jet_fields

UNIMODULAR_EPS = 1e-10
CLOSED_FORM_TOL = 1e-9
SERIES_TOL = 1e-7
EQUALITY_POINT_CAP = 32


class _Unimodular:
    """Sentinel returned when the slack quotient degenerates (|phi| ~ 1)."""

    def __repr__(self):
        return "UNIMODULAR"

    def __reduce__(self):
        return (_unimodular_instance, ())


def _unimodular_instance():
    return UNIMODULAR


UNIMODULAR = _Unimodular()


def _regular(j: Jet) -> None:
    if j.f1 == 0:
        raise SingularPoint(f"f' vanishes at z = {j.z}")


def pre_schwarzian(j: Jet) -> complex:
    """f''/f'."""
    _regular(j)
    return j.f2 / j.f1


def schwarzian(j: Jet) -> complex:
    """f'''/f' - (3/2)(f''/f')**2."""
    _regular(j)
    P = j.f2 / j.f1
    return j.f3 / j.f1 - 1.5 * P * P


def classical_lhs(j: Jet) -> float:
    """Re(1 + z f''/f'); nonnegative on the disk exactly for convex maps."""
    return (1.0 + j.z * pre_schwarzian(j)).real


def rhs2(j: Jet) -> float:
    """(1/4)(1 - |z|^2) |f''/f'|^2."""
    return 0.25 * (1.0 - abs(j.z) ** 2) * abs(pre_schwarzian(j)) ** 2


def rhs3(j: Jet) -> float:
    """(1/4)(1 - |z|^2) (2 |S| + |f''/f'|^2); dominates rhs2 pointwise."""
    om = 1.0 - abs(j.z) ** 2
    return 0.25 * om * (2.0 * abs(schwarzian(j)) + abs(pre_schwarzian(j)) ** 2)


def p_field(j: Jet) -> complex:
    """conj(z) - (1/2)(1 - |z|^2) f''/f', the level-set normal data."""
    return j.z.conjugate() - 0.5 * (1.0 - abs(j.z) ** 2) * pre_schwarzian(j)


def kim_minda(j: Jet) -> float:
    """(1 - |z|^2)^2 |S| + 2 |p|^2; at most 2 on convex maps."""
    om = 1.0 - abs(j.z) ** 2
    return om * om * abs(schwarzian(j)) + 2.0 * abs(p_field(j)) ** 2


def nehari_value(j: Jet) -> float:
    """(1 - |z|^2)^2 |S|; at most 2 whenever the map is univalent."""
    om = 1.0 - abs(j.z) ** 2
    return om * om * abs(schwarzian(j))


def poincare_density(j: Jet) -> float:
    """Density of the hyperbolic metric of the image domain at f(z)."""
    _regular(j)
    return 1.0 / ((1.0 - abs(j.z) ** 2) * abs(j.f1))


def equivalence_identity(j: Jet) -> float:
    """|(2 - km) - 2 (1 - |z|^2) (lhs1 - rhs3)|; identically zero in exact
    arithmetic, so the result is a pure roundoff gauge."""
    om = 1.0 - abs(j.z) ** 2
    return abs((2.0 - kim_minda(j)) - 2.0 * om * (classical_lhs(j) - rhs3(j)))


def _phi_and_derivative(j: Jet) -> tuple[complex, complex]:
    P = pre_schwarzian(j)
    den = 2.0 + j.z * P
    if abs(den) < 1e-12:
        raise DegenerateDenominator(f"2 + z f''/f' vanishes at z = {j.z}")
    # phi' = 2 S / (2 + z P)^2, from P' = S + P^2/2
    return P / den, 2.0 * schwarzian(j) / (den * den)


def schwarz_pick_slack(j: Jet):
    """1/(1 - |z|^2) - |phi'| / (1 - |phi|^2) for the generator function phi.

    Nonnegative for every convex map.  When |phi| is within 1e-10 of 1 the
    quotient degenerates and the UNIMODULAR sentinel is returned instead of
    a number.
    """
    phi, dphi = _phi_and_derivative(j)
    a2 = abs(phi) ** 2
    if a2 >= (1.0 - UNIMODULAR_EPS) ** 2:
        return UNIMODULAR
    return 1.0 / (1.0 - abs(j.z) ** 2) - abs(dphi) / (1.0 - a2)


@dataclass(frozen=True)
class Diagnostics:
    """Every pointwise quantity at one z, computed from a single jet."""

    z: complex
    w: complex
    P: complex
    S: complex
    p: complex
    lhs1: float
    rhs2: float
    rhs3: float
    km: float
    nehari: float
    density: float
    sp_slack: object  # float, or UNIMODULAR when degenerate


def diagnostics(j: Jet) -> Diagnostics:
    return Diagnostics(
        z=j.z,
        w=j.f0,
        P=pre_schwarzian(j),
        S=schwarzian(j),
        p=p_field(j),
        lhs1=classical_lhs(j),
        rhs2=rhs2(j),
        rhs3=rhs3(j),
        km=kim_minda(j),
        nehari=nehari_value(j),
        density=poincare_density(j),
        sp_slack=schwarz_pick_slack(j),
    )


def grid_functionals(m: MapSpec, zs) -> dict:
    """Vectorized field values over an array of points.

    Returns a dict with keys z, w, f1, P, S, p, lhs1, rhs2, rhs3, km,
    nehari, density.  Raises SingularPoint if f' vanishes anywhere.
    """
    zs = np.asarray(zs, dtype=complex)
    f0, f1, f2, f3 = jet_fields(m, zs)
    if np.any(f1 == 0):
        raise SingularPoint("f' vanishes on the evaluation grid")
    P = f2 / f1
    S = f3 / f1 - 1.5 * P * P
    om = 1.0 - np.abs(zs) ** 2
    lhs1 = np.real(1.0 + zs * P)
    r2 = 0.25 * om * np.abs(P) ** 2
    r3 = r2 + 0.5 * om * np.abs(S)
    p = np.conj(zs) - 0.5 * om * P
    km = om * om * np.abs(S) + 2.0 * np.abs(p) ** 2
    return {
        "z": zs,
        "w": f0,
        "f1": f1,
        "P": P,
        "S": S,
        "p": p,
        "lhs1": lhs1,
        "rhs2": r2,
        "rhs3": r3,
        "km": km,
        "nehari": om * om * np.abs(S),
        "density": 1.0 / (om * np.abs(f1)),
    }


def default_grid(m: MapSpec, base: GridSpec = GridSpec()) -> GridSpec:
    """The grid a scan uses when the caller gives none: ``base`` with its
    rmax clamped to the certified radius of a series map.  A precomposed
    map's certified set is not a disk about 0, so it keeps ``base``."""
    rmax = certified_rmax(m)
    if m.pre is None and rmax < base.rmax:
        return replace(base, rmax=rmax)
    return base


def slack_tolerance(m: MapSpec) -> float:
    """Equality/verdict tolerance: tighter for closed forms than for series."""
    return SERIES_TOL if m.kind in ("series", "herglotz") else CLOSED_FORM_TOL


@dataclass(frozen=True)
class ConvexityReport:
    verdict: str
    tolerance: float
    slack1_min: float
    slack1_argmin: complex
    slack3_min: float
    slack3_argmin: complex
    km_max: float
    km_argmax: complex
    nehari_max: float
    nehari_argmax: complex
    equality_flag: bool
    equality_count: int
    equality_points: tuple[complex, ...]
    phi_class: object
    grid: GridSpec


def convexity_report(m: MapSpec, grid: GridSpec | None = None, tol: float | None = None) -> ConvexityReport:
    """Scan a polar grid and summarize the convexity diagnostics.

    The verdict is "Convex" when min slack1 >= -tol.  The equality locus
    collects grid points where |slack3| <= tol, i.e. where the strengthened
    bound is attained to within the tolerance.
    """
    from .critical import classify_phi  # deferred: critical itself uses this module

    grid = grid or default_grid(m)
    tol = slack_tolerance(m) if tol is None else float(tol)
    zs = grid.points()
    vals = grid_functionals(m, zs)
    slack1 = vals["lhs1"]  # the classical bound compares against zero
    slack3 = vals["lhs1"] - vals["rhs3"]
    i1 = int(np.argmin(slack1))
    i3 = int(np.argmin(slack3))
    ik = int(np.argmax(vals["km"]))
    inh = int(np.argmax(vals["nehari"]))
    eq_mask = np.abs(slack3) <= tol
    eq_idx = np.flatnonzero(eq_mask)
    verdict = "Convex" if slack1[i1] >= -tol else "NotConvex"
    return ConvexityReport(
        verdict=verdict,
        tolerance=tol,
        slack1_min=float(slack1[i1]),
        slack1_argmin=complex(zs[i1]),
        slack3_min=float(slack3[i3]),
        slack3_argmin=complex(zs[i3]),
        km_max=float(vals["km"][ik]),
        km_argmax=complex(zs[ik]),
        nehari_max=float(vals["nehari"][inh]),
        nehari_argmax=complex(zs[inh]),
        equality_flag=bool(eq_idx.size),
        equality_count=int(eq_idx.size),
        equality_points=tuple(complex(zs[i]) for i in eq_idx[:EQUALITY_POINT_CAP]),
        phi_class=classify_phi(m),
        grid=grid,
    )
