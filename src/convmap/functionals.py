"""Pointwise diagnostics of a disk map, all from one field kernel: ``fields``
and ``curvatures`` hold every formula once.  They use only arithmetic,
``abs``, ``.conjugate()`` and ``.real``, so the same lines run on Python
complex scalars and on NumPy arrays; the scalar functions here are views of
them at one jet.

Sign conventions: slackN = lhsN - rhsN, so convexity means slack1 >= 0 and
the strengthened bounds mean slack2, slack3 >= 0.  With P = f''/f' and
p = conj(z) - (1/2)(1 - |z|^2) P, the gradient of g = (1 - |z|^2)|f'| is
-2 |f'| conj(p).  Level curves of g are oriented by the tangent
-i conj(p)/|p| (clockwise circles for the identity), and k (in the disk) and
kappa (in the image) are signed for that orientation, so convex curves have
positive k.  The generator phi = P / (2 + z P) is defined where
|2 + z P| >= DEGENERATE_EPS.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDenominator, SingularPoint
from .grid import GridSpec
from .jet import Jet
from .maps import MapSpec, _grid_jets, certified_rmax

UNIMODULAR_EPS = 1e-10
DEGENERATE_EPS = 1e-12
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


def _level(z, f1):
    """(1 - |z|^2, g) with the level function g = (1 - |z|^2)|f'|."""
    om = 1.0 - abs(z) ** 2
    return om, om * abs(f1)


def _normal(z, f1, f2):
    """(1 - |z|^2, g, P, p) with P = f''/f' and the normal p: all that the
    scalar hot loops (tracer, critical search) need; ``fields`` starts here."""
    om, g = _level(z, f1)
    P = f2 / f1
    return om, g, P, z.conjugate() - 0.5 * om * P


def normal_derivatives(z, f1, f2, f3):
    """(p, dp/dz, dp/dzbar): the normal and its Wirtinger derivatives.  p
    contains conj(z), so both are needed: dp/dz = (1/2) conj(z) P -
    (1/2)(1 - |z|^2) P' with P' = f'''/f' - P^2 = S + P^2/2, and
    dp/dzbar = 1 + (1/2) z P.  Over (x, y), p_x = dp/dz + dp/dzbar and
    p_y = i (dp/dz - dp/dzbar)."""
    om, _, P, p = _normal(z, f1, f2)
    dP = f3 / f1 - P * P
    return p, 0.5 * (z.conjugate() * P - om * dP), 1.0 + 0.5 * z * P


def curvature_fields(z, f1, f2, f3) -> dict:
    """The fields of the jet (z, f', f'', f''') that ``curvatures`` reads, and
    g: the part of ``fields`` keyed om, g, P, S, p, lhs1 and rhs2."""
    om, g, P, p = _normal(z, f1, f2)
    return {
        "om": om,
        "g": g,
        "P": P,
        "S": f3 / f1 - 1.5 * P * P,
        "p": p,
        "lhs1": (1.0 + z * P).real,
        "rhs2": 0.25 * om * abs(P) ** 2,
    }


def fields(z, f1, f2, f3) -> dict:
    """Every pointwise field of the jet (z, f', f'', f''') at a point or an
    array: ``curvature_fields`` and rhs3, km, nehari and density, each
    documented at its scalar view below.  f' must not vanish."""
    fld = curvature_fields(z, f1, f2, f3)
    om, aS = fld["om"], abs(fld["S"])
    nehari = om * om * aS
    fld["rhs3"] = fld["rhs2"] + 0.5 * om * aS
    fld["km"] = nehari + 2.0 * abs(fld["p"]) ** 2
    fld["nehari"] = nehari
    fld["density"] = 1.0 / fld["g"]
    return fld


def curvatures(fld: dict, f1):
    """(k, kappa): signed curvature of the level curve of g through each
    point, in the disk and of its image under the map, from a ``fields``
    result and f'.  Divides by |p|, so a scalar call at a zero of p raises
    ZeroDivisionError; array callers guard |p| themselves."""
    om, p = fld["om"], fld["p"]
    ap = abs(p)
    # (z')^2 = -conj(p)^2 / |p|^2 for the tangent -i conj(p)/|p|
    re = (p.conjugate() ** 2 * fld["S"]).real
    k = (1.0 + fld["rhs2"] + om / (2.0 * ap**2) * re) / ap
    kappa = (fld["lhs1"] - fld["rhs2"] + 0.5 * om * re / ap**2) / (abs(f1) * ap)
    return k, kappa


def _phi_denominator(z, P):
    """2 + z P, the denominator of phi, and where it is below DEGENERATE_EPS."""
    den = 2.0 + z * P
    return den, abs(den) < DEGENERATE_EPS


def fields_at(j: Jet) -> dict:
    """``fields`` at one jet; raises SingularPoint if f' vanishes."""
    if j.f1 == 0:
        raise SingularPoint(f"f' vanishes at z = {j.z}")
    return fields(j.z, j.f1, j.f2, j.f3)


def pre_schwarzian(j: Jet) -> complex:
    """f''/f'."""
    return fields_at(j)["P"]


def schwarzian(j: Jet) -> complex:
    """f'''/f' - (3/2)(f''/f')**2."""
    return fields_at(j)["S"]


def classical_lhs(j: Jet) -> float:
    """Re(1 + z f''/f'); nonnegative on the disk exactly for convex maps."""
    return fields_at(j)["lhs1"]


def rhs2(j: Jet) -> float:
    """(1/4)(1 - |z|^2) |f''/f'|^2."""
    return fields_at(j)["rhs2"]


def rhs3(j: Jet) -> float:
    """(1/4)(1 - |z|^2) (2 |S| + |f''/f'|^2); dominates rhs2 pointwise."""
    return fields_at(j)["rhs3"]


def p_field(j: Jet) -> complex:
    """conj(z) - (1/2)(1 - |z|^2) f''/f', the level-set normal data."""
    return fields_at(j)["p"]


def kim_minda(j: Jet) -> float:
    """(1 - |z|^2)^2 |S| + 2 |p|^2; at most 2 on convex maps."""
    return fields_at(j)["km"]


def nehari_value(j: Jet) -> float:
    """(1 - |z|^2)^2 |S|; at most 2 whenever the map is univalent."""
    return fields_at(j)["nehari"]


def poincare_density(j: Jet) -> float:
    """Density of the hyperbolic metric of the image domain at f(z)."""
    return fields_at(j)["density"]


def equivalence_identity(j: Jet) -> float:
    """|(2 - km) - 2 (1 - |z|^2) (lhs1 - rhs3)|; identically zero in exact
    arithmetic, so the result is a pure roundoff gauge."""
    fld = fields_at(j)
    return abs((2.0 - fld["km"]) - 2.0 * fld["om"] * (fld["lhs1"] - fld["rhs3"]))


def schwarz_pick_slack(j: Jet):
    """1/(1 - |z|^2) - |phi'| / (1 - |phi|^2) for the generator function phi.

    Nonnegative for every convex map.  When |phi| is within 1e-10 of 1 the
    quotient degenerates and the UNIMODULAR sentinel is returned instead of
    a number.
    """
    fld = fields_at(j)
    den, degenerate = _phi_denominator(j.z, fld["P"])
    if degenerate:
        raise DegenerateDenominator(f"2 + z f''/f' vanishes at z = {j.z}")
    # phi' = 2 S / (2 + z P)^2, from P' = S + P^2/2
    phi, dphi = fld["P"] / den, 2.0 * fld["S"] / (den * den)
    a2 = abs(phi) ** 2
    if a2 >= (1.0 - UNIMODULAR_EPS) ** 2:
        return UNIMODULAR
    return 1.0 / fld["om"] - abs(dphi) / (1.0 - a2)


def grid_functionals(m: MapSpec, zs) -> dict:
    """Vectorized field values over an array of points zs, or over the
    points of a GridSpec zs (in ``GridSpec.points`` order).

    Returns the ``fields`` dict plus the keys z and f1; f is never computed.
    Raises SingularPoint if f' vanishes anywhere and ValueError if a jet
    component is not finite.
    """
    zs, f1, f2, f3 = _grid_jets(m, zs)
    check_jets(f1, f2, f3, "on the evaluation grid")
    return {"z": zs, "f1": f1, **fields(zs, f1, f2, f3)}


def check_jets(f1, f2, f3, where: str) -> None:
    """Reject a batch of derivative jets as ``maps._jet_at``, the checked
    point route of ``jet_of`` and the tracer, rejects one: ValueError on a
    non-finite component, then SingularPoint where f' vanishes; ``where``
    ends the message."""
    for name, vals in zip(("f1", "f2", "f3"), (f1, f2, f3)):
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"jet component {name} is not finite {where}")
    if np.any(f1 == 0):
        raise SingularPoint(f"f' vanishes {where}")


def phi_grid(m: MapSpec, where):
    """(z, phi): the points of a GridSpec or an array, and ``phi_values``
    there."""
    z, f1, f2, _ = _grid_jets(m, where)
    with np.errstate(divide="ignore", invalid="ignore"):
        P = _normal(z, f1, f2)[2]
        den, degenerate = _phi_denominator(z, P)
        bad = ~np.isfinite(den) | degenerate
        return z, np.where(bad, complex(np.nan, np.nan), P / np.where(bad, 1.0, den))


def phi_values(m: MapSpec, z):
    """phi = (f''/f') / (2 + z f''/f') at scalar or array z, or over the
    points of a GridSpec z, NaN where the denominator is (numerically)
    zero."""
    return phi_grid(m, z)[1]


def phi_of(m: MapSpec, z: complex) -> complex:
    val = complex(phi_values(m, complex(z)))
    if val != val:
        raise DegenerateDenominator(f"2 + z f''/f' vanishes at z = {complex(z)}")
    return val


def default_grid(m: MapSpec, base: GridSpec = GridSpec()) -> GridSpec:
    """The grid a scan uses when the caller gives none: ``base`` with its
    rmax clamped to the certified radius of the map."""
    rmax = certified_rmax(m)
    if rmax < base.rmax:
        return replace(base, rmax=rmax)
    return base


def slack_tolerance(m: MapSpec) -> float:
    """Equality/verdict tolerance: tighter for closed forms than for series."""
    return SERIES_TOL if m.series is not None else CLOSED_FORM_TOL


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
    vals = grid_functionals(m, grid)
    zs = vals["z"]
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
