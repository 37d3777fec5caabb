"""Pointwise diagnostics of a disk map, all from one field kernel:
``_FORMULAS`` holds every formula once, from the derivatives of p that the
critical search's Newton steps read to the curvatures and the generator phi.
They use only arithmetic, ``abs``, ``.conjugate()`` and ``.real``, so the
same lines run on Python complex scalars and on NumPy arrays; the scalar
functions here are views of them at one jet.  ``maps._compiled``, which also
compiles the chain rule of a composed map, turns the formulas a caller names
into one straight-line function that frees every other array right after
its last use: on a 10,000-point grid each is 80-160 KB, and paging in fresh
memory costs more than the arithmetic on it.

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

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDenominator, SingularPoint
from .grid import GridSpec
from .jet import Jet
from .maps import MapSpec, _compiled, _grid_jets, certified_rmax

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


_JET = ("z", "f1", "f2", "f3")

# Every formula of the kernel, once: an expression in the jet and in the
# fields above it, so that the order is an order of evaluation.  P, S and
# P' come first, so that f'' and f''' can go before anything else is formed;
# pz and pzb are dp/dz and dp/dzbar (p holds conj(z)).  k and kappa divide by
# |p| and phi and dphi by 2 + z P: FIELDS leaves them and ap, re and den out.
# No key is named as an attribute (``real``): ``_compiled`` reads co_names.
_FORMULAS = {
    "P": "f2 / f1",
    "S": "f3 / f1 - 1.5 * P * P",
    "dP": "f3 / f1 - P * P",
    "om": "1.0 - abs(z) ** 2",
    "g": "om * abs(f1)",
    "p": "z.conjugate() - 0.5 * om * P",
    "pz": "0.5 * (z.conjugate() * P - om * dP)",
    "pzb": "1.0 + 0.5 * z * P",
    "lhs1": "1.0 + (z * P).real",
    "rhs2": "0.25 * om * abs(P) ** 2",
    "aS": "abs(S)",
    "nehari": "om * om * aS",
    "rhs3": "rhs2 + 0.5 * om * aS",
    "slack3": "lhs1 - rhs3",
    "km": "nehari + 2.0 * abs(p) ** 2",
    "density": "1.0 / g",
    "ap": "abs(p)",
    # (z')^2 = -conj(p)^2 / |p|^2 for the tangent -i conj(p)/|p|
    "re": "(p.conjugate() ** 2 * S).real",
    "k": "(1.0 + rhs2 + om / (2.0 * ap**2) * re) / ap",
    "kappa": "(lhs1 - rhs2 + 0.5 * om * re / ap**2) / (abs(f1) * ap)",
    "den": "2.0 + z * P",
    "phi": "P / den",
    # phi' = 2 S / (2 + z P)^2, from P' = S + P^2/2
    "dphi": "2.0 * S / (den * den)",
}
FIELDS = ("om", "g", "P", "S", "p", "lhs1", "rhs2", "rhs3", "slack3", "km", "nehari", "density")
GRID_KEYS = ("z", "f1", *FIELDS)


@functools.cache
def _kernel(keys: tuple, handover: bool = False):
    """The field kernel for ``keys`` (names in _JET and _FORMULAS): the
    formulas keys need, compiled by ``maps._compiled`` into a function of the
    jet (z, f', f'', f''') that returns the dict of keys.  With ``handover``
    it takes the jet as one list and empties it, so that f'' and f''' are
    freed too; a grid caller does this."""
    unknown = set(keys).difference(_JET, _FORMULAS)
    if unknown:
        raise ValueError(f"no field named {', '.join(sorted(unknown))}")
    params = "jets" if handover else "z, f1, f2=None, f3=None"
    return _compiled(_FORMULAS.items(), _JET, keys, params, handover=handover)


def fields(z, f1, f2, f3, keys=FIELDS) -> dict:
    """The pointwise fields named by ``keys`` (by default all of FIELDS) of
    the jet (z, f', f'', f''') at a point or an array: om = 1 - |z|^2,
    g = om |f'|, P = f''/f', S, p, lhs1, rhs2, rhs3, slack3 = lhs1 - rhs3,
    km, nehari and density, each documented at its scalar view below, or any
    other key of ``_FORMULAS``.  f' must not vanish."""
    return _kernel(tuple(keys))(z, f1, f2, f3)


# the kernels of the scalar hot loops: the level function g at (z, f'), the
# normal p at (z, f', f''), and what the tracer keeps of an accepted point
_level = _kernel(("g",))
_normal = _kernel(("p",))
curvature_fields = _kernel(("p", "k", "kappa"))


def fields_at(j: Jet, keys=FIELDS) -> dict:
    """``fields`` at one jet; raises SingularPoint if f' vanishes."""
    if j.f1 == 0:
        raise SingularPoint(f"f' vanishes at z = {j.z}")
    return fields(j.z, j.f1, j.f2, j.f3, keys)


def pre_schwarzian(j: Jet) -> complex:
    """f''/f'."""
    return fields_at(j, ("P",))["P"]


def schwarzian(j: Jet) -> complex:
    """f'''/f' - (3/2)(f''/f')**2."""
    return fields_at(j, ("S",))["S"]


def classical_lhs(j: Jet) -> float:
    """Re(1 + z f''/f'); nonnegative on the disk exactly for convex maps."""
    return fields_at(j, ("lhs1",))["lhs1"]


def rhs2(j: Jet) -> float:
    """(1/4)(1 - |z|^2) |f''/f'|^2."""
    return fields_at(j, ("rhs2",))["rhs2"]


def rhs3(j: Jet) -> float:
    """(1/4)(1 - |z|^2) (2 |S| + |f''/f'|^2); dominates rhs2 pointwise."""
    return fields_at(j, ("rhs3",))["rhs3"]


def p_field(j: Jet) -> complex:
    """conj(z) - (1/2)(1 - |z|^2) f''/f', the level-set normal data."""
    return fields_at(j, ("p",))["p"]


def kim_minda(j: Jet) -> float:
    """(1 - |z|^2)^2 |S| + 2 |p|^2; at most 2 on convex maps."""
    return fields_at(j, ("km",))["km"]


def nehari_value(j: Jet) -> float:
    """(1 - |z|^2)^2 |S|; at most 2 whenever the map is univalent."""
    return fields_at(j, ("nehari",))["nehari"]


def poincare_density(j: Jet) -> float:
    """Density of the hyperbolic metric of the image domain at f(z)."""
    return fields_at(j, ("density",))["density"]


def equivalence_identity(j: Jet) -> float:
    """|(2 - km) - 2 (1 - |z|^2) (lhs1 - rhs3)|; identically zero in exact
    arithmetic, so the result is a pure roundoff gauge."""
    fld = fields_at(j, ("om", "slack3", "km"))
    return abs((2.0 - fld["km"]) - 2.0 * fld["om"] * fld["slack3"])


def schwarz_pick_slack(j: Jet):
    """1/(1 - |z|^2) - |phi'| / (1 - |phi|^2) for the generator function phi.

    Nonnegative for every convex map.  When |phi| is within 1e-10 of 1 the
    quotient degenerates and the UNIMODULAR sentinel is returned instead of
    a number.
    """
    if abs(fields_at(j, ("den",))["den"]) < DEGENERATE_EPS:
        raise DegenerateDenominator(f"2 + z f''/f' vanishes at z = {j.z}")
    fld = fields_at(j, ("om", "phi", "dphi"))
    a2 = abs(fld["phi"]) ** 2
    if a2 >= (1.0 - UNIMODULAR_EPS) ** 2:
        return UNIMODULAR
    return 1.0 / fld["om"] - abs(fld["dphi"]) / (1.0 - a2)


def grid_functionals(m: MapSpec, zs, keys=GRID_KEYS) -> dict:
    """Vectorized field values over an array of points zs, or over the
    points of a GridSpec zs (in ``GridSpec.points`` order).

    Returns the dict of ``keys``: by default the ``fields`` dict plus z (the
    points) and f1; f is never computed.  A caller names the keys it reads,
    and every other array is freed as soon as the kernel is done with it.
    Raises SingularPoint if f' vanishes anywhere and ValueError if a jet
    component is not finite.
    """
    jets = list(_grid_jets(m, zs))
    check_jets(*jets[1:])
    return _kernel(tuple(keys), handover=True)(jets)


def check_jets(f1, f2, f3) -> None:
    """Reject a batch of derivative jets on the evaluation grid as
    ``maps._jet_at``, the checked point route of ``jet_of`` and the tracer,
    rejects one: ValueError on a non-finite component, then SingularPoint
    where f' vanishes."""
    for name, vals in zip(("f1", "f2", "f3"), (f1, f2, f3)):
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"jet component {name} is not finite on the evaluation grid")
    if np.any(f1 == 0):
        raise SingularPoint("f' vanishes on the evaluation grid")


def phi_grid(m: MapSpec, where):
    """(z, phi): the points of a GridSpec or an array, and ``phi_values``
    there."""
    z, f1, f2, _ = _grid_jets(m, where)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = fields(z, f1, f2, None, ("den", "phi"))
        bad = ~np.isfinite(vals["den"]) | (abs(vals["den"]) < DEGENERATE_EPS)
        return z, np.where(bad, complex(np.nan, np.nan), vals["phi"])


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


def _reads_convex(vals: dict, tol: float) -> bool:
    """The verdict rule on the kernel's arrays: min slack1 (lhs1) >= -tol,
    max km <= 2 + tol and min slack3 >= -tol, all three of which a convex
    map meets."""
    return vals["lhs1"].min() >= -tol and vals["km"].max() <= 2.0 + tol and vals["slack3"].min() >= -tol


def convexity_report(m: MapSpec, grid: GridSpec | None = None, tol: float | None = None) -> ConvexityReport:
    """Scan a polar grid and summarize the convexity diagnostics.

    The verdict is "Convex" when min slack1 >= -tol, max km <= 2 + tol and
    min slack3 >= -tol (``_reads_convex``, which also gates the theorem
    search of ``find_critical_point``).  The equality locus collects grid
    points where |slack3| <= tol, i.e. where the strengthened bound is
    attained to within the tolerance.
    """
    from .critical import classify_phi  # deferred: critical itself uses this module

    grid = grid or default_grid(m)
    tol = slack_tolerance(m) if tol is None else float(tol)
    vals = grid_functionals(m, grid, ("z", "lhs1", "slack3", "km", "nehari"))
    zs = vals["z"]
    slack1 = vals["lhs1"]  # the classical bound compares against zero
    slack3 = vals["slack3"]
    i1 = int(np.argmin(slack1))
    i3 = int(np.argmin(slack3))
    ik = int(np.argmax(vals["km"]))
    inh = int(np.argmax(vals["nehari"]))
    eq_mask = np.abs(slack3) <= tol
    eq_idx = np.flatnonzero(eq_mask)
    return ConvexityReport(
        verdict="Convex" if _reads_convex(vals, tol) else "NotConvex",
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
