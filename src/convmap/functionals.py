"""Pointwise diagnostics of a disk map, all from one field kernel:
``_FORMULAS`` holds every formula once, from the derivatives of p that the
critical search's Newton steps read to the curvatures and the generator phi.
They use only arithmetic, ``abs``, ``.conjugate()`` and ``.real``, so the
same lines run on Python complex scalars and on NumPy arrays.  The kernel
reads (z, f', P = f''/f', S) alone, S the Schwarzian, and the keys pick
the jets: ``grid_functionals``, the one checked batch entry of every
report, scan, search and phi, asks ``maps._jets`` for those of f', P and S
that its keys read (a report never forms f').  The tracer feeds it one
point, and the scalar views a ``Jet``, which holds the core's own P and
S; only the public ``fields`` forms P and S from a full jet
(z, f', f'', f''') by ``maps._PS_STEPS``.
``maps._compiled``, which also compiles the chain rule of a composed map,
turns the formulas a caller names into one straight-line function that
frees every other array right after its last use: on a 10,000-point grid
each is 80-160 KB, and paging in fresh memory costs more than the
arithmetic on it.

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
from .maps import _PS, Jet, MapSpec, _compiled, _jets, certified_rmax

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
        return "UNIMODULAR"  # pickle resolves the module global of that name


UNIMODULAR = _Unimodular()


_INPUTS = ("z", "f1", "P", "S")  # the kernel's one vocabulary: what ``maps._jets`` gives, f aside

# Every formula of the kernel, once: an expression in the _INPUTS and in the
# fields above it, so that the order is an order of evaluation.  P' (dP) is
# read from S, so only f1, g, density and kappa read f'.  pz and pzb are
# dp/dz and dp/dzbar (p holds conj(z)).  k and kappa divide by |p| and phi
# and dphi by 2 + z P: FIELDS leaves them and ap, re and den out.
# No key is named as an attribute (``real``): ``_compiled`` reads co_names.
_FORMULAS = {
    "dP": "S + 0.5 * P * P",
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
    """The field kernel for ``keys`` (names in _INPUTS and _FORMULAS): the
    formulas keys need, compiled by ``maps._compiled`` into a function of
    (z, f', P, S) that returns the dict of keys.  Its ``reads`` names the
    inputs after z that the keys read.  With ``handover`` it takes z and
    those as one list and empties it, so that they are freed too;
    ``grid_functionals`` does this."""
    unknown = set(keys).difference(_INPUTS, _FORMULAS)
    if unknown:
        raise ValueError(f"no field named {', '.join(sorted(unknown))}")
    params = "jets" if handover else "z, f1=None, P=None, S=None"
    return _compiled(list(_FORMULAS.items()), _INPUTS, keys, params, handover=handover)


def fields(z, f1, f2, f3, keys=FIELDS) -> dict:
    """The pointwise fields named by ``keys`` (by default all of FIELDS) of
    the jet (z, f', f'', f''') at a point or an array: om = 1 - |z|^2,
    g = om |f'|, P = f''/f', S, p, lhs1, rhs2, rhs3, slack3 = lhs1 - rhs3,
    km, nehari and density, each documented at its scalar view below, or any
    other key of ``_FORMULAS``.  Of P and S, ``maps._PS_STEPS`` forms only
    those that the keys read.  f' must not vanish."""
    kernel = _kernel(tuple(keys))
    ps = _PS["S" in kernel.reads](f1, f2, f3) if "P" in kernel.reads or "S" in kernel.reads else {}
    return kernel(z, f1, **ps)


# the kernels of the scalar hot loops, on (z, f', P, S): the level function
# g, the normal p, and what the tracer keeps of an accepted point
_level = _kernel(("g",))
_normal = _kernel(("p",))
curvature_fields = _kernel(("p", "k", "kappa"))


def fields_at(j: Jet, keys=FIELDS) -> dict:
    """The fields named by ``keys`` at one jet, from its z, f', P and S as
    the jet core gave them; a Jet checked itself, and refuses f' = 0."""
    return _kernel(tuple(keys))(j.z, j.f1, j.P, j.S)


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
    points) and f1; f is never computed.  The keys pick the jets: of f', P
    and S, ``maps._jets`` evaluates those that the kernel ``reads``, and
    every other array is freed as soon as the kernel is done with it.
    Raises ValueError if one of them is not finite anywhere, then
    SingularPoint if f' is read and vanishes anywhere.
    """
    kernel = _kernel(tuple(keys), handover=True)
    jets = list(_jets(m, zs, kernel.reads))
    del jets[1]  # f, which holds the base map's arrays
    # a comprehension, so that no name here holds an array the kernel frees
    bad = [name for name, vals in zip(kernel.reads, jets[1:]) if not np.isfinite(vals).all()]
    if bad:
        raise ValueError(f"jet component {bad[0]} is not finite on the evaluation grid")
    if "f1" in kernel.reads and np.any(jets[1] == 0):
        raise SingularPoint("f' vanishes on the evaluation grid")
    return kernel(jets)


def phi_grid(m: MapSpec, where):
    """(z, phi): the points of a GridSpec or an array, and ``phi_values``
    there, from ``grid_functionals``, which evaluates P alone."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = grid_functionals(m, where, ("z", "den", "phi"))
        bad = ~np.isfinite(vals["den"]) | (abs(vals["den"]) < DEGENERATE_EPS)
        return vals["z"], np.where(bad, complex(np.nan, np.nan), vals["phi"])


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
    vals = grid_functionals(m, grid, ("z", "lhs1", "slack3", "km", "nehari"))  # they read P and S
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
