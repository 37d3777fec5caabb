"""The map zoo: closed-form convex maps of the disk, series-backed maps, and
the generator that integrates a disk-valued generator function into a map.

All derivatives here are exact formulas or exact series recurrences; nothing
in this module differentiates numerically.
"""

from __future__ import annotations

import ast
import cmath
import dataclasses
import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConvmapError, PhiOutOfRange, RadiusExceeded, SingularPoint
from .grid import GridSpec, grid_points
from .jet import Jet
from .series import (
    DEFAULT_ORDER,
    DEFAULT_RMAX,
    MIN_ORDER,
    PowerSeries,
    certify,
    in_radius,
    point_columns,
    series_exp,
    series_integrate,
    series_inv,
    series_jet_fields,
    series_mul,
)

PHI_SUP_TOL = 1e-12
PHI_BOUNDARY_SAMPLES = 4096

BUILTIN_NAMES = ("identity", "halfplane", "strip", "sector", "polygon", "koebe")
_PHI_KINDS = ("poly", "blaschke", "const")
_MAP_KINDS = BUILTIN_NAMES + ("series", "herglotz")


@dataclass(frozen=True)
class PhiSpec:
    """A holomorphic function from the disk to its closure, in one of three
    concrete shapes: a polynomial, a finite Blaschke product with an optional
    rotation, or a unimodular constant."""

    kind: str
    coeffs: tuple[complex, ...] = ()
    zeros: tuple[complex, ...] = ()
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in _PHI_KINDS:
            raise ValueError(f"unknown phi kind {self.kind!r}")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        object.__setattr__(self, "zeros", tuple(complex(a) for a in self.zeros))
        object.__setattr__(self, "theta", float(self.theta))
        if not all(map(cmath.isfinite, (*self.coeffs, *self.zeros, self.theta))):
            raise ValueError("phi coefficients, zeros and theta must be finite")
        if self.kind == "poly" and not self.coeffs:
            raise ValueError("polynomial phi needs at least one coefficient")
        if self.kind == "blaschke":
            if not self.zeros:
                raise ValueError("Blaschke phi needs at least one zero")
            for a in self.zeros:
                if abs(a) >= 1.0:
                    raise ValueError(f"Blaschke zero must satisfy |a| < 1, got {a}")

    @classmethod
    def polynomial(cls, coeffs) -> "PhiSpec":
        return cls("poly", coeffs=tuple(np.asarray(coeffs, dtype=complex).ravel()))

    @classmethod
    def blaschke(cls, zeros, theta: float = 0.0) -> "PhiSpec":
        return cls("blaschke", zeros=tuple(np.asarray(zeros, dtype=complex).ravel()), theta=theta)

    @classmethod
    def unimodular_constant(cls, theta: float = 0.0) -> "PhiSpec":
        return cls("const", theta=theta)

    def values(self, z):
        """Evaluate at scalar or array z."""
        z = np.asarray(z, dtype=complex)
        if self.kind == "poly":
            return npoly.polyval(z, np.asarray(self.coeffs))
        out = np.full(z.shape, np.exp(1j * self.theta), dtype=complex)
        if self.kind == "const":
            return out
        for a in self.zeros:
            out = out * (z - a) / (1.0 - a.conjugate() * z)
        return out

    def boundary_sup(self) -> float:
        """sup |phi| over the unit circle: exactly 1 for the bounded shapes,
        sampled at PHI_BOUNDARY_SAMPLES points for polynomials."""
        if self.kind in ("blaschke", "const"):
            return 1.0
        circle = np.exp(2j * np.pi * np.arange(PHI_BOUNDARY_SAMPLES) / PHI_BOUNDARY_SAMPLES)
        return float(np.max(np.abs(self.values(circle))))

    def series(self, order: int, rmax: float = DEFAULT_RMAX) -> PowerSeries:
        """Taylor coefficients through z**order."""
        if self.kind == "poly":
            return _padded(self.coeffs, order, rmax)
        acc = _padded([np.exp(1j * self.theta)], order, rmax)  # a constant has no zeros
        for a in self.zeros:
            den = series_inv(_padded([1.0, -a.conjugate()], order, rmax))
            acc = series_mul(acc, series_mul(_padded([-a, 1.0], order, rmax), den))
        return acc


def _padded(coeffs, order: int, rmax: float) -> PowerSeries:
    """The series with these leading coefficients, padded with zeros through z**order."""
    c = np.zeros(order + 1, dtype=complex)
    lead = np.asarray(coeffs, dtype=complex)[: order + 1]
    c[: lead.size] = lead
    return PowerSeries(c, rmax)


@dataclass(frozen=True)
class MapSpec:
    """A conformal map of the disk, either one of the named zoo entries, a
    truncated series, or a map regenerated from stored generator data.

    ``pre`` precomposes with the disk automorphism
    e^{i theta} (z + a) / (1 + conj(a) z); ``post`` applies scale*f + offset.
    """

    kind: str
    alpha: float | None = None
    n: int | None = None
    series: PowerSeries | None = None
    phi: PhiSpec | None = None
    order: int | None = None
    pre: tuple[complex, float] | None = None
    post: tuple[complex, complex] | None = None

    def __post_init__(self):
        if self.kind not in _MAP_KINDS:
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.kind == "sector":
            if self.alpha is None or not 0.0 < float(self.alpha) <= 1.0:
                raise ValueError("sector needs alpha in (0, 1]")
            object.__setattr__(self, "alpha", float(self.alpha))
        if self.kind == "polygon":
            if self.n is None or int(self.n) != self.n or int(self.n) < 3:
                raise ValueError("polygon needs an integer n >= 3")
            object.__setattr__(self, "n", int(self.n))
        if self.kind == "series" and self.series is None:
            raise ValueError("series map needs a PowerSeries")
        if self.order is not None:
            object.__setattr__(self, "order", _integral(self.order, "order"))
        if self.kind == "herglotz":
            if self.phi is None:
                raise ValueError("regenerated map needs its phi data")
            if self.order is None:
                object.__setattr__(self, "order", DEFAULT_ORDER)
            if self.series is None:
                object.__setattr__(self, "series", _herglotz_series(self.phi, self.order, DEFAULT_RMAX))
        for name, entries in (("pre", self.pre), ("post", self.post)):
            if entries is not None and not all(map(cmath.isfinite, map(complex, entries))):
                raise ValueError(f"{name}composition entries must be finite, got {entries}")
        if self.pre is not None:
            a, theta = complex(self.pre[0]), float(self.pre[1])
            if abs(a) >= 1.0:
                raise ValueError(f"precomposition center must satisfy |a| < 1, got {a}")
            object.__setattr__(self, "pre", (a, theta))
            # what _moved and the chain rule read at every z, computed once per map
            ab, e = a.conjugate(), np.exp(1j * theta)
            q = e * (1.0 - abs(a) ** 2)
            object.__setattr__(self, "_pre_constants", (a, e, ab, q, -2.0 * ab * q, 6.0 * ab * ab * q))
        if self.post is not None:
            s, b = self.post
            s = complex(s)
            if s == 0:
                raise ValueError("postcomposition scale must be nonzero")
            object.__setattr__(self, "post", (s, complex(b)))

    def precomposed(self, a: complex, theta: float = 0.0) -> "MapSpec":
        return dataclasses.replace(self, pre=(complex(a), float(theta)))

    def postcomposed(self, scale: complex = 1.0, offset: complex = 0.0) -> "MapSpec":
        return dataclasses.replace(self, post=(complex(scale), complex(offset)))


def identity() -> MapSpec:
    return MapSpec("identity")


def halfplane() -> MapSpec:
    """z / (1 - z), the disk onto a half plane."""
    return MapSpec("halfplane")


def strip() -> MapSpec:
    """atanh z, the disk onto a horizontal strip."""
    return MapSpec("strip")


def sector(alpha: float) -> MapSpec:
    """((1+z)/(1-z))**alpha, the disk onto a sector of opening alpha*pi."""
    return MapSpec("sector", alpha=alpha)


def polygon(n: int) -> MapSpec:
    """The disk onto a regular n-gon, f'(z) = (1 - z**n)**(-2/n)."""
    return MapSpec("polygon", n=n)


def koebe() -> MapSpec:
    """z / (1 - z)**2.  Univalent but not convex; the standard counterexample."""
    return MapSpec("koebe")


def from_series(series, rmax: float = DEFAULT_RMAX) -> MapSpec:
    if not isinstance(series, PowerSeries):
        series = PowerSeries(series, rmax)
    return MapSpec("series", series=series)


def builtin_map(name: str, alpha: float | None = None, n: int | None = None) -> MapSpec:
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown builtin map {name!r}; choose one of {', '.join(BUILTIN_NAMES)}")
    if name == "sector":
        if alpha is None:
            raise ValueError("sector needs --alpha")
        return sector(alpha)
    if name == "polygon":
        if n is None:
            raise ValueError("polygon needs --n")
        return polygon(n)
    return MapSpec(name)


# ---------------------------------------------------------------------------
# jets: each closed form gives (f, f', f'', f''') with f as a callable, so that
# a caller reading only the derivatives never computes f


def _jets_identity(z, m):
    if np.ndim(z) == 0:
        return lambda: z, 1 + 0j, 0j, 0j
    zero = np.zeros_like(z)
    return lambda: z, np.ones_like(z), zero, zero


def _jets_halfplane(z, m):
    u = 1.0 / (1.0 - z)
    return lambda: z * u, u * u, 2.0 * u**3, 6.0 * u**4


def _jets_strip(z, m):
    w = 1.0 - z * z
    return lambda: np.arctanh(z), 1.0 / w, 2.0 * z / w**2, (2.0 + 6.0 * z * z) / w**3


def _jets_sector(z, m):
    # principal logs; 1 +/- z stays in the right half plane for |z| < 1
    alpha = m.alpha
    lp, lm = np.log(1.0 + z), np.log(1.0 - z)
    f1 = 2.0 * alpha * np.exp((alpha - 1.0) * lp - (alpha + 1.0) * lm)
    w = 1.0 - z * z
    P = (2.0 * alpha + 2.0 * z) / w
    Pp = (2.0 + 4.0 * alpha * z + 2.0 * z * z) / w**2
    return lambda: np.exp(alpha * (lp - lm)), f1, f1 * P, f1 * (Pp + P * P)


def _jets_koebe(z, m):
    om = 1.0 - z
    f1 = (1.0 + z) / om**3
    w = 1.0 - z * z
    P = (4.0 + 2.0 * z) / w
    Pp = (2.0 + 8.0 * z + 2.0 * z * z) / w**2
    return lambda: z / om**2, f1, f1 * P, f1 * (Pp + P * P)


def _polygon_f0(z, n):
    # f = sum_k C_k z**(n k + 1) / (n k + 1) with C_k = C_{k-1} (2/n + k - 1)/k
    zn = z**n
    if isinstance(zn, complex):
        sup, acc, power = abs(zn), 0j, 1 + 0j
    else:
        sup, acc, power = float(np.max(np.abs(zn))), np.zeros_like(zn), np.ones_like(zn)
    coeff = 1.0
    supk = 1.0
    k = 0
    while True:
        acc = acc + (coeff / (n * k + 1.0)) * power
        k += 1
        coeff *= (2.0 / n + k - 1.0) / k
        power = power * zn
        supk *= sup
        if coeff * supk / (n * k + 1.0) < 1e-18 and k >= 4:
            break
        if k > 8000:
            raise ConvmapError("polygon vertex series did not converge; reduce |z|")
    return z * acc


def _jets_polygon(z, m):
    n = m.n
    # a single point runs on Python complex and cmath: on a 0-d array each
    # of the vertex series' hundreds of terms pays NumPy's per-call overhead
    lib = np
    if np.ndim(z) == 0:
        z, lib = complex(z), cmath
    zn = z**n
    w = 1.0 - zn
    f1 = lib.exp(-(2.0 / n) * lib.log(w))
    P = 2.0 * z ** (n - 1) / w
    Pp = 2.0 * ((n - 1.0) * z ** (n - 2) + z ** (2 * n - 2)) / w**2
    return lambda: _polygon_f0(z, n), f1, f1 * P, f1 * (Pp + P * P)


_CLOSED_FORMS = {
    "identity": _jets_identity,
    "halfplane": _jets_halfplane,
    "strip": _jets_strip,
    "sector": _jets_sector,
    "polygon": _jets_polygon,
    "koebe": _jets_koebe,
}

_UFUNCS = {ast.Add: "add", ast.Mult: "multiply", ast.Div: "divide", ast.Pow: "power"}


def _compiled(steps, inputs, outputs, params: str, handover=False, in_place=False):
    """(name, expression) ``steps`` in evaluation order (a name may be bound
    again) compiled into the straight-line function of ``params`` that runs
    the steps the ``outputs`` read and returns the dict of outputs.  The
    values ``inputs`` are parameters, or with ``handover`` one list ``jets``
    that the function unpacks and empties, so that the caller holds no
    reference.  A step may read other parameters (``s = m.post[0]``), which
    binds a constant where the steps place it; every value but the outputs
    is deleted after its last reader.  So a single point pays only its
    arithmetic; a loop over the steps would cost three times that.

    ``in_place`` runs each one-operator step as a ufunc call (``** 2`` is
    np.square, as for the operator) with ``out=`` the array its name held if
    the function made it, else an operand's that it made and nothing reads
    again.  So it writes into no input, which the caller may share."""
    known = {*inputs, *(name for name, _ in steps)}  # the values
    body, live = [], set(outputs)  # (name, expression, values read) of the steps kept, found backwards
    for name, expr in reversed(steps):
        if name in live:
            reads = [x for x in compile(expr, name, "eval").co_names if x in known]  # in order of evaluation
            live.discard(name)
            live.update(reads)
            body.insert(0, (name, expr, reads))
    lines = [f"{', '.join(inputs)}, = jets", "jets.clear()"] if handover else []
    lines += [f"del {x}" for x in inputs if x not in live and x not in outputs]

    def next_use(x, i):  # "read" or "write" at the first later step naming x
        return next(("read" if x in r else "write" for n, _, r in body[i + 1 :] if x in (n, *r)), None)

    own = set()  # names bound to an array the function made
    for i, (name, expr, reads) in enumerate(body):
        uses = {x: next_use(x, i) for x in reads}
        dead = [x for x, use in uses.items() if use is None and x not in outputs]  # read here for the last time
        tree = ast.parse(expr, mode="eval").body
        operands = (tree.left, tree.right) if isinstance(tree, ast.BinOp) and type(tree.op) in _UFUNCS else ()
        if in_place and operands and all(isinstance(x, (ast.Name, ast.Constant)) for x in operands):
            out = name if name in own else next((x for x in dead if x in own), None)
            own.discard(out)
            a, b = map(ast.unparse, operands)
            expr = f"np.square({a}" if isinstance(tree.op, ast.Pow) and b == "2" else f"np.{_UFUNCS[type(tree.op)]}({a}, {b}"
            expr += f", out={out})" if out else ")"
            own.add(name)
        else:
            own.discard(name)
        lines.append(f"{name} = {expr}")
        # a name goes after its last reader, unless its array is to take a later result
        lines += [f"del {x}" for x, use in uses.items() if x in dead or use == "write" and x not in own]
    lines.append(f"return {{{', '.join(f'{x!r}: {x}' for x in outputs)}}}")
    namespace = {"np": np}
    exec(f"def compiled({params}):\n    " + "\n    ".join(lines), namespace)
    return namespace["compiled"]


def _moved(m: MapSpec, z):
    """(tau(z), d): z moved by the precomposition tau(z) = e (z + a) / d,
    with d = 1 + conj(a) z."""
    a, e, ab = m._pre_constants[:3]
    d = 1.0 + ab * z
    return e * (z + a) / d, d


# The chain rule of s F(tau(z)) + b, once: f1, f2, f3 enter as F', F'', F'''
# at tau(z) and leave as the composed derivatives; t1, t2, t3 are tau' = q/d^2,
# tau'' = q2/d^3, tau''' = q3/d^4.  Each step keeps the association and operand
# order that fix the bits (complex products of arrays do not commute bit for
# bit), and f''' goes first, so each reads the lower derivatives unchanged.
_PRE_STEPS = [tuple(step.split(" = ")) for step in (
    "t1 = d ** 2; q = m._pre_constants[3]; t1 = q / t1; t2 = d ** 3; q2 = m._pre_constants[4]; t2 = q2 / t2; "
    "t3 = d ** 4; q3 = m._pre_constants[5]; t3 = q3 / t3; "
    # f''' = f3 t1^3 + 3.0 f2 t1 t2 + f1 t3, f'' = f2 t1 t1 + f1 t2, f' = f1 t1
    "h = t1 ** 3; h = f3 * h; k = 3.0 * f2; k = k * t1; k = k * t2; h = h + k; t3 = f1 * t3; f3 = h + t3; "
    "k = f2 * t1; k = k * t1; t2 = f1 * t2; f2 = k + t2; f1 = f1 * t1"
).split("; ")]
_POST_STEPS = [("s", "m.post[0]"), ("f1", "s * f1"), ("f2", "s * f2"), ("f3", "s * f3")]


@functools.cache
def _composition(count: int, pre: bool, post: bool, in_place: bool):
    """The chain rule (``pre``) and the postcomposition scale (``post``),
    compiled by ``_compiled``: a function of a map and the list [f1, (f2,
    f3,) (d)], which it empties, returning the dict of the composed f',
    ..., f^(count), in the operator form or the in-place form."""
    outs = ("f1", "f2", "f3")[:count]
    steps = _PRE_STEPS * pre + _POST_STEPS * post
    return _compiled(steps, outs + ("d",) * pre, outs, "m, jets", handover=True, in_place=in_place)


def _jets(m: MapSpec, z, count: int = 3):
    """(f, f', ..., f^(count)) of the composed map at array z, or over a
    GridSpec for a series map with no precomposition, with f as a callable
    that a caller reading only derivatives never calls.  ``count`` is 1 or
    3 (a closed form with nothing to compose gives three derivatives
    whatever the count); single points come through ``_point_jets``.  The
    base map's jets at the moved points and d go to ``_composition``: its
    operator form for a 0-d or one-element array, which NumPy iterates
    with stride 0 (a complex product written over an operand then rounds
    as a scalar product does), its in-place form for more points."""
    w, d = (z, None) if m.pre is None else _moved(m, z)
    jets = series_jet_fields(m.series, w, count) if m.series is not None else _CLOSED_FORMS[m.kind](w, m)
    if m.pre is None and m.post is None:  # nothing to compose
        return jets
    f, *jets = jets[: count + 1]
    jets += [] if d is None else [d]
    del w, d
    in_place = isinstance(z, GridSpec) or z.size > 1
    jets = _composition(count, m.pre is not None, m.post is not None, in_place)(m, jets).values()
    if m.post is not None:
        s, b = m.post
        f = lambda f0=f: s * f0() + b
    return (f, *jets)


def _point_jets(m: MapSpec, z: complex, count: int = 3):
    """``_jets`` at one point z: a series map with nothing to compose takes
    one running product (Python complex values), any other map a 0-d array."""
    if m.series is not None and m.pre is None and m.post is None:
        certify(m.series, abs(z))
        f0, *jet = point_columns(m.series.table, z)
        return (lambda: f0, *jet)
    return _jets(m, np.asarray(z, dtype=complex), count)


def jet_fields(m: MapSpec, z):
    """Arrays (f, f', f'', f''') of the composed map at scalar or array z."""
    f, f1, f2, f3 = _jets(m, np.asarray(z, dtype=complex))
    return f(), f1, f2, f3


def _grid_jets(m: MapSpec, where):
    """(z, f', f'', f''') without computing f, at the points z of a GridSpec
    (in ``GridSpec.points`` order, built once here) or of an array.

    On a grid, a series map without a precomposition takes the spectral
    route (``series.eval_grid``), and a postcomposition applies after it;
    every other map evaluates at z.
    """
    z = grid_points(where)
    spectral = isinstance(where, GridSpec) and m.series is not None and m.pre is None
    return (z, *_jets(m, where if spectral else z)[1:])


def jet_derivatives(m: MapSpec, z):
    """(f', f'', f''') of the composed map at scalar or array z, or over the
    points of a GridSpec in ``GridSpec.points`` order, without computing f
    (see ``_grid_jets``)."""
    return _grid_jets(m, z)[1:]


def certified_rmax(m: MapSpec) -> float:
    """Radius of the largest disk about 0 where the map is certified: 1.0 for
    closed forms, else the series radius R, shrunk by a precomposition with
    center a to (R - |a|)/(1 - |a| R).  Raises RadiusExceeded if |a| >= R."""
    R = m.series.rmax if m.series is not None else 1.0
    a = abs(m.pre[0]) if m.pre is not None else 0.0
    if a >= R:
        raise RadiusExceeded(f"precomposition center |a| = {a:.6g} lies outside the certified radius {R:g}")
    return (R - a) / (1.0 - a * R)


def certified_points(m: MapSpec, z) -> np.ndarray:
    """Mask of the points of array z where ``jet_fields`` is certified:
    everywhere for closed forms, and for a series map where its series
    passes the radius test that ``series_jet_fields`` applies."""
    z = np.asarray(z, dtype=complex)
    if m.series is None:
        return np.ones(z.shape, dtype=bool)
    return in_radius(m.series, z if m.pre is None else _moved(m, z)[0])


def _jet_at(m: MapSpec, z: complex):
    """(f, f', f'', f''') at one point from ``_point_jets``, the derivatives
    as Python complex and f as a callable.  The single-point rules live
    here, for ``jet_of`` and the tracer alike: ValueError at |z| >= 1 or on
    a non-finite derivative, then SingularPoint where f' vanishes."""
    if abs(z) >= 1.0:
        raise ValueError(f"need |z| < 1, got |z| = {abs(z):.6g}")
    f, f1, f2, f3 = _point_jets(m, z)
    f1, f2, f3 = complex(f1), complex(f2), complex(f3)
    if not (cmath.isfinite(f1) and cmath.isfinite(f2) and cmath.isfinite(f3)):
        name = next(n for n, v in (("f1", f1), ("f2", f2), ("f3", f3)) if not cmath.isfinite(v))
        raise ValueError(f"jet component {name} is not finite at z = {z}")
    if f1 == 0:
        raise SingularPoint(f"f' vanishes at z = {z}")
    return f, f1, f2, f3


def jet_of(m: MapSpec, z: complex) -> Jet:
    """Third-order jet at one point, held to the rules of ``_jet_at``."""
    z = complex(z)
    f, f1, f2, f3 = _jet_at(m, z)
    return Jet(z, f(), f1, f2, f3)


def series_eval_jet(s: PowerSeries, z: complex) -> Jet:
    """Jet of the series at z: ``jet_of`` on the series map of ``s``."""
    return jet_of(from_series(s), z)


# ---------------------------------------------------------------------------
# the generator: integrating phi into a map


def _herglotz_series(phi: PhiSpec, order: int, rmax: float) -> PowerSeries:
    """The generated series.  Every entry point builds it two calls below its
    caller (gen_herglotz, herglotz_map and map_from_json through
    ``_generated``, MapSpec through its ``__init__`` and ``__post_init__``),
    so a TruncationTail warning names that caller's line."""
    order = _integral(order, "order")
    if order < MIN_ORDER:
        raise ValueError(f"order must be at least {MIN_ORDER}")
    sup = phi.boundary_sup()
    if sup > 1.0 + PHI_SUP_TOL:
        raise PhiOutOfRange(f"sup |phi| = {sup:.6g} on the circle exceeds 1")
    ps = phi.series(order, rmax)
    one_minus = np.concatenate([[1.0], 0.0 - ps.coeffs[:-1]])  # 1 - z phi; 0.0 - c, not -c, gives no -0.0
    ratio = series_mul(ps, series_inv(PowerSeries(one_minus, rmax)))
    log_f1 = series_integrate(PowerSeries(2.0 * ratio.coeffs, rmax), 0.0, cap=order)
    f1 = series_exp(log_f1)
    f = series_integrate(f1, 0.0, cap=order)
    f.warn_if_tail_large(5)
    return f


def _generated(kind: str, phi: PhiSpec, order: int, rmax: float) -> MapSpec:
    return MapSpec(kind, phi=phi, order=order, series=_herglotz_series(phi, order, rmax))


def gen_herglotz(phi: PhiSpec, order: int = DEFAULT_ORDER, rmax: float = DEFAULT_RMAX) -> MapSpec:
    """Integrate f''/f' = 2 phi / (1 - z phi) into a series map normalized by
    f(0) = 0, f'(0) = 1.  The map remembers ``phi`` and ``order``, but its
    JSON stores the coefficients.

    The three series stages (reciprocal, exponential, antiderivative) are all
    lower-triangular recurrences, so the returned coefficients through
    z**order are exact; truncation error lives only in the dropped tail.
    """
    return _generated("series", phi, order, rmax)


def herglotz_map(phi: PhiSpec, order: int = DEFAULT_ORDER, rmax: float = DEFAULT_RMAX) -> MapSpec:
    """Same as gen_herglotz but tagged with the generator data it came from,
    so JSON round trips rebuild it instead of storing coefficients."""
    return _generated("herglotz", phi, order, rmax)


# ---------------------------------------------------------------------------
# JSON interchange


def complex_pair(w: complex) -> list[float]:
    w = complex(w)
    return [float(w.real), float(w.imag)]


def _integral(x, name: str = "") -> int:
    """x as an int; a value that int() would truncate is malformed, and the
    error names ``name`` when one is given."""
    v = float(x)
    if not v.is_integer():
        raise ValueError(f"expected an integer{' ' + name if name else ''}, got {x!r}")
    return int(v)


def _pair2c(p) -> complex:
    if not isinstance(p, (list, tuple)) or len(p) != 2:
        raise ValueError(f"expected a [re, im] pair, got {p!r}")
    return complex(float(p[0]), float(p[1]))


def phi_to_json(phi: PhiSpec) -> dict:
    if phi.kind == "poly":
        return {"kind": "poly", "coeffs": [complex_pair(c) for c in phi.coeffs]}
    if phi.kind == "blaschke":
        return {"kind": "blaschke", "zeros": [complex_pair(a) for a in phi.zeros], "theta": phi.theta}
    return {"kind": "const", "theta": phi.theta}


def phi_from_json(obj) -> PhiSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("phi spec must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "poly":
        return PhiSpec.polynomial([_pair2c(p) for p in obj.get("coeffs", [])])
    if kind == "blaschke":
        return PhiSpec.blaschke([_pair2c(p) for p in obj.get("zeros", [])], float(obj.get("theta", 0.0)))
    if kind == "const":
        return PhiSpec.unimodular_constant(float(obj.get("theta", 0.0)))
    raise ValueError(f"unknown phi kind {kind!r}")


def map_to_json(m: MapSpec) -> dict:
    params: dict = {}
    if m.kind == "sector":
        params["alpha"] = m.alpha
    elif m.kind == "polygon":
        params["n"] = m.n
    elif m.kind == "series":
        params["coeffs"] = [complex_pair(c) for c in m.series.coeffs]
    elif m.kind == "herglotz":
        params["phi"] = phi_to_json(m.phi)
        params["order"] = m.order
    if m.series is not None:
        params["rmax"] = m.series.rmax
    obj = {"type": m.kind, "params": params}
    if m.pre is not None:
        obj["pre"] = {"a": complex_pair(m.pre[0]), "theta": m.pre[1]}
    if m.post is not None:
        obj["post"] = {"scale": complex_pair(m.post[0]), "offset": complex_pair(m.post[1])}
    return obj


def map_from_json(obj) -> MapSpec:
    if not isinstance(obj, dict):
        raise ValueError("map spec must be a JSON object")
    kind = obj.get("type")
    if kind not in _MAP_KINDS:
        raise ValueError(f"unknown map type {kind!r}")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("'params' must be an object")
    try:
        if kind == "sector":
            m = sector(float(params["alpha"]))
        elif kind == "polygon":
            m = polygon(_integral(params["n"]))
        elif kind == "series":
            coeffs = [_pair2c(p) for p in params.get("coeffs", [])]
            if not coeffs:
                raise ValueError("series map needs coefficients")
            m = from_series(coeffs, float(params.get("rmax", DEFAULT_RMAX)))
        elif kind == "herglotz":
            m = _generated(
                "herglotz",
                phi_from_json(params.get("phi")),
                _integral(params.get("order", DEFAULT_ORDER), "order"),
                float(params.get("rmax", DEFAULT_RMAX)),
            )
        else:
            m = MapSpec(kind)
        if "pre" in obj:
            pre = obj["pre"]
            m = m.precomposed(_pair2c(pre["a"]), float(pre.get("theta", 0.0)))
        if "post" in obj:
            post = obj["post"]
            m = m.postcomposed(_pair2c(post.get("scale", [1.0, 0.0])), _pair2c(post.get("offset", [0.0, 0.0])))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed map spec for type {kind!r}: {exc}") from exc
    return m
