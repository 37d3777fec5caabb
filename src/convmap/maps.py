"""The map zoo: closed-form convex maps of the disk, series-backed maps, and
the generator that integrates a disk-valued generator function into a map.

All derivatives here are exact formulas or exact series recurrences; nothing
in this module differentiates numerically.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import itertools
import linecache
from dataclasses import dataclass

import numpy as np

from .errors import ConvmapError, PhiOutOfRange, RadiusExceeded, SingularPoint
from .grid import GridSpec, grid_points
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
        # a field its kind ignores would make equal phi unequal
        ignored = {"poly": ("zeros", "theta"), "blaschke": ("coeffs",), "const": ("coeffs", "zeros")}[self.kind]
        if any(getattr(self, name) for name in ignored):
            raise ValueError(f"a {self.kind} phi has no {' or '.join(ignored)}")
        if self.kind == "poly" and not self.coeffs:
            raise ValueError("polynomial phi needs at least one coefficient")
        if self.kind == "blaschke":
            if not self.zeros:
                raise ValueError("Blaschke phi needs at least one zero")
            for a in self.zeros:
                if abs(a) >= 1.0:
                    raise ValueError(f"Blaschke zero must satisfy |a| < 1, got {a}")
        object.__setattr__(self, "_unit", complex(np.exp(1j * self.theta)))  # what ``jet`` starts from

    @classmethod
    def polynomial(cls, coeffs) -> "PhiSpec":
        return cls("poly", coeffs=tuple(np.asarray(coeffs, dtype=complex).ravel()))

    @classmethod
    def blaschke(cls, zeros, theta: float = 0.0) -> "PhiSpec":
        return cls("blaschke", zeros=tuple(np.asarray(zeros, dtype=complex).ravel()), theta=theta)

    @classmethod
    def unimodular_constant(cls, theta: float = 0.0) -> "PhiSpec":
        return cls("const", theta=theta)

    def jet(self, z):
        """(phi, phi') at a Python complex z or an array z.  A polynomial
        takes one Horner loop for both, begun and ordered as
        ``numpy.polynomial.polynomial.polyval`` is, so that phi has its
        bits; a Blaschke product takes the product rule factor by factor,
        because phi'/phi would divide by zero at its zeros; a unimodular
        constant has phi' = 0."""
        if self.kind == "poly":  # in place on arrays: fresh temporaries cost more than the arithmetic
            c = self.coeffs
            v, d = c[-1] + z * 0, z * 0
            for ck in c[-2::-1]:
                d *= z
                d += v
                v *= z
                v += ck
            return v, d
        array = isinstance(z, np.ndarray)
        v = np.full(z.shape, self._unit) if array else self._unit
        d = np.zeros(z.shape, dtype=complex) if array else 0j
        for a in self.zeros:
            q, den = 1.0 - abs(a) ** 2, 1.0 - a.conjugate() * z
            v, d = v * (z - a) / den, (d * (z - a) + v * q / den) / den
        return v, d

    def values(self, z):
        """phi at scalar or array z: the value column of ``jet``."""
        return self.jet(np.asarray(z, dtype=complex))[0]

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
        acc = _padded([self._unit], order, rmax)  # a constant has no zeros
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
    truncated series, or a map regenerated from stored generator data (a
    series that carries its ``phi``).  A kind takes only its own fields.

    ``pre`` precomposes with the disk automorphism
    e^{i theta} (z + a) / (1 + conj(a) z); ``post`` applies scale*f + offset.
    """

    kind: str
    alpha: float | None = None
    n: int | None = None
    series: PowerSeries | None = None
    pre: tuple[complex, float] | None = None
    post: tuple[complex, complex] | None = None

    def __post_init__(self):
        if self.kind not in _MAP_KINDS:
            raise ValueError(f"unknown map kind {self.kind!r}")
        # a field its kind ignores would make equal maps unequal, or disagree with the map
        own = {"sector": "alpha", "polygon": "n", "series": "series", "herglotz": "series"}.get(self.kind)
        for name in ("alpha", "n", "series"):
            if name != own and getattr(self, name) is not None:
                raise ValueError(f"a {self.kind} map takes no {name}")
        if self.kind == "sector":
            if self.alpha is None or not 0.0 < float(self.alpha) <= 1.0:
                raise ValueError("sector needs alpha in (0, 1]")
            object.__setattr__(self, "alpha", float(self.alpha))
        if self.kind == "polygon":
            if self.n is None or int(self.n) != self.n or int(self.n) < 3:
                raise ValueError("polygon needs an integer n >= 3")
            object.__setattr__(self, "n", int(self.n))
        if own == "series" and not isinstance(self.series, PowerSeries):
            raise ValueError(f"a {self.kind} map needs a PowerSeries")
        if self.kind == "herglotz" and self.series.phi is None:
            raise ValueError("a herglotz map needs the series generated from its phi")
        # the key of the base map's entry in ``_BASES``, the route table of ``_jets``
        base = self.kind if self.series is None else "series" if self.series.phi is None else "generated"
        object.__setattr__(self, "_base", base)
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
            object.__setattr__(self, "_pre_constants", (a, e, ab, e * (1.0 - abs(a) ** 2)))
        if self.post is not None:
            s, b = self.post
            s = complex(s)
            if s == 0:
                raise ValueError("postcomposition scale must be nonzero")
            object.__setattr__(self, "post", (s, complex(b)))

    def precomposed(self, a: complex, theta: float = 0.0) -> "MapSpec":
        """The map after tau2 = e^{i theta} (z + a)/(1 + conj(a) z); one precomposed with tau1 gets
        tau1(tau2(z)), whose matrix [[e, e a], [conj(a), 1]] is the product of theirs."""
        a, theta = complex(a), float(theta)
        if self.pre is not None and abs(a) < 1.0 and cmath.isfinite(theta):  # else __post_init__ refuses (a, theta)
            a1, e1, ab1 = self._pre_constants[:3]
            e2 = cmath.exp(1j * theta)
            t = e2 + a1 * a.conjugate()
            a, theta = (e2 * a + a1) / t, cmath.phase(e1 * t / (1.0 + ab1 * e2 * a))
        return dataclasses.replace(self, pre=(a, theta))

    def postcomposed(self, scale: complex = 1.0, offset: complex = 0.0) -> "MapSpec":
        """scale * f + offset of the map, after any postcomposition it has."""
        s, b = complex(scale), complex(offset)
        if self.post is not None:
            s, b = s * self.post[0], s * self.post[1] + b
        return dataclasses.replace(self, post=(s, b))


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
# jets, in one vocabulary: f', P = f''/f' and the Schwarzian S.  Every base
# map is one entry of one route table, ``_BASES``, keyed by ``MapSpec._base``:
# the six closed forms, a generated map (one whose series carries its phi)
# and a bare series.  Each entry gives (f, f', P, S) at the points, f and f'
# as callables, so that a convexity report, which reads P and S, never forms
# f', and a ``Jet`` holds (f, f', P, S) at one point.  A closed form has P
# and S as formulas; the two series entries read f and f' through one
# reader, ``_series_jet``, and a generated map forms P and S from phi and
# phi' by ``_PHI_STEPS``, a bare series from its derivative table by
# ``_PS_STEPS``.  ``_jets`` composes the
# values of any entry alike.  The full jet f'' = f' P,
# f''' = f' (S + 1.5 P^2) is built in one place, ``_full_jet``, in steps
# that keep their operands in order: from 16,384 points NumPy elides the
# temporary of f1 * (S + 1.5 * P * P) and computes (S + 1.5 * P * P) * f1,
# which rounds differently with FMA, so a point's bits would depend on the
# size of its batch.


def _jets_identity(z, m, *_):
    if np.ndim(z) == 0:
        return lambda: z, lambda: 1 + 0j, 0j, 0j
    zero = np.zeros_like(z)
    return lambda: z, lambda: np.ones_like(z), zero, zero


def _jets_halfplane(z, m, *_):
    u = 1.0 / (1.0 - z)
    return lambda: z * u, lambda: u * u, 2.0 * u, np.zeros_like(u)


def _jets_strip(z, m, *_):
    w = 1.0 - z * z
    return lambda: np.arctanh(z), lambda: 1.0 / w, 2.0 * z / w, 2.0 / w**2


def _jets_sector(z, m, *_):
    alpha = m.alpha
    w = 1.0 - z * z
    # principal logs, once for f and f'; 1 +/- z stays in the right half plane for |z| < 1
    logs = functools.cache(lambda: (np.log(1.0 + z), np.log(1.0 - z)))
    f = lambda: np.exp(alpha * (logs()[0] - logs()[1]))
    f1 = lambda: 2.0 * alpha * np.exp((alpha - 1.0) * logs()[0] - (alpha + 1.0) * logs()[1])
    return f, f1, (2.0 * alpha + 2.0 * z) / w, 2.0 * (1.0 - alpha * alpha) / w**2


def _jets_koebe(z, m, *_):
    w = 1.0 - z * z
    return lambda: z / (1.0 - z) ** 2, lambda: (1.0 + z) / (1.0 - z) ** 3, (4.0 + 2.0 * z) / w, -6.0 / w**2


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


def _jets_polygon(z, m, *_):
    n = m.n
    # a single point runs on Python complex and cmath: on a 0-d array each
    # of the vertex series' hundreds of terms pays NumPy's per-call overhead
    lib = np
    if np.ndim(z) == 0:
        z, lib = complex(z), cmath
    w = 1.0 - z**n
    f1 = lambda: lib.exp(-(2.0 / n) * lib.log(w))
    return lambda: _polygon_f0(z, n), f1, 2.0 * z ** (n - 1) / w, 2.0 * (n - 1.0) * z ** (n - 2) / w**2


_SOURCES = itertools.count()  # numbers the sources of ``_compiled`` in linecache


def _compiled(steps, inputs, outputs, params: str, handover=False):
    """(name, expression) ``steps`` in evaluation order (a name may be bound
    again) compiled into the straight-line function of ``params`` that runs
    the steps the ``outputs`` read and returns the dict of outputs; its
    ``reads`` names the inputs after the first (the points z of a field
    kernel) that those steps or the outputs read.  The values ``inputs`` are
    parameters, or with ``handover`` one list ``jets`` of the first input
    and the ``reads``, which the function unpacks and empties, so that the
    caller holds no reference.  A step may read other parameters
    (``s = m.post[0]``), which binds a constant where the steps place it;
    every value but the outputs is deleted after its last reader.  So a
    single point pays only its arithmetic; a loop over the steps would cost
    three times that."""
    known = {*inputs, *(name for name, _ in steps)}  # the values
    body, live = [], set(outputs)  # (name, expression, values read) of the steps kept, found backwards
    for name, expr in reversed(steps):
        if name in live:
            reads = [x for x in compile(expr, name, "eval").co_names if x in known]  # in order of evaluation
            live.discard(name)
            live.update(reads)
            body.insert(0, (name, expr, reads))
    needs = tuple(x for x in inputs[1:] if x in live)
    lines = [f"{', '.join(inputs[:1] + needs)}, = jets", "jets.clear()"] if handover else []
    lines += [f"del {x}" for x in (inputs[:1] if handover else inputs) if x not in live]

    def next_use(x, i):  # "read" or "write" at the first later step naming x
        return next(("read" if x in r else "write" for n, _, r in body[i + 1 :] if x in (n, *r)), None)

    for i, (name, expr, reads) in enumerate(body):
        uses = {x: next_use(x, i) for x in reads}
        lines.append(f"{name} = {expr}")
        # a name goes after its last reader, or before it is bound again
        lines += [f"del {x}" for x, use in uses.items() if use is None and x not in outputs or use == "write"]
    lines.append(f"return {{{', '.join(f'{x!r}: {x}' for x in outputs)}}}")
    source = f"def compiled({params}):\n    " + "\n    ".join(lines) + "\n"
    filename = f"<convmap._compiled {' '.join(outputs)} #{next(_SOURCES)}>"  # for a warning's line
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {}
    exec(compile(source, filename, "exec"), namespace)
    namespace["compiled"].reads = needs
    return namespace["compiled"]


def _moved(m: MapSpec, z):
    """(tau(z), d): z moved by the precomposition tau(z) = e (z + a) / d,
    with d = 1 + conj(a) z."""
    a, e, ab = m._pre_constants[:3]
    d = 1.0 + ab * z
    return e * (z + a) / d, d


# The chain rule of s F(tau(z)) + b, once: f1, P and S enter as F', F''/F' and
# the Schwarzian of F at tau(z) and leave as the composed map's.  t1 is tau' =
# q/d^2, tau''/tau' = -2 conj(a)/d, and tau has S = 0; s scales f' alone.  Each
# step keeps the association and operand order that fix the bits (complex
# products of arrays do not commute bit for bit).
_CHAIN_STEPS = [tuple(step.split(" = ")) for step in (
    "t1 = d ** 2; q = m._pre_constants[3]; t1 = q / t1; f1 = f1 * t1; P = P * t1; c = -2.0 * m._pre_constants[2]; "
    "c = c / d; P = P + c; t1 = t1 * t1; S = S * t1").split("; ")]
_POST_STEPS = [("s", "m.post[0]"), ("f1", "s * f1")]
# f'' = f' P and f''' = f' (S + 1.5 P^2), each product with f' first (see the jets above)
_FULL_STEPS = [("f2", "f1 * P"), ("t", "1.5 * P"), ("t", "t * P"), ("t", "t + S"), ("f3", "f1 * t")]
# and back, for a series base map and ``functionals.fields``: P and S of a full jet
_PS_STEPS = [("P", "f2 / f1"), ("S", "f3 / f1 - 1.5 * P * P")]
# a generated map's P and S from its phi and phi' at the points w, with
# u = 1 - w phi: P = 2 phi/u and P' = 2 (phi' + phi^2)/u^2, so
# S = P' - P^2/2 = 2 phi'/u^2, exactly 0 where phi is constant; one
# division, r = 2/u, serves both (an array's division costs three products)
_PHI_STEPS = [("u", "w * phi"), ("u", "1.0 - u"), ("r", "2.0 / u"), ("P", "phi * r"), ("S", "dphi * r"),
              ("S", "S * r"), ("S", "0.5 * S")]


@functools.cache
def _composition(names: tuple, pre: bool, post: bool):
    """The chain rule (``pre``) and the postcomposition scale (``post``) of
    the values ``names`` (some of f1, P and S), compiled by ``_compiled``: a
    function of a map and the list of those values (and d with ``pre``),
    which it empties, returning the dict of the composed values."""
    steps = _CHAIN_STEPS * pre + _POST_STEPS * post
    return _compiled(steps, names + ("d",) * pre, names, "m, jets", handover=True)


_full = _compiled(_FULL_STEPS, ("f1", "P", "S"), ("f2", "f3"), "f1, P, S")
# _PS[False] forms P alone from (f', f''), _PS[True] P and S from (f', f'', f''')
_PS = [_compiled(_PS_STEPS, ("f1", "f2", "f3"), names, "f1, f2, f3=None") for names in (("P",), ("P", "S"))]


@functools.cache
def _from_phi(names: tuple):
    """Those of P and S that ``names`` asks for, by ``_PHI_STEPS``: a
    function of the list of the points w, phi and phi' (as far as its
    ``reads`` go), which it empties, returning the dict of them."""
    return _compiled(_PHI_STEPS, ("w", "phi", "dphi"), tuple(x for x in names if x != "f1"), "jets", handover=True)


def _series_jet(w, m: MapSpec, z, count: int):
    """(f, [f', ..., f^(count)]) of the map's series at the points w (moved
    from z), f as a callable, after its radius check: a point takes one
    running product, in Python complex, which gives f' to f''' whatever the
    count, an array or a grid ``series_jet_fields``."""
    if z.ndim == 0:
        certify(m.series, abs(w))
        f0, *jet = point_columns(m.series.table, complex(w))
        return (lambda: f0), jet
    f, *jet = series_jet_fields(m.series, w, count)
    return f, jet


def _jets_series(w, m: MapSpec, z, names: tuple):
    """A bare series as a base map at the points w (moved from z): (f, f',
    P, S), P and S by ``_PS_STEPS`` when ``names`` asks for them
    (SingularPoint where f' vanishes); an array evaluates f''' only for S."""
    count = 3 if "S" in names else 2 if "P" in names else 1
    f, jet = _series_jet(w, m, z, count)
    f1 = jet[0]
    if count == 1:
        return f, lambda: f1, None, None
    if (f1 == 0) if z.ndim == 0 else (f1 == 0).any():
        raise SingularPoint(f"f' vanishes at z = {complex(z)}" if z.ndim == 0 else "f' vanishes on the evaluation grid")
    ps = _PS[count == 3](*jet)
    return f, lambda: f1, ps["P"], ps.get("S")


def _jets_generated(w, m: MapSpec, z, names: tuple):
    """A generated map, one whose series carries its phi, as a base map at
    the points w (moved from z): P and S from phi and phi' by
    ``_from_phi``, f and f' from its series, f' only when ``names`` asks
    for it (an array or a grid evaluates f only when it is called)."""
    f, jet = _series_jet(w, m, z, "f1" in names)
    f1 = jet[0] if jet else None
    if names == ("f1",):
        return f, lambda: f1, None, None
    at = complex(w) if z.ndim == 0 else z if isinstance(w, GridSpec) else w  # phi at the points of a grid
    ps = _from_phi(names)
    ps = ps([at, *m.series.phi.jet(at)][: 1 + len(ps.reads)])
    return f, lambda: f1, ps.get("P"), ps.get("S")


_BASES = {
    "identity": _jets_identity,
    "halfplane": _jets_halfplane,
    "strip": _jets_strip,
    "sector": _jets_sector,
    "polygon": _jets_polygon,
    "koebe": _jets_koebe,
    "generated": _jets_generated,
    "series": _jets_series,
}


def _jets(m: MapSpec, where, names=("f1", "P", "S")):
    """(z, f, *values): the points z evaluated, f as a callable, and the
    values ``names`` asks for, some of f', P and S in that order; f' is
    formed only when named.  The one function that picks a route: the base
    map is the entry ``_BASES[m._base]``, and a map with a series and no
    precomposition hands its series a GridSpec (``series.eval_grid``) or a
    point as it is; anything else goes at z = ``grid_points(where)``, a
    point as a 0-d array.  The base map's values at the moved points and d
    go to ``_composition``, which frees each of them after its last use."""
    z = grid_points(where)
    w, d = (z, None) if m.pre is None else _moved(m, z)
    if m.series is not None and m.pre is None and not isinstance(where, np.ndarray):
        w = where
    f, f1, P, S = _BASES[m._base](w, m, z, names)
    # appends: a comprehension would cost each point of the tracer 0.17 us more
    jets = [f1()] if "f1" in names else []
    if "P" in names:
        jets.append(P)
    if "S" in names:
        jets.append(S)
    if d is not None:
        jets.append(d)
    del w, d, f1, P, S
    if m.pre is not None or m.post is not None and "f1" in names:
        jets = _composition(names, m.pre is not None, m.post is not None)(m, jets).values()
    if m.post is not None:
        s, b = m.post
        f = lambda f0=f: s * f0() + b
    return (z, f, *jets)


def _full_jet(f1, P, S):
    """(f', f'', f''') from (f', P, S): the one place that builds a full jet."""
    return (f1, *_full(f1, P, S).values())


def jet_fields(m: MapSpec, z):
    """Arrays (f, f', f'', f''') of the composed map at scalar or array z."""
    _, f, *jet = _jets(m, z)
    return (f(), *_full_jet(*jet))


def jet_derivatives(m: MapSpec, z):
    """(f', f'', f''') of the composed map at scalar or array z, or over the
    points of a GridSpec in ``GridSpec.points`` order, without computing f
    (see ``_jets``)."""
    return _full_jet(*_jets(m, z)[2:])


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


def _checked(z: complex, f1: complex, P: complex, S: complex) -> None:
    """The rule of a point, of ``_jet_at`` and of every ``Jet``: ValueError
    at |z| >= 1 (a NaN z too) or on a non-finite f', P or S, then
    SingularPoint where f' vanishes, so every view of a point may divide
    by f'."""
    if not abs(z) < 1.0:
        raise ValueError(f"need |z| < 1, got |z| = {abs(z):.6g}")
    if not (cmath.isfinite(f1) and cmath.isfinite(P) and cmath.isfinite(S)):
        name = next(n for n, v in (("f1", f1), ("P", P), ("S", S)) if not cmath.isfinite(v))
        raise ValueError(f"jet component {name} is not finite at z = {z}")
    if f1 == 0:
        raise SingularPoint(f"f' vanishes at z = {z}")


def _checked_value(z: complex, f0: complex) -> None:
    """The rule of a point's value, of every ``Jet`` and of each point the
    tracer accepts: ValueError where f0 is not finite."""
    if not cmath.isfinite(f0):
        raise ValueError(f"jet component f0 is not finite at z = {z}")


def _jet_at(m: MapSpec, z: complex):
    """(f, f', P, S) at one point from ``_jets``, f', P and S as Python
    complex and f as a callable, held to ``_checked``: the one point
    route, of ``jet_of``, the tracer and the start search.  Off the disk
    nothing is evaluated, and the rule refuses z itself."""
    _, f, f1, P, S = _jets(m, z) if abs(z) < 1.0 else (z, None, 1.0, 0.0, 0.0)
    f1, P, S = complex(f1), complex(P), complex(S)
    _checked(z, f1, P, S)
    return f, f1, P, S


@dataclass(frozen=True)
class Jet:
    """A map at one base point z: its value f0, f' (f1), P = f''/f' and the
    Schwarzian S, just what ``_jet_at`` gives.  The constructor holds f0 to
    ``_checked_value`` and the rest to ``_checked``; f2 and f3, the second
    and third derivatives, are formed on reading, by ``_full_jet``."""

    z: complex
    f0: complex
    f1: complex
    P: complex
    S: complex

    def __post_init__(self):
        z, f0, f1, P, S = map(complex, (self.z, self.f0, self.f1, self.P, self.S))
        _checked_value(z, f0)
        _checked(z, f1, P, S)
        self.__dict__.update(z=z, f0=f0, f1=f1, P=P, S=S)

    f2 = property(lambda self: _full_jet(self.f1, self.P, self.S)[1])
    f3 = property(lambda self: _full_jet(self.f1, self.P, self.S)[2])


def jet_of(m: MapSpec, z: complex) -> Jet:
    """The ``Jet`` of the map at one point, from ``_jet_at``."""
    z = complex(z)
    f, *jet = _jet_at(m, z)
    return Jet(z, f(), *jet)


# ---------------------------------------------------------------------------
# the generator: integrating phi into a map


def _herglotz_series(phi: PhiSpec, order: int, rmax: float) -> PowerSeries:
    """The generated series, which carries the ``phi`` it was integrated
    from.  Every entry point builds it two calls below its caller
    (gen_herglotz, herglotz_map and map_from_json through ``_generated``),
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
    object.__setattr__(f, "phi", phi)
    f.warn_if_tail_large(5)
    return f


def _generated(kind: str, phi: PhiSpec, order: int, rmax: float) -> MapSpec:
    return MapSpec(kind, series=_herglotz_series(phi, order, rmax))


def gen_herglotz(phi: PhiSpec, order: int = DEFAULT_ORDER, rmax: float = DEFAULT_RMAX) -> MapSpec:
    """Integrate f''/f' = 2 phi / (1 - z phi) into a series map normalized by
    f(0) = 0, f'(0) = 1.  Its series remembers ``phi`` (``m.series.phi``),
    but its JSON stores the coefficients.

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
        params["phi"] = phi_to_json(m.series.phi)
        params["order"] = m.series.order
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
            order, rmax = params.get("order", DEFAULT_ORDER), float(params.get("rmax", DEFAULT_RMAX))
            m = _generated("herglotz", phi_from_json(params.get("phi")), order, rmax)
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
