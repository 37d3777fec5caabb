"""The map zoo: closed-form convex maps of the disk, series-backed maps, and
the generator that integrates a disk-valued generator function into a map.

All derivatives here are exact formulas or exact series recurrences; nothing
in this module differentiates numerically.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConvmapError, DegenerateDenominator, PhiOutOfRange, SingularPoint
from .jet import Jet
from .series import (
    DEFAULT_ORDER,
    DEFAULT_RMAX,
    MIN_ORDER,
    PowerSeries,
    series_exp,
    series_integrate,
    series_inv,
    series_jet_fields,
    series_mul,
)

DEGENERATE_EPS = 1e-12
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

    def boundary_sup(self, samples: int = PHI_BOUNDARY_SAMPLES) -> float:
        """sup |phi| over the unit circle: exactly 1 for the bounded shapes,
        sampled for polynomials."""
        if self.kind in ("blaschke", "const"):
            return 1.0
        circle = np.exp(2j * np.pi * np.arange(samples) / samples)
        return float(np.max(np.abs(self.values(circle))))

    def series(self, order: int, rmax: float = DEFAULT_RMAX) -> PowerSeries:
        """Taylor coefficients through z**order."""
        if self.kind == "poly":
            c = np.zeros(order + 1, dtype=complex)
            src = np.asarray(self.coeffs)[: order + 1]
            c[: src.size] = src
            return PowerSeries(c, rmax)
        if self.kind == "const":
            c = np.zeros(order + 1, dtype=complex)
            c[0] = np.exp(1j * self.theta)
            return PowerSeries(c, rmax)
        start = np.zeros(order + 1, dtype=complex)
        start[0] = np.exp(1j * self.theta)
        acc = PowerSeries(start, rmax)
        for a in self.zeros:
            num = np.zeros(order + 1, dtype=complex)
            num[0] = -a
            num[1] = 1.0
            den = np.zeros(order + 1, dtype=complex)
            den[0] = 1.0
            den[1] = -a.conjugate()
            factor = series_mul(PowerSeries(num, rmax), series_inv(PowerSeries(den, rmax)))
            acc = series_mul(acc, factor)
        return acc


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
        if self.kind == "herglotz":
            if self.phi is None:
                raise ValueError("regenerated map needs its phi data")
            if self.order is None:
                object.__setattr__(self, "order", DEFAULT_ORDER)
            if self.series is None:
                object.__setattr__(
                    self, "series", _herglotz_series(self.phi, self.order, DEFAULT_RMAX)
                )
        if self.pre is not None:
            a, theta = self.pre
            a = complex(a)
            if abs(a) >= 1.0:
                raise ValueError(f"precomposition center must satisfy |a| < 1, got {a}")
            object.__setattr__(self, "pre", (a, float(theta)))
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
# jets


def _jets_identity(z):
    one = np.ones_like(z)
    zero = np.zeros_like(z)
    return z, one, zero, zero


def _jets_halfplane(z):
    u = 1.0 / (1.0 - z)
    return z * u, u * u, 2.0 * u**3, 6.0 * u**4


def _jets_strip(z):
    w = 1.0 - z * z
    return np.arctanh(z), 1.0 / w, 2.0 * z / w**2, (2.0 + 6.0 * z * z) / w**3


def _jets_sector(z, alpha):
    # principal logs; 1 +/- z stays in the right half plane for |z| < 1
    f0 = np.exp(alpha * (np.log(1.0 + z) - np.log(1.0 - z)))
    f1 = 2.0 * alpha * np.exp((alpha - 1.0) * np.log(1.0 + z) - (alpha + 1.0) * np.log(1.0 - z))
    w = 1.0 - z * z
    P = (2.0 * alpha + 2.0 * z) / w
    Pp = (2.0 + 4.0 * alpha * z + 2.0 * z * z) / w**2
    return f0, f1, f1 * P, f1 * (Pp + P * P)


def _jets_koebe(z):
    om = 1.0 - z
    f0 = z / om**2
    f1 = (1.0 + z) / om**3
    w = 1.0 - z * z
    P = (4.0 + 2.0 * z) / w
    Pp = (2.0 + 8.0 * z + 2.0 * z * z) / w**2
    return f0, f1, f1 * P, f1 * (Pp + P * P)


def _polygon_f0(z, n):
    # f = sum_k C_k z**(n k + 1) / (n k + 1) with C_k = C_{k-1} (2/n + k - 1)/k
    zn = z**n
    sup = float(np.max(np.abs(zn)))
    acc = np.zeros_like(zn)
    power = np.ones_like(zn)
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


def _jets_polygon(z, n):
    zn = z**n
    w = 1.0 - zn
    f1 = np.exp(-(2.0 / n) * np.log(w))
    P = 2.0 * z ** (n - 1) / w
    Pp = 2.0 * ((n - 1.0) * z ** (n - 2) + z ** (2 * n - 2)) / w**2
    return _polygon_f0(z, n), f1, f1 * P, f1 * (Pp + P * P)


def _auto_jets(z, a, theta):
    """Jet of the automorphism tau(z) = e^{i theta} (z + a) / (1 + conj(a) z)."""
    ab = a.conjugate()
    e = np.exp(1j * theta)
    d = 1.0 + ab * z
    q = e * (1.0 - abs(a) ** 2)
    return e * (z + a) / d, q / d**2, -2.0 * ab * q / d**3, 6.0 * ab * ab * q / d**4


def _raw_jet_fields(m: MapSpec, z):
    if m.kind == "identity":
        return _jets_identity(z)
    if m.kind == "halfplane":
        return _jets_halfplane(z)
    if m.kind == "strip":
        return _jets_strip(z)
    if m.kind == "sector":
        return _jets_sector(z, m.alpha)
    if m.kind == "polygon":
        return _jets_polygon(z, m.n)
    if m.kind == "koebe":
        return _jets_koebe(z)
    return series_jet_fields(m.series, z)


def jet_fields(m: MapSpec, z):
    """Arrays (f, f', f'', f''') of the composed map at scalar or array z."""
    z = np.asarray(z, dtype=complex)
    if m.pre is not None:
        a, theta = m.pre
        t0, t1, t2, t3 = _auto_jets(z, a, theta)
        g0, g1, g2, g3 = _raw_jet_fields(m, t0)
        f0 = g0
        f1 = g1 * t1
        f2 = g2 * t1 * t1 + g1 * t2
        f3 = g3 * t1**3 + 3.0 * g2 * t1 * t2 + g1 * t3
    else:
        f0, f1, f2, f3 = _raw_jet_fields(m, z)
    if m.post is not None:
        s, b = m.post
        f0, f1, f2, f3 = s * f0 + b, s * f1, s * f2, s * f3
    return f0, f1, f2, f3


def certified_rmax(m: MapSpec) -> float:
    """Radius of the series behind a map (1.0 for closed forms), before any
    precomposition."""
    return m.series.rmax if m.series is not None else 1.0


def _tail_at(m: MapSpec, z: complex) -> float:
    if m.series is None:
        return 0.0
    w = z
    if m.pre is not None:
        a, theta = m.pre
        w = np.exp(1j * theta) * (z + a) / (1.0 + a.conjugate() * z)
    return m.series.tail_bound(abs(w))


def jet_of(m: MapSpec, z: complex) -> Jet:
    """Third-order jet at one point; raises SingularPoint if f' vanishes."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError(f"need |z| < 1, got |z| = {abs(z):.6g}")
    f0, f1, f2, f3 = jet_fields(m, z)
    if f1 == 0:
        raise SingularPoint(f"f' vanishes at z = {z}")
    return Jet(z, f0, f1, f2, f3, tail=_tail_at(m, z))


# ---------------------------------------------------------------------------
# the generator function phi and its inverse problem


def phi_values(m: MapSpec, z):
    """phi = (f''/f') / (2 + z f''/f') at scalar or array z, NaN where the
    denominator is (numerically) zero."""
    z = np.asarray(z, dtype=complex)
    _, f1, f2, _ = jet_fields(m, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        P = f2 / f1
        den = 2.0 + z * P
        bad = ~np.isfinite(den) | (np.abs(den) < DEGENERATE_EPS)
        out = np.where(bad, complex(np.nan, np.nan), P / np.where(bad, 1.0, den))
    return out


def phi_of(m: MapSpec, z: complex) -> complex:
    val = complex(phi_values(m, complex(z)))
    if val != val:
        raise DegenerateDenominator(f"2 + z f''/f' vanishes at z = {complex(z)}")
    return val


def _herglotz_series(phi: PhiSpec, order: int, rmax: float) -> PowerSeries:
    if order < MIN_ORDER:
        raise ValueError(f"order must be at least {MIN_ORDER}")
    sup = phi.boundary_sup()
    if sup > 1.0 + PHI_SUP_TOL:
        raise PhiOutOfRange(f"sup |phi| = {sup:.6g} on the circle exceeds 1")
    ps = phi.series(order, rmax)
    zphi = np.concatenate([[0.0], ps.coeffs[:-1]])  # z * phi, truncated to order
    one_minus = np.zeros(order + 1, dtype=complex)
    one_minus[0] = 1.0
    one_minus -= zphi
    ratio = series_mul(ps, series_inv(PowerSeries(one_minus, rmax)))
    log_f1 = series_integrate(PowerSeries(2.0 * ratio.coeffs, rmax), 0.0, cap=order)
    f1 = series_exp(log_f1)
    f = series_integrate(f1, 0.0, cap=order)
    f.warn_if_tail_large()
    return f


def gen_herglotz(phi: PhiSpec, order: int = DEFAULT_ORDER, rmax: float = DEFAULT_RMAX) -> MapSpec:
    """Integrate f''/f' = 2 phi / (1 - z phi) into a series map normalized by
    f(0) = 0, f'(0) = 1.

    The three series stages (reciprocal, exponential, antiderivative) are all
    lower-triangular recurrences, so the returned coefficients through
    z**order are exact; truncation error lives only in the dropped tail.
    """
    return MapSpec("series", series=_herglotz_series(phi, order, rmax))


def herglotz_map(phi: PhiSpec, order: int = DEFAULT_ORDER, rmax: float = DEFAULT_RMAX) -> MapSpec:
    """Same as gen_herglotz but tagged with the generator data it came from,
    so JSON round trips rebuild it instead of storing coefficients."""
    return MapSpec("herglotz", phi=phi, order=order, series=_herglotz_series(phi, order, rmax))


def fit_phi_polynomial(m: MapSpec, degree: int = 8, radius: float = 0.5, samples: int = 256) -> PhiSpec:
    """Recover a polynomial phi from a map by FFT on a sampling circle.

    Only sensible when phi really is a polynomial of the given degree; the
    aliasing error is of order radius**samples and utterly negligible.
    """
    zs = radius * np.exp(2j * np.pi * np.arange(samples) / samples)
    vals = phi_values(m, zs)
    if not np.all(np.isfinite(vals)):
        raise ConvmapError("phi is degenerate on the sampling circle; change the radius")
    c = np.fft.fft(vals) / samples
    coeffs = c[: degree + 1] / radius ** np.arange(degree + 1)
    return PhiSpec.polynomial(coeffs)


# ---------------------------------------------------------------------------
# JSON interchange


def _c2pair(w: complex) -> list[float]:
    w = complex(w)
    return [float(w.real), float(w.imag)]


def _pair2c(p) -> complex:
    if not isinstance(p, (list, tuple)) or len(p) != 2:
        raise ValueError(f"expected a [re, im] pair, got {p!r}")
    return complex(float(p[0]), float(p[1]))


def phi_to_json(phi: PhiSpec) -> dict:
    if phi.kind == "poly":
        return {"kind": "poly", "coeffs": [_c2pair(c) for c in phi.coeffs]}
    if phi.kind == "blaschke":
        return {"kind": "blaschke", "zeros": [_c2pair(a) for a in phi.zeros], "theta": phi.theta}
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
        params["coeffs"] = [_c2pair(c) for c in m.series.coeffs]
        params["rmax"] = m.series.rmax
    elif m.kind == "herglotz":
        params["phi"] = phi_to_json(m.phi)
        params["order"] = m.order
        params["rmax"] = m.series.rmax
    obj = {"type": m.kind, "params": params}
    if m.pre is not None:
        obj["pre"] = {"a": _c2pair(m.pre[0]), "theta": m.pre[1]}
    if m.post is not None:
        obj["post"] = {"scale": _c2pair(m.post[0]), "offset": _c2pair(m.post[1])}
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
            m = polygon(int(params["n"]))
        elif kind == "series":
            coeffs = [_pair2c(p) for p in params.get("coeffs", [])]
            if not coeffs:
                raise ValueError("series map needs coefficients")
            m = from_series(coeffs, float(params.get("rmax", DEFAULT_RMAX)))
        elif kind == "herglotz":
            m = herglotz_map(
                phi_from_json(params.get("phi")),
                int(params.get("order", DEFAULT_ORDER)),
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
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed map spec for type {kind!r}: {exc}") from exc
    return m
