"""Level sets of g(z) = (1 - |z|^2) |f'(z)|: locating a point of a level,
marching along the curve, and curvature of the curve in the disk and in the
image plane.

Geometry the tracer relies on: with p = conj(z) - (1/2)(1 - |z|^2) f''/f',
the gradient of g is -2 |f'| conj(p).  The unit vector q = conj(p)/|p|
therefore points in the direction of decreasing g, and the tangent is taken
as -i q, which traces circles around the origin clockwise for the identity.
Both curvature formulas are signed for exactly this orientation, so convex
curves come out with positive k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvmapError, LevelNotOnRay, NormalVanished
from .functionals import p_field
from .jet import Jet
from .maps import MapSpec, certified_rmax, jet_fields, jet_of

P_MIN = 1e-4
RESIDUAL_TARGET = 1e-12
START_RESIDUAL_BAR = 1e-8
NEWTON_MAX = 8
HALVINGS_MAX = 12
DEFAULT_STEP = 0.005
DEFAULT_TRACE_RMAX = 0.95
DEFAULT_MAX_POINTS = 20000
_START_SAMPLES = 2048

CSV_HEADER = "s,Re z,Im z,Re w,Im w,|p|,k,kappa,residual"


def level_value(m: MapSpec, z):
    """g(z) = (1 - |z|^2) |f'(z)| at scalar or array z."""
    z = np.asarray(z, dtype=complex)
    _, f1, _, _ = jet_fields(m, z)
    return (1.0 - np.abs(z) ** 2) * np.abs(f1)


def find_level_start(
    m: MapSpec,
    c: float,
    theta: float = 0.0,
    rmax: float = DEFAULT_TRACE_RMAX,
    samples: int = _START_SAMPLES,
) -> complex:
    """First point on the ray arg z = theta (r increasing from 0) where
    g(z) = c, located by scan plus bisection to residual <= 1e-12.

    Raises LevelNotOnRay when no sign change of g - c shows up among the
    ray samples.
    """
    c = float(c)
    if c <= 0.0:
        raise ValueError("level constant must be positive")
    rmax = min(float(rmax), certified_rmax(m))
    u = np.exp(1j * float(theta))
    rs = np.linspace(0.0, rmax, samples)
    err = level_value(m, rs * u) - c

    def g_err(r: float) -> float:
        return float(level_value(m, complex(r * u)) - c)

    if abs(err[0]) <= RESIDUAL_TARGET:
        return 0j
    hits = np.flatnonzero(err[:-1] * err[1:] <= 0.0)
    if hits.size == 0:
        raise LevelNotOnRay(
            f"g ranges over [{float(err.min() + c):.6g}, {float(err.max() + c):.6g}] "
            f"on the ray arg z = {float(theta):.6g}; level c = {c:g} is not crossed"
        )
    i = int(hits[0])
    lo, hi = float(rs[i]), float(rs[i + 1])
    flo = float(err[i])
    if flo == 0.0:
        return complex(lo * u)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = g_err(mid)
        if abs(fmid) <= RESIDUAL_TARGET:
            return complex(mid * u)
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo < 1e-17:
            break
    return complex(0.5 * (lo + hi) * u)


@dataclass(frozen=True)
class LevelCurve:
    """A traced level curve: points, their images, and per-point data.

    ``s`` is cumulative arclength in the disk.  For closed curves the final
    wraparound segment back to z[0] is implied, not duplicated.
    """

    c: float
    z: np.ndarray
    w: np.ndarray
    p: np.ndarray
    k: np.ndarray
    kappa: np.ndarray
    residual: np.ndarray
    s: np.ndarray
    closed: bool
    termination: str

    def __len__(self) -> int:
        return self.z.size

    def write_csv(self, fp) -> None:
        fp.write(CSV_HEADER + "\n")
        for i in range(self.z.size):
            row = (
                self.s[i],
                self.z[i].real,
                self.z[i].imag,
                self.w[i].real,
                self.w[i].imag,
                abs(self.p[i]),
                self.k[i],
                self.kappa[i],
                self.residual[i],
            )
            fp.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _curvature_arrays(z, f1, f2, f3):
    P = f2 / f1
    S = f3 / f1 - 1.5 * P * P
    om = 1.0 - np.abs(z) ** 2
    p = np.conj(z) - 0.5 * om * P
    ap = np.abs(p)
    pbar2 = np.conj(p) ** 2
    k = (1.0 + 0.25 * om * np.abs(P) ** 2 + om / (2.0 * ap**2) * np.real(pbar2 * S)) / ap
    # (z')^2 = -conj(p)^2 / |p|^2 for the tangent -i conj(p)/|p|
    lhs1 = np.real(1.0 + z * P)
    kappa = (lhs1 - 0.25 * om * np.abs(P) ** 2 + 0.5 * om * np.real(pbar2 * S) / ap**2) / (
        np.abs(f1) * ap
    )
    return p, k, kappa


def disk_curvature(j: Jet) -> float:
    """Signed curvature at j.z of the level curve of g through that point."""
    p = p_field(j)
    if abs(p) <= P_MIN:
        raise NormalVanished(f"|p| = {abs(p):.3e} at z = {j.z}; curvature undefined")
    _, k, _ = _curvature_arrays(
        np.asarray(j.z, complex), np.asarray(j.f1), np.asarray(j.f2), np.asarray(j.f3)
    )
    return float(k)


def image_curvature(j: Jet) -> float:
    """Signed curvature of the image of the level curve at f(j.z)."""
    p = p_field(j)
    if abs(p) <= P_MIN:
        raise NormalVanished(f"|p| = {abs(p):.3e} at z = {j.z}; curvature undefined")
    _, _, kappa = _curvature_arrays(
        np.asarray(j.z, complex), np.asarray(j.f1), np.asarray(j.f2), np.asarray(j.f3)
    )
    return float(kappa)


def discrete_curvature(curve, image_plane: bool = False, closed: bool | None = None) -> np.ndarray:
    """Three-point circumcircle curvature along a polyline, signed to match
    the tracer's orientation (positive where the analytic k is positive).

    Accepts a LevelCurve or a complex array.  Closed polylines wrap around
    and return one value per point; open ones return len - 2 interior values.
    """
    if isinstance(curve, LevelCurve):
        pts = curve.w if image_plane else curve.z
        if closed is None:
            closed = curve.closed
    else:
        pts = np.asarray(curve, dtype=complex)
        closed = bool(closed)
    if pts.size < 3:
        raise ValueError("need at least three points")
    if closed:
        d1 = pts - np.roll(pts, 1)
        d2 = np.roll(pts, -1) - pts
        chord = np.roll(pts, -1) - np.roll(pts, 1)
    else:
        d1 = pts[1:-1] - pts[:-2]
        d2 = pts[2:] - pts[1:-1]
        chord = pts[2:] - pts[:-2]
    denom = np.abs(d1) * np.abs(d2) * np.abs(chord)
    if np.any(denom == 0.0):
        raise ValueError("degenerate polyline: repeated points")
    return -2.0 * np.imag(np.conj(d1) * d2) / denom


class _NormalStop(Exception):
    def __init__(self, pts):
        super().__init__("normal field vanished")
        self.pts = pts


def _tangent(p: complex) -> complex:
    return -1j * p.conjugate() / abs(p)


def _normal_guard(p: complex, z: complex, pts):
    if abs(p) <= P_MIN:
        raise _NormalStop(list(pts))


def _correct(m: MapSpec, z: complex, c: float, rmax: float, pts) -> complex | None:
    """Newton along the normal until |g - c| <= 1e-12; None asks the caller
    to halve the predictor step."""
    for _ in range(NEWTON_MAX):
        if abs(z) > rmax:
            return None
        j = jet_of(m, z)
        g = (1.0 - abs(z) ** 2) * abs(j.f1) - c
        if abs(g) <= RESIDUAL_TARGET:
            return z
        p = p_field(j)
        _normal_guard(p, z, pts)
        z = z + (g / (2.0 * abs(j.f1) * abs(p))) * (p.conjugate() / abs(p))
    if abs(z) > rmax:
        return None
    j = jet_of(m, z)
    g = (1.0 - abs(z) ** 2) * abs(j.f1) - c
    return z if abs(g) <= RESIDUAL_TARGET else None


def _march(m: MapSpec, z0: complex, c: float, step: float, budget: int, rmax: float, direction: int):
    pts = [z0]
    p = p_field(jet_of(m, z0))
    t_start = direction * _tangent(p)
    t_prev = t_start
    while len(pts) < budget:
        z = pts[-1]
        h = step
        z_new = None
        for _ in range(HALVINGS_MAX):
            z_pred = z + h * t_prev
            if abs(z_pred) > rmax:
                return pts, "radius"
            z_new = _correct(m, z_pred, c, rmax, pts)
            if z_new is not None:
                break
            h *= 0.5
        if z_new is None:
            raise ConvmapError(f"corrector stalled near z = {z} (c = {c:g})")
        p = p_field(jet_of(m, z_new))
        _normal_guard(p, z_new, pts)
        t_prev = direction * _tangent(p)
        if (
            direction == +1
            and len(pts) >= 3
            and abs(z_new - z0) < 0.5 * step
            and (t_prev * t_start.conjugate()).real > 0.0
        ):
            return pts, "closed"
        pts.append(z_new)
    return pts, "max_points"


def _finalize(m: MapSpec, pts, c: float, closed: bool, termination: str) -> LevelCurve:
    z = np.asarray(pts, dtype=complex)
    f0, f1, f2, f3 = jet_fields(m, z)
    p, k, kappa = _curvature_arrays(z, f1, f2, f3)
    g = (1.0 - np.abs(z) ** 2) * np.abs(f1)
    ds = np.abs(np.diff(z))
    s = np.concatenate([[0.0], np.cumsum(ds)])
    return LevelCurve(
        c=float(c),
        z=z,
        w=f0,
        p=p,
        k=k,
        kappa=kappa,
        residual=np.abs(g - c),
        s=s,
        closed=closed,
        termination=termination,
    )


def trace_level_set(
    m: MapSpec,
    z0: complex,
    step: float = DEFAULT_STEP,
    max_points: int = DEFAULT_MAX_POINTS,
    rmax: float = DEFAULT_TRACE_RMAX,
    c: float | None = None,
) -> LevelCurve:
    """March along the level curve of g through z0.

    Predictor: a step of the given arclength along the tangent -i conj(p)/|p|.
    Corrector: Newton along the normal to residual 1e-12, with step halving
    when 8 Newton iterations fail to converge.  A curve that returns within
    step/2 of z0 with an aligned tangent is closed; otherwise both directions
    are traced from z0 and concatenated, ends stopping at |z| = rmax or at
    the point budget.

    If c is given, g(z0) must match it to 1e-8; otherwise c is inferred from
    z0.  When |p| falls to 1e-4 the tracer raises NormalVanished carrying the
    partial curve built so far.
    """
    z0 = complex(z0)
    step = float(step)
    if step <= 0.0:
        raise ValueError("step must be positive")
    if max_points < 2:
        raise ValueError("max_points must be at least 2")
    rmax = min(float(rmax), certified_rmax(m))
    if abs(z0) > rmax:
        raise ValueError(f"|z0| = {abs(z0):.6g} is outside the tracing radius {rmax:g}")
    g0 = float(level_value(m, z0))
    if c is None:
        c = g0
    elif abs(g0 - float(c)) > START_RESIDUAL_BAR:
        raise ValueError(f"g(z0) = {g0:.12g} does not sit on the level c = {float(c):.12g}")
    c = float(c)
    p0 = p_field(jet_of(m, z0))
    if abs(p0) <= P_MIN:
        raise NormalVanished(f"|p| = {abs(p0):.3e} at the start point {z0}", curve=None)

    def vanish(pts):
        partial = _finalize(m, pts, c, False, "normal_vanished") if pts else None
        raise NormalVanished(
            f"normal field vanished while tracing the level c = {c:g}", curve=partial
        ) from None

    try:
        forward, status_f = _march(m, z0, c, step, max_points, rmax, +1)
    except _NormalStop as stop:
        vanish(stop.pts)
    if status_f == "closed":
        return _finalize(m, forward, c, True, "closed")
    budget = max_points - len(forward) + 1  # z0 is shared by both halves
    try:
        if budget >= 2:
            backward, status_b = _march(m, z0, c, step, budget, rmax, -1)
        else:
            backward, status_b = [z0], "max_points"
    except _NormalStop as stop:
        vanish(stop.pts[:0:-1] + forward)
    pts = backward[:0:-1] + forward
    termination = status_f if status_f == status_b else f"{status_b}/{status_f}"
    return _finalize(m, pts, c, False, termination)
