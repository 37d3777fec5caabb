"""Level sets of g(z) = (1 - |z|^2) |f'(z)|: locating a point of a level,
marching along the curve, and curvature of the curve in the disk and in the
image plane, oriented and signed as in ``convmap.functionals``.

The march is a second-order predictor-corrector: each step follows the
osculating circle of the curve at the last accepted point (tangent
-i conj(p)/|p| and the exact curvature k, both from that point's jet), and
Newton along the normal conj(p)/|p|, where g decreases, brings it back to
the level.  A Newton iterate evaluates only f', f'' and f''' through the
jet core of ``convmap.maps``; f, for the image point, is computed once per
accepted point.  The start search evaluates f' alone.  Every jet of the
march comes from ``maps._jet_at``, the one checked single-point route,
which ``jet_of`` takes too; on a series map with nothing composed it is
one running product of the powers of z against the derivative table.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvmapError, LevelNotOnRay, NormalVanished, SingularPoint
from .functionals import _level, _normal, curvature_fields
from .jet import Jet
from .maps import MapSpec, _jet_at, _jets, _point_jets, certified_rmax

P_MIN = 1e-4
RESIDUAL_TARGET = 1e-12
START_RESIDUAL_BAR = 1e-8
NEWTON_MAX = 8
HALVINGS_MAX = 12
DEFAULT_STEP = 0.005
# the predictor's arc turns by at most a quarter turn: near a saddle of g,
# where k h can reach tens, a full osculating arc curls back to its start
TURN_MAX = 0.5 * math.pi
DEFAULT_TRACE_RMAX = 0.95
DEFAULT_MAX_POINTS = 20000
_START_SAMPLES = 2048

CSV_HEADER = "s,Re z,Im z,Re w,Im w,|p|,k,kappa,residual"


def level_value(m: MapSpec, z):
    """g(z) = (1 - |z|^2) |f'(z)| at scalar or array z, from f' alone."""
    z = np.asarray(z, dtype=complex)
    jet = _point_jets(m, complex(z), 1) if z.ndim == 0 else _jets(m, z, 1)
    return _level(z, jet[1])["g"]


def find_level_start(m: MapSpec, c: float, theta: float = 0.0, rmax: float = DEFAULT_TRACE_RMAX) -> complex:
    """First point on the ray arg z = theta (r increasing from 0 to rmax)
    where g(z) = c, located by scan plus bisection to residual <= 1e-12.

    Raises ValueError unless c is positive and finite, theta is finite and
    rmax > 0, and LevelNotOnRay when no sign change of g - c shows up among
    the ray samples.
    """
    c, theta, rmax = float(c), float(theta), float(rmax)
    if not 0.0 < c < math.inf:
        raise ValueError(f"level constant must be positive and finite, got {c:g}")
    if not math.isfinite(theta):
        raise ValueError(f"the ray angle theta must be finite, got {theta:g}")
    if not rmax > 0.0:  # a NaN too: a reversed bracket ends on the opposite ray
        raise ValueError(f"the search radius rmax must be positive, got {rmax:g}")
    rmax = min(rmax, certified_rmax(m))
    u = np.exp(1j * theta)
    rs = np.linspace(0.0, rmax, _START_SAMPLES)
    err = level_value(m, rs * u) - c

    def g_err(r: float) -> float:
        return float(level_value(m, complex(r * u)) - c)

    if abs(err[0]) <= RESIDUAL_TARGET:
        return 0j
    hits = np.flatnonzero(err[:-1] * err[1:] <= 0.0)
    if hits.size == 0:
        raise LevelNotOnRay(
            f"g ranges over [{float(err.min() + c):.6g}, {float(err.max() + c):.6g}] "
            f"on the ray arg z = {theta:.6g}; level c = {c:g} is not crossed"
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

    ``s`` is cumulative arclength in the disk; ``w``, ``p``, ``k``, ``kappa``
    and ``residual`` (|g - c|) come from the jet each point was accepted on.
    For closed curves the final wraparound segment back to z[0] is implied,
    not duplicated.
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
        """The header and one row per point, each cell exactly '%.17g'."""
        from ._csv import write_rows  # deferred: a process that writes no CSV skips compiling it

        fp.write(CSV_HEADER + "\n")
        z, w, p = self.z, self.w, self.p
        # |p| through hypot, as abs of a complex scalar takes it: np.abs of a
        # complex array may differ in the last bit
        ap = np.hypot(p.real, p.imag)
        write_rows(fp, (self.s, z.real, z.imag, w.real, w.imag, ap, self.k, self.kappa, self.residual))


def _vanished(p: complex, z: complex) -> None:
    """NormalVanished where |p| <= P_MIN, the floor of the pointwise
    curvatures and of the tracer."""
    if abs(p) <= P_MIN:
        raise NormalVanished(f"|p| = {abs(p):.3e} at z = {z}; curvature undefined")


def _curvatures(z: complex, f1: complex, f2: complex, f3: complex) -> dict:
    """p, k and kappa at one point: SingularPoint where f' vanishes, and
    NormalVanished where |p| <= P_MIN, a |p|^2 of 0.0 divided by included."""
    if f1 == 0:
        raise SingularPoint(f"f' vanishes at z = {z}")
    try:
        fld = curvature_fields(z, f1, f2, f3)
    except ZeroDivisionError:
        fld = _normal(z, f1, f2)
    _vanished(fld["p"], z)
    return fld


def disk_curvature(j: Jet) -> float:
    """Signed curvature at j.z of the level curve of g through that point."""
    return _curvatures(j.z, j.f1, j.f2, j.f3)["k"]


def image_curvature(j: Jet) -> float:
    """Signed curvature of the image of the level curve at f(j.z)."""
    return _curvatures(j.z, j.f1, j.f2, j.f3)["kappa"]


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


def _tangent(p: complex) -> complex:
    return -1j * p.conjugate() / abs(p)


def _record(z: complex, f, f1: complex, f2: complex, f3: complex, r: float):
    """What the curve keeps of an accepted point: (z, f, p, k, kappa, |g - c|),
    all from the jet it was accepted on; f is computed here, and checked
    as ``jet_of`` checks it."""
    fld = _curvatures(z, f1, f2, f3)
    w = complex(f())
    if not cmath.isfinite(w):
        raise ValueError(f"jet component f0 is not finite at z = {z}")
    return (z, w, fld["p"], fld["k"], fld["kappa"], r)


def _arc(h: float, k: float) -> complex:
    """Chord, in the frame of the unit tangent, of an arc of length h on the
    circle of curvature k turning clockwise: h sinc(k h / 2) e^{-i k h / 2},
    with the turn k h capped at TURN_MAX."""
    half = 0.5 * max(-TURN_MAX, min(TURN_MAX, k * h))
    return h * (math.sin(half) / half if half else 1.0) * cmath.exp(-1j * half)


def _correct(m: MapSpec, z: complex, c: float, rmax: float):
    """Newton along the normal until |g - c| <= RESIDUAL_TARGET, within
    NEWTON_MAX steps: the accepted point's (z, f, f', f'', f''', |g - c|)
    with f still a callable (see ``_jet_at``), or None to ask the caller to
    halve the predictor step."""
    for i in range(NEWTON_MAX + 1):
        if abs(z) > rmax:
            return None
        f, f1, f2, f3 = _jet_at(m, z)
        g = _level(z, f1)["g"] - c
        if abs(g) <= RESIDUAL_TARGET:
            return z, f, f1, f2, f3, abs(g)
        if i == NEWTON_MAX:
            return None
        p = _normal(z, f1, f2)["p"]
        _vanished(p, z)
        z = z + (g / (2.0 * abs(f1) * abs(p))) * (p.conjugate() / abs(p))


def _march(m: MapSpec, pts: list, c: float, step: float, budget: int, rmax: float, direction: int) -> str:
    """Append to ``pts`` (the start record) the records (see ``_record``) of
    the points in one direction and return how the march ended; the points
    accepted before a NormalVanished stay in ``pts``.  The tangent of travel
    is direction * -i conj(p)/|p|, and the curvature sign follows the
    travel, so a positive direction * k turns the tangent clockwise."""
    start = pts[0]
    t_start = direction * _tangent(start[2])
    while len(pts) < budget:
        z, _, p, k, _, _ = pts[-1]
        t, k = direction * _tangent(p), direction * k
        h = step
        accepted = None
        for _ in range(HALVINGS_MAX):
            z_pred = z + _arc(h, k) * t
            if abs(z_pred) > rmax:
                return "radius"
            accepted = _correct(m, z_pred, c, rmax)
            if accepted is not None:
                break
            h *= 0.5
        if accepted is None:
            raise ConvmapError(f"corrector stalled near z = {z} (c = {c:g})")
        point = _record(*accepted)
        if (
            direction == +1
            and len(pts) >= 3
            and abs(point[0] - start[0]) < 0.5 * step
            and (_tangent(point[2]) * t_start.conjugate()).real > 0.0
        ):
            return "closed"
        pts.append(point)
    return "max_points"


def _finalize(pts, c: float, closed: bool, termination: str) -> LevelCurve:
    z, w, p, k, kappa, residual = (np.array(col) for col in zip(*pts))
    s = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(z)))])
    return LevelCurve(
        c=float(c),
        z=z,
        w=w,
        p=p,
        k=k,
        kappa=kappa,
        residual=residual,
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

    Predictor: an arc of the given arclength along the osculating circle of
    the curve at the last accepted point, from its tangent -i conj(p)/|p|
    and its exact curvature k.  Corrector: Newton along the normal to
    residual 1e-12, with the step halved when 8 Newton steps fail to
    converge.  A curve that returns within step/2 of z0 with an aligned
    tangent is closed; otherwise both directions are traced from z0 and
    concatenated, ends stopping at |z| = rmax or at the point budget.
    Each point records in ``residual`` the |g - c| it was accepted on.
    Newton iterates evaluate only f', f'' and f'''; f, for ``w``, is
    computed once per accepted point.

    If c is given, g(z0) must match it to 1e-8; otherwise c is inferred from
    z0.  When |p| falls to 1e-4 the tracer raises NormalVanished carrying the
    partial curve built so far.
    """
    z0 = complex(z0)
    step = float(step)
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step:g}")
    if max_points < 2:
        raise ValueError("max_points must be at least 2")
    rmax = min(float(rmax), certified_rmax(m))
    if not abs(z0) <= rmax:  # a NaN rmax too
        raise ValueError(f"|z0| = {abs(z0):.6g} is outside the tracing radius {rmax:g}")
    if not rmax > 0.0:
        raise ValueError(f"the tracing radius rmax must be positive, got {rmax:g}")
    f, f1, f2, f3 = _jet_at(m, z0)
    g0 = _level(z0, f1)["g"]
    if c is None:
        c = g0
    elif not abs(g0 - float(c)) <= START_RESIDUAL_BAR:  # a NaN c too
        raise ValueError(f"g(z0) = {g0:.12g} does not sit on the level c = {float(c):.12g}")
    c = float(c)
    p0 = _normal(z0, f1, f2)["p"]
    if abs(p0) <= P_MIN:
        raise NormalVanished(f"|p| = {abs(p0):.3e} at the start point {z0}", curve=None)
    forward = [_record(z0, f, f1, f2, f3, abs(g0 - c))]
    backward = forward[:]  # z0 is shared by both halves
    try:
        status_f = _march(m, forward, c, step, max_points, rmax, +1)
        if status_f == "closed":
            return _finalize(forward, c, True, "closed")
        budget = max_points - len(forward) + 1
        status_b = _march(m, backward, c, step, budget, rmax, -1) if budget >= 2 else "max_points"
    except NormalVanished:
        partial = _finalize(backward[:0:-1] + forward, c, False, "normal_vanished")
        raise NormalVanished(
            f"normal field vanished while tracing the level c = {c:g}", curve=partial
        ) from None
    pts = backward[:0:-1] + forward
    termination = status_f if status_f == status_b else f"{status_b}/{status_f}"
    return _finalize(pts, c, False, termination)
