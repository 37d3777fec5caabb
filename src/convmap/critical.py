"""Critical points of the hyperbolic density on the image domain, found as
zeros of the normal field p, and a fitted classification of a map's
generator function.  The zeros are polished by one batched Newton iteration
whose Jacobian comes exactly from the jet, with no finite differences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvmapError, RadiusExceeded
from .functionals import (
    _reads_convex,
    default_grid,
    grid_functionals,
    p_field,
    phi_grid,
    phi_values,
    poincare_density,
    slack_tolerance,
)
from .grid import GridSpec
from .maps import MapSpec, PhiSpec, certified_points, certified_rmax, identity, jet_fields, jet_of

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 60
NEWTON_WINDOW = 8  # iterations without a new least |p| fail a seed (it cycles)
SEED_COUNT = 40
DISTINCT_SEP = 1e-3
DEGENERATE_COUNT = 5
# a root whose Jacobian's smallest over largest singular value is at most
# this is taken as rank 1, on a possible degenerate locus
RANK_TOL = 1e-6
# the ascent of g from a maximum near the rim: points per geodesic, evenly
# spaced in hyperbolic length out to the edge of the search disk, and
# geodesics at most
ASCENT_SAMPLES = 8
ASCENT_STEPS = 8
# hyperbolic distances from a rank-1 root, both ways along its kernel
# direction, of the points that sample a strip's locus (a geodesic); near
# the circle, p is too inexact for them to polish below NEWTON_TOL
LOCUS_STEPS = np.array([0.25, 0.5, 0.75, 1.0, -0.25, -0.5, -0.75, -1.0])
CLASSIFY_TOL = 1e-8
CLASSIFY_GRID = GridSpec(16, 24, 0.8)  # before default_grid clamps it to the map
INTERIOR_CAP = 0.999


@dataclass(frozen=True)
class CriticalResult:
    """Outcome of the search for zeros of p.

    kind is "unique" (one zero, the density minimum sits there),
    "degenerate" (five or more pairwise-distinct zeros), or "none" (no zero
    found inside the search radius).  ``locus`` holds the distinct zeros
    found, least |p| first, on either search path: for "unique" the zero z
    and any others short of DEGENERATE_COUNT, for "degenerate" a sample of
    the locus, for "none" nothing.
    residual_floor is min |p| over the scan grid, a useful scale even when
    no zero exists.
    """

    kind: str
    z: complex | None
    density_min: float | None
    locus: tuple[complex, ...]
    residual_floor: float


def _min_norm_solve(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve each real 2x2 system jac[i] x = rhs[i] in the least-squares,
    minimum-norm sense, with ``lstsq``'s rcond=None rule: singular values at
    or below 2 eps times the largest count as zero, so a rank-1 Jacobian (on
    a degenerate locus of zeros) gives the step across the locus."""
    u, sv, vh = np.linalg.svd(jac)
    keep = sv > 2.0 * np.finfo(float).eps * sv[:, :1]
    inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=keep)
    coef = inv * np.einsum("nji,nj->ni", u, rhs)
    return np.einsum("nij,ni->nj", vh, coef)


def _newton_zeros(m: MapSpec, seeds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2-d Newton on (Re p, Im p) over (x, y) from every seed at once.

    p contains conj(z), so the Jacobian is a genuine real 2x2, taken exactly
    from the jet through the Wirtinger derivatives pz and pzb of the field
    kernel.  Each iteration evaluates one ``grid_functionals`` batch at the
    seeds still running.
    A seed fails when an iterate leaves the disk (|z| >= INTERIOR_CAP) or the
    map's certified points, when its step stalls below 1e-15 with |p| >
    NEWTON_TOL, or when NEWTON_WINDOW iterations bring no new least |p|.
    Returns the final iterates, |p| at convergence (inf for a seed that
    failed or ran out of iterations) and the Jacobian at convergence (NaN
    for a seed that did not converge).
    """
    z = np.array(seeds, dtype=complex)
    ap_root = np.full(z.shape, np.inf)
    jac_root = np.full(z.shape + (2, 2), np.nan)
    stalled = np.zeros(z.shape, dtype=bool)
    best = np.full(z.shape, np.inf)
    best_at = np.zeros(z.shape, dtype=int)
    live = np.arange(z.size)
    for it in range(NEWTON_MAX_ITER):
        live = live[certified_points(m, z[live])]
        if not live.size:
            break
        zl = z[live]
        p, dp_dz, dp_dzb = grid_functionals(m, zl, ("p", "pz", "pzb")).values()
        px, py = dp_dz + dp_dzb, 1j * (dp_dz - dp_dzb)
        jac = np.moveaxis(np.array([[px.real, py.real], [px.imag, py.imag]]), -1, 0)
        ap = np.abs(p)
        done = ap <= NEWTON_TOL
        ap_root[live[done]], jac_root[live[done]] = ap[done], jac[done]
        gain = ap < best[live]
        best[live[gain]], best_at[live[gain]] = ap[gain], it
        run = ~done & ~stalled[live] & (it - best_at[live] < NEWTON_WINDOW)
        live, zl, p, jac = live[run], zl[run], p[run], jac[run]
        delta = _min_norm_solve(jac, -np.stack([p.real, p.imag], -1))
        dz = delta[:, 0] + 1j * delta[:, 1]
        dz = dz * (0.2 / np.maximum(np.abs(dz), 0.2))  # steps capped at 0.2
        z[live] = zl + dz
        stalled[live] = np.abs(dz) < 1e-15
        live = live[np.abs(z[live]) < INTERIOR_CAP]
    return z, ap_root, jac_root


def _distinct_roots(m: MapSpec, z: np.ndarray, ap_root: np.ndarray) -> list[complex]:
    """The converged Newton roots inside INTERIOR_CAP in order of their final
    |p|, each kept unless it lies within DISTINCT_SEP of one kept before or
    its |p| through ``jet_of`` exceeds NEWTON_TOL: a batch of jets and a
    single point can differ in the last bits, and near the circle that moves
    |p| across the tolerance."""
    found = np.flatnonzero(np.isfinite(ap_root) & (np.abs(z) < INTERIOR_CAP))
    reps: list[complex] = []
    for i in found[np.argsort(ap_root[found], kind="stable")]:
        root = complex(z[i])
        if all(abs(root - r) > DISTINCT_SEP for r in reps) and abs(p_field(jet_of(m, root))) <= NEWTON_TOL:
            reps.append(root)
    return reps


def _result(m: MapSpec, reps: list[complex], floor: float) -> CriticalResult:
    """The result for the distinct zeros ``reps``, least |p| first."""
    if len(reps) >= DEGENERATE_COUNT:
        return CriticalResult("degenerate", None, None, tuple(reps), floor)
    if reps:
        # fewer than DEGENERATE_COUNT distinct zeros counts as a point locus
        best = reps[0]
        return CriticalResult("unique", best, poincare_density(jet_of(m, best)), tuple(reps), floor)
    return CriticalResult("none", None, None, (), floor)


def _geodesic(w: complex, u: complex, t) -> np.ndarray:
    """The points at hyperbolic distances t (in the metric 2|dz|/(1-|z|^2))
    along the geodesic that leaves w in the unit direction u: the image of
    the diameter through u under the disk automorphism taking 0 to w."""
    s = np.tanh(np.asarray(t) / 2.0)
    return (s * u + w) / (1.0 + w.conjugate() * s * u)


def _distance_to(w: complex, u: complex, edge: float) -> float:
    """The hyperbolic distance from w along that geodesic to |z| = edge."""
    # |z| = edge is a quadratic in s = tanh(t / 2)
    b, w2, e2 = (w.conjugate() * u).real, abs(w) ** 2, edge * edge
    c = 1.0 - e2 * w2
    return 2.0 * np.arctanh((np.sqrt((b * (1.0 - e2)) ** 2 + c * (e2 - w2)) - b * (1.0 - e2)) / c)


def _theorem_search(m: MapSpec, vals: dict, floor: float) -> CriticalResult | None:
    """The search on a map whose scan reads convex, where the paper's theorem
    leaves p at most one zero (the density minimum) unless the image is a
    half-plane or a strip; None when it cannot decide.

    One Newton seed runs from the grid argmax of g.  A root whose Jacobian
    has full rank (smallest over largest singular value above RANK_TOL) is
    the zero.  A rank-1 root lies on a strip's locus, the preimage of the
    strip's center line; the reflection in that line pulls back to a
    reflection of the disk, so the locus is the geodesic along the kernel
    direction.  The points LOCUS_STEPS away on it are polished in one batch,
    and DEGENERATE_COUNT distinct zeros among them make the locus.

    When the argmax lies on the scan's two outermost rings, a seed from it
    can start far from a zero near the rim and overshoot it, so g is climbed
    first: from the current point w, ASCENT_SAMPLES points on the geodesic
    along the steepest ascent -conj(p(w)), out to the edge of the search
    disk (INTERIOR_CAP, or the certified radius if smaller), are evaluated
    in one jet batch, and w moves to the best of them.  The seed starts
    where no point beats w.  When the best point is the one on the edge, the
    result is "none": a convex image other than a strip has a zero of p
    exactly when it is bounded (on an unbounded one the density falls along
    every recession direction), and then g -> 0 at the circle, so an ascent
    that reaches the edge would have to be climbing to a zero beside it.
    A failed seed, too few locus points, a climb of ASCENT_STEPS geodesics,
    or a climb that reaches the certified radius of a precomposed series
    map (whose certified points, and so Newton, reach past it) is left to
    the seed scan.
    """
    zs, p, g = vals["z"], vals["p"], vals["g"]
    i = int(np.argmax(g))
    w, pw, gw = zs[i], p[i], g[i]
    # the radius of the second outermost ring; one ring's points share |z|
    # up to rounding (np.unique here would cost a megabyte of peak memory)
    radii = np.abs(zs)
    inner = radii[radii < radii.max() * (1.0 - 1e-9)]
    if abs(w) >= (inner.max() if inner.size else radii.max()) * (1.0 - 1e-9):
        try:
            edge = min(INTERIOR_CAP, certified_rmax(m))
        except RadiusExceeded:  # no disk about 0 is certified
            return None
        if abs(w) >= edge:  # no room past the rim
            return None
        for _ in range(ASCENT_STEPS):
            if abs(pw) <= NEWTON_TOL:
                break
            u = -pw.conjugate() / abs(pw)
            pts = _geodesic(w, u, _distance_to(w, u, edge) * np.arange(1, ASCENT_SAMPLES + 1) / ASCENT_SAMPLES)
            gs, ps = grid_functionals(m, pts, ("g", "p")).values()
            j = int(np.argmax(gs))
            if gs[j] <= gw:
                break
            if j == ASCENT_SAMPLES - 1:
                # a precomposed series is certified on a disk off center,
                # which reaches past its certified radius about 0
                if edge < INTERIOR_CAP and m.pre is not None:
                    return None
                return CriticalResult("none", None, None, (), floor)
            w, pw, gw = pts[j], ps[j], gs[j]
        else:
            return None
    z, ap_root, jac = _newton_zeros(m, [w])
    reps = _distinct_roots(m, z, ap_root)
    if not reps:
        return None
    _, sv, vh = np.linalg.svd(jac[0])
    if sv[1] > RANK_TOL * sv[0]:
        return _result(m, reps, floor)
    pts = _geodesic(reps[0], complex(*vh[1]), LOCUS_STEPS)
    reps = _distinct_roots(m, *_newton_zeros(m, np.append(reps[0], pts))[:2])
    return _result(m, reps, floor) if len(reps) >= DEGENERATE_COUNT else None


def find_critical_point(m: MapSpec, grid: GridSpec | np.ndarray | None = None) -> CriticalResult:
    """Scan |p| on a polar grid (a GridSpec, by default ``default_grid``) or
    a nonempty array of points, polish seeds by Newton, and report the zero
    set of p.

    When the scan reads convex by the rule of ``convexity_report``'s verdict
    (min lhs1 >= -tol, max km <= 2 + tol and min slack3 >= -tol, with tol
    the ``slack_tolerance``), ``_theorem_search`` first tries to decide from
    one Newton seed, after an ascent of g when its grid maximum lies on the
    rim.  Otherwise, or when it cannot decide, the SEED_COUNT
    grid points of least |p| and the origin run one batched Newton, and the
    converged roots, taken in order of their final |p|, are merged when
    closer than DISTINCT_SEP.  Raises ValueError on an empty scan.
    """
    vals = grid_functionals(m, default_grid(m) if grid is None else grid, ("z", "p", "g", "lhs1", "km", "slack3"))
    zs = vals["z"]
    if not zs.size:
        raise ValueError("find_critical_point needs a nonempty scan; the array of points is empty")
    ap = np.abs(vals["p"])
    floor = float(ap.min())
    if _reads_convex(vals, slack_tolerance(m)):
        res = _theorem_search(m, vals, floor)
        if res is not None:
            return res
    order = np.argsort(ap)
    # the origin is a natural extra seed; grids exclude it
    z, ap_root, _ = _newton_zeros(m, np.append(zs[order[:SEED_COUNT]], 0j))
    return _result(m, _distinct_roots(m, z, ap_root), floor)


@dataclass(frozen=True)
class PhiClass:
    """Fitted shape of the generator function: a unimodular constant, a disk
    automorphism e^{i theta}(z + a)/(1 + conj(a) z), or strictly smaller than
    both (fit_error then reports how far the automorphism fit missed)."""

    kind: str  # "unimodular_const" | "automorphism" | "strict"
    a: complex | None
    theta: float | None
    fit_error: float


def classify_phi(m: MapSpec, grid: GridSpec | np.ndarray | None = None) -> PhiClass:
    """Classify phi by sampling it on a compact polar grid (a GridSpec, by
    default ``default_grid`` of CLASSIFY_GRID) or an array of points, and
    least-squares fitting the automorphism model.

    The fit solves phi = u z + v - w z phi (linear in u, v, w), then reads
    off theta = arg u and a = v/u; a genuine automorphism reproduces the
    samples to machine precision, so the 1e-8 acceptance threshold is loose.
    """
    zs, phis = phi_grid(m, default_grid(m, CLASSIFY_GRID) if grid is None else grid)
    keep = np.isfinite(phis)
    zs, phis = zs[keep], phis[keep]
    if zs.size < 8:
        return PhiClass("strict", None, None, float("inf"))

    mods = np.abs(phis)
    if float(mods.min()) >= 1.0 - CLASSIFY_TOL:
        center = complex(phis.mean())
        spread = float(np.max(np.abs(phis - center)))
        if spread <= CLASSIFY_TOL and abs(abs(center) - 1.0) <= CLASSIFY_TOL:
            return PhiClass("unimodular_const", None, float(np.angle(center)), spread)

    design = np.column_stack([zs, np.ones_like(zs), -zs * phis])
    (u, v, w), *_ = np.linalg.lstsq(design, phis, rcond=None)
    if abs(u) < 1e-8:
        return PhiClass("strict", None, None, float("inf"))
    a = v / u
    theta = float(np.angle(u))
    if abs(a) >= 1.0:
        return PhiClass("strict", None, None, float("inf"))
    err = float(np.max(np.abs(phis - jet_fields(identity().precomposed(a, theta), zs)[0])))
    if err <= CLASSIFY_TOL:
        return PhiClass("automorphism", complex(a), theta, err)
    return PhiClass("strict", None, None, err)


def fit_phi_polynomial(m: MapSpec, degree: int = 8, radius: float = 0.5, samples: int = 256) -> PhiSpec:
    """Recover a polynomial phi from a map by FFT on a sampling circle.

    Only sensible when phi really is a polynomial of the given degree; the
    aliasing error is of order radius**samples and utterly negligible.
    """
    vals = phi_values(m, GridSpec(1, samples, radius))
    if not np.all(np.isfinite(vals)):
        raise ConvmapError("phi is degenerate on the sampling circle; change the radius")
    c = np.fft.fft(vals) / samples
    coeffs = c[: degree + 1] / radius ** np.arange(degree + 1)
    return PhiSpec.polynomial(coeffs)
