"""Critical points of the hyperbolic density on the image domain, found as
zeros of the normal field p, and a fitted classification of a map's
generator function."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvmapError, RadiusExceeded
from .functionals import default_grid, grid_functionals, p_field, phi_values, poincare_density
from .grid import GridSpec
from .maps import MapSpec, PhiSpec, jet_of

NEWTON_TOL = 1e-12
NEWTON_FD_STEP = 1e-6
NEWTON_MAX_ITER = 60
SEED_COUNT = 40
DISTINCT_SEP = 1e-3
DEGENERATE_COUNT = 5
CLASSIFY_TOL = 1e-8
INTERIOR_CAP = 0.999


@dataclass(frozen=True)
class CriticalResult:
    """Outcome of the search for zeros of p.

    kind is "unique" (one zero, the density minimum sits there),
    "degenerate" (five or more pairwise-distinct zeros; ``locus`` samples
    them), or "none" (no zero found inside the search radius).
    residual_floor is min |p| over the scan grid, a useful scale even when
    no zero exists.
    """

    kind: str
    z: complex | None
    density_min: float | None
    locus: tuple[complex, ...]
    residual_floor: float


def _newton_zero(m: MapSpec, z: complex) -> complex | None:
    """2-d Newton on (Re p, Im p) over (x, y).  p contains conj(z), so it is
    not holomorphic and the Jacobian is a genuine real 2x2, estimated by
    central differences.  A seed fails (None) when an iterate leaves the
    disk (|z| >= INTERIOR_CAP) or a series map's certified radius."""
    h = NEWTON_FD_STEP
    try:
        for _ in range(NEWTON_MAX_ITER):
            pv = p_field(jet_of(m, z))
            if abs(pv) <= NEWTON_TOL:
                return z
            px = (p_field(jet_of(m, z + h)) - p_field(jet_of(m, z - h))) / (2.0 * h)
            py = (p_field(jet_of(m, z + 1j * h)) - p_field(jet_of(m, z - 1j * h))) / (2.0 * h)
            jac = np.array([[px.real, py.real], [px.imag, py.imag]])
            rhs = -np.array([pv.real, pv.imag])
            delta, *_ = np.linalg.lstsq(jac, rhs, rcond=None)
            dz = complex(delta[0], delta[1])
            if abs(dz) > 0.2:
                dz *= 0.2 / abs(dz)
            z = z + dz
            if abs(z) >= INTERIOR_CAP:
                return None
            if abs(dz) < 1e-15 and abs(p_field(jet_of(m, z))) > NEWTON_TOL:
                return None
    except RadiusExceeded:
        return None
    return None


def find_critical_point(m: MapSpec, grid: GridSpec | None = None) -> CriticalResult:
    """Scan |p| on a polar grid, polish the best seeds by Newton, and report
    the zero set of p."""
    grid = grid or default_grid(m)
    zs = grid.points()
    vals = grid_functionals(m, zs)
    ap = np.abs(vals["p"])
    floor = float(ap.min())
    order = np.argsort(ap)
    seeds = [complex(zs[i]) for i in order[:SEED_COUNT]]
    # the origin is a natural extra seed; grids exclude it
    seeds.append(0j)

    roots: list[complex] = []
    for seed in seeds:
        root = _newton_zero(m, seed)
        if root is not None and abs(root) < INTERIOR_CAP:
            roots.append(root)
    reps: list[complex] = []
    for root in sorted(roots, key=lambda w: abs(p_field(jet_of(m, w)))):
        if all(abs(root - r) > DISTINCT_SEP for r in reps):
            reps.append(root)

    if len(reps) >= DEGENERATE_COUNT:
        return CriticalResult("degenerate", None, None, tuple(reps), floor)
    if reps:
        # fewer than DEGENERATE_COUNT distinct zeros counts as a point locus
        best = reps[0]
        return CriticalResult("unique", best, poincare_density(jet_of(m, best)), tuple(reps), floor)
    return CriticalResult("none", None, None, (), floor)


@dataclass(frozen=True)
class PhiClass:
    """Fitted shape of the generator function: a unimodular constant, a disk
    automorphism e^{i theta}(z + a)/(1 + conj(a) z), or strictly smaller than
    both (fit_error then reports how far the automorphism fit missed)."""

    kind: str  # "unimodular_const" | "automorphism" | "strict"
    a: complex | None
    theta: float | None
    fit_error: float


def classify_phi(m: MapSpec, grid: GridSpec | None = None) -> PhiClass:
    """Classify phi by sampling it on a compact grid and least-squares
    fitting the automorphism model.

    The fit solves phi = u z + v - w z phi (linear in u, v, w), then reads
    off theta = arg u and a = v/u; a genuine automorphism reproduces the
    samples to machine precision, so the 1e-8 acceptance threshold is loose.
    """
    grid = grid or default_grid(m, GridSpec(16, 24, 0.8))
    zs = grid.points()
    phis = phi_values(m, zs)
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
    model = np.exp(1j * theta) * (zs + a) / (1.0 + a.conjugate() * zs)
    err = float(np.max(np.abs(phis - model)))
    if err <= CLASSIFY_TOL:
        return PhiClass("automorphism", complex(a), theta, err)
    return PhiClass("strict", None, None, err)


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
