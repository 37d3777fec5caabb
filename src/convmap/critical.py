"""Critical points of the hyperbolic density on the image domain, found as
zeros of the normal field p, and a fitted classification of a map's
generator function.  The zeros are polished by one batched Newton iteration
whose Jacobian comes exactly from the jet, with no finite differences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvmapError
from .functionals import (
    check_jets,
    default_grid,
    grid_functionals,
    normal_derivatives,
    phi_values,
    poincare_density,
)
from .grid import GridSpec, grid_points
from .maps import MapSpec, PhiSpec, certified_points, jet_derivatives, jet_of

NEWTON_TOL = 1e-12
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


def _newton_zeros(m: MapSpec, seeds) -> tuple[np.ndarray, np.ndarray]:
    """2-d Newton on (Re p, Im p) over (x, y) from every seed at once.

    p contains conj(z), so the Jacobian is a genuine real 2x2, taken exactly
    from the jet through the Wirtinger derivatives of ``normal_derivatives``.
    Each iteration evaluates one batch of jets at the seeds still running.
    A seed fails when an iterate leaves the disk (|z| >= INTERIOR_CAP) or the
    map's certified points, or when its step stalls below 1e-15 with
    |p| > NEWTON_TOL.  Returns the final iterates and |p| at convergence,
    inf for a seed that failed or ran out of iterations.
    """
    z = np.array(seeds, dtype=complex)
    ap_root = np.full(z.shape, np.inf)
    stalled = np.zeros(z.shape, dtype=bool)
    live = np.arange(z.size)
    for _ in range(NEWTON_MAX_ITER):
        live = live[certified_points(m, z[live])]
        if not live.size:
            break
        zl = z[live]
        jets = jet_derivatives(m, zl)
        check_jets(*jets, "at a Newton iterate")
        p, dp_dz, dp_dzb = normal_derivatives(zl, *jets)
        ap = np.abs(p)
        done = ap <= NEWTON_TOL
        ap_root[live[done]] = ap[done]
        run = ~done & ~stalled[live]
        live, zl, p, dp_dz, dp_dzb = live[run], zl[run], p[run], dp_dz[run], dp_dzb[run]
        px, py = dp_dz + dp_dzb, 1j * (dp_dz - dp_dzb)
        jac = np.moveaxis(np.array([[px.real, py.real], [px.imag, py.imag]]), -1, 0)
        delta = _min_norm_solve(jac, -np.stack([p.real, p.imag], -1))
        dz = delta[:, 0] + 1j * delta[:, 1]
        dz = dz * (0.2 / np.maximum(np.abs(dz), 0.2))  # steps capped at 0.2
        z[live] = zl + dz
        stalled[live] = np.abs(dz) < 1e-15
        live = live[np.abs(z[live]) < INTERIOR_CAP]
    return z, ap_root


def find_critical_point(m: MapSpec, grid: GridSpec | np.ndarray | None = None) -> CriticalResult:
    """Scan |p| on a polar grid (a GridSpec, by default ``default_grid``) or
    an array of points, polish the best seeds by Newton, and report the zero
    set of p.

    The SEED_COUNT grid points of least |p| and the origin run one batched
    Newton with the exact Jacobian; the converged roots, taken in order of
    their final |p|, are merged when closer than DISTINCT_SEP.
    """
    vals = grid_functionals(m, default_grid(m) if grid is None else grid)
    zs = vals["z"]
    ap = np.abs(vals["p"])
    floor = float(ap.min())
    order = np.argsort(ap)
    # the origin is a natural extra seed; grids exclude it
    z, ap_root = _newton_zeros(m, np.append(zs[order[:SEED_COUNT]], 0j))
    found = np.flatnonzero(np.isfinite(ap_root) & (np.abs(z) < INTERIOR_CAP))
    reps: list[complex] = []
    for i in found[np.argsort(ap_root[found], kind="stable")]:
        root = complex(z[i])
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


def classify_phi(m: MapSpec, grid: GridSpec | np.ndarray | None = None) -> PhiClass:
    """Classify phi by sampling it on a compact polar grid (a GridSpec, by
    default ``default_grid`` of GridSpec(16, 24, 0.8)) or an array of points,
    and least-squares fitting the automorphism model.

    The fit solves phi = u z + v - w z phi (linear in u, v, w), then reads
    off theta = arg u and a = v/u; a genuine automorphism reproduces the
    samples to machine precision, so the 1e-8 acceptance threshold is loose.
    """
    grid = default_grid(m, GridSpec(16, 24, 0.8)) if grid is None else grid
    zs = grid_points(grid)
    phis = phi_values(m, grid)
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
    vals = phi_values(m, GridSpec(1, samples, radius))
    if not np.all(np.isfinite(vals)):
        raise ConvmapError("phi is degenerate on the sampling circle; change the radius")
    c = np.fft.fft(vals) / samples
    coeffs = c[: degree + 1] / radius ** np.arange(degree + 1)
    return PhiSpec.polynomial(coeffs)
