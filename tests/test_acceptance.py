"""Acceptance gate: eleven pass/fail criteria, one printed line each.

Every test computes its criterion, prints a "[PRIMARY n] PASS/FAIL: ..."
line straight to the terminal (past pytest's capture), then asserts, so a
plain `pytest -v` run shows the eleven verdicts inline with the test
results.  Level curves are traced once in module fixtures and shared; the
tangency criterion sweeps every curve the suite produced.
"""

from __future__ import annotations

import numpy as np
import pytest

import convmap as cm
from convmap import cli

from .oracles import closed_form, fd_schwarzian, random_disk_points, random_phi_coeffs

# 100 radii x 100 angles, 10,000 points out to r = 0.95
EQUALITY_GRID = cm.GridSpec(100, 100, 0.95)

HERGLOTZ_ORDER = 192
HERGLOTZ_RMAX = 0.8
TRACE_RMAX = 0.78
RING_SAMPLES = 256
RING_RADIUS = 0.55

# min |p| for sector(0.5) on the default scan grid, pinned as a regression
SECTOR_FLOOR = 0.4999999999999997

ZOO_ALL = (
    cm.identity(),
    cm.halfplane(),
    cm.strip(),
    cm.sector(0.25),
    cm.sector(0.5),
    cm.sector(0.75),
    cm.polygon(3),
    cm.polygon(5),
    cm.polygon(7),
    cm.koebe(),
)


def verdict(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"[PRIMARY {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line


def ring_trace(m: cm.MapSpec) -> cm.LevelCurve:
    """Trace a level curve guaranteed to cross a ray: pick the direction
    where g dips lowest on a mid-disk ring and aim halfway between g(0)
    and that dip, so the ray from the origin must cross the level."""
    ring = RING_RADIUS * np.exp(2j * np.pi * np.arange(RING_SAMPLES) / RING_SAMPLES)
    g = cm.level_value(m, ring)
    i = int(np.argmin(g))
    g0 = float(cm.level_value(m, np.array([0j]))[0])
    c = 0.5 * (g0 + float(g[i]))
    z0 = cm.find_level_start(m, c, theta=float(np.angle(ring[i])), rmax=TRACE_RMAX)
    return cm.trace_level_set(m, z0, rmax=TRACE_RMAX, max_points=4000)


@pytest.fixture(scope="module")
def zoo_curves():
    """Named (map, curve) pairs for the convex zoo."""
    curves: dict[str, tuple[cm.MapSpec, cm.LevelCurve]] = {}

    ident = cm.identity()
    curves["identity"] = (ident, cm.trace_level_set(ident, cm.find_level_start(ident, 0.75)))

    hp = cm.halfplane()
    z0 = cm.find_level_start(hp, 0.5, theta=np.pi)
    curves["halfplane"] = (hp, cm.trace_level_set(hp, z0, max_points=4000))

    st = cm.strip()
    z0 = cm.find_level_start(st, 0.5, theta=np.pi / 2)
    curves["strip"] = (st, cm.trace_level_set(st, z0, max_points=4000))

    for alpha in (0.25, 0.5, 0.75):
        m = cm.sector(alpha)
        curves[f"sector-{alpha}"] = (m, ring_trace(m))
    for n in (3, 7):
        m = cm.polygon(n)
        curves[f"polygon-{n}"] = (m, ring_trace(m))

    p5 = cm.polygon(5)
    z0 = cm.find_level_start(p5, 0.9)
    curves["polygon-5"] = (p5, cm.trace_level_set(p5, z0, step=0.002))
    return curves


@pytest.fixture(scope="module")
def herglotz_curves():
    """Twenty generated maps with a traced level curve each."""
    rng = np.random.default_rng(7)
    out = []
    for _ in range(20):
        coef = random_phi_coeffs(rng, lo=0.3, hi=0.95)
        m = cm.gen_herglotz(cm.PhiSpec.polynomial(coef), order=HERGLOTZ_ORDER, rmax=HERGLOTZ_RMAX)
        out.append((m, ring_trace(m)))
    return out


def test_primary_01_equality_extremals(capsys):
    worst = 0.0
    for m in (cm.halfplane(), cm.strip()):
        vals = cm.grid_functionals(m, EQUALITY_GRID.points())
        worst = max(worst, float(np.abs(vals["lhs1"] - vals["rhs3"]).max()))
    verdict(
        capsys, 1, worst <= 1e-10,
        f"half-plane and strip: max |slack3| = {worst:.3e} on 10,000 points, bar 1e-10",
    )


def test_primary_02_sector_equality_family(capsys):
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        vals = cm.grid_functionals(cm.sector(alpha), EQUALITY_GRID.points())
        worst = max(worst, float(np.abs(vals["lhs1"] - vals["rhs3"]).max()))
    spots = []
    for alpha in (0.25, 0.5, 0.75):
        spots.append((cm.sector(alpha), 0j, 1.0))
    spots.append((cm.sector(0.5), 0.5 + 0j, 7.0 / 3.0))
    spots.append((cm.sector(0.5), 0.5j, 0.6))
    spot_err = 0.0
    for m, z, want in spots:
        j = cm.jet_of(m, z)
        spot_err = max(spot_err, abs(cm.classical_lhs(j) - want), abs(cm.rhs3(j) - want))
    ok = worst <= 1e-10 and spot_err <= 1e-10
    verdict(
        capsys, 2, ok,
        f"sector family: max |slack3| = {worst:.3e}, worst spot error {spot_err:.3e}, bar 1e-10",
    )


def test_primary_03_negative_control(capsys):
    j = cm.jet_of(cm.koebe(), -0.5 + 0j)
    lhs = cm.classical_lhs(j)
    km = cm.kim_minda(j)
    rc = cli.main(["check", "--map", "koebe"])
    ok = abs(lhs + 1.0) <= 1e-12 and abs(km - 14.0) <= 1e-10 and rc == 3
    verdict(
        capsys, 3, ok,
        f"koebe at -0.5: classical lhs {lhs:.15g}, kim_minda {km:.15g}, check exit code {rc}",
    )


def test_primary_04_equivalence_identity(capsys):
    worst = 0.0
    pts = EQUALITY_GRID.points()
    for m in ZOO_ALL:
        vals = cm.grid_functionals(m, pts)
        om = 1.0 - np.abs(vals["z"]) ** 2
        gap = np.abs((2.0 - vals["km"]) - 2.0 * om * (vals["lhs1"] - vals["rhs3"]))
        worst = max(worst, float(gap.max()))
    verdict(
        capsys, 4, worst <= 1e-10,
        f"max |(2 - km) - 2(1-|z|^2) slack3| = {worst:.3e} over {len(ZOO_ALL)} zoo maps, bar 1e-10",
    )


def test_primary_05_herglotz_property_suite(capsys):
    rng = np.random.default_rng(11)
    pts = cm.GridSpec(40, 40, 0.8).points()
    s1_min = s3_min = np.inf
    km_max = nehari_max = -np.inf
    for _ in range(100):
        coef = random_phi_coeffs(rng, lo=0.3, hi=0.999)
        m = cm.gen_herglotz(cm.PhiSpec.polynomial(coef), order=HERGLOTZ_ORDER, rmax=HERGLOTZ_RMAX)
        vals = cm.grid_functionals(m, pts)
        s1_min = min(s1_min, float(vals["lhs1"].min()))
        s3_min = min(s3_min, float((vals["lhs1"] - vals["rhs3"]).min()))
        km_max = max(km_max, float(vals["km"].max()))
        nehari_max = max(nehari_max, float(vals["nehari"].max()))
    ok = s1_min >= -1e-7 and s3_min >= -1e-7 and km_max <= 2.0 + 1e-7 and nehari_max <= 2.0 + 1e-7
    verdict(
        capsys, 5, ok,
        "100 random generated maps: "
        f"min slack1 {s1_min:.6f}, min slack3 {s3_min:.6f}, "
        f"max km {km_max:.6f}, max nehari {nehari_max:.6f}",
    )


def test_primary_06_generator_oracles(capsys):
    m1 = cm.gen_herglotz(cm.PhiSpec.unimodular_constant(0.0), order=64, rmax=0.5)
    want = np.ones(40, dtype=complex)
    want[0] = 0.0
    err1 = float(np.abs(m1.series.coeffs[:40] - want).max())

    mz = cm.gen_herglotz(cm.PhiSpec.polynomial([0.0, 1.0]), order=64, rmax=0.5)
    d = mz.series.table[:40, 1]
    want = np.zeros(40, dtype=complex)
    want[0::2] = 1.0
    err2 = float(np.abs(d - want).max())

    ok = err1 <= 1e-12 and err2 <= 1e-12
    verdict(
        capsys, 6, ok,
        f"phi = 1 reproduces z/(1-z) to {err1:.3e}; phi = z gives f' = [1,0,1,0,...] to {err2:.3e}",
    )


def test_primary_07_curvature_formula(capsys, zoo_curves):
    _, ident = zoo_curves["identity"]
    err_ident = float(np.abs(ident.k - 2.0).max())

    hp = cm.halfplane()
    err_hp = 0.0
    for c in (0.5, 1.0, 2.0):
        x = (c - 1.0) / (c + 1.0)
        err_hp = max(err_hp, abs(cm.disk_curvature(cm.jet_of(hp, complex(x))) - (c + 1.0)))

    _, p5 = zoo_curves["polygon-5"]
    rel = float((np.abs(cm.discrete_curvature(p5) - p5.k) / np.abs(p5.k)).max())

    ok = err_ident <= 1e-10 and err_hp <= 1e-8 and p5.closed and rel <= 1e-4
    verdict(
        capsys, 7, ok,
        f"identity circle k error {err_ident:.3e}; half-plane spots {err_hp:.3e}; "
        f"pentagon discrete-vs-formula rel {rel:.3e} on a closed {len(p5)}-point trace",
    )


def test_primary_08_image_curvature_sign(capsys, zoo_curves, herglotz_curves):
    kappa_min = np.inf
    for _, curve in list(zoo_curves.values()) + herglotz_curves:
        kappa_min = min(kappa_min, float(curve.kappa.min()))
    flat = 0.0
    for name in ("halfplane", "strip"):
        flat = max(flat, float(np.abs(zoo_curves[name][1].kappa).max()))
    band = float(np.ptp(zoo_curves["strip"][1].w.imag))
    ok = kappa_min >= -1e-9 and flat <= 1e-9 and band <= 1e-8
    verdict(
        capsys, 8, ok,
        f"min kappa {kappa_min:.3e} over {len(zoo_curves) + len(herglotz_curves)} traces; "
        f"half-plane/strip |kappa| max {flat:.3e}; strip image height spread {band:.3e}",
    )


def test_primary_09_tangency_identity(capsys, zoo_curves, herglotz_curves):
    worst = 0.0
    pairs = list(zoo_curves.values()) + herglotz_curves
    for m, curve in pairs:
        _, f1, f2, _ = cm.jet_fields(m, curve.z)
        t = -1j * np.conj(curve.p) / np.abs(curve.p)
        gap = (t * f2 / f1).real - 2.0 * (np.conj(curve.z) * t).real / (1.0 - np.abs(curve.z) ** 2)
        worst = max(worst, float(np.abs(gap).max()))
    verdict(
        capsys, 9, worst <= 1e-8,
        f"max tangency residual {worst:.3e} over {len(pairs)} traced curves, bar 1e-8",
    )


def test_primary_10_schwarzian_oracle(capsys):
    rng = np.random.default_rng(3)
    cases = [
        (cm.identity(), closed_form("identity")),
        (cm.halfplane(), closed_form("halfplane")),
        (cm.strip(), closed_form("strip")),
        (cm.sector(0.25), closed_form("sector", alpha=0.25)),
        (cm.sector(0.5), closed_form("sector", alpha=0.5)),
        (cm.sector(0.75), closed_form("sector", alpha=0.75)),
        (cm.polygon(3), closed_form("polygon", n=3)),
        (cm.polygon(5), closed_form("polygon", n=5)),
        (cm.polygon(7), closed_form("polygon", n=7)),
        (cm.koebe(), closed_form("koebe")),
    ]
    worst = 0.0
    count = 0
    for m, f in cases:
        for z in random_disk_points(rng, 10, 0.8):
            want = fd_schwarzian(f, complex(z))
            got = cm.schwarzian(cm.jet_of(m, complex(z)))
            worst = max(worst, abs(got - want) / max(abs(want), 1.0))
            count += 1
    ok = worst <= 1e-6 and count == 100
    verdict(
        capsys, 10, ok,
        f"jet Schwarzian vs stencil: worst rel error {worst:.3e} at {count} points, bar 1e-6",
    )


def test_primary_11_critical_points(capsys):
    checks = []
    for m in (cm.identity(), cm.polygon(3), cm.polygon(5), cm.polygon(7)):
        res = cm.find_critical_point(m)
        lam = cm.poincare_density(cm.jet_of(m, 0j))
        checks.append(
            res.kind == "unique"
            and abs(res.z) <= 1e-10
            and abs(res.density_min - lam) <= 1e-10
        )
    res = cm.find_critical_point(cm.strip())
    checks.append(res.kind == "degenerate")
    res = cm.find_critical_point(cm.sector(0.5))
    sector_ok = (
        res.kind == "none"
        and res.residual_floor >= 0.1
        and res.residual_floor == pytest.approx(SECTOR_FLOOR, abs=1e-12)
    )
    checks.append(sector_ok)
    ok = all(checks)
    verdict(
        capsys, 11, ok,
        "identity and polygons give a unique zero at 0 with the density minimum; "
        f"strip degenerate; sector(0.5) none with floor {res.residual_floor:.12f}",
    )
