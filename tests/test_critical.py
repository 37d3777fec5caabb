from __future__ import annotations

import warnings

import numpy as np
import pytest

import convmap as cm
import convmap.critical as critical
from convmap.critical import DEGENERATE_COUNT, NEWTON_TOL, _newton_zeros
from convmap.functionals import fields
from convmap.maps import certified_rmax

from .oracles import random_disk_points

SECTOR_FLOOR = 0.4999999999999997  # default-grid minimum, pinned as a regression
KOEBE_FLOOR = 1.0163944111290606


def gen_quiet(phi, order=192, rmax=0.8):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cm.TruncationTail)
        return cm.gen_herglotz(phi, order=order, rmax=rmax)


def counting_batches(monkeypatch) -> list:
    """Count the jet batches of the search's Newton iterations and ascent of
    g: its ``grid_functionals`` calls on arrays of points, every call but
    the scan of a GridSpec."""
    real, calls = critical.grid_functionals, [0]

    def counted(m, zs, keys):
        calls[0] += not isinstance(zs, cm.GridSpec)
        return real(m, zs, keys)

    monkeypatch.setattr(critical, "grid_functionals", counted)
    return calls


def composed(m):
    return m.precomposed(0.25 - 0.15j, 0.7).postcomposed(1.5 - 0.5j, 1 + 1j)


def alias_map():
    """z + 1.416 z^81: z^80 is real and positive at every angle of the
    default grid, so lhs1 reads 1.0 there, but km and slack3 read NotConvex."""
    c = np.zeros(82, dtype=complex)
    c[1], c[81] = 1.0, 1.416
    return cm.from_series(c, 0.9)


def written_normal_derivatives(z, f1, f2, f3):
    """(p, dp/dz, dp/dzbar) written out by hand: the reference for the
    formula table's p, pz and pzb."""
    P = f2 / f1
    om = 1.0 - abs(z) ** 2
    dP = (f3 / f1 - 1.5 * P * P) + 0.5 * P * P  # P' = S + P^2/2
    return z.conjugate() - 0.5 * om * P, 0.5 * (z.conjugate() * P - om * dP), 1.0 + 0.5 * z * P


def written_curvatures_and_phi(z, f1, fld):
    """(k, kappa, phi, phi') written out by hand from the table's om, P, S,
    p, lhs1 and rhs2: the reference for the table's k, kappa, phi and dphi."""
    om, p = fld["om"], fld["p"]
    ap = abs(p)
    re = (p.conjugate() ** 2 * fld["S"]).real
    k = (1.0 + fld["rhs2"] + om / (2.0 * ap**2) * re) / ap
    kappa = (fld["lhs1"] - fld["rhs2"] + 0.5 * om * re / ap**2) / (abs(f1) * ap)
    den = 2.0 + z * fld["P"]
    return k, kappa, fld["P"] / den, 2.0 * fld["S"] / (den * den)


# the six closed kinds, two composed maps, a generated map and its precomposition
TABLE_MAPS = [
    cm.identity(), cm.halfplane(), cm.strip(), cm.sector(0.5), cm.polygon(5), cm.koebe(),
    composed(cm.sector(0.5)), composed(cm.koebe()),
    gen_quiet(cm.PhiSpec.polynomial([0.3, 0.2j, -0.25])),
    gen_quiet(cm.PhiSpec.polynomial([0.3, 0.2j, -0.25])).precomposed(0.1j, 1.0),
]


def table_jets(m) -> list:
    """Jets (z, f', f'', f''') of m at a point, as Python complex values,
    and at a one-element and a 41-point array."""
    zs = random_disk_points(np.random.default_rng(17), 41, 0.6)
    j = cm.jet_of(m, complex(zs[0]))
    return [(j.z, j.f1, j.f2, j.f3)] + [(z, *cm.jet_derivatives(m, z)) for z in (zs[:1], zs)]


def _bits(vals) -> np.ndarray:
    return np.ascontiguousarray(vals, dtype=complex).reshape(-1).view(np.uint64)


class TestCriticalPoints:
    def test_identity_has_center_minimum(self):
        res = cm.find_critical_point(cm.identity())
        assert res.kind == "unique"
        assert abs(res.z) < 1e-10
        assert res.density_min == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_polygon_has_center_minimum(self, n):
        res = cm.find_critical_point(cm.polygon(n))
        assert res.kind == "unique"
        assert abs(res.z) < 1e-10
        assert res.density_min == pytest.approx(1.0, abs=1e-12)

    def test_moved_minimum_follows_precomposition(self):
        res = cm.find_critical_point(cm.polygon(5).precomposed(0.3))
        assert res.kind == "unique"
        assert res.z == pytest.approx(-0.3, abs=1e-9)
        # the hyperbolic density of the image is unchanged by relabeling
        assert res.density_min == pytest.approx(1.0, abs=1e-10)

    def test_strip_degenerates_along_diameter(self):
        res = cm.find_critical_point(cm.strip())
        assert res.kind == "degenerate"
        assert len(res.locus) >= 5
        # the flat locus is the real diameter
        assert max(abs(z.imag) for z in res.locus) < 1e-8

    def test_sector_has_no_critical_point(self):
        res = cm.find_critical_point(cm.sector(0.5))
        assert res.kind == "none"
        assert res.z is None
        assert res.residual_floor >= 0.1
        assert res.residual_floor == pytest.approx(SECTOR_FLOOR, abs=1e-12)

    def test_koebe_has_no_critical_point(self):
        res = cm.find_critical_point(cm.koebe())
        assert res.kind == "none"
        assert res.residual_floor == pytest.approx(KOEBE_FLOOR, abs=1e-12)

    def test_newton_leaving_the_certified_radius_fails_the_seed(self):
        # a seed's Newton iterate reaches |z| = 0.86 > rmax; that seed fails
        # instead of aborting the search
        m = gen_quiet(cm.PhiSpec.polynomial([0.345094 + 0.267751j, -0.050254 + 0.487701j]))
        res = cm.find_critical_point(m, cm.GridSpec(40, 40, 0.78))
        assert res.kind == "none"
        assert res.residual_floor == pytest.approx(0.1016, abs=1e-4)

    def test_default_grid_stays_inside_the_certified_radius(self):
        # phi(0) = 0 puts the zero of p at the origin
        res = cm.find_critical_point(gen_quiet(cm.PhiSpec.polynomial([0.0, 0.4])))
        assert res.kind == "unique"
        assert abs(res.z) < 1e-10

    def test_default_grid_of_a_precomposed_series(self):
        # the precomposition shrinks the certified disk to (0.9 - 0.3)/(1 - 0.27)
        m = gen_quiet(cm.PhiSpec.polynomial([0.2, 0.3j]), rmax=0.9).precomposed(0.3)
        res = cm.find_critical_point(m)
        assert res.kind == "unique"
        assert abs(cm.p_field(cm.jet_of(m, res.z))) < 1e-12

    def test_halfplane_has_no_critical_point(self):
        # |p| = |1 - z|^2 / ... stays positive inside the grid radius
        res = cm.find_critical_point(cm.halfplane())
        assert res.kind == "none"
        assert res.residual_floor > 0.0


class TestNewton:
    def test_wirtinger_derivatives_match_central_differences(self):
        gen = gen_quiet(cm.PhiSpec.polynomial([0.3, 0.2j, -0.25]))
        maps = [cm.identity(), cm.halfplane(), cm.strip(), cm.sector(0.5), cm.polygon(5), cm.koebe(),
                cm.polygon(3).precomposed(0.3 + 0.2j, 0.4).postcomposed(2 - 1j, 0.5),
                gen, gen.precomposed(0.1j, 1.0)]
        rng = np.random.default_rng(5)
        h = 1e-5
        for m in maps:  # 16 points each
            z = 0.6 * np.sqrt(rng.uniform(size=16)) * np.exp(2j * np.pi * rng.uniform(size=16))

            def p_at(w):
                return fields(w, *cm.jet_fields(m, w)[1:], ("p",))["p"]

            dp_dz, dp_dzb = fields(z, *cm.jet_fields(m, z)[1:], ("pz", "pzb")).values()
            px = (p_at(z + h) - p_at(z - h)) / (2 * h)
            py = (p_at(z + 1j * h) - p_at(z - 1j * h)) / (2 * h)
            scale = 1.0 + np.abs(px) + np.abs(py)
            assert np.abs(dp_dz + dp_dzb - px).max() <= 1e-8 * scale.max()
            assert np.abs(1j * (dp_dz - dp_dzb) - py).max() <= 1e-8 * scale.max()

    @pytest.mark.parametrize("m", TABLE_MAPS)
    def test_the_table_has_the_bits_of_the_written_derivatives(self, m):
        for jet in table_jets(m):
            want = written_normal_derivatives(*jet)
            table = fields(*jet, ("p", "pz", "pzb"))
            np.testing.assert_array_equal(_bits([table["p"], table["pz"], table["pzb"]]), _bits(want))

    @pytest.mark.parametrize("m", TABLE_MAPS)
    def test_the_table_has_the_bits_of_the_written_curvatures_and_phi(self, m):
        for jet in table_jets(m):
            want = written_curvatures_and_phi(jet[0], jet[1], fields(*jet, ("om", "P", "S", "p", "lhs1", "rhs2")))
            table = fields(*jet, ("k", "kappa", "phi", "dphi"))
            np.testing.assert_array_equal(_bits([table["k"], table["kappa"], table["phi"], table["dphi"]]), _bits(want))

    def test_a_seed_leaving_the_certified_radius_fails_alone(self):
        m = gen_quiet(cm.PhiSpec.polynomial([0.4 + 0.2j, 0.0, 0.45])).precomposed(0.1)
        z, ap, _ = _newton_zeros(m, [0.75 + 0.1j, 0.2])
        # the first seed's last iterate lies outside the certified disk ...
        assert ap[0] == np.inf
        with pytest.raises(cm.RadiusExceeded):
            cm.jet_fields(m, z[:1])
        # ... and the second still converges to the map's one zero of p
        assert ap[1] <= NEWTON_TOL
        assert z[1] == pytest.approx(cm.find_critical_point(m).z, abs=1e-12)

    def test_a_cycling_seed_fails_within_the_window(self, monkeypatch):
        # |p| = 1 on the whole half plane; a seed here settles into a cycle
        # of iterates at |p| = 1 +- 2e-14, which ran all 60 iterations before
        # the window
        calls = counting_batches(monkeypatch)
        res = cm.find_critical_point(cm.halfplane().precomposed(-0.25 + 0.16j, 3.45))
        assert res.kind == "none"
        assert calls[0] <= 2 * critical.NEWTON_WINDOW < critical.NEWTON_MAX_ITER


class TestTheoremPath:
    @pytest.mark.parametrize("a, theta, alpha, batches", [
        # rotated so that its boundary point at infinity is z = 1, on a ray of
        # the default grid: the first geodesic of the ascent reaches the edge
        (0.3j, -2 * np.angle(1 + 0.3j), 0.75, 1),
        # off the grid's rays: the ascent bends toward the point at infinity
        (-0.023 + 0.299j, 4.715, 0.5, 5),
    ])
    def test_a_composed_sector_climbs_to_none(self, monkeypatch, a, theta, alpha, batches):
        # their 41 seeds creep for 23 and 22 batches
        calls = counting_batches(monkeypatch)
        m = cm.sector(alpha).precomposed(a, theta).postcomposed(-0.92 + 0.09j, 1.0 - 2.7j)
        res = cm.find_critical_point(m)
        assert res.kind == "none" and res.locus == ()
        assert calls[0] <= batches

    @pytest.mark.parametrize("a", [0.97, 0.97 * np.exp(0.3j), 0.995])
    def test_a_minimum_between_the_rim_and_the_cap_is_found(self, a):
        # a Newton seed from the rim (0.9) overshoots the zero at -a out of
        # the disk; the ascent of g stops beside it first (the 41 seeds miss
        # the zero at -0.995)
        res = cm.find_critical_point(cm.polygon(3).precomposed(a, 0.2))
        assert res.kind == "unique"
        assert res.z == pytest.approx(-a, abs=1e-9)

    def test_a_minimum_past_the_certified_radius_about_0_is_found(self):
        # precomposed, the series is certified on a disk off center: the
        # ascent reaches the certified radius about 0 short of the zero,
        # which the seed scan then finds
        phi = cm.PhiSpec.polynomial([0.1365 + 0.1226j, -0.1704 + 0.1758j])
        m = gen_quiet(phi, rmax=0.9).precomposed(-0.3686 - 0.4385j, 3.656)
        res = cm.find_critical_point(m)
        assert res.kind == "unique"
        assert abs(res.z) > certified_rmax(m)
        assert abs(cm.p_field(cm.jet_of(m, res.z))) <= NEWTON_TOL

    @pytest.mark.parametrize("m", [
        cm.strip().precomposed(0.98, 0.5),
        cm.strip().precomposed(0.98j, 0.5),
        # one Newton root reads |p| <= NEWTON_TOL in its batch but 1.04e-12
        # through jet_of; the other six make the locus
        cm.strip().precomposed(0.995 * np.exp(1.3j), 0.5).postcomposed(1 + 1j, 0.5 - 2j),
    ], ids=["0.98", "0.98j", "composed-0.995"])
    def test_a_locus_between_the_rim_and_the_cap_is_found(self, m):
        res = cm.find_critical_point(m)
        assert res.kind == "degenerate"
        assert max(abs(cm.p_field(cm.jet_of(m, z))) for z in res.locus) <= NEWTON_TOL

    def test_a_composed_strip_reads_degenerate(self):
        m = cm.strip().precomposed(0.07 - 0.29j, 1.9).postcomposed(0.8 + 0.9j, -0.3 - 0.8j)
        res = cm.find_critical_point(m)
        assert res.kind == "degenerate" and res.z is None
        assert len(res.locus) >= DEGENERATE_COUNT
        gaps = [abs(a - b) for i, a in enumerate(res.locus) for b in res.locus[:i]]
        assert min(gaps) > critical.DISTINCT_SEP
        assert max(abs(cm.p_field(cm.jet_of(m, z))) for z in res.locus) <= NEWTON_TOL

    def test_a_minimum_past_the_scan_radius_is_still_found(self):
        # the grid argmax of g lies on the outer ring (0.9), with g growing
        # outward; the ascent and its seed find the zero
        res = cm.find_critical_point(cm.polygon(5).precomposed(0.92))
        assert res.kind == "unique"
        assert res.z == pytest.approx(-0.92, abs=1e-9)

    def test_a_scan_off_the_certified_disk_about_0(self):
        # the precomposition center lies outside the series radius, so no
        # disk about 0 is certified, yet the scanned points are; the grid
        # maximum of g is the outermost point, short of the zero
        m = gen_quiet(cm.PhiSpec.polynomial([0.2, 0.3j]), order=64).precomposed(0.85)
        pts = -0.7 * np.exp(0.035j) * np.linspace(0.8, 1.0, 9) + 0.01j * np.array([0, 1, -1, 1, -1, 1, -1, 1, 0])
        res = cm.find_critical_point(m, pts)
        assert res.kind == "unique"
        assert abs(cm.p_field(cm.jet_of(m, res.z))) <= NEWTON_TOL

    def test_a_scan_that_km_and_slack3_read_not_convex_takes_the_seed_scan(self, monkeypatch):
        # lhs1 alone reads convex on this scan; the verdict's rule does not
        calls = []
        monkeypatch.setattr(critical, "_theorem_search", lambda *args: calls.append(args))
        res = cm.find_critical_point(alias_map())
        assert calls == []
        assert res.kind == "unique" and abs(res.z) < 1e-10

    def test_an_empty_scan_is_refused(self):
        with pytest.raises(ValueError, match="empty"):
            cm.find_critical_point(cm.polygon(5), np.array([], dtype=complex))

    def test_agrees_with_the_seed_scan(self, monkeypatch):
        zoo = [cm.identity(), cm.halfplane(), cm.strip(), *(cm.sector(a) for a in (0.25, 0.5, 0.75)),
               *(cm.polygon(n) for n in (3, 5, 7))]
        # phi = 0.95 z: the Jacobian's singular values at the zero are 2.6e-2
        # apart in ratio, yet it must read unique
        gens = [gen_quiet(cm.PhiSpec.polynomial(c)) for c in ([0.0, 0.95], [0.2, 0.3j], [0.3, 0.2j, -0.25])]
        maps = zoo + [composed(m) for m in zoo] + gens
        real, decided = critical._theorem_search, []

        def recorded(*args):
            res = real(*args)
            decided.append(res is not None)
            return res

        monkeypatch.setattr(critical, "_theorem_search", recorded)
        fast = [cm.find_critical_point(m) for m in maps]
        assert decided == [True] * len(maps)
        monkeypatch.setattr(critical, "_theorem_search", lambda *args: None)
        for m, a in zip(maps, fast):
            b = cm.find_critical_point(m)
            assert a.kind == b.kind
            assert a.residual_floor == b.residual_floor
            if a.kind == "unique":
                assert abs(a.z - b.z) <= 1e-9
                assert a.density_min == pytest.approx(b.density_min, rel=1e-9)
        assert [r.kind for r in fast[:9]] == ["unique", "none", "degenerate", "none", "none", "none",
                                              "unique", "unique", "unique"]
        assert fast[-3].kind == "unique"


def theorem_then_seed_scan(monkeypatch, m, grid=None):
    """(what ``_theorem_search`` returned, the scan it was given, the result
    of ``find_critical_point``, the result of the seed scan alone)."""
    real, seen = critical._theorem_search, []

    def recorded(m, vals, floor):
        seen.append((real(m, vals, floor), vals))
        return seen[-1][0]

    monkeypatch.setattr(critical, "_theorem_search", recorded)
    res = cm.find_critical_point(m, grid)
    monkeypatch.setattr(critical, "_theorem_search", lambda *args: None)
    scan = cm.find_critical_point(m, grid)
    monkeypatch.setattr(critical, "_theorem_search", real)
    (decided, vals), = seen
    return decided, vals, res, scan


def assert_same_result(a, b):
    assert (a.kind, a.residual_floor, len(a.locus)) == (b.kind, b.residual_floor, len(b.locus))
    if a.kind == "unique":
        assert abs(a.z - b.z) <= 1e-9
        assert a.density_min == pytest.approx(b.density_min, rel=1e-9)


class TestTheoremFallbacks:
    """Each way out of ``_theorem_search`` ends where the seed scan alone
    does."""

    def test_no_room_past_the_rim(self, monkeypatch):
        # a series half-plane: g grows to the rim, and the default grid's
        # outer ring is the certified radius, the edge of the climb
        m = gen_quiet(cm.PhiSpec.unimodular_constant(0.0), order=384, rmax=0.9)
        decided, vals, res, scan = theorem_then_seed_scan(monkeypatch, m)
        assert decided is None
        assert abs(vals["z"][np.argmax(vals["g"])]) >= certified_rmax(m)
        assert_same_result(res, scan)
        assert res.kind == "none"

    def test_a_zero_of_p_at_the_grid_maximum_of_g(self, monkeypatch):
        # the zero of p sits on a point of the default grid's outer ring:
        # there is nothing to climb
        w = complex(cm.GridSpec().points()[-33])
        m = cm.identity().precomposed(-w)
        decided, vals, res, scan = theorem_then_seed_scan(monkeypatch, m)
        i = np.argmax(vals["g"])
        assert vals["z"][i] == w and abs(vals["p"][i]) <= NEWTON_TOL
        assert decided == res
        assert_same_result(res, scan)
        assert res.kind == "unique" and res.z == w

    def test_a_climb_longer_than_its_steps(self, monkeypatch):
        # the ascent toward the sector's point at infinity needs 17 geodesics
        m = cm.sector(0.1).precomposed(0.95 * np.exp(0.75j * np.pi))
        decided, vals, res, scan = theorem_then_seed_scan(monkeypatch, m)
        assert decided is None
        calls = counting_batches(monkeypatch)
        assert critical._theorem_search(m, vals, res.residual_floor) is None
        assert calls[0] == critical.ASCENT_STEPS  # every batch an ascent, no Newton seed
        assert_same_result(res, scan)
        assert res.kind == "none"

    def test_a_failed_seed(self, monkeypatch):
        # the grid maximum of g lies inside the scan, and the zero of p at
        # 0.9995 past INTERIOR_CAP: the one Newton seed leaves the disk
        m = cm.identity().precomposed(-0.9995)
        pts = np.append(0.5 * np.exp(2j * np.pi * np.arange(8) / 8), [-0.6, -0.7j])
        decided, vals, res, scan = theorem_then_seed_scan(monkeypatch, m, pts)
        assert decided is None
        w = vals["z"][np.argmax(vals["g"])]
        assert abs(w) == 0.5
        assert not np.isfinite(_newton_zeros(m, [w])[1]).any()
        assert_same_result(res, scan)
        assert res.kind == "none"


class TestPhiClassification:
    def test_halfplane_is_unimodular_constant(self):
        cls = cm.classify_phi(cm.halfplane())
        assert cls.kind == "unimodular_const"
        assert cls.a is None
        assert cls.theta == pytest.approx(0.0, abs=1e-10)
        assert cls.fit_error < 1e-10

    def test_rotated_halfplane_constant(self):
        m = gen_quiet(cm.PhiSpec.unimodular_constant(0.7), order=192, rmax=0.8)
        cls = cm.classify_phi(m)
        assert cls.kind == "unimodular_const"
        assert cls.theta == pytest.approx(0.7, abs=1e-7)

    def test_strip_is_centered_automorphism(self):
        cls = cm.classify_phi(cm.strip())
        assert cls.kind == "automorphism"
        assert cls.a == pytest.approx(0.0, abs=1e-10)
        assert cls.theta == pytest.approx(0.0, abs=1e-10)
        assert cls.fit_error < 1e-10

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_sector_automorphism_center(self, alpha):
        cls = cm.classify_phi(cm.sector(alpha))
        assert cls.kind == "automorphism"
        assert cls.a == pytest.approx(alpha, abs=1e-9)
        assert cls.theta == pytest.approx(0.0, abs=1e-9)

    def test_identity_is_strict(self):
        # phi vanishes identically; no automorphism fits
        cls = cm.classify_phi(cm.identity())
        assert cls.kind == "strict"
        assert cls.fit_error == np.inf

    def test_koebe_phi_is_rejected(self):
        # the fitted center lands outside the closed disk
        assert cm.classify_phi(cm.koebe()).kind == "strict"

    def test_small_polynomial_phi_is_strict(self):
        m = gen_quiet(cm.PhiSpec.polynomial([0.2, 0.0, 0.3]))
        assert cm.classify_phi(m).kind == "strict"
