from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convmap as cm

from .oracles import random_disk_points

CONVEX_ZOO = [
    cm.identity(),
    cm.halfplane(),
    cm.strip(),
    cm.sector(0.25),
    cm.sector(0.5),
    cm.sector(0.75),
    cm.polygon(3),
    cm.polygon(5),
    cm.polygon(7),
]


def jet(m, z):
    return cm.jet_of(m, z)


class TestSpotValues:
    def test_halfplane_saturates_both_bounds(self):
        j = jet(cm.halfplane(), 0.5)
        assert cm.classical_lhs(j) == pytest.approx(3.0, abs=1e-12)
        assert cm.rhs2(j) == pytest.approx(3.0, abs=1e-12)
        assert cm.rhs3(j) == pytest.approx(3.0, abs=1e-12)
        assert cm.schwarzian(j) == pytest.approx(0.0, abs=1e-13)

    def test_strip_spot(self):
        j = jet(cm.strip(), 0.5)
        assert cm.classical_lhs(j) == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert cm.rhs3(j) == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert cm.p_field(j) == pytest.approx(0.0, abs=1e-14)
        assert cm.kim_minda(j) == pytest.approx(2.0, abs=1e-12)

    def test_sector_origin_spot(self):
        j = jet(cm.sector(0.5), 0.0)
        assert cm.classical_lhs(j) == pytest.approx(1.0, abs=1e-13)
        assert cm.rhs3(j) == pytest.approx(1.0, abs=1e-13)
        assert cm.kim_minda(j) == pytest.approx(2.0, abs=1e-13)

    def test_sector_spots_off_origin(self):
        m = cm.sector(0.5)
        assert cm.classical_lhs(jet(m, 0.5)) == pytest.approx(7.0 / 3.0, abs=1e-12)
        assert cm.rhs3(jet(m, 0.5)) == pytest.approx(7.0 / 3.0, abs=1e-12)
        assert cm.classical_lhs(jet(m, 0.5j)) == pytest.approx(0.6, abs=1e-12)
        assert cm.rhs3(jet(m, 0.5j)) == pytest.approx(0.6, abs=1e-12)

    def test_koebe_negative_control(self):
        j = jet(cm.koebe(), -0.5)
        assert cm.classical_lhs(j) == pytest.approx(-1.0, abs=1e-12)
        assert cm.kim_minda(j) == pytest.approx(14.0, abs=1e-10)
        assert cm.p_field(j) == pytest.approx(-2.0, abs=1e-12)

    def test_identity_values(self):
        j = jet(cm.identity(), 0.3 + 0.4j)
        assert cm.classical_lhs(j) == pytest.approx(1.0)
        assert cm.rhs2(j) == 0.0
        assert cm.nehari_value(j) == 0.0
        assert cm.poincare_density(j) == pytest.approx(1.0 / 0.75)

    def test_poincare_density_of_halfplane(self):
        # image Re w > -1/2: density 1/(2 Re w + 1) at w = f(z)
        z = 0.3 - 0.2j
        j = jet(cm.halfplane(), z)
        w = z / (1 - z)
        assert cm.poincare_density(j) == pytest.approx(1.0 / (2 * w.real + 1), rel=1e-12)


class TestSchwarzPick:
    def test_halfplane_is_unimodular(self):
        assert cm.schwarz_pick_slack(jet(cm.halfplane(), 0.3)) is cm.UNIMODULAR

    def test_automorphism_phi_has_zero_slack(self):
        for m in (cm.strip(), cm.sector(0.5)):
            for z in (0.4, -0.2 + 0.3j):
                assert cm.schwarz_pick_slack(jet(m, z)) == pytest.approx(0.0, abs=1e-12)

    def test_strict_phi_has_positive_slack(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", cm.TruncationTail)
            m = cm.gen_herglotz(cm.PhiSpec.polynomial([0.0, 0.4]), order=96, rmax=0.8)
        s = cm.schwarz_pick_slack(jet(m, 0.3))
        assert s is not cm.UNIMODULAR and s > 0.01

    def test_degenerate_denominator_propagates(self):
        with pytest.raises(cm.DegenerateDenominator):
            cm.schwarz_pick_slack(jet(cm.koebe(), -0.5))


class TestGridFunctionals:
    def test_matches_scalar_ops(self):
        # every kernel field and both curvatures, array path against the
        # scalar views, on a closed form, a generated series and a map that
        # is both precomposed and postcomposed
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", cm.TruncationTail)
            generated = cm.gen_herglotz(cm.PhiSpec.polynomial([0.2, 0.3j]), order=192, rmax=0.85)
        composed = generated.precomposed(0.2 + 0.1j, 0.3).postcomposed(2.0 - 1.0j, 0.5)
        scalar_ops = {
            "P": cm.pre_schwarzian,
            "S": cm.schwarzian,
            "p": cm.p_field,
            "lhs1": cm.classical_lhs,
            "rhs2": cm.rhs2,
            "rhs3": cm.rhs3,
            "km": cm.kim_minda,
            "nehari": cm.nehari_value,
            "density": cm.poincare_density,
        }
        # the composed map is certified out to (0.85 - |a|)/(1 - 0.85 |a|) = 0.77
        for m, r in ((cm.sector(0.6), 0.8), (generated, 0.8), (composed, 0.75)):
            zs = random_disk_points(np.random.default_rng(12), 24, r)
            vals = cm.grid_functionals(m, zs)
            k, kappa = cm.curvatures(vals, vals["f1"])
            for i in (0, 7, 23):
                j = jet(m, complex(zs[i]))
                for key, op in scalar_ops.items():
                    assert vals[key][i] == pytest.approx(op(j), rel=1e-13), key
                assert vals["g"][i] == pytest.approx(float(cm.level_value(m, j.z)), rel=1e-13)
                assert k[i] == pytest.approx(cm.disk_curvature(j), rel=1e-13)
                assert kappa[i] == pytest.approx(cm.image_curvature(j), rel=1e-13)

    def test_singular_grid_point(self):
        m = cm.from_series([0.0, 1.0, -1.0], rmax=0.9)
        with pytest.raises(cm.SingularPoint):
            cm.grid_functionals(m, np.array([0.2, 0.5]))
        # the spectral route: the ring r = 0.5 passes through the zero at 1/2
        with pytest.raises(cm.SingularPoint):
            cm.grid_functionals(m, cm.GridSpec(9, 8, 0.9))

    def test_grid_or_points(self):
        grid = cm.GridSpec(12, 20, 0.85)
        generated = cm.gen_herglotz(cm.PhiSpec.polynomial([0.2, 0.3j]), order=192)
        for m in (cm.polygon(5), cm.strip().precomposed(0.3j, 0.2).postcomposed(2.0, 1.0), generated):
            on_grid = cm.grid_functionals(m, grid)
            on_points = cm.grid_functionals(m, grid.points())
            assert set(on_grid) == set(on_points) and "w" not in on_grid
            np.testing.assert_array_equal(on_grid["z"], grid.points())
            if m.series is None:  # the same points, the same arithmetic
                for key in on_points:
                    np.testing.assert_array_equal(on_grid[key], on_points[key])
            else:
                for key in ("f1", "lhs1", "rhs3", "km", "g"):
                    np.testing.assert_allclose(on_grid[key], on_points[key], rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(cm.phi_values(m, grid), cm.phi_values(m, grid.points()), atol=1e-13)

    def test_equivalence_identity_is_tight(self):
        zs = cm.GridSpec(20, 16, 0.9).points()
        for m in CONVEX_ZOO + [cm.koebe()]:
            vals = cm.grid_functionals(m, zs)
            gap = (2.0 - vals["km"]) - 2.0 * (1.0 - np.abs(zs) ** 2) * (
                vals["lhs1"] - vals["rhs3"]
            )
            assert np.abs(gap).max() < 1e-12
        # and the scalar op agrees with the arrays
        assert cm.equivalence_identity(jet(cm.polygon(5), 0.4 + 0.3j)) < 1e-14


class TestInvariance:
    @settings(max_examples=60, deadline=None)
    @given(
        ar=st.floats(-0.6, 0.6),
        ai=st.floats(-0.6, 0.6),
        theta=st.floats(0.0, 6.28),
        zr=st.floats(-0.5, 0.5),
        zi=st.floats(-0.5, 0.5),
    )
    def test_km_is_moebius_invariant(self, ar, ai, theta, zr, zi):
        # both Kim-Minda terms are built from hyperbolically natural pieces,
        # so precomposing with a disk automorphism only relabels the point
        a = complex(ar, ai)
        z = complex(zr, zi)
        m = cm.polygon(5).precomposed(a, theta)
        tau = np.exp(1j * theta) * (z + a) / (1 + np.conj(a) * z)
        assert cm.kim_minda(jet(m, z)) == pytest.approx(
            cm.kim_minda(jet(cm.polygon(5), tau)), abs=1e-9
        )

    def test_postcomposition_leaves_slacks_alone(self):
        base = cm.sector(0.3)
        moved = base.postcomposed(scale=2.0 - 1.0j, offset=5.0)
        for z in (0.2, -0.4 + 0.1j):
            jb, jm = jet(base, z), jet(moved, z)
            assert cm.classical_lhs(jm) == pytest.approx(cm.classical_lhs(jb), rel=1e-12)
            assert cm.rhs3(jm) == pytest.approx(cm.rhs3(jb), rel=1e-12)
            assert cm.kim_minda(jm) == pytest.approx(cm.kim_minda(jb), rel=1e-12)


class TestReport:
    def test_identity_report(self):
        rep = cm.convexity_report(cm.identity())
        assert rep.verdict == "Convex"
        assert rep.slack1_min == pytest.approx(1.0)
        assert not rep.equality_flag
        assert rep.equality_count == 0
        assert rep.phi_class.kind == "strict"

    def test_halfplane_equality_everywhere(self):
        grid = cm.GridSpec(12, 10, 0.9)
        rep = cm.convexity_report(cm.halfplane(), grid)
        assert rep.verdict == "Convex"
        assert rep.equality_flag
        assert rep.equality_count == 120
        assert len(rep.equality_points) == 32  # reporting cap
        assert rep.phi_class.kind == "unimodular_const"

    def test_sector_report(self):
        rep = cm.convexity_report(cm.sector(0.5))
        assert rep.verdict == "Convex"
        assert rep.equality_flag
        assert rep.phi_class.kind == "automorphism"
        assert rep.phi_class.a == pytest.approx(0.5, abs=1e-8)

    def test_koebe_report(self):
        rep = cm.convexity_report(cm.koebe())
        assert rep.verdict == "NotConvex"
        assert rep.slack1_min < -0.9
        assert rep.slack1_argmin.real < -0.4
        assert rep.km_max > 2.0

    def test_series_map_gets_looser_tolerance(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", cm.TruncationTail)
            m = cm.gen_herglotz(cm.PhiSpec.polynomial([0.5]), order=192, rmax=0.8)
        rep = cm.convexity_report(m, cm.GridSpec(10, 10, 0.8))
        assert rep.tolerance == pytest.approx(1e-7)
        assert rep.verdict == "Convex"
        assert cm.convexity_report(cm.halfplane()).tolerance == pytest.approx(1e-9)

    def test_default_grid_stays_inside_the_certified_radius(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", cm.TruncationTail)
            m = cm.gen_herglotz(cm.PhiSpec.polynomial([0.0, 0.4]), order=192, rmax=0.8)
        rep = cm.convexity_report(m)
        assert rep.grid == cm.GridSpec(rmax=0.8)
        assert rep.verdict == "Convex"
        # closed forms keep the full default grid
        assert cm.convexity_report(cm.identity()).grid == cm.GridSpec()

    def test_default_grid_of_a_precomposed_series(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", cm.TruncationTail)
            m = cm.gen_herglotz(cm.PhiSpec.polynomial([0.2, 0.3j]), order=192, rmax=0.9)
        rep = cm.convexity_report(m.precomposed(0.3))
        # |z| <= r maps into |w| <= (r + 0.3)/(1 + 0.3 r), which is 0.9 here
        assert rep.grid.rmax == pytest.approx(0.6 / 0.73, rel=1e-15)
        assert rep.verdict == "Convex"
        with pytest.raises(cm.RadiusExceeded):
            cm.convexity_report(m.precomposed(0.95))
