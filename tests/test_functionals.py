from __future__ import annotations

import linecache
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convmap as cm
from convmap.grid import grid_points

from .oracles import random_disk_points, random_phi_coeffs

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


def gen384():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cm.TruncationTail)
        return cm.gen_herglotz(cm.PhiSpec.polynomial([0.3, 0.2j, -0.1]), order=384, rmax=0.9)


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

    def test_unimodular_pickles_by_name(self):
        assert pickle.loads(pickle.dumps(cm.UNIMODULAR)) is cm.UNIMODULAR

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
            k, kappa = cm.grid_functionals(m, zs, ("k", "kappa")).values()
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

    def test_named_keys(self):
        m = cm.polygon(5).precomposed(0.2j, 0.4)
        grid = cm.GridSpec(9, 8, 0.8)
        full = cm.grid_functionals(m, grid)
        for keys in (("z", "lhs1", "slack3", "km", "nehari"), ("z", "p", "g", "lhs1"), ("density",)):
            vals = cm.grid_functionals(m, grid, keys)
            assert tuple(vals) == keys
            for key in keys:
                np.testing.assert_array_equal(vals[key], full[key])
        assert tuple(cm.fields(0.3j, 1.0, 0.5, 0.2, ("km",))) == ("km",)
        with pytest.raises(ValueError, match="no field named w"):
            cm.grid_functionals(m, grid, ("z", "w"))

    def test_grid_points_are_built_once_per_call(self, monkeypatch):
        built = []
        points = cm.GridSpec.points
        monkeypatch.setattr(cm.GridSpec, "points", lambda grid: built.append(grid) or points(grid))
        generated = cm.gen_herglotz(cm.PhiSpec.polynomial([0.2, 0.3j]), order=192)
        for m in (cm.polygon(5), cm.strip().precomposed(0.3j, 0.2), generated):
            for call in (lambda: cm.grid_functionals(m, cm.GridSpec(9, 8, 0.8)), lambda: cm.classify_phi(m)):
                built.clear()
                call()
                assert len(built) == 1

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


    def test_a_kernel_warning_names_its_formula(self):
        # |p| = 0 at the strip's center: k divides by zero in the kernel,
        # whose source is registered under a name of its own
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cm.grid_functionals(cm.strip(), np.array([0j]), ("k",))
        assert caught
        for w in caught:
            assert w.filename != "<string>"
            assert "k =" in linecache.getline(w.filename, w.lineno)

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

    def test_km_and_slack3_witness_what_slack1_misses(self):
        # z + 1.416 z^81: z^80 is real and positive at every angle of the
        # default grid, so slack1 reads 1.0 there, but km and slack3 do not
        c = np.zeros(82, dtype=complex)
        c[1], c[81] = 1.0, 1.416
        rep = cm.convexity_report(cm.from_series(c, 0.9))
        assert rep.grid == cm.GridSpec()
        assert rep.slack1_min >= 0.0
        assert rep.km_max > 7.0
        assert rep.slack3_min < -14.0
        assert rep.verdict == "NotConvex"

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

    def test_reduces_the_full_grid_fields(self):
        # the report asks grid_functionals for four fields, which read P and
        # S; its figures must be the bits that the same reductions of those
        # fields give
        zoo = CONVEX_ZOO + [cm.koebe()]
        composed = [m.precomposed(0.3 - 0.2j, 0.7).postcomposed(1.5 - 0.5j, 1 + 1j) for m in zoo]
        grid = cm.GridSpec(40, 60, 0.9)
        keys = ("z", "lhs1", "slack3", "km", "nehari")
        for m in zoo + composed + [gen384()]:
            rep = cm.convexity_report(m, grid)
            vals = cm.grid_functionals(m, grid, keys)
            zs, slack3 = vals["z"], vals["slack3"]
            eq = np.flatnonzero(np.abs(slack3) <= rep.tolerance)
            want = (
                float(vals["lhs1"].min()), complex(zs[np.argmin(vals["lhs1"])]),
                float(slack3.min()), complex(zs[np.argmin(slack3)]),
                float(vals["km"].max()), complex(zs[np.argmax(vals["km"])]),
                float(vals["nehari"].max()), complex(zs[np.argmax(vals["nehari"])]),
                eq.size, tuple(complex(z) for z in zs[eq[: cm.functionals.EQUALITY_POINT_CAP]]),
            )
            got = (
                rep.slack1_min, rep.slack1_argmin, rep.slack3_min, rep.slack3_argmin,
                rep.km_max, rep.km_argmax, rep.nehari_max, rep.nehari_argmax,
                rep.equality_count, rep.equality_points,
            )
            assert repr(got) == repr(want), m


CLOSED_KINDS = [cm.identity(), cm.halfplane(), cm.strip(), cm.sector(0.5), cm.polygon(5), cm.koebe()]
REQUEST_KEYS = ("lhs1", "slack3", "km", "nehari", "den", "phi")


def full_jet_fields(m, where, keys) -> dict:
    """The kernel's fields of the full jet (z, f1, f2, f3) of
    ``jet_derivatives``: the reference of the batches that read P and S."""
    return cm.fields(grid_points(where), *cm.jet_derivatives(m, where), keys)


def full_route_phi_grid(m, where):
    """``phi_grid`` on the full jet: NaN where 2 + z P is (numerically) zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = full_jet_fields(m, where, ("den", "phi"))
        bad = ~np.isfinite(vals["den"]) | (abs(vals["den"]) < cm.functionals.DEGENERATE_EPS)
        return grid_points(where), np.where(bad, complex(np.nan, np.nan), vals["phi"])


class TestPSRequest:
    """Reports and phi read P and S alone: their keys ask ``maps._jets`` for
    no f'.  The full jet's fields are the reference, and asking for f' too
    changes no bit."""

    def test_exact_schwarzians(self):
        grid = cm.GridSpec(100, 100, 0.9)
        assert cm.convexity_report(cm.halfplane(), grid).nehari_max == 0.0
        assert cm.convexity_report(cm.identity().precomposed(0.3 - 0.2j, 0.7), grid).nehari_max == 0.0
        grid = cm.GridSpec(30, 40, 0.9)
        for m in CLOSED_KINDS:
            got, full = cm.grid_functionals(m, grid, ("P", "S")), full_jet_fields(m, grid, ("P", "S"))
            np.testing.assert_allclose(got["P"], full["P"], rtol=1e-12, atol=0)
            if m.kind in ("identity", "halfplane"):
                assert not np.any(got["S"])  # exactly 0, where the full jet reads roundoff
                assert np.abs(full["S"]).max() < 1e-12
            else:
                np.testing.assert_allclose(got["S"], full["S"], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m", CLOSED_KINDS, ids=lambda m: m.kind)
    def test_agrees_with_the_full_jet(self, m, monkeypatch):
        pre = m.precomposed(0.2 - 0.1j, 0.7)
        variants = [m, pre, m.postcomposed(1.5 - 0.5j, 0.25 + 1j), pre.postcomposed(1.5 - 0.5j, 0.25 + 1j),
                    m.precomposed(0.9 * np.exp(1.1j), 0.3)]
        for v in variants:
            for grid in (cm.GridSpec(), cm.GridSpec(100, 100, 0.9)):
                got, want = cm.grid_functionals(v, grid, REQUEST_KEYS), full_jet_fields(v, grid, REQUEST_KEYS)
                for key in REQUEST_KEYS:
                    np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=1e-13, err_msg=f"{v} {key}")
                rep, full = cm.convexity_report(v, grid), cm.grid_functionals(v, grid)
                assert rep.verdict == ("Convex" if cm.functionals._reads_convex(full, rep.tolerance) else "NotConvex")
                assert rep.equality_count == np.count_nonzero(np.abs(full["slack3"]) <= rep.tolerance)
            kind = cm.classify_phi(v).kind
            with monkeypatch.context() as patched:
                patched.setattr(cm.critical, "phi_grid", full_route_phi_grid)
                assert cm.classify_phi(v).kind == kind, v

    def test_generated_maps_keep_every_bit(self):
        rng = np.random.default_rng(20)
        grid = cm.GridSpec(40, 60, 0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", cm.TruncationTail)
            maps = [cm.gen_herglotz(cm.PhiSpec.polynomial(random_phi_coeffs(rng)), 384, 0.9) for _ in range(20)]
        for m in maps:
            for where in (grid.points(), grid):
                got, want = cm.grid_functionals(m, where, REQUEST_KEYS), cm.grid_functionals(m, where, REQUEST_KEYS + ("f1",))
                for key in REQUEST_KEYS:
                    np.testing.assert_array_equal(got[key], want[key])
            np.testing.assert_array_equal(cm.phi_values(m, grid), want["phi"])

    def test_reads_f1_only_for_a_key_that_needs_it(self):
        kernel = cm.functionals._kernel
        assert kernel(("lhs1",), True).reads == ("P",)
        for key in ("f1", "g", "density", "kappa"):
            assert "f1" in kernel(("lhs1", key), True).reads, key
        # P' is read from S, so the derivatives of p need no f'
        assert kernel(("dP", "pz"), True).reads == ("P", "S")
        grid = cm.GridSpec(4, 8, 0.5)
        got = cm.grid_functionals(cm.sector(0.5), grid, ("dP", "pz"))
        want = cm.grid_functionals(cm.sector(0.5), grid, ("dP", "pz", "f1"))
        for key in ("dP", "pz"):
            np.testing.assert_array_equal(got[key], want[key])

    def test_checks(self):
        # a series map keeps SingularPoint where f' vanishes; a P that is not
        # finite is a ValueError
        with pytest.raises(cm.SingularPoint):
            cm.convexity_report(cm.from_series([0.0, 1.0, -1.0], rmax=0.9), cm.GridSpec(9, 8, 0.9))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="P is not finite"):
            cm.convexity_report(cm.from_series([0.0, 1.0, 1e308, 1e308], 0.9), cm.GridSpec(4, 8, 0.8))


class TestGridSpec:
    @pytest.mark.parametrize("nr, ntheta", [(2.5, 4), (40, 7.5), (float("nan"), 4), (40, float("inf"))])
    def test_refuses_a_count_that_is_not_an_integer(self, nr, ntheta):
        # 2.5 rings to rmax 0.9 would be 0.36, 0.72 and 1.08, the last outside
        # the disk, where a half-plane reads NotConvex
        with pytest.raises(ValueError, match="must be an integer"):
            cm.GridSpec(nr, ntheta, 0.9)

    def test_takes_integral_counts_of_any_type(self):
        assert cm.GridSpec(np.int64(40), np.int32(7), 0.9).points().size == 280
        assert cm.GridSpec(4.0, 5, 0.9).radii().tolist() == cm.GridSpec(4, 5, 0.9).radii().tolist()
        # the counts are stored as int, which the FFT route of a series grid needs
        grid = cm.GridSpec(10, 16.0, 0.8)
        assert (type(grid.nr), type(grid.ntheta)) == (int, int)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", cm.TruncationTail)
            m = cm.gen_herglotz(cm.PhiSpec.polynomial([0.2, 0.3j]), order=64)
        assert repr(cm.convexity_report(m, grid)) == repr(cm.convexity_report(m, cm.GridSpec(10, 16, 0.8)))

    def test_fit_phi_polynomial_refuses_fractional_samples(self):
        with pytest.raises(ValueError, match="ntheta must be an integer"):
            cm.fit_phi_polynomial(cm.sector(0.5), degree=2, samples=64.5)


def composed(m: cm.MapSpec) -> cm.MapSpec:
    # a composition like the benchmark's: an automorphism centred at |a| = 0.3, an affine map
    return m.precomposed(0.3 * np.exp(0.4j), 0.7).postcomposed(1.5 - 0.5j, 0.25 + 1j)


class TestReportMemory:
    # tracemalloc counts the bytes NumPy allocates, so unlike the page
    # faults that a higher peak costs, these bounds do not depend on the host.
    # A composed map's chain rule deletes each array after its last reader:
    # its report peaks at 1,095-1,251 KB here, where new arrays for every
    # term of the old third-order rule read 2,190-2,659.
    @pytest.mark.parametrize("m, bound_kb", [
        (cm.identity(), 1200),
        (gen384(), 1300),
        (cm.polygon(5), 1550),
        (cm.sector(0.5), 1700),
        (composed(cm.identity()), 1500),
        (composed(cm.polygon(5)), 1850),
        (composed(cm.sector(0.5)), 2000),
        (composed(cm.koebe()), 1850),
    ], ids=["identity", "generated-384", "polygon5", "sector0.5",
            "identity-composed", "polygon5-composed", "sector0.5-composed", "koebe-composed"])
    def test_peak_of_a_100x100_report(self, m, bound_kb):
        grid = cm.GridSpec(100, 100, 0.9)
        cm.convexity_report(m, grid)  # the first call also fills the caches
        tracemalloc.start()
        try:
            cm.convexity_report(m, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_kb * 1024, f"{peak / 1024:.0f} KB"
