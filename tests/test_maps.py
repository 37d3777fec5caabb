from __future__ import annotations

import warnings

import numpy as np
import pytest

import convmap as cm

from .oracles import closed_form, fd_jet, random_phi_coeffs, random_disk_points

ZOO = [
    ("identity", cm.identity(), {}),
    ("halfplane", cm.halfplane(), {}),
    ("strip", cm.strip(), {}),
    ("sector", cm.sector(0.5), {"alpha": 0.5}),
    ("polygon", cm.polygon(5), {"n": 5}),
    ("koebe", cm.koebe(), {}),
]


def normalized(m: cm.MapSpec) -> cm.MapSpec:
    j = cm.jet_of(m, 0.0)
    return m.postcomposed(scale=1.0 / j.f1, offset=-j.f0 / j.f1)


def gen_quiet(phi: cm.PhiSpec, order: int, rmax: float = 0.9) -> cm.MapSpec:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cm.TruncationTail)
        return cm.gen_herglotz(phi, order=order, rmax=rmax)


def spec_herglotz(phi, order, rmax):
    # a regenerated map whose series MapSpec builds itself (at its default rmax)
    return cm.MapSpec("herglotz", phi=phi, order=order)


class TestConstruction:
    def test_builtin_names(self):
        for name, _, kw in ZOO:
            assert cm.builtin_map(name, **kw).kind == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            cm.builtin_map("annulus")

    def test_sector_alpha_range(self):
        cm.sector(1.0)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                cm.sector(bad)

    def test_polygon_side_count(self):
        with pytest.raises(ValueError):
            cm.polygon(2)
        with pytest.raises(ValueError):
            cm.polygon(3.5)

    def test_precompose_requires_interior_center(self):
        with pytest.raises(ValueError):
            cm.identity().precomposed(1.0)


class TestClosedFormJets:
    def test_zoo_jets_match_stencil(self):
        rng = np.random.default_rng(5)
        pts = random_disk_points(rng, 8, 0.8)
        for name, m, kw in ZOO:
            f = closed_form(name, **kw)
            for z in pts:
                jet = cm.jet_of(m, complex(z))
                oracle = np.array([complex(v) for v in fd_jet(f, z)])
                got = np.array([jet.f0, jet.f1, jet.f2, jet.f3])
                rel = np.abs(got - oracle) / np.maximum(np.abs(oracle), 1.0)
                assert rel.max() < 1e-9, (name, z, rel)

    def test_halfplane_spot(self):
        jet = cm.jet_of(cm.halfplane(), 0.5)
        assert jet.f0 == pytest.approx(1.0)
        assert jet.f1 == pytest.approx(4.0)
        assert jet.f2 == pytest.approx(16.0)
        assert jet.f3 == pytest.approx(96.0)

    def test_singular_point(self):
        # f = z - z**2 has f'(0.5) = 0
        m = cm.from_series([0.0, 1.0, -1.0], rmax=0.9)
        with pytest.raises(cm.SingularPoint):
            cm.jet_of(m, 0.5)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_polygon_scalar_matches_array(self, n):
        # a single point takes the Python-complex route, arrays the NumPy one
        m = cm.polygon(n)
        rng = np.random.default_rng(n)
        r = 0.95 * np.sqrt(rng.uniform(size=200))
        r[:16] = 0.95
        z = r * np.exp(2j * np.pi * rng.uniform(size=200))
        want = np.array(cm.jet_fields(m, z))
        got = np.array([[complex(v) for v in cm.jet_fields(m, complex(w))] for w in z]).T
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_jet_fields_vectorizes(self):
        z = np.array([0.1, 0.2 + 0.3j, -0.4j])
        f0, f1, f2, f3 = cm.jet_fields(cm.koebe(), z)
        for i, zi in enumerate(z):
            jet = cm.jet_of(cm.koebe(), complex(zi))
            np.testing.assert_allclose(
                [f0[i], f1[i], f2[i], f3[i]], [jet.f0, jet.f1, jet.f2, jet.f3], rtol=1e-14
            )


def _bits(vals) -> np.ndarray:
    return np.ascontiguousarray(vals, dtype=complex).reshape(-1).view(np.uint64)


def _composed_variants(m: cm.MapSpec) -> list[cm.MapSpec]:
    return [
        m,
        m.precomposed(0.2 - 0.1j, 0.7),
        m.postcomposed(1.5 - 0.5j, 0.25 + 1j),
        m.precomposed(-0.1 + 0.2j, -1.1).postcomposed(0.5j, -2.0),
    ]


class TestDerivativeJets:
    """``jet_derivatives`` skips f but keeps every other bit of ``jet_fields``."""

    @pytest.mark.parametrize(
        "m",
        [m for _, m, _ in ZOO]
        + [
            cm.gen_herglotz(cm.PhiSpec.polynomial([0.2, 0.3j]), order=96),
            cm.herglotz_map(cm.PhiSpec.polynomial([0.1, -0.3, 0.2j]), order=96),
        ],
        ids=[name for name, _, _ in ZOO] + ["series", "herglotz"],
    )
    def test_equals_jet_fields_bit_for_bit(self, m):
        rng = np.random.default_rng(21)
        # 41 points take a series' running products, 500 its Horner route
        batches = [random_disk_points(rng, n, 0.45) for n in (41, 500)]
        for variant in _composed_variants(m):
            for z in [complex(batches[0][3])] + batches:
                got = cm.jet_derivatives(variant, z)
                want = cm.jet_fields(variant, z)[1:]
                assert len(got) == 3
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(_bits(g), _bits(w))


class TestComposition:
    def test_precompose_matches_oracle(self):
        a, theta = 0.3 - 0.2j, 0.7
        m = cm.polygon(5).precomposed(a, theta)

        def tau(z):
            return np.exp(1j * theta) * (z + a) / (1 + np.conj(a) * z)

        f = closed_form("polygon", n=5)
        for z in (0.4, -0.3 + 0.2j):
            jet = cm.jet_of(m, z)
            assert complex(jet.f0) == pytest.approx(complex(f(tau(z))), abs=1e-12)

    def test_postcompose_is_affine(self):
        m = cm.strip().postcomposed(scale=2.0j, offset=1.0)
        base = cm.jet_of(cm.strip(), 0.3j)
        jet = cm.jet_of(m, 0.3j)
        assert jet.f0 == pytest.approx(2.0j * base.f0 + 1.0)
        assert jet.f1 == pytest.approx(2.0j * base.f1)
        assert jet.f3 == pytest.approx(2.0j * base.f3)

    def test_normalization_convention(self):
        # sector closed form is not normalized; the affine fix makes it so
        m = normalized(cm.sector(0.25))
        jet = cm.jet_of(m, 0.0)
        assert jet.f0 == pytest.approx(0.0, abs=1e-15)
        assert jet.f1 == pytest.approx(1.0, abs=1e-15)


class TestPhi:
    def test_halfplane_phi_is_one(self):
        z = random_disk_points(np.random.default_rng(6), 16, 0.8)
        np.testing.assert_allclose(cm.phi_values(cm.halfplane(), z), 1.0, atol=1e-12)

    def test_strip_phi_is_z(self):
        z = random_disk_points(np.random.default_rng(7), 16, 0.8)
        np.testing.assert_allclose(cm.phi_values(cm.strip(), z), z, atol=1e-12)

    def test_sector_phi_is_automorphism(self):
        alpha = 0.5
        z = random_disk_points(np.random.default_rng(8), 16, 0.8)
        expect = (z + alpha) / (1 + alpha * z)
        np.testing.assert_allclose(cm.phi_values(cm.sector(alpha), z), expect, atol=1e-12)

    def test_koebe_phi_leaves_disk(self):
        # (2 + z)/(1 + 2z) at 0 has modulus 2; Schwarz is violated
        assert abs(cm.phi_of(cm.koebe(), 0.0)) == pytest.approx(2.0)

    def test_degenerate_denominator(self):
        with pytest.raises(cm.DegenerateDenominator):
            cm.phi_of(cm.koebe(), -0.5)
        vals = cm.phi_values(cm.koebe(), np.array([-0.5, 0.1]))
        assert np.isnan(vals[0].real) and np.isfinite(vals[1])

    def test_boundary_sup(self):
        assert cm.PhiSpec.blaschke([0.3, -0.2j]).boundary_sup() == 1.0
        assert cm.PhiSpec.unimodular_constant(1.2).boundary_sup() == 1.0
        assert cm.PhiSpec.polynomial([0.0, 0.5]).boundary_sup() == pytest.approx(0.5)

    def test_unimodular_series_is_constant(self):
        s = cm.PhiSpec.unimodular_constant(0.25).series(8)
        assert s.coeffs[0] == pytest.approx(np.exp(0.25j))
        np.testing.assert_allclose(s.coeffs[1:], 0.0, atol=1e-15)


class TestGenerator:
    def test_constant_phi_gives_halfplane(self):
        m = gen_quiet(cm.PhiSpec.unimodular_constant(0.0), order=48)
        expect = np.ones(40)
        expect[0] = 0.0  # z/(1-z) = z + z^2 + ...
        np.testing.assert_allclose(m.series.coeffs[:40], expect, atol=1e-12)

    def test_linear_phi_gives_strip(self):
        m = gen_quiet(cm.PhiSpec.polynomial([0.0, 1.0]), order=48)
        fprime = cm.series_derive(m.series).coeffs[:40]
        expect = np.zeros(40)
        expect[0::2] = 1.0
        np.testing.assert_allclose(fprime, expect, atol=1e-12)

    def test_zero_phi_gives_identity(self):
        m = gen_quiet(cm.PhiSpec.polynomial([0.0]), order=16)
        expect = np.zeros(17)
        expect[1] = 1.0
        np.testing.assert_allclose(m.series.coeffs, expect, atol=1e-15)

    def test_out_of_range_phi(self):
        with pytest.raises(cm.PhiOutOfRange):
            cm.gen_herglotz(cm.PhiSpec.polynomial([1.0, 1.0]), order=16)

    def test_low_order_tail_warns(self):
        with pytest.warns(cm.TruncationTail):
            cm.gen_herglotz(cm.PhiSpec.unimodular_constant(0.0), order=16, rmax=0.9)

    @pytest.mark.parametrize("build", [cm.gen_herglotz, cm.herglotz_map, spec_herglotz])
    def test_tail_warning_names_the_caller(self, build):
        with pytest.warns(cm.TruncationTail) as record:
            build(cm.PhiSpec.unimodular_constant(0.0), order=16, rmax=0.9)
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize("name,phi,kw", [
        ("halfplane", cm.PhiSpec.unimodular_constant(0.0), {}),
        ("strip", cm.PhiSpec.polynomial([0.0, 1.0]), {}),
        ("sector", cm.PhiSpec.blaschke([-0.5]), {"alpha": 0.5}),
        ("polygon", cm.PhiSpec.polynomial([0.0, 0.0, 0.0, 0.0, 1.0]), {"n": 5}),
    ])
    def test_generated_series_agrees_with_closed_form(self, name, phi, kw):
        rng = np.random.default_rng(9)
        target = normalized(cm.builtin_map(name, **kw))
        # low order is trustworthy well inside the disk, high order out to 0.8
        for order, radius, tol in ((64, 0.5, 1e-9), (192, 0.8, 1e-8)):
            m = gen_quiet(phi, order=order, rmax=0.85)
            pts = random_disk_points(rng, 20, radius)
            got = cm.jet_fields(m, pts)
            expect = cm.jet_fields(target, pts)
            for g, e in zip(got, expect):
                rel = np.abs(g - e) / np.maximum(np.abs(e), 1.0)
                assert rel.max() < tol

    def test_blaschke_phi_reproduces_sector(self):
        # the sector family's phi is the Blaschke factor with zero at -alpha
        m = gen_quiet(cm.PhiSpec.blaschke([-0.25]), order=96, rmax=0.8)
        target = normalized(cm.sector(0.25))
        z = np.array([0.3, -0.2 + 0.4j])
        np.testing.assert_allclose(
            cm.jet_fields(m, z)[0], cm.jet_fields(target, z)[0], atol=1e-10
        )

    def test_fit_phi_round_trip(self):
        rng = np.random.default_rng(10)
        coef = random_phi_coeffs(rng, max_degree=4)
        m = gen_quiet(cm.PhiSpec.polynomial(coef), order=96)
        fitted = np.asarray(cm.fit_phi_polynomial(m, degree=6).coeffs)
        got = np.zeros(7, dtype=complex)
        got[: fitted.size] = fitted
        expect = np.zeros(7, dtype=complex)
        expect[: coef.size] = coef
        np.testing.assert_allclose(got, expect, atol=1e-9)

    def test_herglotz_map_is_tagged(self):
        m = cm.herglotz_map(cm.PhiSpec.polynomial([0.3]), order=64, rmax=0.5)
        assert m.phi is not None
        assert m.kind == "herglotz"


class TestJson:
    @pytest.mark.parametrize("name,m,kw", ZOO, ids=[row[0] for row in ZOO])
    def test_zoo_round_trip(self, name, m, kw):
        back = cm.map_from_json(cm.map_to_json(m))
        z = 0.3 + 0.2j
        a, b = cm.jet_of(m, z), cm.jet_of(back, z)
        assert (a.f0, a.f1, a.f2, a.f3) == (b.f0, b.f1, b.f2, b.f3)

    def test_composed_round_trip(self):
        m = cm.sector(0.75).precomposed(0.2j, 0.4).postcomposed(scale=3.0, offset=-1.0j)
        back = cm.map_from_json(cm.map_to_json(m))
        z = -0.25 + 0.1j
        assert cm.jet_of(back, z).f0 == pytest.approx(cm.jet_of(m, z).f0, abs=1e-15)

    def test_series_round_trip_is_exact(self):
        rng = np.random.default_rng(11)
        m = cm.from_series(rng.standard_normal(20) + 1j * rng.standard_normal(20), rmax=0.7)
        back = cm.map_from_json(cm.map_to_json(m))
        np.testing.assert_array_equal(back.series.coeffs, m.series.coeffs)
        assert back.series.rmax == m.series.rmax

    def test_herglotz_round_trip_keeps_phi(self):
        m = cm.herglotz_map(cm.PhiSpec.blaschke([0.4], theta=0.3), order=64, rmax=0.5)
        back = cm.map_from_json(cm.map_to_json(m))
        assert back.phi is not None
        assert back.phi.kind == "blaschke"
        np.testing.assert_array_equal(back.series.coeffs, m.series.coeffs)

    def test_malformed_payloads(self):
        with pytest.raises(ValueError):
            cm.map_from_json({"params": {}})
        with pytest.raises(ValueError):
            cm.map_from_json({"type": "doughnut", "params": {}})
        with pytest.raises(ValueError):
            cm.map_from_json({"type": "sector", "params": {}})
