from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

import convmap as cm
import convmap.levelset as levelset
import convmap.maps as maps
from convmap.grid import grid_points
from convmap.maps import phi_to_json

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


def json_herglotz(phi, order, rmax):
    # a regenerated map read back from its JSON spec
    return cm.map_from_json({"type": "herglotz", "params": {"phi": phi_to_json(phi), "order": order, "rmax": rmax}})


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


def per_jet_automorphism(z, a, theta):
    """The automorphism as computed afresh at every jet, every constant
    inline: the oracle for the constants a map computes once."""
    ab = a.conjugate()
    e = np.exp(1j * theta)
    d = 1.0 + ab * z
    q = e * (1.0 - abs(a) ** 2)
    return e * (z + a) / d, lambda: (q / d**2, -2.0 * ab * q / d**3, 6.0 * ab * ab * q / d**4)


def written_chain_rule(m: cm.MapSpec, where):
    """(f, f', f'', f''') of a composed map with the chain rule written out
    over the per-jet automorphism, every operation into a new array: the
    oracle for both compiled forms of the rule.  The base jets are the map's
    own kind at the moved points, or over the grid where ``_grid_jets``
    takes the spectral route."""
    base = dataclasses.replace(m, pre=None, post=None)
    if isinstance(where, cm.GridSpec) and m.series is not None and m.pre is None:
        f, g1, g2, g3 = maps._jets(base, where)
    else:
        z = grid_points(where)
        w, derivatives = (z, None) if m.pre is None else per_jet_automorphism(z, *m.pre)
        f, g1, g2, g3 = maps._jets(base, w)
        if derivatives is not None:
            t1, t2, t3 = derivatives()
            g1, g2, g3 = g1 * t1, g2 * t1 * t1 + g1 * t2, g3 * t1**3 + 3.0 * g2 * t1 * t2 + g1 * t3
    f = f()
    if m.post is not None:
        s, b = m.post
        f, g1, g2, g3 = s * f + b, s * g1, s * g2, s * g3
    return f, g1, g2, g3


class TestPointJets:
    """What the tracer and ``jet_of`` read at one point keeps every bit."""

    @pytest.mark.parametrize(
        "m",
        [m for _, m, _ in ZOO] + [gen_quiet(cm.PhiSpec.polynomial([0.2, 0.3j]), order=192, rmax=0.8)],
        ids=[name for name, _, _ in ZOO] + ["series"],
    )
    def test_composed_jets_equal_the_per_jet_automorphism(self, m):
        zs = [complex(z) for z in random_disk_points(np.random.default_rng(8), 20, 0.45)]
        for variant in _composed_variants(m)[1:]:  # pre, post, pre and post
            got, want = [], []
            for z in zs:
                f, *derivatives = levelset._jet_at(variant, z)
                jet = cm.jet_of(variant, z)
                got += [complex(f()), *derivatives, jet.f0, jet.f1, jet.f2, jet.f3]
                got.append(complex(cm.level_value(variant, z)))
                written = written_chain_rule(variant, np.asarray(z))
                want += [*written, *written]
                want.append(complex(levelset._level(np.asarray(z), written[1])["g"]))
            np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_identity_point_jets_are_python_complex(self):
        for m in _composed_variants(cm.identity()):
            f, *derivatives = levelset._jet_at(m, 0.3 - 0.2j)
            assert all(type(v) is complex for v in derivatives)
        _, *derivatives = maps._jets(cm.identity(), np.asarray(0.3 - 0.2j))
        assert _bits(derivatives).tolist() == _bits([1.0, 0.0, 0.0]).tolist()
        assert [type(v) for v in derivatives] == [complex] * 3


def _array_inputs(rng) -> list:
    """A point, one-element and larger arrays, a 2-d array and a grid."""
    return [
        np.asarray(complex(random_disk_points(rng, 1, 0.45)[0])),
        random_disk_points(rng, 1, 0.45),
        random_disk_points(rng, 2, 0.45),
        random_disk_points(rng, 41, 0.45),
        random_disk_points(rng, 42, 0.45).reshape(6, 7),
        cm.GridSpec(12, 16, 0.45),
    ]


COMPOSED_BASES = [m for _, m, _ in ZOO] + [gen_quiet(cm.PhiSpec.polynomial([0.2, 0.3j]), order=96, rmax=0.9)]
COMPOSED_IDS = [name for name, _, _ in ZOO] + ["series"]


class TestComposedArrayJets:
    """The chain rule's in-place form writes into arrays of its own with the
    bits of the rule written out, and leaves the base jets alone."""

    @pytest.mark.parametrize("m", COMPOSED_BASES, ids=COMPOSED_IDS)
    def test_equals_the_written_chain_rule(self, m, monkeypatch):
        wheres = _array_inputs(np.random.default_rng(15))
        base_jets = []  # (array, copy) for every array the base map hands over

        def recorded(jets):
            def wrapped(*args):
                jet = jets(*args)
                base_jets.extend((v, v.copy()) for v in jet[1:] if isinstance(v, np.ndarray))
                return jet
            return wrapped

        if m.series is None:
            monkeypatch.setitem(maps._CLOSED_FORMS, m.kind, recorded(maps._CLOSED_FORMS[m.kind]))
        else:
            monkeypatch.setattr(maps, "series_jet_fields", recorded(maps.series_jet_fields))
        in_place = []  # the form of every composition called
        compiled = maps._composition
        monkeypatch.setattr(maps, "_composition", lambda *key: in_place.append(key[-1]) or compiled(*key))
        for variant in _composed_variants(m)[1:]:  # pre, post, pre and post
            for where in wheres:
                want = written_chain_rule(variant, where)
                for _ in range(2):  # a second call finds nothing changed
                    in_place.clear()
                    got = [*cm.jet_derivatives(variant, where), *maps._grid_jets(variant, where)[1:]]
                    expect = [*want[1:], *want[1:]]
                    if not isinstance(where, cm.GridSpec):
                        f, *derivatives = maps._jets(variant, where)
                        got += [f(), *derivatives, maps._jets(variant, where, 1)[1], *cm.jet_fields(variant, where)]
                        expect += [*want, want[1], *want]
                    np.testing.assert_array_equal(_bits(got), _bits(expect))
                    # two or more points take the in-place form, others the operator form
                    assert in_place and set(in_place) == {grid_points(where).size > 1}
        if m.kind == "identity":  # its f'' and f''' are one zeros array
            assert any(a is b for (a, _), (b, _) in zip(base_jets, base_jets[1:]))
        for v, before in base_jets:
            np.testing.assert_array_equal(_bits(v), _bits(before))

    @pytest.mark.parametrize("m", COMPOSED_BASES, ids=COMPOSED_IDS)
    def test_count_one_computes_neither_t2_nor_t3(self, m):
        for pre in (False, True):
            for post in (False, True):
                for in_place in (False, True):
                    names = set(maps._composition(1, pre, post, in_place).__code__.co_varnames)
                    assert not names & {"t2", "t3", "q2", "q3", "f2", "f3"}, (pre, post, in_place)
                    if pre:
                        assert {"t2", "t3"} <= set(maps._composition(3, pre, post, in_place).__code__.co_varnames)
        for variant in _composed_variants(m)[1:]:
            for where in _array_inputs(np.random.default_rng(15)):
                spectral = isinstance(where, cm.GridSpec) and m.series is not None and variant.pre is None
                z = where if spectral else grid_points(where)
                got, want = maps._jets(variant, z, 1), maps._jets(variant, z)
                assert len(got) == 2
                np.testing.assert_array_equal(_bits(got[1]), _bits(want[1]))


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

    @pytest.mark.parametrize("build", [cm.gen_herglotz, cm.herglotz_map, spec_herglotz, json_herglotz])
    def test_tail_warning_names_the_caller(self, build):
        with pytest.warns(cm.TruncationTail) as record:
            build(cm.PhiSpec.unimodular_constant(0.0), order=16, rmax=0.9)
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize("build", [cm.gen_herglotz, cm.herglotz_map, spec_herglotz])
    def test_order_must_be_integral(self, build):
        phi = cm.PhiSpec.polynomial([0.3])
        with pytest.raises(ValueError, match="expected an integer order, got 64.5"):
            build(phi, order=64.5, rmax=0.9)
        m = build(phi, order=64.0, rmax=0.9)
        assert type(m.order) is int and m.order == 64
        assert m.series.order == 64

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

    def test_one_constructor_for_every_entry_point(self):
        phi = cm.PhiSpec.blaschke([0.4, -0.2j], theta=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", cm.TruncationTail)
            maps = [build(phi, order=64, rmax=0.9) for build in (cm.gen_herglotz, cm.herglotz_map, spec_herglotz)]
        for m in maps[1:]:
            np.testing.assert_array_equal(m.series.coeffs, maps[0].series.coeffs)
        assert all(m.phi == phi and m.order == 64 for m in maps)
        assert [cm.map_to_json(m)["type"] for m in maps] == ["series", "herglotz", "herglotz"]
        assert "coeffs" in cm.map_to_json(maps[0])["params"]

    @pytest.mark.parametrize("kw", [
        {"coeffs": [0.2, float("nan")]},
        {"coeffs": [0.2, complex(0.0, float("inf"))]},
        {"zeros": [float("nan")]},
        {"zeros": [0.2], "theta": float("inf")},
    ])
    def test_phi_rejects_non_finite_data(self, kw):
        with pytest.raises(ValueError, match="finite"):
            cm.PhiSpec("poly" if "coeffs" in kw else "blaschke", **kw)


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
        phi = {"kind": "poly", "coeffs": [[0.3, 0.0]]}
        for params in ({"n": 3.7}, {"n": float("inf")}, {"phi": phi, "order": 64.5}):
            with pytest.raises(ValueError, match="expected an integer"):
                cm.map_from_json({"type": "polygon" if "n" in params else "herglotz", "params": params})
        with pytest.raises(ValueError):
            cm.map_from_json({"type": "polygon", "params": {"n": 10**400}})  # beyond any float
        nan, inf = float("nan"), float("inf")  # json reads NaN and Infinity literals as these
        for composition in (
            {"pre": {"a": [nan, 0.0]}},
            {"pre": {"a": [0.2, 0.0], "theta": inf}},
            {"post": {"offset": [inf, 0.0]}},
            {"post": {"scale": [1.0, nan]}},
        ):
            with pytest.raises(ValueError, match="must be finite"):
                cm.map_from_json({"type": "polygon", "params": {"n": 5}, **composition})

    def test_integral_floats_still_load(self):
        assert cm.map_from_json({"type": "polygon", "params": {"n": 5.0}}).n == 5
        phi = {"kind": "poly", "coeffs": [[0.3, 0.0]]}
        assert cm.map_from_json({"type": "herglotz", "params": {"phi": phi, "order": 64.0, "rmax": 0.5}}).order == 64
