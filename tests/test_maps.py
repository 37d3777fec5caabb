from __future__ import annotations

import dataclasses
import itertools
import json
import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import convmap as cm
import convmap.functionals as functionals
import convmap.levelset as levelset
import convmap.maps as maps
import convmap.series as series
from convmap.grid import grid_points
from convmap.maps import phi_from_json, phi_to_json

from .oracles import closed_form, composed_jet, fd_jet, polynomial, random_phi_coeffs, random_disk_points

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

    def test_a_kind_takes_only_its_own_fields(self):
        # an ignored field would make equal maps unequal: a strip with a
        # series evaluated the series and wrote no sign of it to JSON
        bare = cm.PowerSeries([0, 1])
        for kind, kw, message in (
            ("strip", {"series": bare}, "a strip map takes no series"),
            ("sector", {"alpha": 0.5, "n": 7}, "a sector map takes no n"),
            ("polygon", {"n": 5, "alpha": 0.5}, "a polygon map takes no alpha"),
            ("series", {"series": bare, "alpha": 0.5}, "a series map takes no alpha"),
            ("herglotz", {}, "a herglotz map needs a PowerSeries"),
            ("herglotz", {"series": bare}, "a herglotz map needs the series generated from its phi"),
        ):
            with pytest.raises(ValueError, match=message):
                cm.MapSpec(kind, **kw)

    def test_phi_and_order_are_the_series(self):
        # a map held phi, order and series apart: the identity series with a
        # foreign phi read f' = 1 and P = 1.176 at 0.3, and a stored order
        # that its series did not have was written to JSON
        phi = cm.PhiSpec.polynomial([0.5])
        generated = cm.herglotz_map(phi, order=64)
        with pytest.raises(TypeError):
            cm.MapSpec("series", series=cm.PowerSeries([0, 1]), phi=phi)
        with pytest.raises(TypeError):
            cm.MapSpec("herglotz", phi=phi, series=generated.series, order=128)
        assert [f.name for f in dataclasses.fields(cm.MapSpec)] == ["kind", "alpha", "n", "series", "pre", "post"]
        assert (generated.series.phi, generated.series.order) == (phi, 64)
        assert cm.map_to_json(cm.MapSpec("herglotz", series=generated.series))["params"]["order"] == 64
        assert cm.PowerSeries([0, 1]).phi is None


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

    def test_a_jet_checks_itself(self):
        # a Jet holds the rules of the point route, so its views check nothing
        with pytest.raises(cm.SingularPoint, match="f' vanishes at z = "):
            cm.Jet(0.3, 0, 0, 1, 1)
        j = cm.Jet(0.3, 0, 1, 0, 0)
        assert all(type(v) is complex for v in (j.z, j.f0, j.f1, j.f2, j.f3))
        assert cm.Jet(0.3, 0.3, 1, 0, 0) == cm.jet_of(cm.identity(), 0.3)

    def test_a_jet_holds_the_core_values(self):
        # positions 4 and 5 are P and S; f'' and f''' are formed on reading
        j = cm.Jet(0.3, 0, 1, 2, 3)
        assert (j.P, j.S) == (2, 3)
        assert (j.f2, j.f3) == maps._full_jet(1, 2, 3)[1:]

    @pytest.mark.parametrize("m", [cm.halfplane(), cm.identity().precomposed(0.4 - 0.3j, 0.7)],
                             ids=["halfplane", "identity-precomposed"])
    def test_views_read_the_core_schwarzian(self, m):
        # the core gives S = 0 exactly, and so do the views, which read it;
        # f'''/f' - 1.5 (f''/f')^2 of the full jet reads about 1e-15
        for z in (0.3 + 0.2j, -0.5j, 0.7, -0.6 + 0.6j):
            j = cm.jet_of(m, z)
            assert cm.schwarzian(j) == 0
            assert cm.nehari_value(j) == 0.0

    def test_the_point_route_refuses_a_nan_point(self):
        # the rule of _jet_at and of a Jet is one function, so they agree
        for call in (lambda z: maps._jet_at(cm.identity(), z), lambda z: cm.Jet(z, 0, 1, 0, 0)):
            with pytest.raises(ValueError, match=r"need \|z\| < 1, got \|z\| = nan"):
                call(complex("nan"))

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


def mp_oracle(m: cm.MapSpec, z: complex):
    """(f', P, S) of a closed form or series map, plain or composed, at z
    to 40 digits (``oracles.composed_jet``): the oracle of the chain rule."""
    if m.series is None:
        f = closed_form(m.kind, **{k: v for k, v in (("alpha", m.alpha), ("n", m.n)) if v is not None})
    else:
        f = polynomial(m.series.coeffs)
    return composed_jet(f, z, m.pre, 1.0 if m.post is None else m.post[0])


def assert_oracle(m: cm.MapSpec, z: complex, got) -> None:
    """(f', P, S) at z within 1e-13 relative of ``mp_oracle`` (a P or S of
    0 exactly where it is 0)."""
    np.testing.assert_allclose(np.array(got, dtype=complex), mp_oracle(m, z), rtol=1e-13, atol=1e-30,
                               err_msg=f"{m} at {z}")


class TestPointJets:
    """What the tracer and ``jet_of`` read at one point: (f', P, S) of every
    composition against the 40-digit oracle, and the same bits through
    ``_jet_at``, ``jet_of`` and ``level_value``."""

    @pytest.mark.parametrize(
        "m",
        [m for _, m, _ in ZOO] + [gen_quiet(cm.PhiSpec.polynomial([0.2, 0.3j]), order=192, rmax=0.8)],
        ids=[name for name, _, _ in ZOO] + ["series"],
    )
    def test_composed_jets_equal_the_per_jet_automorphism(self, m):
        zs = [complex(z) for z in random_disk_points(np.random.default_rng(8), 3, 0.45)]
        for variant in _composed_variants(m):  # plain, pre, post, pre and post
            for z in zs:
                f, f1, P, S = levelset._jet_at(variant, z)
                assert_oracle(variant, z, [f1, P, S])
                jet = cm.jet_of(variant, z)
                want = [f(), *maps._full_jet(f1, P, S)]
                assert _bits([jet.f0, jet.f1, jet.f2, jet.f3]).tolist() == _bits(want).tolist()
                assert cm.level_value(variant, z) == levelset._level(np.asarray(z), f1)["g"]

    def test_identity_point_jets_are_python_complex(self):
        for m in _composed_variants(cm.identity()):
            f, *derivatives = levelset._jet_at(m, 0.3 - 0.2j)
            assert all(type(v) is complex for v in derivatives)
        _, _, *derivatives = maps._jets(cm.identity(), np.asarray(0.3 - 0.2j))
        assert _bits(derivatives).tolist() == _bits([1.0, 0.0, 0.0]).tolist()
        assert [type(v) for v in derivatives] == [complex] * 3


class TestOneEntryPoint:
    """``maps._jets`` picks the route of every jet: counted in each module
    that holds it, a point of ``jet_of`` calls it once and every scalar,
    array, grid and tracer user reaches it."""

    @pytest.fixture
    def calls(self, monkeypatch) -> list:
        calls, jets = [], maps._jets

        def counted(*args):
            calls.append(args)
            return jets(*args)

        for module in (maps, functionals):
            monkeypatch.setattr(module, "_jets", counted)
        return calls

    SERIES = gen_quiet(cm.PhiSpec.polynomial([0.2, 0.3j]), order=48)

    @pytest.mark.parametrize(
        "m",
        [SERIES, cm.polygon(5), cm.sector(0.5).precomposed(0.2 - 0.1j, 0.7).postcomposed(2j, 1.0)],
        ids=["series", "polygon", "composed"],
    )
    def test_jet_of_calls_it_once(self, calls, m):
        cm.jet_of(m, 0.3 - 0.2j)
        assert len(calls) == 1

    def test_every_jet_user_reaches_it(self, calls):
        m, z, grid = self.SERIES, np.array([0.1, 0.2j, -0.3]), cm.GridSpec(4, 8, 0.5)
        closed = cm.sector(0.5).precomposed(0.2 - 0.1j, 0.7).postcomposed(2j, 1.0)
        for use in (
            lambda: cm.convexity_report(closed, grid),
            lambda: cm.phi_values(closed, z),
            lambda: cm.jet_fields(m, z),
            lambda: cm.jet_derivatives(m, z),
            lambda: cm.jet_derivatives(m, grid),
            lambda: cm.level_value(m, 0.3),
            lambda: cm.level_value(m, z),
            lambda: cm.grid_functionals(m, grid),
            lambda: cm.phi_values(m, z),
            lambda: cm.convexity_report(m, grid),
            lambda: cm.find_critical_point(m, grid),
            lambda: cm.trace_level_set(m, 0.3, max_points=4),
        ):
            calls.clear()
            use()
            assert calls

    def test_the_keys_pick_the_jets(self, calls):
        # each batch asks for the values of f', P and S that its keys read;
        # the points of jet_of ask for all three by default
        from convmap.cli import _curvature_columns

        m, z, grid = self.SERIES, np.array([0.1, 0.2j, -0.3]), cm.GridSpec(4, 8, 0.5)
        f1PS, f1P, PS, P = ("f1", "P", "S"), ("f1", "P"), ("P", "S"), ("P",)

        def asked(use) -> list:
            calls.clear()
            use()
            return [args[2] for args in calls if len(args) == 3]

        assert asked(lambda: cm.convexity_report(m, grid)) == [PS, P]  # then classify_phi
        assert asked(lambda: cm.phi_values(m, z)) == [P]
        assert asked(lambda: cm.classify_phi(m)) == [P]
        assert asked(lambda: _curvature_columns(m, grid)) == [f1PS]
        assert asked(lambda: cm.level_value(m, z)) == [("f1",)]
        # the scan reads g, lhs1, km and slack3, a Newton batch p, pz and pzb
        scan, *newton = asked(lambda: cm.find_critical_point(cm.polygon(5)))
        assert scan == f1PS and newton and set(newton) == {PS}
        # the ascent of g from the rim of a half plane reads g and p
        scan, *ascent = asked(lambda: cm.find_critical_point(cm.halfplane()))
        assert scan == f1PS and ascent and set(ascent) == {f1P}


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


def written_chain_rule(m: cm.MapSpec, where) -> list:
    """(f', P, S) of a composed map from the base map's values at the moved
    points through ``_composition``, called here rather than by ``_jets``."""
    z = grid_points(where)
    spectral = isinstance(where, cm.GridSpec) and m.series is not None and m.pre is None
    w, d = (where if spectral else z, None) if m.pre is None else maps._moved(m, z)
    _, f1, P, S = maps._BASES[m._base](w, m, z, ("f1", "P", "S"))
    jets = [f1(), P, S] + ([] if d is None else [d])
    return list(maps._composition(("f1", "P", "S"), m.pre is not None, m.post is not None)(m, jets).values())


class TestComposedArrayJets:
    """The composition of ``_jets`` has the bits of the chain rule called
    on its own, leaves the base values alone, and agrees with the 40-digit
    oracle; every subset of f', P and S reads the bits of the full jet."""

    @pytest.mark.parametrize("m", COMPOSED_BASES, ids=COMPOSED_IDS)
    def test_equals_the_written_chain_rule(self, m, monkeypatch):
        wheres = _array_inputs(np.random.default_rng(15))
        base_jets = []  # (array, copy) for every array the base map hands over

        def recorded(base):
            def wrapped(*args):
                f, f1, P, S = base(*args)

                def formed():
                    v = f1()
                    base_jets.extend([(v, v.copy())] if isinstance(v, np.ndarray) else [])
                    return v

                base_jets.extend((v, v.copy()) for v in (P, S) if isinstance(v, np.ndarray))
                return f, formed, P, S
            return wrapped

        monkeypatch.setitem(maps._BASES, m._base, recorded(maps._BASES[m._base]))
        for variant in _composed_variants(m)[1:]:  # pre, post, pre and post
            for where in wheres:
                for _ in range(2):  # a second call finds nothing changed
                    z, f, *jet = maps._jets(variant, where)
                    assert _bits(jet).tolist() == _bits(written_chain_rule(variant, where)).tolist()
                    got = [*cm.jet_derivatives(variant, where), maps._jets(variant, where, ("f1",))[2],
                           *maps._jets(variant, where, ("P", "S"))[2:]]
                    assert _bits(got).tolist() == _bits([*maps._full_jet(*jet), *jet]).tolist()
                    if not isinstance(where, cm.GridSpec):
                        want = [f(), *maps._full_jet(*jet)]
                        assert _bits(cm.jet_fields(variant, where)).tolist() == _bits(want).tolist()
                for i in (0, z.size // 2, z.size - 1):  # three of the points (one for a lone point)
                    assert_oracle(variant, complex(z.flat[i]), [v.flat[i] for v in np.broadcast_arrays(*jet)])
        if m.kind == "identity":  # its P and S are one zeros array
            assert any(a is b for (a, _), (b, _) in zip(base_jets, base_jets[1:]))
        for v, before in base_jets:
            np.testing.assert_array_equal(_bits(v), _bits(before))

    @pytest.mark.parametrize("m", COMPOSED_BASES, ids=COMPOSED_IDS)
    def test_count_one_computes_neither_t2_nor_t3(self, m):
        # a report's composition reads no f' (nor the scale, which only f'
        # takes), phi's no S, and the f'-only composition forms neither P nor S
        for pre in (False, True):
            for post in (False, True):
                names = set(maps._composition(("P", "S"), pre, post).__code__.co_varnames)
                assert not names & {"f1", "s"}, (pre, post)
                names = set(maps._composition(("P",), pre, post).__code__.co_varnames)
                assert not names & {"f1", "s", "S"}, (pre, post)
                names = set(maps._composition(("f1",), pre, post).__code__.co_varnames)
                assert not names & {"P", "S", "c"}, (pre, post)
        subsets = [names for k in (1, 2) for names in itertools.combinations(("f1", "P", "S"), k)]
        for variant in _composed_variants(m)[1:]:
            for where in _array_inputs(np.random.default_rng(15)):
                z, _, *jet = maps._jets(variant, where)
                full = dict(zip(("f1", "P", "S"), jet))
                for names in subsets:
                    got = maps._jets(variant, where, names)[2:]
                    assert _bits(got).tolist() == _bits([full[x] for x in names]).tolist(), names

    @pytest.mark.parametrize("m", [m for _, m, _ in ZOO], ids=[name for name, _, _ in ZOO])
    def test_a_report_never_forms_f1(self, m, monkeypatch):
        base = maps._BASES[m._base]

        def no_f1(*args):
            f, _, P, S = base(*args)
            return f, lambda: pytest.fail("a report formed f'"), P, S

        monkeypatch.setitem(maps._BASES, m._base, no_f1)
        for variant in _composed_variants(m):
            cm.convexity_report(variant, cm.GridSpec(8, 12, 0.9))
            cm.phi_values(variant, np.array([0.1, 0.2j]))

    @pytest.mark.parametrize("m, points", [(cm.polygon(5), 2), (cm.koebe(), 0)], ids=["polygon", "koebe"])
    def test_a_newton_batch_never_forms_f1(self, m, points, monkeypatch):
        # f' is formed by the scan, which reads g, and at the points of
        # jet_of that check and measure a root, never by a Newton batch
        base, formed = maps._BASES[m._base], []

        def counted(w, *args):
            f, f1, P, S = base(w, *args)
            return f, lambda: formed.append(np.shape(w)) or f1(), P, S

        monkeypatch.setitem(maps._BASES, m._base, counted)
        cm.find_critical_point(m)
        assert formed == [(cm.GridSpec().nr * cm.GridSpec().ntheta,)] + [()] * points


class TestBatchSize:
    """A point's full jet has the same bits in a batch of any size."""

    @pytest.mark.parametrize("m", [m for _, m, _ in ZOO], ids=[name for name, _, _ in ZOO])
    def test_a_slice_keeps_the_bits_of_the_whole_grid(self, m):
        # from 16,384 points NumPy elides the temporaries of an expression
        # and may swap the operands of a complex product
        z = cm.GridSpec(400, 400, 0.9).points()
        for variant in (m, m.precomposed(0.2 - 0.1j, 0.7)):
            whole, part = cm.jet_fields(variant, z), cm.jet_fields(variant, z[:4096])
            for a, b in zip(whole, part):
                np.testing.assert_array_equal(_bits(a[:4096]), _bits(b))


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

    def test_a_second_composition_composes(self):
        # a second call used to replace the first composition
        assert cm.koebe().postcomposed(2).postcomposed(3, 1).post == (6, 1)
        # tau1(tau2(z)) with tau1 = (z + 0.3)/(1 + 0.3 z), tau2 = (z - 0.2i)/(1 + 0.2i z) vanishes
        # at -a = tau2^-1(-0.3), and its derivative at 0 is e^{i theta} (1 - |a|^2)
        a, theta = cm.koebe().precomposed(0.3).precomposed(-0.2j).pre
        want = (0.3 - 0.2j) / (1 + 0.06j)
        derivative = 0.91 / (1 - 0.06j) ** 2 * 0.96  # tau1'(tau2(0)) tau2'(0)
        assert a == pytest.approx(want, abs=1e-15)
        assert np.exp(1j * theta) == pytest.approx(derivative / (1 - abs(want) ** 2), abs=1e-15)
        # a second automorphism off the disk or not finite is refused as given
        with pytest.raises(ValueError, match=r"center must satisfy \|a\| < 1, got \(1\+0j\)"):
            cm.koebe().precomposed(0.3).precomposed(1.0)
        with pytest.raises(ValueError, match=r"must be finite, got \(\(0.2\+0j\), inf\)"):
            cm.koebe().precomposed(0.3).precomposed(0.2, float("inf"))

    @pytest.mark.parametrize("m", [cm.strip(), cm.sector(0.5), cm.koebe(),
                                   gen_quiet(cm.PhiSpec.polynomial([0.2, 0.3j]), order=96)],
                             ids=["strip", "sector", "koebe", "series"])
    def test_twice_composed_equals_both_maps_in_turn(self, m):
        # s2 (s1 F(tau1(tau2(z))) + b1) + b2, differentiated by mpmath at 50 digits
        (a1, t1), (s1, b1), (a2, t2), (s2, b2) = (0.3 - 0.2j, 0.7), (1.5 - 0.5j, 0.25 + 1j), (-0.1 + 0.4j, -1.1), (0.5j, -2)
        twice = m.precomposed(a1, t1).postcomposed(s1, b1).precomposed(a2, t2).postcomposed(s2, b2)
        F = closed_form(m.kind, alpha=m.alpha or 0.5) if m.series is None else polynomial(m.series.coeffs)
        taus = [lambda w, a=mp.mpc(a), e=mp.expj(t): e * (w + a) / (1 + mp.conj(a) * w) for a, t in ((a1, t1), (a2, t2))]
        g = lambda w: s2 * (s1 * F(taus[0](taus[1](w))) + b1) + b2
        z = np.array([0.1 + 0.2j, -0.35, 0.3j])
        want = np.array([[complex(v) for v in mp.diffs(g, mp.mpc(w), 3)] for w in z]).T
        np.testing.assert_allclose(cm.jet_fields(twice, z), want, rtol=1e-12)

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

    @pytest.mark.parametrize("phi", [
        cm.PhiSpec.blaschke([0.4, -0.2j, 0.5 + 0.5j], theta=0.3),
        cm.PhiSpec.unimodular_constant(0.7),
    ], ids=["blaschke", "const"])
    def test_values_of_a_bounded_phi(self, phi):
        circle = np.exp(2j * np.pi * np.arange(64) / 64)
        np.testing.assert_allclose(np.abs(phi.values(circle)), 1.0, rtol=0, atol=1e-14)
        z = random_disk_points(np.random.default_rng(12), 32, 0.5)
        series = npoly.polyval(z, phi.series(200).coeffs)
        np.testing.assert_allclose(phi.values(z), series, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("degree", [0, 1, 3, 6, 12, 40])
    def test_a_polynomial_has_the_bits_of_polyval(self, degree):
        # values is the value column of jet; boundary_sup reads it on the circle
        rng = np.random.default_rng(100 + degree)
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        phi = cm.PhiSpec.polynomial(coeffs)
        circle = np.exp(2j * np.pi * np.arange(maps.PHI_BOUNDARY_SAMPLES) / maps.PHI_BOUNDARY_SAMPLES)
        want = npoly.polyval(circle, coeffs)
        assert _bits(phi.values(circle)).tolist() == _bits(want).tolist()
        assert np.float64(phi.boundary_sup()).view(np.uint64) == np.max(np.abs(want)).view(np.uint64)

    @pytest.mark.parametrize("phi", [
        cm.PhiSpec.polynomial([0.3, 0.2j, -0.25, 0.1 - 0.05j]),
        cm.PhiSpec.blaschke([0.4, -0.2j, 0.5 + 0.5j], theta=0.3),
        cm.PhiSpec.unimodular_constant(0.7),
    ], ids=["poly", "blaschke", "const"])
    def test_jet_is_the_value_and_derivative(self, phi):
        z = np.concatenate([random_disk_points(np.random.default_rng(13), 32, 0.6), list(phi.zeros)])
        value, derivative = phi.jet(z)
        s = phi.series(200)
        np.testing.assert_allclose(value, npoly.polyval(z, s.coeffs), rtol=0, atol=1e-13)
        np.testing.assert_allclose(derivative, npoly.polyval(z, s.table[:, 1]), rtol=0, atol=1e-12)
        # a point as Python complex gives the array's values; a Blaschke
        # product's zeros divide by nothing
        for i, w in enumerate(z.tolist()):
            got = phi.jet(w)
            assert all(type(v) is complex for v in got)
            np.testing.assert_allclose(got, [value[i], derivative[i]], rtol=1e-15, atol=1e-16)
        if phi.kind == "const":
            assert not derivative.any() and phi.jet(0.3j)[1] == 0

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
        fprime = m.series.table[:40, 1]
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

    @pytest.mark.parametrize("build", [cm.gen_herglotz, cm.herglotz_map, json_herglotz])
    def test_tail_warning_names_the_caller(self, build):
        with pytest.warns(cm.TruncationTail) as record:
            build(cm.PhiSpec.unimodular_constant(0.0), order=16, rmax=0.9)
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize("build", [cm.gen_herglotz, cm.herglotz_map])
    def test_order_must_be_integral(self, build):
        phi = cm.PhiSpec.polynomial([0.3])
        with pytest.raises(ValueError, match="expected an integer order, got 64.5"):
            build(phi, order=64.5, rmax=0.9)
        m = build(phi, order=64.0, rmax=0.9)
        assert type(m.series.order) is int and m.series.order == 64

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
        assert m.series.phi is not None
        assert m.kind == "herglotz"

    def test_one_constructor_for_every_entry_point(self):
        phi = cm.PhiSpec.blaschke([0.4, -0.2j], theta=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", cm.TruncationTail)
            maps = [build(phi, order=64, rmax=0.9) for build in (cm.gen_herglotz, cm.herglotz_map)]
        for m in maps[1:]:
            np.testing.assert_array_equal(m.series.coeffs, maps[0].series.coeffs)
        assert all(m.series.phi == phi and m.series.order == 64 for m in maps)
        assert [cm.map_to_json(m)["type"] for m in maps] == ["series", "herglotz"]
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

    @pytest.mark.parametrize("kind, kw, message", [
        # a constant's values would be the constant, its series and the
        # generated map a Blaschke product, and its JSON would drop the zeros
        ("const", {"zeros": (0.5,), "theta": 0.3}, "no coeffs or zeros"),
        ("const", {"coeffs": (0.3,)}, "no coeffs or zeros"),
        # the ignored field would survive no JSON round trip, so the phi
        # read back would not equal the phi written
        ("poly", {"coeffs": (0.3,), "zeros": (0.5,)}, "no zeros or theta"),
        ("poly", {"coeffs": (0.3,), "theta": 1.0}, "no zeros or theta"),
        ("blaschke", {"coeffs": (0.3,), "zeros": (0.5,)}, "no coeffs"),
    ], ids=["const-zeros", "const-coeffs", "poly-zeros", "poly-theta", "blaschke-coeffs"])
    def test_phi_refuses_fields_its_kind_ignores(self, kind, kw, message):
        with pytest.raises(ValueError, match=message):
            cm.PhiSpec(kind, **kw)

    def test_default_order_reads_convex(self):
        # at order 64 this map's truncation read NotConvex (min slack3 -117,
        # max km 46) and its phi "strict"
        m = cm.gen_herglotz(cm.PhiSpec.unimodular_constant(0.3))
        assert m.series.order == cm.DEFAULT_ORDER
        report = cm.convexity_report(m)
        assert report.verdict == "Convex"
        assert report.phi_class.kind == "unimodular_const"


def loewner_tolerances(order: int, w, f1, P, S):
    """Bounds on |P_series - P| and |S_series - S| at the base points w for
    a generated map of this order, from its P and S, and the f' of its
    series.  The map is convex and normalized, so Loewner's |a_n| <= 1 bounds
    the tail of the j-th derivative at r = |w| by T_j = sum_{n > order}
    n!/(n-j)! r^(n-j) (at order 384 and r = 0.9: 1.1e-14, 4.6e-12 and 2.0e-9
    for j = 1, 2, 3), and the series' own rounding by E_j = 400 eps
    sum_{n <= order} n!/(n-j)! r^(n-j), 400 bounding the operations each
    term passes through.  With e_j = T_j + E_j, P = f''/f' and
    f'''/f' = S + 3/2 P^2 are off by at most
    dP = (e_2 + |P| e_1)/(|f'| - e_1) and
    (e_3 + |S + 3/2 P^2| e_1)/(|f'| - e_1) + 3 |P| dP + 3/2 dP^2."""
    k = np.arange(order + 600)  # r^600 < 1e-27 at r <= 0.9: the terms beyond weigh nothing
    powers = np.ones((np.size(w), k.size))
    powers[:, 1:] = np.abs(w).reshape(-1, 1)
    np.multiply.accumulate(powers, axis=1, out=powers)  # r^k
    e = []
    for j in (1, 2, 3):
        n = k + j
        terms = np.prod([n - i for i in range(j)], axis=0) * powers  # n!/(n-j)! r^(n-j)
        e.append(terms[:, n > order].sum(axis=1) + 400 * np.finfo(float).eps * terms[:, n <= order].sum(axis=1))
    e1, e2, e3 = (v.reshape(np.shape(w)) for v in e)
    scale = 1.0 / (np.abs(f1) - e1)
    dP = (e2 + np.abs(P) * e1) * scale
    dS = (e3 + np.abs(S + 1.5 * P * P) * e1) * scale + 3.0 * np.abs(P) * dP + 1.5 * dP**2
    return dP, dS


def closed_form_PS(phi: cm.PhiSpec, z):
    """P and S of the map generated by a polynomial phi, as written in
    the paper's terms: P = 2 phi/(1 - z phi), S = 2 (phi' + phi^2)/(1 - z phi)^2 - P^2/2."""
    c = np.asarray(phi.coeffs)
    v, d = npoly.polyval(z, c), npoly.polyval(z, npoly.polyder(c))
    u = 1.0 - z * v
    P = 2.0 * v / u
    return P, 2.0 * (d + v * v) / u**2 - 0.5 * P * P


GENERATED_PHI = [
    cm.PhiSpec.polynomial([0.3, 0.2j, -0.25]),
    cm.PhiSpec.blaschke([0.3 + 0.2j], 0.5),
    cm.PhiSpec.unimodular_constant(0.3),
]
GENERATED_IDS = ["poly", "blaschke", "const"]


class TestGeneratedRoute:
    """A generated map takes P and S from its phi, f and f' from its series."""

    @pytest.fixture
    def series_calls(self, monkeypatch) -> list:
        calls = []
        # every evaluation of a series: the grid route, the batch route and one point's products
        for module, name in ((series, "eval_grid"), (series, "eval_table"), (maps, "point_columns")):
            def counted(*args, real=getattr(module, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("variant", range(4), ids=["plain", "pre", "post", "both"])
    def test_a_report_and_classify_phi_evaluate_no_series(self, series_calls, variant):
        m = _composed_variants(gen_quiet(cm.PhiSpec.polynomial([0.3, 0.2j, -0.25]), order=96))[variant]
        cm.convexity_report(m)
        cm.classify_phi(m)
        cm.phi_values(m, np.array([0.1, 0.2j]))
        assert series_calls == []
        # a request that reads g reads f' from the series, once: a grid
        # through eval_grid, the moved points of a precomposition as an array
        cm.grid_functionals(m, cm.GridSpec(8, 12, 0.5), ("g", "lhs1"))
        assert series_calls == ["eval_grid" if m.pre is None else "eval_table"]
        # f alone is evaluated only when it is read
        series_calls.clear()
        _, f, *_ = maps._jets(m, cm.GridSpec(8, 12, 0.5), ("P", "S"))
        assert series_calls == []
        f()
        assert series_calls == ["eval_grid" if m.pre is None else "eval_table"]

    def test_a_low_order_map_has_the_closed_form_in_phi(self):
        # order 8 truncates f' by about 0.8^9: the series route misses P and
        # S by far more than the closed form's rounding
        phi = GENERATED_PHI[0]
        m = gen_quiet(phi, order=8)
        grid = cm.GridSpec(8, 16, 0.8)
        z = grid.points()
        want = closed_form_PS(phi, z)
        for where in (grid, z):
            got = maps._jets(m, where, ("P", "S"))[2:]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        for i in range(0, z.size, 7):
            jet = cm.jet_of(m, z[i])
            np.testing.assert_allclose([jet.P, jet.S], [want[0][i], want[1][i]], rtol=0, atol=1e-14)
        series_route = maps._jets(cm.from_series(m.series.coeffs, m.series.rmax), grid, ("P", "S"))[2:]
        assert max(float(np.abs(a - b).max()) for a, b in zip(series_route, want)) > 1e-4

    @pytest.mark.parametrize("phi", GENERATED_PHI, ids=GENERATED_IDS)
    def test_agrees_with_the_series_route_within_its_truncation(self, phi):
        # the same series as a bare map takes the series route; the
        # composition maps both routes' P and S alike, so the base bounds
        # scale by |tau'| (P) and |tau'|^2 (S) at the moved points
        m = gen_quiet(phi, order=384, rmax=0.9)
        bare = cm.from_series(m.series.coeffs, m.series.rmax)
        for variant, other in zip(_composed_variants(m)[:3], _composed_variants(bare)[:3]):
            grid = cm.GridSpec(30, 48, maps.certified_rmax(variant))
            for where in (grid, grid.points()[::5], complex(grid.points()[-7])):
                z, _, f1, P, S = maps._jets(variant, where)
                _, _, f1_s, P_s, S_s = maps._jets(other, where)
                w, t1 = z, np.ones_like(z)
                if variant.pre is not None:
                    w, d = maps._moved(variant, z)
                    t1 = np.abs(variant._pre_constants[3] / d**2)
                base = maps._jets(m, w)[2:]
                dP, dS = loewner_tolerances(384, w, *base)
                assert np.all(np.abs(P_s - P) <= dP * t1)
                assert np.all(np.abs(S_s - S) <= dS * t1**2)
                np.testing.assert_allclose(f1, f1_s, rtol=0, atol=0)
                # f comes from the series alike, whether or not f' was asked for
                f = maps._jets(variant, where, ("P", "S"))[1]
                np.testing.assert_allclose(f(), maps._jets(other, where)[1](), rtol=0, atol=0)
        if phi.kind == "const":  # the half-plane's S is exactly 0, the series' is not
            z, _, S = maps._jets(m, cm.GridSpec(30, 48, 0.9), ("S",))
            S_s = maps._jets(bare, cm.GridSpec(30, 48, 0.9), ("S",))[2]
            assert not S.any() and np.abs(S_s).max() > 1e-12


JSON_MAPS = [m for _, m, _ in ZOO] + [
    cm.from_series([0.0, 1.0, 0.3 - 0.2j, 0.1j], 0.7),
    cm.herglotz_map(cm.PhiSpec.blaschke([0.4, -0.2j], theta=0.3), order=64, rmax=0.5),
]
JSON_IDS = [name for name, _, _ in ZOO] + ["series", "herglotz"]


class TestJson:
    @pytest.mark.parametrize("variant", range(4), ids=["plain", "pre", "post", "both"])
    @pytest.mark.parametrize("m", JSON_MAPS, ids=JSON_IDS)
    def test_a_round_trip_gives_back_the_map(self, m, variant):
        m = _composed_variants(m)[variant]
        assert cm.map_from_json(json.loads(json.dumps(cm.map_to_json(m)))) == m

    @pytest.mark.parametrize("variant", range(4), ids=["plain", "pre", "post", "both"])
    def test_a_generated_series_reads_back_bare(self, variant):
        # its JSON holds the coefficients, not the phi they came from
        m = gen_quiet(cm.PhiSpec.polynomial([0.2, 0.3j]), order=64)
        back = cm.map_from_json(cm.map_to_json(_composed_variants(m)[variant]))
        assert back == _composed_variants(cm.from_series(m.series.coeffs, m.series.rmax))[variant]
        assert back != _composed_variants(m)[variant]

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
        assert back.series.phi is not None
        assert back.series.phi.kind == "blaschke"
        np.testing.assert_array_equal(back.series.coeffs, m.series.coeffs)

    @pytest.mark.parametrize("phi", [
        cm.PhiSpec.polynomial([0.2, 0.3j, -0.1]),
        cm.PhiSpec.blaschke([0.4, -0.2j], theta=0.3),
        cm.PhiSpec.unimodular_constant(0.7),
    ], ids=["poly", "blaschke", "const"])
    def test_herglotz_round_trip_for_each_phi_kind(self, phi):
        m = cm.herglotz_map(phi, order=64, rmax=0.5)
        spec = cm.map_to_json(m)
        back = cm.map_from_json(json.loads(json.dumps(spec)))
        assert back.series.phi == phi
        assert cm.map_to_json(back) == spec
        np.testing.assert_array_equal(back.series.coeffs, m.series.coeffs)

    @pytest.mark.parametrize("phi", [
        {"coeffs": [[0.2, 0.0]]},
        {"kind": "spline", "coeffs": [[0.2, 0.0]]},
        {"kind": "poly", "coeffs": [[0.2, 0.0, 0.1]]},
        {"kind": "blaschke", "zeros": [0.3]},
    ], ids=["no-kind", "unknown-kind", "bad-pair", "bare-number"])
    def test_malformed_phi(self, phi):
        with pytest.raises(ValueError):
            phi_from_json(phi)
        with pytest.raises(ValueError):
            cm.map_from_json({"type": "herglotz", "params": {"phi": phi, "order": 16}})

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
        assert cm.map_from_json({"type": "herglotz", "params": {"phi": phi, "order": 64.0, "rmax": 0.5}}).series.order == 64
