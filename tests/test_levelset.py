from __future__ import annotations

import io
import warnings

import numpy as np
import pytest

import convmap as cm
import convmap.levelset as levelset
import convmap.maps as maps
from convmap.functionals import _level, fields_at
from convmap.levelset import CSV_HEADER, RESIDUAL_TARGET


def saddle_map() -> cm.MapSpec:
    # odd univalent series z + z^3 + z^5 + ...; g has a saddle at the origin,
    # so level branches through it carry vanishing normals
    coeffs = np.zeros(201)
    coeffs[1::2] = 1.0
    return cm.from_series(coeffs, rmax=0.9)


def saddle_start(r0: float = 5e-4) -> complex:
    # bisect in angle between the real axis (g > 1) and the diagonal (g < 1)
    m = saddle_map()
    lo, hi = 0.0, np.pi / 4
    g_lo = float(cm.level_value(m, r0)) - 1.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        g_mid = float(cm.level_value(m, r0 * np.exp(1j * mid))) - 1.0
        if g_lo * g_mid <= 0.0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    return complex(r0 * np.exp(1j * 0.5 * (lo + hi))).conjugate()


def gen_quiet(coeffs, order=192, rmax=0.8) -> cm.MapSpec:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cm.TruncationTail)
        return cm.gen_herglotz(cm.PhiSpec.polynomial(coeffs), order=order, rmax=rmax)


def ring_trace(m: cm.MapSpec) -> cm.LevelCurve:
    # the level halfway between g(0) and the least g on the ring |z| = 0.55,
    # started on the ray through that least point
    ring = 0.55 * np.exp(2j * np.pi * np.arange(256) / 256)
    g = cm.level_value(m, ring)
    i = int(np.argmin(g))
    c = 0.5 * (float(cm.level_value(m, 0j)) + float(g[i]))
    z0 = cm.find_level_start(m, c, theta=float(np.angle(ring[i])), rmax=0.78)
    return cm.trace_level_set(m, z0, rmax=0.78, max_points=4000)


def ring_maps() -> list[cm.MapSpec]:
    """Zoo, composed and order-192 generated maps: 21 ring traces."""
    zoo = [cm.identity(), cm.halfplane(), cm.strip()]
    zoo += [cm.sector(a) for a in (0.25, 0.5, 0.75)] + [cm.polygon(n) for n in (3, 5, 7)]
    composed = [m.precomposed(0.3 * np.exp(1j * t), t).postcomposed(1.5 - 0.5j, 0.2)
                for m, t in zip(zoo[:5] + [cm.polygon(5)], (0.4, 1.3, 2.2, 3.1, 4.0, 5.0))]
    gens = [gen_quiet(c) for c in ([0.3, 0.2j, -0.25], [0.0, 0.4], [0.5j, 0.0, 0.3],
                                   [0.2 - 0.1j, 0.3, 0.0, 0.2], [0.6], [0.1, 0.0, 0.0, 0.0, 0.5])]
    return zoo + composed + gens


@pytest.fixture
def jet_count(monkeypatch):
    """Counts what the tracer evaluates: [derivative jets, values of f]."""
    calls = [0, 0]
    real = levelset._jet_at

    def counted(m, z):
        calls[0] += 1
        f, *derivatives = real(m, z)

        def counted_f():
            calls[1] += 1
            return f()

        return (counted_f, *derivatives)

    monkeypatch.setattr(levelset, "_jet_at", counted)
    return calls


def turning(z: np.ndarray) -> float:
    seg = np.diff(np.concatenate([z, z[:1]]))
    return float(np.sum(np.angle(seg / np.roll(seg, 1))))


class TestLevelStart:
    def test_identity_level(self):
        z0 = cm.find_level_start(cm.identity(), 0.75)
        assert z0 == pytest.approx(0.5, abs=1e-12)

    def test_center_level(self):
        assert cm.find_level_start(cm.strip(), 1.0) == 0.0

    def test_angled_ray(self):
        z0 = cm.find_level_start(cm.identity(), 0.36, theta=np.pi / 3)
        assert abs(z0) == pytest.approx(0.8, abs=1e-12)
        assert np.angle(z0) == pytest.approx(np.pi / 3)

    def test_level_not_on_ray(self):
        # g is identically 1 on the strip's real diameter
        with pytest.raises(cm.LevelNotOnRay):
            cm.find_level_start(cm.strip(), 0.5, theta=0.0)

    def test_precomposed_series_stays_inside_the_certified_radius(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", cm.TruncationTail)
            m = cm.gen_herglotz(cm.PhiSpec.polynomial([0.2, 0.3j]), order=192, rmax=0.9)
        m = m.precomposed(0.3)
        z0 = cm.find_level_start(m, 0.9)
        assert float(cm.level_value(m, z0)) == pytest.approx(0.9, abs=1e-11)

    @pytest.mark.parametrize("m", [
        gen_quiet([0.3, 0.2j, -0.25]),
        gen_quiet([0.3, 0.2j, -0.25]).precomposed(0.2 - 0.1j, 0.7).postcomposed(1.5 - 0.5j, 0.2),
        cm.sector(0.5).precomposed(0.3j).postcomposed(2.0),
    ])
    def test_level_value_is_the_bits_of_the_full_jet(self, m):
        # f' alone, on the 2,048-point ray (Horner) and at one point, gives
        # the bits that the full jet gives
        rs = min(0.78, maps.certified_rmax(m)) * np.exp(0.4j) * np.linspace(0.0, 1.0, 2048)
        for z in (rs, rs[1000]):
            want = _level(z, cm.jet_fields(m, z)[1])["g"]
            assert np.array_equal(cm.level_value(m, z), want)

    def test_positive_level_required(self):
        with pytest.raises(ValueError):
            cm.find_level_start(cm.identity(), -0.2)
        for c in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                cm.find_level_start(cm.identity(), c)
        for theta in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="theta must be finite"):
                cm.find_level_start(cm.identity(), 0.75, theta=theta)

    @pytest.mark.parametrize("rmax", [-0.9, 0.0, float("nan")])
    def test_positive_search_radius_required(self, rmax):
        # with rmax = -0.9 the scan runs over the opposite ray, and its
        # reversed bracket ends the bisection at once, near -0.5 with a
        # residual of 1.2e-5
        with pytest.raises(ValueError, match="rmax must be positive"):
            cm.find_level_start(cm.identity(), 0.75, theta=0.0, rmax=rmax)


class TestIdentityTrace:
    def test_circle(self):
        curve = cm.trace_level_set(cm.identity(), 0.5)
        assert curve.closed
        assert curve.termination == "closed"
        assert np.abs(np.abs(curve.z) - 0.5).max() < 1e-12
        np.testing.assert_allclose(curve.k, 2.0, atol=1e-10)
        np.testing.assert_allclose(curve.kappa, 2.0, atol=1e-10)
        assert curve.residual.max() < 1e-12

    def test_clockwise_closure(self):
        curve = cm.trace_level_set(cm.identity(), 0.5)
        assert abs(curve.z[-1] - curve.z[0]) < 0.5 * 0.005 + 0.005
        assert turning(curve.z) == pytest.approx(-2 * np.pi, abs=1e-3)

    def test_discrete_curvature_of_circle(self):
        curve = cm.trace_level_set(cm.identity(), 0.5)
        np.testing.assert_allclose(cm.discrete_curvature(curve), 2.0, atol=1e-9)

    def test_arclength_is_monotone(self):
        curve = cm.trace_level_set(cm.identity(), 0.5)
        assert np.all(np.diff(curve.s) > 0)
        assert curve.s[-1] == pytest.approx(2 * np.pi * 0.5, rel=0.01)


class TestStraightLineImages:
    def test_halfplane_curvatures(self):
        for c in (0.5, 1.0, 2.0):
            x = (c - 1.0) / (c + 1.0)
            j = cm.jet_of(cm.halfplane(), x)
            assert cm.disk_curvature(j) == pytest.approx(c + 1.0, abs=1e-8)
            assert cm.image_curvature(j) == pytest.approx(0.0, abs=1e-10)

    def test_halfplane_trace_is_straight_in_image(self):
        x = (0.5 - 1.0) / (0.5 + 1.0)
        curve = cm.trace_level_set(cm.halfplane(), x)
        assert not curve.closed
        assert np.abs(curve.kappa).max() < 1e-9
        np.testing.assert_allclose(curve.k, 1.5, atol=1e-8)

    def test_strip_trace_is_horizontal_line(self):
        z0 = cm.find_level_start(cm.strip(), 0.5, theta=np.pi / 2)
        curve = cm.trace_level_set(cm.strip(), z0)
        assert np.abs(curve.kappa).max() < 1e-9
        im = curve.w.imag
        assert np.ptp(im) < 1e-10
        # the image strip is |Im w| < pi/4 and the height pins the level:
        # g = cos(2 Im w), so c = 0.5 sits at Im w = pi/6
        assert np.cos(2.0 * im.mean()) == pytest.approx(0.5, abs=1e-10)

    def test_koebe_point_curvatures(self):
        # at z = -0.5 the level curve is straight in the disk and the image
        # bends against the normal with curvature -27
        j = cm.jet_of(cm.koebe(), -0.5)
        assert cm.disk_curvature(j) == pytest.approx(0.0, abs=1e-12)
        assert cm.image_curvature(j) == pytest.approx(-27.0, abs=1e-9)


class TestPolygonTrace:
    def test_closed_and_convex(self):
        z0 = cm.find_level_start(cm.polygon(5), 0.9)
        curve = cm.trace_level_set(cm.polygon(5), z0, step=0.002)
        assert curve.closed
        assert curve.k.min() > 0
        assert curve.kappa.min() > 0
        assert turning(curve.z) == pytest.approx(-2 * np.pi, abs=1e-3)

    def test_discrete_matches_analytic(self):
        z0 = cm.find_level_start(cm.polygon(5), 0.9)
        curve = cm.trace_level_set(cm.polygon(5), z0, step=0.002)
        rel = np.abs(cm.discrete_curvature(curve) - curve.k) / np.abs(curve.k)
        assert rel.max() < 1e-4

    def test_image_discrete_matches_analytic(self):
        z0 = cm.find_level_start(cm.polygon(5), 0.9)
        curve = cm.trace_level_set(cm.polygon(5), z0, step=0.002)
        dk = cm.discrete_curvature(curve, image_plane=True)
        rel = np.abs(dk - curve.kappa) / np.abs(curve.kappa)
        assert rel.max() < 1e-3


class TestTangency:
    def test_identity_along_zoo_traces(self):
        starts = [
            (cm.identity(), 0.5 + 0.0j),
            (cm.halfplane(), -1.0 / 3.0 + 0.0j),
            (cm.strip(), 0.5j),
            (cm.sector(0.5), 0.3 + 0.2j),
            (cm.polygon(5), 0.4 + 0.1j),
        ]
        for m, z0 in starts:
            curve = cm.trace_level_set(m, z0, step=0.005, max_points=2000)
            _, f1, f2, _ = cm.jet_fields(m, curve.z)
            t = -1j * np.conj(curve.p) / np.abs(curve.p)
            gap = (t * f2 / f1).real - 2.0 * (np.conj(curve.z) * t).real / (
                1.0 - np.abs(curve.z) ** 2
            )
            assert np.abs(gap).max() < 1e-8


class TestCorrector:
    def test_residuals_are_the_accepted_ones(self):
        for m in ring_maps():
            curve = ring_trace(m)
            assert len(curve) >= 3
            assert curve.residual.max() <= RESIDUAL_TARGET
            # each point records the |g - c| its jet was accepted on
            want = [abs(_level(z, cm.jet_of(m, z).f1)["g"] - curve.c) for z in curve.z.tolist()]
            assert curve.residual.tolist() == want

    @pytest.mark.parametrize("m", [cm.halfplane(), cm.polygon(5), gen_quiet([0.3, 0.2j, -0.25])])
    def test_point_data_come_from_the_accepted_jet(self, m, jet_count):
        curve = ring_trace(m)
        traced = jet_count[0]
        # w, p, k and kappa are the values at each point's own jet, to the
        # bit, and the curve costs no jets beyond those of the march
        for i, z in enumerate(curve.z.tolist()):
            j = cm.jet_of(m, z)
            fld = fields_at(j, ("p", "k", "kappa"))
            assert (curve.w[i], curve.p[i]) == (j.f0, fld["p"])
            assert (curve.k[i], curve.kappa[i]) == (fld["k"], fld["kappa"])
        assert traced <= 2 * len(curve) + 1

    def test_identity_circle_takes_one_jet_per_point(self, jet_count):
        # the osculating circle is the level curve: every prediction is accepted
        curve = cm.trace_level_set(cm.identity(), 0.5)
        assert curve.closed
        assert len(curve) <= jet_count[0] <= 1.05 * len(curve)

    def test_generated_ring_takes_two_jets_per_point(self, jet_count):
        # one jet at the prediction and one after a Newton step, plus the
        # start point and the closing point, which is not kept
        curve = ring_trace(gen_quiet([0.3, 0.2j, -0.25]))
        assert curve.closed
        assert len(curve) <= jet_count[0] <= 2 * len(curve) + 1

    @pytest.mark.parametrize("m, closed", [(gen_quiet([0.3, 0.2j, -0.25]), True), (cm.sector(0.5), False)])
    def test_f_is_computed_once_per_accepted_point(self, m, closed, jet_count):
        # Newton iterates read only derivatives; f is computed for every
        # kept point (the start point once, though an open curve marches
        # from it both ways) and for the closing point, which is not kept
        curve = ring_trace(m)
        assert curve.closed == closed
        assert jet_count[0] > 1.5 * len(curve)  # iterates outnumber points
        assert jet_count[1] == len(curve) + closed

    def test_turn_cap_near_a_saddle(self):
        # here k * step is about 14 at z0; a full osculating arc winds back
        # to z0 and the curve would close after three points
        m = saddle_map()
        z0 = cm.find_level_start(m, 1.0 + 1e-6, rmax=0.8)
        curve = cm.trace_level_set(m, z0, rmax=0.8)
        assert abs(curve.k[np.argmin(np.abs(curve.z - z0))]) * levelset.DEFAULT_STEP > 10.0
        assert curve.termination == "radius"
        assert len(curve) > 300


def patch_identity(monkeypatch, component: int, value):
    """Make the identity's jet component ``component`` (0 for f, a callable)
    take ``value`` everywhere but at z = 0.5, the start point."""
    real = maps._CLOSED_FORMS["identity"]

    def patched(z, m):
        jet = list(real(z, m))
        if component == 0:
            f = jet[0]
            jet[0] = lambda: np.where(z == 0.5, f(), value)
        else:
            jet[component] = np.where(z == 0.5, jet[component], value)
        return tuple(jet)

    monkeypatch.setitem(maps._CLOSED_FORMS, "identity", patched)


class TestIterateChecks:
    """A Newton iterate's derivatives, and the f of an accepted point, are
    held to the rules of ``jet_of``: both take the one checked point route."""

    CALLS = (lambda: cm.trace_level_set(cm.identity(), 0.5), lambda: cm.jet_of(cm.identity(), 0.3))

    def test_nonfinite_second_derivative(self, monkeypatch):
        patch_identity(monkeypatch, 2, np.nan)
        for call in self.CALLS:
            with pytest.raises(ValueError, match="jet component f2 is not finite at z = "):
                call()

    def test_vanishing_first_derivative(self, monkeypatch):
        patch_identity(monkeypatch, 1, 0.0)
        for call in self.CALLS:
            with pytest.raises(cm.SingularPoint):
                call()

    def test_nonfinite_value_of_an_accepted_point(self, monkeypatch):
        patch_identity(monkeypatch, 0, np.inf)
        with pytest.raises(ValueError, match="jet component f0 is not finite"):
            cm.trace_level_set(cm.identity(), 0.5)


class TestNormalVanishes:
    def test_at_start(self):
        with pytest.raises(cm.NormalVanished) as exc_info:
            cm.trace_level_set(cm.strip(), 0.0)
        assert exc_info.value.curve is None

    def test_mid_march_partial_curve(self):
        m = saddle_map()
        z0 = saddle_start()
        with pytest.raises(cm.NormalVanished) as exc_info:
            cm.trace_level_set(m, z0, step=2e-5, max_points=4000)
        partial = exc_info.value.curve
        assert partial is not None
        assert partial.termination == "normal_vanished"
        assert len(partial) >= 5
        assert partial.residual.max() <= RESIDUAL_TARGET
        assert np.abs(partial.p).min() < 5e-4

    def test_backward_march_partial_curve(self):
        # the forward march reaches rmax; the backward one runs into the
        # saddle, so the partial curve is the reversed backward points, then
        # z0, then the forward ones
        m = saddle_map()
        z0 = saddle_start().conjugate()
        with pytest.raises(cm.NormalVanished) as exc_info:
            cm.trace_level_set(m, z0, step=2e-5, max_points=4000, rmax=0.002)
        partial = exc_info.value.curve
        assert partial.termination == "normal_vanished"
        assert len(partial) == 99
        assert partial.z[23] == z0
        assert np.abs(np.diff(partial.z)).max() <= 2e-5 * (1.0 + 1e-9)

    def test_pointwise_guard(self):
        # p == 0 exactly at the strip's center: each pointwise route raises
        # the typed error, never the kernel's ZeroDivisionError on |p|
        m = cm.strip()
        assert cm.p_field(cm.jet_of(m, 0j)) == 0
        for view in (
            lambda: cm.disk_curvature(cm.jet_of(m, 0j)),
            lambda: cm.image_curvature(cm.jet_of(m, 0j)),
            lambda: levelset._record(0j, *maps._jet_at(m, 0j), 0.0),  # the tracer's point record
        ):
            with pytest.raises(cm.NormalVanished):
                view()


class TestValidation:
    def test_level_mismatch(self):
        with pytest.raises(ValueError):
            cm.trace_level_set(cm.identity(), 0.5, c=0.9)

    def test_level_match_passes(self):
        curve = cm.trace_level_set(cm.identity(), 0.5, c=0.75)
        assert curve.c == pytest.approx(0.75)

    def test_bad_step(self):
        for step in (0.0, -0.01, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="step must be positive and finite"):
                cm.trace_level_set(cm.identity(), 0.5, step=step)

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            cm.trace_level_set(cm.identity(), 0.5, max_points=1)

    def test_start_outside_radius(self):
        with pytest.raises(ValueError):
            cm.trace_level_set(cm.identity(), 0.97)
        with pytest.raises(ValueError, match="outside the tracing radius nan"):
            cm.trace_level_set(cm.halfplane(), 0.3, rmax=float("nan"))
        # no step fits in a zero radius: once a one-point curve ending in "radius"
        with pytest.raises(ValueError, match="tracing radius rmax must be positive"):
            cm.trace_level_set(cm.halfplane(), 0j, rmax=0.0)
        with pytest.raises(ValueError, match="does not sit on the level c = nan"):
            cm.trace_level_set(cm.identity(), 0.5, c=float("nan"))

    def test_trace_respects_series_radius(self):
        # certified radius 0.6 clips the default 0.95 tracing disk; the
        # half-plane level line would otherwise run out to 0.95
        m = cm.from_series(np.concatenate([[0.0], np.ones(63)]), rmax=0.6)
        z0 = cm.find_level_start(m, 0.5, theta=np.pi, rmax=0.6)
        curve = cm.trace_level_set(m, z0)
        assert curve.termination == "radius"
        assert np.abs(curve.z).max() <= 0.6 + 1e-12

    def test_discrete_needs_three_points(self):
        with pytest.raises(ValueError):
            cm.discrete_curvature(np.array([0.1 + 0j, 0.2 + 0j]), closed=False)


class TestCsv:
    def test_schema_and_round_trip(self):
        curve = cm.trace_level_set(cm.identity(), 0.5)
        buf = io.StringIO()
        curve.write_csv(buf)
        text = buf.getvalue().splitlines()
        assert text[0] == CSV_HEADER
        assert len(text) == len(curve) + 1
        data = np.loadtxt(io.StringIO("\n".join(text[1:])), delimiter=",")
        assert data.shape == (len(curve), 9)
        np.testing.assert_allclose(data[:, 1] + 1j * data[:, 2], curve.z, atol=0)
        np.testing.assert_allclose(data[:, 6], curve.k, atol=0)
