from __future__ import annotations

import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import convmap as cm
import convmap.levelset as levelset
import convmap.maps as maps
from convmap.functionals import _level
from convmap.series import MIN_ORDER, RADIUS_SLACK, derivative_table, eval_grid, eval_table, point_columns

from .oracles import fd_jet


def geometric(order: int, rmax: float = 0.9) -> cm.PowerSeries:
    # 1/(1-z) truncated
    return cm.PowerSeries(np.ones(order + 1), rmax)


class TestPowerSeries:
    def test_pads_to_min_order(self):
        s = cm.PowerSeries([2.0], 0.5)
        assert s.order == MIN_ORDER
        assert s.coeffs[0] == 2.0
        assert np.all(s.coeffs[1:] == 0.0)

    def test_rejects_bad_rmax(self):
        with pytest.raises(ValueError):
            cm.PowerSeries([1.0, 1.0], 0.0)
        with pytest.raises(ValueError):
            cm.PowerSeries([1.0, 1.0], 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            cm.PowerSeries([1.0, np.nan], 0.9)

    def test_equality_is_of_coefficients_rmax_and_phi(self):
        # the generated __eq__ compared coefficient arrays inside a tuple and raised
        a, b = cm.PowerSeries([0.0, 1.0, 0.5j], 0.8), cm.PowerSeries([-0.0, 1.0, 0.5j], 0.8)
        assert a == b and hash(a) == hash(b)  # 0.0 and -0.0 too
        for other in (cm.PowerSeries([0.0, 1.0, 0.5j], 0.9), cm.PowerSeries([0.0, 1.0, 0.5j, 1e-300], 0.8),
                      cm.PowerSeries([0.0, 1.0, 0.5j, 0.0, 0.0], 0.8)):
            assert a != other
        phi = cm.PhiSpec.polynomial([0.3, 0.1j])
        m = cm.herglotz_map(phi, order=64)
        assert m == cm.herglotz_map(phi, order=64) and hash(m) == hash(cm.herglotz_map(phi, order=64))
        assert len({m, cm.herglotz_map(phi, order=64), cm.herglotz_map(phi, order=65)}) == 2
        assert m.series != cm.PowerSeries(m.series.coeffs, m.series.rmax)  # a bare copy has no phi

    def test_tail_bound_is_top_term(self):
        assert geometric(40, 0.5).tail_bound() == pytest.approx(0.5**40)
        assert geometric(40).tail_bound() == pytest.approx(0.9**40)

    def test_tail_warning(self):
        with pytest.warns(cm.TruncationTail):
            geometric(16, 0.9).warn_if_tail_large()
        # tiny tail stays quiet
        cm.PowerSeries([1.0, 1e-16, 0, 0], 0.9).warn_if_tail_large()


class TestArithmetic:
    def test_mul_matches_polynomial_product(self):
        rng = np.random.default_rng(0)
        a = cm.PowerSeries(rng.standard_normal(9) + 1j * rng.standard_normal(9), 0.9)
        b = cm.PowerSeries(rng.standard_normal(9) + 1j * rng.standard_normal(9), 0.8)
        prod = cm.series_mul(a, b)
        full = np.polynomial.polynomial.polymul(a.coeffs, b.coeffs)
        assert prod.rmax == 0.8
        np.testing.assert_allclose(prod.coeffs, full[: len(prod.coeffs)], atol=1e-14)

    def test_inv_of_geometric(self):
        inv = cm.series_inv(geometric(12))
        expect = np.zeros(13)
        expect[0], expect[1] = 1.0, -1.0
        np.testing.assert_allclose(inv.coeffs, expect, atol=1e-15)

    def test_inv_times_self_is_one(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        c[0] = 1.5 + 0.5j
        a = cm.PowerSeries(c, 0.9)
        unit = cm.series_mul(a, cm.series_inv(a))
        expect = np.zeros(10, dtype=complex)
        expect[0] = 1.0
        np.testing.assert_allclose(unit.coeffs, expect, atol=1e-12)

    def test_inv_requires_nonzero_constant(self):
        with pytest.raises(ZeroDivisionError):
            cm.series_inv(cm.PowerSeries([0.0, 1.0], 0.9))

    def test_exp_of_log_geometric(self):
        # exp(-log(1-z)) = 1/(1-z)
        order = 20
        k = np.arange(1, order + 1)
        log_s = cm.PowerSeries(np.concatenate([[0.0], 1.0 / k]), 0.9)
        np.testing.assert_allclose(cm.series_exp(log_s).coeffs, np.ones(order + 1), atol=1e-13)

    def test_exp_carries_constant_term(self):
        e = cm.series_exp(cm.PowerSeries([2.0, 0.0, 0.0, 0.0], 0.9))
        assert e.coeffs[0] == pytest.approx(np.exp(2.0))
        np.testing.assert_allclose(e.coeffs[1:], 0.0, atol=1e-15)

    def test_derive_integrate_round_trip(self):
        rng = np.random.default_rng(2)
        a = cm.PowerSeries(rng.standard_normal(8), 0.9)
        back = cm.series_integrate(cm.PowerSeries(a.table[:, 1], a.rmax), c0=a.coeffs[0])
        np.testing.assert_allclose(back.coeffs[:8], a.coeffs, atol=1e-15)

    def test_integrate_cap(self):
        a = cm.PowerSeries(np.ones(6), 0.9)
        assert cm.series_integrate(a, cap=4).order == 4


class TestEvaluation:
    def test_derivative_table_shape(self):
        table = derivative_table(np.ones(8))
        assert table.shape == (8, 4)

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 9])
    def test_derivative_table_columns(self, size):
        c = (1.0 + 0.5j) * np.arange(1, size + 1)
        expect = np.zeros((size, 4), dtype=complex)
        for j in range(4):
            for k in range(size - j):
                expect[k, j] = c[k + j] * np.prod(np.arange(k + 1, k + j + 1))
        np.testing.assert_array_equal(derivative_table(c), expect)

    def test_jet_matches_stencil_oracle(self):
        # truncated log(1/(1-z)); the tail at |z| = 0.3 is ~1e-22
        order = 40
        k = np.arange(1, order + 1)
        s = cm.PowerSeries(np.concatenate([[0.0], 1.0 / k]), 0.9)
        table = derivative_table(s.coeffs)
        desc = [mp.mpc(c) for c in reversed(s.coeffs)]

        def f(w):
            # evaluate in mpmath so stencil division by h**3 stays clean
            return mp.polyval(desc, w)

        for z in (0.3, -0.2 + 0.1j, 0.25j):
            jet = cm.jet_of(cm.from_series(s), z)
            cols = point_columns(table, z)
            oracle = [complex(v) for v in fd_jet(f, z)]
            got = [jet.f0, jet.f1, jet.f2, jet.f3]
            np.testing.assert_allclose(got, oracle, rtol=1e-10)
            np.testing.assert_allclose(np.asarray(cols).ravel(), got, rtol=0, atol=1e-15)

    def test_jet_outside_radius(self):
        s = geometric(10, 0.5)
        with pytest.raises(cm.RadiusExceeded):
            cm.jet_of(cm.from_series(s), 0.6)


class TestScalarFastPath:
    @pytest.mark.parametrize("order", [3, 40, 192, 384])
    def test_scalar_matches_array_horner(self, order):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", cm.TruncationTail)
            s = cm.gen_herglotz(cm.PhiSpec.polynomial([0.3 + 0.2j, -0.1 + 0.4j]), order=order).series
        angles = np.exp(2j * np.pi * np.arange(8) / 8 + 0.3j)
        zs = np.concatenate([[0j], 0.5 * s.rmax * angles, s.rmax * angles])
        cols = npoly.polyval(zs, s.table)  # Horner, the large-array route
        for i, z in enumerate(zs):
            scalar = np.asarray(point_columns(s.table, complex(z)))
            np.testing.assert_allclose(scalar, cols[:, i], rtol=1e-13, atol=0)
        # a batch, here in a 2-d shape: running products from order 8 up,
        # Horner at order 3 (17 points are more than twice 4 coefficients)
        batch = np.asarray(eval_table(s.table, zs.reshape(1, -1)))
        assert batch.shape == (4, 1, zs.size)
        np.testing.assert_allclose(batch[:, 0], cols, rtol=1e-13, atol=0)

    @pytest.mark.parametrize(
        "order, size, running",
        [
            (192, 41, True),  # the critical search's Newton seeds
            (192, 256, True),  # a 256-point ring
            (192, 384, False),  # classify_phi's grid: over the entry cap
            (64, 256, False),  # more than twice 65 coefficients
            (16, 41, False),  # more than twice 17 coefficients
        ],
    )
    def test_batch_route(self, order, size, running):
        s = geometric(order, 0.9)
        zs = 0.85 * np.exp(2j * np.pi * np.arange(size) / size + 0.1j) * np.linspace(0.2, 1.0, size)
        got = np.asarray(eval_table(s.table, zs))
        horner = npoly.polyval(zs, s.table)
        if running:
            # the products round differently from Horner, within 1e-13
            assert not np.array_equal(got, horner)
            np.testing.assert_allclose(got, horner, rtol=1e-13, atol=0)
        else:
            np.testing.assert_array_equal(got, horner)

    def test_table_is_built_once(self):
        s = geometric(30)
        assert "table" not in vars(s)
        table = s.table
        assert s.table is table
        np.testing.assert_array_equal(table, derivative_table(s.coeffs))

    def test_eval_jet_shares_the_radius_slack(self):
        s = geometric(10, 0.5)
        # the outer ring of a grid may land an ulp outside rmax
        cm.jet_of(cm.from_series(s), 0.5 * (1.0 + 1e-15))
        with pytest.raises(cm.RadiusExceeded):
            cm.jet_of(cm.from_series(s), 0.5 + 1e-9)

    def test_jet_of_rejects_nonfinite_jet(self):
        m = cm.from_series([0.0, 1.0, 1e308, 1e308], 0.9)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="not finite"):
            cm.jet_of(m, 0.8)
        # a batch of jets, as on a grid, is held to the same rule
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="not finite on the"):
            cm.grid_functionals(m, np.array([0.5j, 0.8]))

    def test_jet_of_rejects_boundary_points(self):
        with pytest.raises(ValueError):
            cm.jet_of(cm.identity(), 1.0)
        with pytest.raises(ValueError):
            cm.Jet(0.6 + 0.8j, 0.0, 1.0, 0.0, 0.0)


class TestPointJets:
    """A point of a series map with nothing to compose takes one running
    product: the tracer's f, f', P and S, ``jet_of`` and the scalar
    ``level_value`` are eval_table's running products on a one-point batch,
    with P and S by the kernel's lines for a bare series and by
    ``maps._PHI_STEPS`` from phi for a generated map, and the full jet by
    ``_full_jet``, bit for bit."""

    @staticmethod
    def bits(vals) -> list:
        return np.array(vals, dtype=complex).view(np.uint64).tolist()

    @pytest.mark.parametrize("order", [3, 40, 192, 384])
    def test_equals_the_batch_products_bit_for_bit(self, order):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", cm.TruncationTail)
            generated = cm.gen_herglotz(cm.PhiSpec.polynomial([0.3 + 0.2j, -0.1 + 0.4j]), order=order, rmax=0.8)
        for m in (cm.from_series(generated.series.coeffs, generated.series.rmax), generated):
            self.check_points(m, generated.series)

    def check_points(self, m, s):
        generated = m.series.phi is not None
        u = np.exp(0.7j)
        # |z| = rmax + RADIUS_SLACK exactly on the imaginary axis
        for z in (0j, complex(0.5 * s.rmax * u), complex(s.rmax * u), 1j * (s.rmax + RADIUS_SLACK)):
            f0, f1, f2, f3 = [complex(col[0]) for col in eval_table(s.table, np.array([z]))]
            if generated:
                P, S = maps._from_phi(("P", "S"))([z, *m.series.phi.jet(z)]).values()
            else:
                P, S = cm.fields(z, f1, f2, f3, ("P", "S")).values()
            f, *derivatives = levelset._jet_at(m, z)
            jet = cm.jet_of(m, z)
            for got, want in (([f(), *derivatives], [f0, f1, P, S]),
                              ([jet.f0, jet.f1, jet.f2, jet.f3], [f0, *maps._full_jet(f1, P, S)])):
                assert all(type(v) is complex for v in got)
                assert self.bits(got) == self.bits(want)
            g = cm.level_value(m, z)
            assert np.float64(g).view(np.uint64) == np.float64(_level(np.asarray(z), f1)["g"]).view(np.uint64)
        beyond = 1j * (s.rmax + 2.0 * RADIUS_SLACK)
        for call in (levelset._jet_at, cm.jet_of, cm.level_value):
            with pytest.raises(cm.RadiusExceeded):
                call(m, beyond)


class TestSpectralGrid:
    """``eval_grid``, the FFT route over polar grids, against ``eval_table``
    at the same points."""

    GRIDS = [
        cm.GridSpec(100, 100, 0.9),
        cm.GridSpec(7, 1, 0.9),  # ntheta = 1: one row per block
        cm.GridSpec(1, 40, 0.9),  # nr = 1
        cm.GridSpec(3, 512, 0.9),  # ntheta above every row count: one block
        cm.GridSpec(400, 400, 0.9),  # the innermost ring's powers underflow
    ]

    @pytest.mark.parametrize("order", [3, 24, 192, 384])
    def test_matches_eval_table(self, order):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", cm.TruncationTail)
            s = cm.gen_herglotz(cm.PhiSpec.polynomial([0.3 + 0.2j, -0.1 + 0.4j, 0.2]), order=order).series
        for grid in self.GRIDS:
            got = eval_grid(s.table, grid)
            # Horner at every 8th point of the 400 x 400 grid keeps the test quick
            some = slice(None, None, 1 + grid.nr * grid.ntheta // 20000)
            want = eval_table(s.table, grid.points()[some])
            for col, (g, w) in enumerate(zip(got, want)):
                assert g.shape == (grid.nr * grid.ntheta,)
                g = g[some]
                scale = float(np.abs(w).max())
                assert float(np.abs(g - w).max()) <= 1e-13 * scale, (grid, col)

    def test_series_jets_take_it_after_any_postcomposition(self, monkeypatch):
        phi = cm.PhiSpec.polynomial([0.2, 0.3j])
        maps = [
            cm.gen_herglotz(phi, order=192).postcomposed(1.5 - 0.5j, 0.25 + 1j),
            cm.herglotz_map(phi, order=192),
        ]
        grid = cm.GridSpec(30, 50, 0.9)
        want = [cm.jet_fields(m, grid.points())[1:] for m in maps]

        def no_points(*args, **kwargs):
            raise AssertionError("a grid of a series map reached eval_table")

        monkeypatch.setattr("convmap.series.eval_table", no_points)
        for m, ref in zip(maps, want):
            for g, w in zip(cm.jet_derivatives(m, grid), ref):
                assert float(np.abs(g - w).max()) <= 1e-13 * float(np.abs(w).max())

    def test_precomposed_series_takes_the_points(self):
        m = cm.gen_herglotz(cm.PhiSpec.polynomial([0.2, 0.3j]), order=192).precomposed(0.2 - 0.1j, 0.7)
        grid = cm.GridSpec(20, 30, 0.6)
        got = cm.jet_derivatives(m, grid)
        for g, w in zip(got, cm.jet_fields(m, grid.points())[1:]):
            np.testing.assert_array_equal(g, w)

    def test_radius_check(self):
        m = cm.from_series(geometric(30, 0.8))
        cm.grid_functionals(m, cm.GridSpec(10, 16, 0.8))  # exactly rmax is certified
        with pytest.raises(cm.RadiusExceeded, match=r"^\|z\| = 0\.81 exceeds the certified radius 0\.8$"):
            cm.grid_functionals(m, cm.GridSpec(10, 16, 0.81))
        # the same message as the array route gives at those points
        with pytest.raises(cm.RadiusExceeded, match=r"^\|z\| = 0\.81 exceeds the certified radius 0\.8$"):
            cm.grid_functionals(m, cm.GridSpec(10, 16, 0.81).points())
