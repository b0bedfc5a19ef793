"""Norms, energy functionals, inequality monitors and decay-fit verdicts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outflow1d.diagnostics import (DIAG_COLUMNS, DiagRecord, Perturbation,
                                   bump_profile, compound_dissipation,
                                   energy_density, fit_convergence, gradient,
                                   h1_norm, l2_norm, perturb,
                                   perturbation_energy, phi_gap,
                                   poincare_check, record_from_state,
                                   sobolev_check, sup_norm, write_diag_csv)
from outflow1d.gas import GasParams
from outflow1d.solver import FieldState, Grid1D

PARAMS = GasParams()


class TestPhiGap:
    def test_reference_values(self):
        assert phi_gap(1.0) == 0.0
        assert phi_gap(2.0) == pytest.approx(1.0 - math.log(2.0), rel=1e-15)
        assert phi_gap(math.e) == pytest.approx(math.e - 2.0, rel=1e-15)

    @given(s=st.floats(1e-6, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_with_unique_zero(self, s):
        val = float(phi_gap(s))
        assert val >= 0.0
        if abs(s - 1.0) > 1e-3:
            assert val > 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            phi_gap(0.0)
        with pytest.raises(ValueError):
            phi_gap(np.array([1.0, -2.0]))


class TestEnergy:
    def test_vanishes_on_the_background(self):
        eta = energy_density(PARAMS, 1.3, 0.8, 1.3, 0.8, 0.0)
        assert eta == 0.0

    def test_small_perturbation_quadratic_form(self):
        # eta ~ psi^2/2 + R thh (phi/rhh)^2/2 + R zeta^2/(2 (g-1) thh)
        rhh, thh = 1.2, 0.9
        phi, psi, zeta = 1e-5, 2e-5, -1.5e-5
        eta = float(energy_density(PARAMS, rhh + phi, thh + zeta, rhh, thh,
                                   psi))
        expected = (0.5 * psi ** 2
                    + 0.5 * PARAMS.R * thh * (phi / rhh) ** 2
                    + 0.5 * PARAMS.R * zeta ** 2 / ((PARAMS.gamma - 1.0) * thh))
        assert eta == pytest.approx(expected, rel=1e-4)

    def test_energy_is_positive_off_background(self):
        x = np.linspace(0.0, 10.0, 201)
        rho = 1.0 + 0.05 * np.exp(-((x - 5.0) ** 2))
        e = perturbation_energy(PARAMS, x, rho, np.full_like(x, 1.0),
                                np.ones_like(x), np.ones_like(x),
                                np.zeros_like(x))
        assert e > 0.0

    def test_compound_dissipation_routes_agree(self):
        # (E + psi b + u_hat b) == (E + u b) with u = u_hat + psi
        rng = np.random.default_rng(42)
        x = np.linspace(0.0, 20.0, 400)
        E = rng.standard_normal(x.size)
        b = rng.standard_normal(x.size)
        psi = 0.1 * rng.standard_normal(x.size)
        u_hat = -0.5 + 0.05 * np.sin(x)
        via_split = compound_dissipation(x, E, b, psi, u_hat)
        u = u_hat + psi
        via_total = float(np.trapezoid((E + u * b) ** 2, x))
        assert via_split == pytest.approx(via_total, rel=1e-13)

    def test_dissipation_zero_without_fields(self):
        x = np.linspace(0.0, 5.0, 50)
        z = np.zeros_like(x)
        assert compound_dissipation(x, z, z, z + 0.3, z - 0.5) == 0.0


class TestNorms:
    X = np.linspace(0.0, 20.0 * math.pi, 20001)

    def test_l2_of_sine(self):
        # ||sin||_{L2(0, 20 pi)} = sqrt(10 pi)
        assert l2_norm(self.X, np.sin(self.X)) == pytest.approx(
            math.sqrt(10.0 * math.pi), rel=1e-4)

    def test_h1_of_sine(self):
        # ||sin||^2 + ||cos||^2 = L over full periods
        assert h1_norm(self.X, np.sin(self.X)) == pytest.approx(
            math.sqrt(20.0 * math.pi), rel=1e-4)

    def test_sup_norm(self):
        assert sup_norm(np.array([0.1, -3.0, 2.0])) == 3.0

    def test_stacked_fields_give_the_per_field_norms_bitwise(self):
        x = np.linspace(0.0, 40.0, 2001)
        stack = np.array([np.sin(k * x) * np.exp(-0.1 * x) for k in range(5)])
        for norm, args in ((l2_norm, (x,)), (h1_norm, (x,)), (sup_norm, ())):
            rows = norm(*args, stack)
            assert rows.shape == (5,)
            assert rows.tolist() == [norm(*args, f) for f in stack]
            assert all(type(v) is float for v in rows.tolist())

    def test_gradient_of_linear_function(self):
        x = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(gradient(x, 3.0 * x + 1.0), 3.0,
                                   rtol=1e-12)


class TestBumps:
    def test_cosine_bump_is_compact(self):
        x = np.linspace(0.0, 10.0, 1001)
        f = bump_profile(x, 0.5, 5.0, 2.0)
        assert f.max() == pytest.approx(0.5, abs=1e-12)
        assert np.all(f[np.abs(x - 5.0) > 1.0] == 0.0)
        assert np.all(f >= 0.0)

    def test_gaussian_bump(self):
        x = np.linspace(0.0, 10.0, 1001)
        f = bump_profile(x, 0.5, 5.0, 2.0, "gaussian")
        assert f.max() == pytest.approx(0.5, abs=1e-12)
        assert np.all(f > 0.0)

    def test_perturbation_validation(self):
        with pytest.raises(ValueError):
            Perturbation(width=0.0)
        with pytest.raises(ValueError):
            Perturbation(shape="square")

    def test_perturb_copies_and_targets(self):
        grid = Grid1D(40.0, 64)
        n = grid.n_nodes
        base = FieldState(np.ones(n), np.zeros(n), np.ones(n), np.zeros(n),
                          np.zeros(n))
        pert = Perturbation(amplitude=0.1, center=20.0, width=4.0)
        out = perturb(grid, base, pert, targets=("u", "E"))
        assert np.all(base.u == 0.0)            # original untouched
        assert out.u.max() == pytest.approx(0.1, abs=1e-12)
        assert out.E.max() == pytest.approx(0.1, abs=1e-12)
        np.testing.assert_array_equal(out.theta, base.theta)

    def test_perturb_rejects_unknown_field(self):
        grid = Grid1D(40.0, 64)
        n = grid.n_nodes
        base = FieldState(np.ones(n), np.zeros(n), np.ones(n), np.zeros(n),
                          np.zeros(n))
        with pytest.raises(ValueError):
            perturb(grid, base, Perturbation(), targets=("vorticity",))


class TestInequalities:
    @staticmethod
    def gaussian_mix(x, rng, n=4):
        f = np.zeros_like(x)
        fx = np.zeros_like(x)
        for _ in range(n):
            a = rng.uniform(-1.0, 1.0)
            c = rng.uniform(5.0, 35.0)
            s = rng.uniform(0.3, 2.0)
            g = a * np.exp(-0.5 * ((x - c) / s) ** 2)
            f += g
            fx += g * (-(x - c) / s ** 2)
        return f, fx

    def test_sup_square_bound_holds_for_decaying_fields(self):
        x = np.arange(0.0, 60.0, 0.01)
        rng = np.random.default_rng(1)
        for _ in range(25):
            f, fx = self.gaussian_mix(x, rng)
            report = sobolev_check(x, f, fx)
            assert report["passed"] and report["violation"] == 0.0

    def test_sup_square_bound_flags_nondecaying_input(self):
        # a constant violates the decay hypothesis: rhs = 0 < lhs
        x = np.linspace(0.0, 10.0, 101)
        report = sobolev_check(x, np.full_like(x, 2.0))
        assert not report["passed"] and report["violation"] > 0.0

    def test_boundary_growth_bound_holds(self):
        x = np.arange(0.0, 60.0, 0.01)
        rng = np.random.default_rng(2)
        for _ in range(25):
            z, zx = self.gaussian_mix(x, rng)
            report = poincare_check(x, z, zx)
            assert report["passed"]

    def test_boundary_growth_bound_flags_wrong_derivative(self):
        x = np.linspace(0.0, 10.0, 101)
        z = x.copy()                      # grows, but claimed derivative is 0
        report = poincare_check(x, z, np.zeros_like(x))
        assert not report["passed"] and report["max_violation"] > 0.0


class TestConvergenceFit:
    def test_exponential_decay_passes_with_rate(self):
        t = np.geomspace(0.5, 50.0, 30)
        out = fit_convergence(t, np.exp(-t))
        assert out["verdict"] == "PASS"
        assert out["rate"] == pytest.approx(1.0, rel=1e-6)
        assert out["ratio"] < 1e-8

    def test_constant_series_fails(self):
        t = np.linspace(1.0, 100.0, 20)
        out = fit_convergence(t, np.full(20, 3.0))
        assert out["verdict"] == "FAIL"
        assert out["ratio"] == pytest.approx(1.0)

    def test_floor_rescues_saturated_series(self):
        t = np.linspace(1.0, 100.0, 20)
        vals = np.full(20, 1e-6)
        assert fit_convergence(t, vals)["verdict"] == "FAIL"
        assert fit_convergence(t, vals, floor=2e-6)["verdict"] == "PASS"

    def test_too_few_samples_is_inconclusive(self):
        out = fit_convergence([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert out["verdict"] == "INCONCLUSIVE"

    def test_narrow_time_span_is_inconclusive(self):
        t = np.linspace(5.0, 6.0, 15)
        out = fit_convergence(t, np.exp(-t))
        assert out["verdict"] == "INCONCLUSIVE"

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            fit_convergence([1.0, 2.0], [1.0])


class TestRecords:
    GRID = Grid1D(40.0, 128)

    def make_state(self):
        # bump centers sit on grid nodes (dx = 0.3125) so peaks are sampled
        x = self.GRID.x
        n = x.size
        rho = 1.0 + 0.01 * bump_profile(x, 1.0, 10.0, 4.0)
        u = -0.5 + 0.02 * bump_profile(x, 1.0, 12.5, 4.0)
        theta = np.ones(n)
        E = 0.05 * bump_profile(x, 1.0, 7.5, 4.0)
        b = np.zeros(n)
        return FieldState(rho, u, theta, E, b)

    def test_background_forms_agree(self):
        state = self.make_state()
        const = (1.0, -0.5, 1.0)

        def fn(x, t):
            return (np.full(x.shape, 1.0), np.full(x.shape, -0.5),
                    np.full(x.shape, 1.0))

        class Obj:
            def eval(self, x, t):
                return fn(x, t)

        recs = [record_from_state(PARAMS, self.GRID, state, bg, 3.0)
                for bg in (const, fn, Obj())]
        for name in DIAG_COLUMNS:
            vals = [getattr(r, name) for r in recs]
            assert vals[0] == vals[1] == vals[2]

    def test_zero_perturbation_record_is_zero(self):
        n = self.GRID.n_nodes
        state = FieldState(np.ones(n), np.full(n, -0.5), np.ones(n),
                           np.zeros(n), np.zeros(n))
        rec = record_from_state(PARAMS, self.GRID, state, (1.0, -0.5, 1.0),
                                0.0)
        assert rec.sup_fluid == 0.0 and rec.sup_field == 0.0
        assert rec.energy == 0.0 and rec.dissipation == 0.0
        assert rec.l2_phi == 0.0 and rec.h1_psi == 0.0

    def test_sup_aggregates(self):
        state = self.make_state()
        rec = record_from_state(PARAMS, self.GRID, state, (1.0, -0.5, 1.0),
                                1.0)
        assert rec.sup_fluid == pytest.approx(0.02, abs=1e-12)
        assert rec.sup_field == pytest.approx(0.05, abs=1e-12)
        assert rec.mass_residual == 0.0

    def test_csv_round_trip(self, tmp_path):
        state = self.make_state()
        recs = [record_from_state(PARAMS, self.GRID, state, (1.0, -0.5, 1.0),
                                  float(t)) for t in range(3)]
        path = tmp_path / "diag.csv"
        write_diag_csv(path, recs)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(DIAG_COLUMNS)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert data.shape == (3,)
        for i, rec in enumerate(recs):
            for name in DIAG_COLUMNS:
                assert data[name][i] == getattr(rec, name)

    def test_column_schema_is_stable(self):
        assert DIAG_COLUMNS == (
            "t", "l2_phi", "l2_psi", "l2_zeta", "l2_E", "l2_b",
            "h1_phi", "h1_psi", "h1_zeta", "h1_E", "h1_b",
            "sup_phi", "sup_psi", "sup_zeta", "sup_E", "sup_b",
            "energy", "dissipation", "phi0", "E0", "b0", "mass_residual")
