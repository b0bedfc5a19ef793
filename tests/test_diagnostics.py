"""Sup norms, bumps, inequality monitors, decay-fit verdicts, records."""

import numpy as np
import pytest

from oracles import poincare_check, sobolev_check
from outflow1d.diagnostics import (DIAG_COLUMNS, bump_profile,
                                   fit_convergence, record_from_state,
                                   sup_norm, write_diag_csv)
from outflow1d.solver import FieldState, Grid1D


class TestNorms:
    def test_sup_norm(self):
        assert sup_norm(np.array([0.1, -3.0, 2.0])) == 3.0

    def test_stacked_fields_give_the_per_field_norms_bitwise(self):
        x = np.linspace(0.0, 40.0, 2001)
        stack = np.array([np.sin(k * x) * np.exp(-0.1 * x) for k in range(5)])
        rows = sup_norm(stack)
        assert rows.shape == (5,)
        assert rows.tolist() == [sup_norm(f) for f in stack]
        assert all(type(v) is float for v in rows.tolist())


class TestBumps:
    def test_cosine_bump_is_compact(self):
        x = np.linspace(0.0, 10.0, 1001)
        f = bump_profile(x, 0.5, 5.0, 2.0)
        assert f.max() == pytest.approx(0.5, abs=1e-12)
        assert np.all(f[np.abs(x - 5.0) > 1.0] == 0.0)
        assert np.all(f >= 0.0)

    def test_perturbation_validation(self):
        x = np.linspace(0.0, 10.0, 11)
        with pytest.raises(ValueError, match="width"):
            bump_profile(x, 0.5, 5.0, 0.0)


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


class Uniform:
    """Constant background (rho, u, theta) = (1, -0.5, 1)."""

    def eval(self, x, t):
        return np.full(x.shape, 1.0), np.full(x.shape, -0.5), np.ones(x.shape)


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

    def test_zero_perturbation_record_is_zero(self):
        n = self.GRID.n_nodes
        state = FieldState(np.ones(n), np.full(n, -0.5), np.ones(n),
                           np.zeros(n), np.zeros(n))
        rec = record_from_state(self.GRID, state, Uniform(), None,
                                0.0, 0.0)
        assert max(rec.sup_phi, rec.sup_psi, rec.sup_zeta) == 0.0
        assert rec.sup_field == 0.0
        assert rec.rel_fluid == 0.0

    def test_sup_aggregates(self):
        state = self.make_state()
        n = self.GRID.n_nodes
        uniform = FieldState(np.ones(n), np.full(n, -0.5), np.ones(n),
                             np.zeros(n), np.zeros(n))
        rec = record_from_state(self.GRID, state, Uniform(), uniform.data,
                                1.0, 3e-12)
        assert max(rec.sup_phi, rec.sup_psi, rec.sup_zeta) \
            == pytest.approx(0.02, abs=1e-12)
        assert rec.sup_field == pytest.approx(0.05, abs=1e-12)
        # the uniform state is the background, so the distances agree; a
        # reference with E = b = 0 is sup_field off the state's field
        assert rec.rel_fluid == pytest.approx(0.02, abs=1e-12)
        assert rec.mass_residual == 3e-12         # the audit, as given

    def test_csv_round_trip(self, tmp_path):
        state = self.make_state()
        recs = [record_from_state(self.GRID, state, Uniform(), None,
                                  float(t), 1e-13 * t) for t in range(3)]
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
            "t", "sup_phi", "sup_psi", "sup_zeta", "sup_E", "sup_b",
            "mass_residual", "rel_fluid")
