"""Time marcher: invariants, audits, boundary identity, serialization."""

import math

import numpy as np
import pytest

from outflow1d.gas import EndStates, GasParams
from outflow1d.layer import boundary_data_for_strength, construct_layer
from outflow1d.solver import (FieldState, Grid1D, PositivityError,
                              SolverConfig, SolverError, cfl_dt,
                              default_domain_length, read_snapshot_csv, run,
                              spatial_rhs, step, write_snapshot_csv)


def uniform_end(u=-0.5, theta=1.0, rho=1.0):
    return EndStates(u_minus=u, theta_minus=theta, rho_plus=rho,
                     u_plus=u, theta_plus=theta)


def constant_state(grid, end):
    n = grid.n_nodes
    return FieldState(np.full(n, end.rho_plus), np.full(n, end.u_plus),
                      np.full(n, end.theta_plus), np.zeros(n), np.zeros(n))


def bump(x, center, width):
    arg = (x - center) / (width / 2.0)
    return np.where(np.abs(arg) < 1.0, np.cos(0.5 * np.pi * arg) ** 2, 0.0)


class TestConstruction:
    def test_grid_properties(self):
        g = Grid1D(length=40.0, n_cells=100)
        assert g.dx == pytest.approx(0.4)
        assert g.n_nodes == 101
        assert g.x[0] == 0.0 and g.x[-1] == 40.0

    @pytest.mark.parametrize("kw", [
        {"length": 0.0, "n_cells": 100}, {"length": 40.0, "n_cells": 8},
    ])
    def test_grid_validation(self, kw):
        with pytest.raises(ValueError):
            Grid1D(**kw)

    def test_field_state_requires_matching_sizes(self):
        z = np.zeros(5)
        with pytest.raises(ValueError):
            FieldState(z, z, np.zeros(4), z, z)

    def test_field_state_copy_is_deep(self):
        g = Grid1D(40.0, 16)
        s = constant_state(g, uniform_end())
        c = s.copy()
        c.rho[0] = 123.0
        assert s.rho[0] != 123.0

    def test_grid_x_is_built_once_and_read_only(self):
        g = Grid1D(40.0, 16)
        assert g.x is g.x
        with pytest.raises(ValueError):
            g.x[3] = 1.0

    def test_field_state_is_one_contiguous_block(self):
        g = Grid1D(40.0, 16)
        s = constant_state(g, uniform_end())
        assert s.data.shape == (5, g.n_nodes)
        assert s.data.flags.c_contiguous
        np.testing.assert_array_equal(s.data[2], s.theta)

    def test_named_fields_are_row_views(self):
        g = Grid1D(40.0, 16)
        s = constant_state(g, uniform_end())
        s.E[:] = 1.5
        s.E *= 2.0
        np.testing.assert_array_equal(s.data[3], 3.0)
        assert np.shares_memory(s.E, s.data)

    def test_of_wraps_a_block_without_copying(self):
        a = np.ones((5, 17))
        assert FieldState.of(a).data is a
        with pytest.raises(ValueError):
            FieldState.of(np.ones((4, 17)))

    @pytest.mark.parametrize("kw", [
        {"cfl_factor": 0.0}, {"cfl_factor": 0.95}, {"dt_max": -1.0},
        {"cfl_factor": float("nan")}, {"dt_max": 0.0},
        {"dt_max": float("nan")}, {"maxwell_mode": "Full"},
        {"maxwell_mode": "half"},
    ])
    def test_config_validation(self, kw):
        with pytest.raises(ValueError):
            SolverConfig(**kw)

    def test_default_domain_length_floor(self):
        end = uniform_end(u=-0.5)
        assert default_domain_length(GasParams(), end, 1.0) == 40.0
        long = default_domain_length(GasParams(), end, 500.0)
        c = math.sqrt(5.0 / 3.0)
        assert long == pytest.approx(2.0 * (-0.5 + c) * 501.0)


class TestExactInvariants:
    def test_constant_state_is_a_fixed_point(self):
        params = GasParams(eps=0.01)
        end = uniform_end()
        grid = Grid1D(40.0, 100)
        state0 = constant_state(grid, end)
        res = run(params, end, grid, state0, 2.0)
        np.testing.assert_array_equal(res.state.rho, state0.rho)
        np.testing.assert_array_equal(res.state.u, state0.u)
        np.testing.assert_array_equal(res.state.theta, state0.theta)
        np.testing.assert_array_equal(res.state.E, 0.0)
        np.testing.assert_array_equal(res.state.b, 0.0)

    def test_zero_field_stays_zero_under_fluid_motion(self):
        params = GasParams(eps=0.01)
        end = uniform_end()
        grid = Grid1D(40.0, 100)
        state0 = constant_state(grid, end)
        state0.u += -0.05 * bump(grid.x, 15.0, 6.0)
        state0.u[0], state0.u[-1] = end.u_minus, end.u_plus
        res = run(params, end, grid, state0, 2.0)
        np.testing.assert_array_equal(res.state.E, 0.0)
        np.testing.assert_array_equal(res.state.b, 0.0)

    def test_freeze_fluid_pins_the_fluid_block(self):
        params = GasParams(eps=0.01)
        end = uniform_end()
        grid = Grid1D(40.0, 100)
        state0 = constant_state(grid, end)
        state0.E += bump(grid.x, 20.0, 8.0)
        cfg = SolverConfig(freeze_fluid=True)
        res = run(params, end, grid, state0, 1.0, cfg)
        np.testing.assert_array_equal(res.state.rho, state0.rho)
        np.testing.assert_array_equal(res.state.u, state0.u)
        np.testing.assert_array_equal(res.state.theta, state0.theta)

    def test_exact_relaxation_of_uniform_field(self):
        # decoupled + exact: E(t) = E(0) e^(-t/eps) to rounding, b frozen
        params = GasParams(eps=0.01)
        end = uniform_end()
        grid = Grid1D(40.0, 64)
        state0 = constant_state(grid, end)
        E0 = 0.3 * bump(grid.x, 20.0, 10.0)
        state0.E += E0
        cfg = SolverConfig(maxwell_mode="decoupled", freeze_fluid=True)
        res = run(params, end, grid, state0, 0.05, cfg)
        expected = E0 * math.exp(-0.05 / 0.01)
        np.testing.assert_allclose(res.state.E, expected, atol=1e-15)
        np.testing.assert_array_equal(res.state.b, state0.b)


@pytest.fixture(scope="module")
def layer_setup():
    """Supersonic layer background with a field bump, eps below the bound."""
    params = GasParams(eps=0.002)
    far = (1.0, -2.0, 1.0)
    data = boundary_data_for_strength(params, far, 0.1)
    layer = construct_layer(params, far, data)
    end = EndStates(u_minus=data[0], theta_minus=data[1], rho_plus=1.0,
                    u_plus=-2.0, theta_plus=1.0)
    grid = Grid1D(40.0, 200)
    rho, u, th = layer.eval(grid.x)
    state0 = FieldState(np.asarray(rho), np.asarray(u), np.asarray(th),
                        0.1 * bump(grid.x, 10.0, 4.0), np.zeros(grid.n_nodes))
    return params, end, grid, layer, state0


class TestFullRuns:
    def test_boundary_identity_is_bitwise_zero(self, layer_setup):
        params, end, grid, _, state0 = layer_setup
        res = run(params, end, grid, state0.copy(), 2.0, record_dt=0.25)
        assert len(res.records) == 9
        for rec in res.records:
            assert rec["boundary_identity"] == 0.0

    def test_mass_audit_is_at_rounding_level(self, layer_setup):
        params, end, grid, _, state0 = layer_setup
        res = run(params, end, grid, state0.copy(), 2.0)
        assert res.mass_residual_max < 1e-10

    def test_cfl_margin_never_exceeds_one(self, layer_setup):
        params, end, grid, _, state0 = layer_setup
        res = run(params, end, grid, state0.copy(), 2.0)
        assert res.cfl_margin_max <= 1.0 + 1e-9
        assert res.dt_min > 0.0 and res.dt_max_used >= res.dt_min

    def test_records_land_on_the_requested_grid(self, layer_setup):
        params, end, grid, _, state0 = layer_setup
        res = run(params, end, grid, state0.copy(), 2.0, record_dt=0.5)
        assert [r["t"] for r in res.records] == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_snapshots_land_exactly(self, layer_setup):
        params, end, grid, _, state0 = layer_setup
        res = run(params, end, grid, state0.copy(), 2.0,
                  snapshot_times=(0.7, 1.4))
        assert [t for t, _ in res.snapshots] == [0.7, 1.4]
        for _, snap in res.snapshots:
            assert np.all(np.isfinite(snap.rho))

    def test_march_is_deterministic(self, layer_setup):
        params, end, grid, _, state0 = layer_setup
        r1 = run(params, end, grid, state0.copy(), 1.0)
        r2 = run(params, end, grid, state0.copy(), 1.0)
        for name in ("rho", "u", "theta", "E", "b"):
            np.testing.assert_array_equal(getattr(r1.state, name),
                                          getattr(r2.state, name))

    def test_steady_state_drift_shrinks_with_resolution(self, layer_setup):
        # first-order upwind convection: the discrete steady state sits
        # O(dx) away from the sampled profile, so halving dx roughly halves
        # the drift
        params, end, _, layer, _ = layer_setup
        drift = {}
        for n in (100, 200):
            grid = Grid1D(40.0, n)
            rho, u, th = layer.eval(grid.x)
            s0 = FieldState(np.asarray(rho), np.asarray(u), np.asarray(th),
                            np.zeros(grid.n_nodes), np.zeros(grid.n_nodes))
            res = run(params, end, grid, s0, 15.0)
            _, u_ref, _ = layer.eval(grid.x)
            drift[n] = float(np.max(np.abs(res.state.u - u_ref)))
        assert 1.4 < drift[100] / drift[200] < 3.0


class TestFailureModes:
    def test_positivity_loss_raises_instead_of_clipping(self):
        params = GasParams(eps=0.01)
        end = uniform_end()
        grid = Grid1D(40.0, 64)
        state0 = constant_state(grid, end)
        state0.theta[30] = -0.2
        with pytest.raises(PositivityError):
            run(params, end, grid, state0, 1.0)

    def test_non_finite_field_is_caught_where_it_appears(self):
        params = GasParams(eps=0.01)
        end = uniform_end()
        grid = Grid1D(40.0, 64)
        state0 = constant_state(grid, end)
        state0.E[30] = np.nan
        with pytest.raises(SolverError, match=r"^E became non-finite at "
                                              r"t = 0 \(step 0\)"):
            run(params, end, grid, state0, 1.0)

    def test_state_grid_mismatch(self):
        params = GasParams()
        end = uniform_end()
        state0 = constant_state(Grid1D(40.0, 64), end)
        with pytest.raises(SolverError):
            run(params, end, Grid1D(40.0, 100), state0, 1.0)

    def test_bad_final_time(self):
        params = GasParams(eps=0.01)
        end = uniform_end()
        grid = Grid1D(40.0, 64)
        with pytest.raises(SolverError):
            run(params, end, grid, constant_state(grid, end), -1.0)

    def test_snapshot_time_outside_run_rejected(self):
        params = GasParams(eps=0.01)
        end = uniform_end()
        grid = Grid1D(40.0, 64)
        with pytest.raises(SolverError):
            run(params, end, grid, constant_state(grid, end), 1.0,
                snapshot_times=(2.0,))

    def test_records_follow_record_dt_not_snapshot_times(self):
        params = GasParams(eps=0.01)
        end = uniform_end()
        grid = Grid1D(40.0, 64)
        res = run(params, end, grid, constant_state(grid, end), 2.0,
                  record_dt=0.5, snapshot_times=(0.7,))
        assert [r["t"] for r in res.records] == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert [t for t, _ in res.snapshots] == [0.7]

    def test_record_next_to_a_snapshot_lands_on_it(self):
        # 3 * 0.1 = 0.30000000000000004 must not cost a 5.6e-17 step
        params = GasParams(eps=0.01)
        end = uniform_end()
        grid = Grid1D(40.0, 64)
        res = run(params, end, grid, constant_state(grid, end), 1.0,
                  record_dt=0.1, snapshot_times=(0.3,))
        assert res.dt_min > 1e-6
        assert len(res.records) == 11
        assert [t for t, _ in res.snapshots] == [0.3]

    def test_dielectric_warning_above_bound(self):
        params = GasParams(eps=1.0)       # far above the threshold
        end = uniform_end()
        grid = Grid1D(40.0, 64)
        with pytest.warns(UserWarning, match="dielectric"):
            res = run(params, end, grid, constant_state(grid, end), 0.5)
        assert res.warnings and "dielectric" in res.warnings[0]


class TestStepControls:
    def test_dt_max_is_honored(self):
        params = GasParams(eps=0.01)
        end = uniform_end()
        grid = Grid1D(40.0, 64)
        cfg = SolverConfig(dt_max=1e-3)
        res = run(params, end, grid, constant_state(grid, end), 0.1, cfg)
        assert res.dt_max_used <= 1e-3 + 1e-15

    def test_field_speed_enters_the_full_cfl(self):
        params = GasParams(eps=1e-4)
        end = uniform_end()
        grid = Grid1D(40.0, 64)
        state = constant_state(grid, end)
        dt_full = cfl_dt(params, end, grid, state, SolverConfig())
        dt_dec = cfl_dt(params, end, grid, state,
                        SolverConfig(maxwell_mode="decoupled"))
        assert dt_full < dt_dec


class TestSerialization:
    def test_snapshot_round_trip_is_bitwise(self, layer_setup, tmp_path):
        params, end, grid, _, state0 = layer_setup
        res = run(params, end, grid, state0.copy(), 0.5)
        path = tmp_path / "snap.csv"
        write_snapshot_csv(path, grid, res.t_final, res.state)
        t, x, state = read_snapshot_csv(path)
        assert t == res.t_final
        np.testing.assert_array_equal(x, grid.x)
        for name in ("rho", "u", "theta", "E", "b"):
            np.testing.assert_array_equal(getattr(state, name),
                                          getattr(res.state, name))

    def test_identical_runs_write_identical_files(self, layer_setup, tmp_path):
        params, end, grid, _, state0 = layer_setup
        paths = []
        for tag in ("a", "b"):
            res = run(params, end, grid, state0.copy(), 0.5)
            path = tmp_path / f"snap_{tag}.csv"
            write_snapshot_csv(path, grid, res.t_final, res.state)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
