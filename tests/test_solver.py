"""Time marcher: invariants, audits, boundary identity, serialization."""

import math
import re
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import outflow1d._compiled as compiled
import outflow1d.scenarios as scenarios
import outflow1d.solver as solver
from oracles import field_step_norms, read_snapshot_csv, \
    step_spectral_radius
from outflow1d.config import ScenarioConfig, load_config
from outflow1d.gas import EndStates, GasParams
from outflow1d.layer import construct_layer
from outflow1d.scenarios import prepare_scenario
from outflow1d.solver import (FieldState, Grid1D, PositivityError,
                              SolverConfig, SolverError, _check_state,
                              apply_boundary, cfl_dt, run, spatial_rhs, step,
                              write_snapshot_csv)


def uniform_end(u=-0.5, theta=1.0, rho=1.0):
    return EndStates(u_minus=u, theta_minus=theta, rho_plus=rho,
                     u_plus=u, theta_plus=theta)


def constant_state(grid, end):
    n = grid.n_nodes
    return FieldState(np.full(n, end.rho_plus), np.full(n, end.u_plus),
                      np.full(n, end.theta_plus), np.zeros(n), np.zeros(n))


@pytest.fixture
def step_dts(monkeypatch):
    """Every dt that run passes to solver.step, in order."""
    dts = []

    def recording(params, end, grid, state, dt, config):
        dts.append(dt)
        return step(params, end, grid, state, dt, config)

    monkeypatch.setattr(solver, "step", recording)
    return dts


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

    @pytest.mark.parametrize("rows", [
        [np.ones((3, 4))] * 5, [1.0, 1.0, 1.0, 0.0, 0.0]],
        ids=["2-D rows", "scalars"])
    def test_field_state_refuses_rows_that_are_not_1d(self, rows):
        with pytest.raises(ValueError, match=r"shape \(5, n\)"):
            FieldState(*rows)

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
        {"dt_max": -1.0}, {"dt_max": 0.0}, {"dt_max": float("nan")},
    ])
    def test_config_validation(self, kw):
        with pytest.raises(ValueError):
            SolverConfig(**kw)


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

    def test_exact_relaxation_of_uniform_field(self):
        # full scheme: a uniform E with b = 0 has no transport and no Lorentz
        # force, so away from the boundaries E(t) = E(0) e^(-t/eps) to
        # rounding and b stays 0, while the Joule heating E^2 warms the fluid
        params = GasParams(eps=0.01)
        end = uniform_end()
        grid = Grid1D(40.0, 64)
        state0 = constant_state(grid, end)
        state0.E += 0.3
        res = run(params, end, grid, state0, 0.05)
        reach = 2 * res.steps + 2
        inner = slice(reach + 1, grid.n_nodes - reach - 1)
        assert inner.stop - inner.start >= 40
        expected = 0.3 * math.exp(-0.05 / 0.01)
        np.testing.assert_allclose(res.state.E[inner], expected,
                                   rtol=1e-15, atol=0.0)
        np.testing.assert_array_equal(res.state.b[inner], 0.0)
        assert (res.state.theta[inner] > end.theta_plus).all()


@pytest.fixture(scope="module")
def layer_setup():
    """Supersonic layer background with a field bump, eps below the bound."""
    params = GasParams(eps=0.002)
    far = (1.0, -2.0, 1.0)
    layer = construct_layer(params, far, 0.1)
    end = EndStates(u_minus=layer.u[0], theta_minus=layer.theta[0],
                    rho_plus=1.0, u_plus=-2.0, theta_plus=1.0)
    grid = Grid1D(40.0, 200)
    rho, u, th = layer.eval(grid.x)
    state0 = FieldState(np.asarray(rho), np.asarray(u), np.asarray(th),
                        0.1 * bump(grid.x, 10.0, 4.0), np.zeros(grid.n_nodes))
    return params, end, grid, layer, state0


class TestFullRuns:
    def test_boundary_identity_is_bitwise_zero(self, layer_setup):
        params, end, grid, _, state0 = layer_setup
        identity = []
        run(params, end, grid, state0.copy(), 2.0, record_dt=0.25,
            recorder=lambda t, s, _: identity.append(
                params.sqrt_eps * s.E[0] - s.b[0]))
        assert identity == [0.0] * 9

    def test_mass_audit_is_at_rounding_level(self, layer_setup):
        params, end, grid, _, state0 = layer_setup
        res = run(params, end, grid, state0.copy(), 2.0)
        assert res.mass_residual_max < 1e-10

    def test_records_land_on_the_requested_grid(self, layer_setup):
        params, end, grid, _, state0 = layer_setup
        times = []
        run(params, end, grid, state0.copy(), 2.0, record_dt=0.5,
            recorder=lambda t, s, _: times.append(t))
        assert times == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_recorder_sees_each_event_and_the_running_audit(self,
                                                            layer_setup,
                                                            step_dts):
        # events are k * record_dt as computed (3 * 0.3 = 0.8999999999999999);
        # 6 * 0.3 = 1.7999999999999998 is t_final = 1.8 within rounding, so
        # it is no event of its own and costs no 2.2e-16 step
        params, end, grid, _, state0 = layer_setup
        calls = []
        res = run(params, end, grid, state0.copy(), 1.8, record_dt=0.3,
                  recorder=lambda t, s, m: calls.append((t, s.copy(), m)))
        assert [t for t, _, _ in calls] == [k * 0.3 for k in range(6)] + [1.8]
        audit = [m for _, _, m in calls]
        assert audit[0] == 0.0
        assert all(a <= b for a, b in zip(audit, audit[1:]))
        assert audit[-1] == res.mass_residual_max > 0.0
        assert len(step_dts) == res.steps and min(step_dts) > 1e-6
        np.testing.assert_array_equal(calls[-1][1].data, res.state.data)

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

    @pytest.mark.parametrize("name,value", [("b", -math.inf),
                                            ("u", math.inf)])
    def test_infinite_field_is_named(self, name, value):
        params = GasParams(eps=0.01)
        end = uniform_end()
        grid = Grid1D(40.0, 64)
        state0 = constant_state(grid, end)
        getattr(state0, name)[30] = value
        with pytest.raises(SolverError, match=rf"^{name} became non-finite "
                                              r"at t = 0 \(step 0\)"):
            run(params, end, grid, state0, 1.0)

    def test_zero_temperature_at_one_node_raises(self):
        params = GasParams(eps=0.01)
        end = uniform_end()
        grid = Grid1D(40.0, 64)
        state0 = constant_state(grid, end)
        state0.theta[30] = 0.0
        with pytest.raises(PositivityError, match=r"^theta lost positivity"):
            run(params, end, grid, state0, 1.0)

    def test_a_collapsing_step_size_raises(self):
        # a near-vacuum node drives the stable step below DT_FLOOR
        params = GasParams(eps=0.01)
        end = uniform_end()
        grid = Grid1D(40.0, 64)
        state0 = constant_state(grid, end)
        state0.rho[30] = 1e-30
        with pytest.raises(SolverError, match=r"^step size collapsed to "
                                              r"1\.75781e-31 at t = 0$"):
            run(params, end, grid, state0, 1.0)

    def test_mass_is_the_trapezoid_rule(self, composite, layer_setup):
        _, _, layer_grid, _, layer_state = layer_setup
        cases = [(layer_grid, layer_state)] + [
            (composite.grid, state)
            for state in march_states(composite).values()]
        for grid, state in cases:
            want = np.trapezoid(state.rho, dx=grid.dx)
            assert abs(solver._mass(grid, state) - want) <= 4 * np.spacing(
                want)

    def test_large_finite_state_passes_the_check(self):
        # the finiteness test must not sum the block: this one overflows
        state = FieldState.of(np.full((5, 64), 1e307))
        with np.errstate(over="ignore"):
            assert math.isinf(state.data.sum())
        _check_state(state, 0.0, 0)

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

    def test_non_finite_final_time_raises(self):
        # an infinite t_final would march forever, so only nan is run here
        params = GasParams(eps=0.01)
        end = uniform_end()
        grid = Grid1D(40.0, 64)
        with pytest.raises(SolverError, match="finite"):
            run(params, end, grid, constant_state(grid, end), math.nan)

    @pytest.mark.parametrize("record_dt", [0.0, -0.1, math.nan, math.inf])
    def test_bad_record_interval_raises(self, record_dt):
        # 0 and a negative interval would grow the event list forever
        params = GasParams(eps=0.01)
        end = uniform_end()
        grid = Grid1D(40.0, 64)
        with pytest.raises(SolverError, match="record_dt"):
            run(params, end, grid, constant_state(grid, end), 1.0,
                record_dt=record_dt)


class TestStepControls:
    def test_dt_max_is_honored(self, step_dts):
        params = GasParams(eps=0.01)
        end = uniform_end()
        grid = Grid1D(40.0, 64)
        cfg = SolverConfig(dt_max=1e-3)
        res = run(params, end, grid, constant_state(grid, end), 0.1, cfg)
        assert len(step_dts) == res.steps >= 100
        assert max(step_dts) <= 1e-3

    def test_field_speed_enters_the_full_cfl(self):
        # at eps = 1e-4 the field speed 1/sqrt(eps) = 100 outruns the sound
        # speed and the diffusive limit, so it alone sets the step
        params = GasParams(eps=1e-4)
        end = uniform_end()
        grid = Grid1D(40.0, 64)
        dt = cfl_dt(params, end, grid, constant_state(grid, end),
                    SolverConfig())
        assert dt == pytest.approx(0.9 * grid.dx * params.sqrt_eps,
                                   rel=1e-15)


def interior_fluid_sups(cfg, sizes):
    """Sup over the interior nodes of the rho/u/theta tendencies of
    spatial_rhs on cfg's unperturbed initial state, one row per size."""
    rows = []
    for n in sizes:
        prep = prepare_scenario(replace(cfg, n_cells=n, amplitude=0.0))
        tend, _ = spatial_rhs(prep.params, prep.end, prep.grid, prep.state0,
                              prep.solver_config)
        rows.append(np.abs(tend.data[:3, 1:-1]).max(axis=1))
    return np.array(rows)


class TestTruncationOrder:
    def test_exact_steady_layer_shows_first_order(self):
        # the analytic layer solves the steady equations exactly, so the
        # tendencies on it are the truncation error; upwind convection is
        # first order: the sup falls by about 2 per doubling (1.88, 1.85,
        # 1.72 for rho, u, theta at 400 -> 800, then 1.94, 1.93, 1.84)
        cfg = ScenarioConfig(scenario="superposition_stability", u_plus=-2.0,
                             delta=0.1, theta_star=1.0, length=60.0,
                             t_final=40.0)
        sups = interior_fluid_sups(cfg, (200, 400, 800, 1600))
        order = np.log2(sups[:-1] / sups[1:])[-2:]
        assert np.all((0.75 <= order) & (order <= 1.1)), order
        assert np.all(order[1] > order[0]), order

    def test_composite_residual_does_not_shrink(self):
        # the smoothed fan is no solution of the viscous equations: its
        # residual, not the discretization, sets the sup on the composite,
        # flat at 3.29e-3, 4.48e-3, 2.24e-3 from 1000 to 4000 cells
        cfg = ScenarioConfig(scenario="superposition_stability")
        sups = interior_fluid_sups(cfg, (1000, 2000, 4000))
        ratio = sups[:-1] / sups[1:]
        assert np.all((0.99 <= ratio) & (ratio <= 1.01)), ratio


class TestSerialization:
    def test_snapshot_round_trip_is_bitwise(self, layer_setup, tmp_path):
        params, end, grid, _, state0 = layer_setup
        res = run(params, end, grid, state0.copy(), 0.5)
        path = tmp_path / "snap.csv"
        write_snapshot_csv(path, grid, 0.5, res.state)
        t, x, state = read_snapshot_csv(path)
        assert t == 0.5
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
            write_snapshot_csv(path, grid, 0.5, res.state)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


# --------------------------------------------------------------------------
# the explicit stencil as first written: one temporary per term, boundary
# values enforced after every sub-operation of a step.  The solver's leaner
# arithmetic must reproduce it to rounding.
# --------------------------------------------------------------------------

def reference_rhs(params, end, grid, state):
    p, dx = params, grid.dx
    rho, u, th, E, b = state.data
    tend = np.zeros((5, state.n_nodes))
    drho, du, dth, dE, db = tend

    u_half = 0.5 * (u[:-1] + u[1:])
    flux = u_half * np.where(u_half >= 0.0, rho[:-1], rho[1:])
    flux_left = rho[0] * end.u_minus
    drho[1:-1] = -(flux[1:] - flux[:-1]) / dx
    drho[0] = -(flux[0] - flux_left) / (0.5 * dx)

    u_pos = np.maximum(u[1:-1], 0.0)
    u_neg = np.minimum(u[1:-1], 0.0)
    conv_u = (u_pos * (u[1:-1] - u[:-2]) + u_neg * (u[2:] - u[1:-1])) / dx
    pres = p.R * rho * th
    px = (pres[2:] - pres[:-2]) / (2.0 * dx)
    uxx = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
    drive = E + u * b
    du[1:-1] = -conv_u + (-px + p.mu * uxx - drive[1:-1] * b[1:-1]) / rho[1:-1]

    conv_th = (u_pos * (th[1:-1] - th[:-2]) + u_neg * (th[2:] - th[1:-1])) / dx
    ux_c = (u[2:] - u[:-2]) / (2.0 * dx)
    thxx = (th[2:] - 2.0 * th[1:-1] + th[:-2]) / (dx * dx)
    heat = (-pres[1:-1] * ux_c + p.mu * ux_c * ux_c + p.kappa * thxx
            + drive[1:-1] * drive[1:-1])
    dth[1:-1] = -conv_th + (p.gamma - 1.0) / (p.R * rho[1:-1]) * heat

    se = p.sqrt_eps
    w1 = 0.5 * se * (se * E - b)
    w2 = 0.5 * se * (se * E + b)
    t1 = -(w1[1:-1] - w1[:-2]) / (se * dx)
    t2 = (w2[2:] - w2[1:-1]) / (se * dx)
    dE[1:-1] = (t1 + t2) / p.eps - u[1:-1] * b[1:-1] / p.eps
    db[1:-1] = (t2 - t1) / se
    return tend, {"flux_left": flux_left, "flux_right": flux[-1]}


def reference_boundary(params, end, data):
    rho, u, th, E, b = data
    u[0], th[0] = end.u_minus, end.theta_minus
    rho[-1], u[-1], th[-1] = end.rho_plus, end.u_plus, end.theta_plus
    se = params.sqrt_eps
    w2 = 0.5 * se * (se * E[1] + b[1])
    E[0] = w2 / params.eps
    b[0] = se * E[0]
    w1 = 0.5 * se * (se * E[-2] - b[-2])
    E[-1] = w1 / params.eps
    b[-1] = -se * E[-1]


def reference_step(params, end, grid, state, dt):
    decay = math.exp(-dt / (2.0 * params.eps))
    work = state.data.copy()
    work[3] *= decay
    reference_boundary(params, end, work)
    k1, f1 = reference_rhs(params, end, grid, FieldState.of(work))
    stage = work + dt * k1
    reference_boundary(params, end, stage)
    k2, f2 = reference_rhs(params, end, grid, FieldState.of(stage))
    new = work + 0.5 * dt * (k1 + k2)
    reference_boundary(params, end, new)
    new[3] *= decay
    reference_boundary(params, end, new)
    return new, {key: 0.5 * (f1[key] + f2[key]) for key in f1}


def reference_cfl_dt(params, grid, state, config):
    p = params
    c = np.sqrt(p.R * p.gamma * state.theta)
    s_max = max(float(np.max(np.abs(state.u) + c)), 1.0 / p.sqrt_eps)
    diffusivity = max(float(np.max(p.mu / state.rho)),
                      float(np.max(p.kappa * (p.gamma - 1.0)
                                   / (p.R * state.rho))))
    dt = 0.9 * min(grid.dx / s_max, grid.dx * grid.dx / (2.0 * diffusivity))
    if config.dt_max is not None:
        dt = min(dt, config.dt_max)
    return dt


@pytest.fixture(scope="module", params=[401, 2001])
def composite(request):
    """The default composite problem at n nodes."""
    return prepare_scenario(ScenarioConfig(
        scenario="superposition_stability", n_cells=request.param - 1,
        seed=11))


def march_states(prep):
    """The composite initial state, and a perturbed one whose u takes both
    signs, exact zeros at nodes and at faces, and a rough field pair."""
    state = prep.state0.copy()
    n = state.n_nodes
    rng = np.random.default_rng(5)
    state.u += 0.3 * np.sin(np.linspace(0.0, 40.0, n))
    state.u[3::11] = 0.0
    state.u[n // 2], state.u[n // 2 + 1] = 0.2, -0.2     # zero face velocity
    state.E += 0.02 * rng.standard_normal(n)
    state.b += 0.02 * rng.standard_normal(n)
    return {"initial": prep.state0, "perturbed": state}


class TestReferenceStencil:
    @pytest.mark.parametrize("which", ["initial", "perturbed"])
    def test_tendencies_match_row_by_row(self, composite, which):
        prep = composite
        state = march_states(prep)[which]
        got, fluxes = spatial_rhs(prep.params, prep.end, prep.grid, state,
                                  prep.solver_config)
        want, want_fluxes = reference_rhs(prep.params, prep.end, prep.grid,
                                          state)
        assert fluxes == want_fluxes
        for name, g, w in zip(solver.FIELDS, got.data, want):
            scale = np.max(np.abs(w))
            assert np.max(np.abs(g - w)) <= 1e-13 * scale, name
        # boundary nodes carry no tendency, except the evolved rho(0)
        assert np.all(got.data[:, -1] == 0.0)
        assert np.all(got.data[1:, 0] == 0.0)

    @pytest.mark.parametrize("which", ["initial", "perturbed"])
    def test_step_matches(self, composite, which):
        prep = composite
        state = march_states(prep)[which]
        dt = cfl_dt(prep.params, prep.end, prep.grid, state,
                    prep.solver_config)
        new, info = step(prep.params, prep.end, prep.grid, state, dt,
                         prep.solver_config)
        want, want_info = reference_step(prep.params, prep.end, prep.grid,
                                         state, dt)
        assert np.max(np.abs(new.data - want)) <= 1e-13
        for key, value in want_info.items():
            assert abs(info[key] - value) <= 1e-13

    @pytest.mark.parametrize("which", ["initial", "perturbed"])
    @pytest.mark.parametrize("config", [
        SolverConfig(), SolverConfig(dt_max=1e-4)],
        ids=["full", "capped"])       # the bound as computed; dt_max binding
    def test_cfl_dt_is_bitwise(self, composite, which, config):
        prep = composite
        state = march_states(prep)[which]
        args = (prep.params, prep.end, prep.grid, state, config)
        want = reference_cfl_dt(prep.params, prep.grid, state, config)
        assert cfl_dt(*args) == want
        assert cfl_dt(*args, _check_state(state, 0.0, 0)) == want

    def test_cfl_dt_is_bitwise_where_sound_beats_field(self):
        # at eps = 4 the field speed 1/sqrt(eps) = 0.5 is below |u| + c
        # (about 1.8), so the extrema bound fails and the per-node pass runs
        params = GasParams(eps=4.0)
        end = uniform_end()
        grid = Grid1D(40.0, 16)
        state = constant_state(grid, end)
        state.theta += 0.3 * bump(grid.x, 20.0, 16.0)
        state.u -= 0.2 * bump(grid.x, 12.0, 8.0)
        sound = np.abs(state.u) + np.sqrt(params.R * params.gamma
                                          * state.theta)
        assert sound.max() > 1.0 / params.sqrt_eps
        config = SolverConfig()
        want = reference_cfl_dt(params, grid, state, config)
        assert cfl_dt(params, end, grid, state, config) == want
        assert cfl_dt(params, end, grid, state, config,
                      _check_state(state, 0.0, 0)) == want

    def test_perturbed_state_takes_the_general_branches(self, composite):
        states = march_states(composite)
        # every select takes its right operand on the first, both on the
        # second
        assert states["initial"].u.max() < 0.0
        assert states["perturbed"].u.max() >= 0.0

    @pytest.mark.parametrize("which", ["initial", "perturbed"])
    def test_boundary_values_are_bitwise(self, composite, which):
        prep = composite
        state = march_states(prep)[which].copy()
        want = state.data.copy()
        apply_boundary(prep.params, prep.end, state)
        reference_boundary(prep.params, prep.end, want)
        np.testing.assert_array_equal(state.data, want)

    def test_step_enforces_boundaries_twice(self, composite, monkeypatch):
        prep = composite
        calls = []

        def counted(*args):
            calls.append(1)
            apply_boundary(*args)

        monkeypatch.setattr(solver, "apply_boundary", counted)
        state = prep.state0
        for _ in range(2):
            state, _ = step(prep.params, prep.end, prep.grid, state, 1e-3,
                            prep.solver_config)
        assert len(calls) == 4

    @pytest.mark.parametrize("which", ["initial", "perturbed"])
    def test_no_euler_stage_boundary_call_is_bitwise(self, composite, which):
        # the step as it was before: boundary values enforced on the Euler
        # stage too; dropping that call must not move a single bit
        prep = composite
        args = (prep.params, prep.end, prep.grid)
        config = prep.solver_config

        def stage_call_step(state, dt):
            decay = math.exp(-dt / (2.0 * prep.params.eps))
            work = state.copy()
            work.E *= decay
            apply_boundary(prep.params, prep.end, work)
            k1, f1 = spatial_rhs(*args, work, config)
            stage = FieldState.of(work.data + dt * k1.data)
            apply_boundary(prep.params, prep.end, stage)
            k2, f2 = spatial_rhs(*args, stage, config)
            new = FieldState.of(work.data + 0.5 * dt * (k1.data + k2.data))
            new.E *= decay
            apply_boundary(prep.params, prep.end, new)
            return new, {key: 0.5 * (f1[key] + f2[key]) for key in f1}

        got = want = march_states(prep)[which]
        for _ in range(300):
            dt = cfl_dt(*args, got, config)
            got, info = step(*args, got, dt, config)
            want, want_info = stage_call_step(want, dt)
            np.testing.assert_array_equal(got.data, want.data)
            assert info == want_info


# --------------------------------------------------------------------------
# the numpy stencil with a per-entry upwind select at every face and
# interior node, as spatial_rhs computed it before the compiled stencil.
# The compiled stencil must reproduce it bit for bit on any state, and
# cfl_dt must reproduce the full per-node pass of reference_cfl_dt with or
# without the state check's extrema.
# --------------------------------------------------------------------------

def select_rhs(params, end, grid, state, config):
    p = params
    dx = grid.dx
    inv_dx = 1.0 / dx
    rho, u, th, E, b = state.data
    tend = np.zeros(state.data.shape)
    drho, du, dth, dE, db = tend[:, 1:-1]

    u_half = u[:-1] + u[1:]
    u_half *= 0.5
    flux = np.where(u_half >= 0.0, rho[:-1], rho[1:])
    flux *= u_half
    flux_left = rho[0] * end.u_minus
    fluxes = {"flux_left": flux_left, "flux_right": flux[-1]}
    np.subtract(flux[:-1], flux[1:], out=drho)
    drho *= inv_dx
    tend[0, 0] = (flux_left - flux[0]) / (0.5 * dx)

    uc, rc, bc = u[1:-1], rho[1:-1], b[1:-1]
    d_u = u[1:] - u[:-1]
    d_th = th[1:] - th[:-1]
    upwind = uc > 0.0
    u_dx = uc * inv_dx
    r_rho = p.R * rho
    pres = r_rho * th
    ub = uc * bc
    drive = ub + E[1:-1]

    lap = d_u[1:] - d_u[:-1]
    lap *= 2.0 * p.mu * inv_dx
    np.subtract(pres[:-2], pres[2:], out=du)
    du += lap
    du *= 0.5 * inv_dx
    du -= drive * bc
    du /= rc
    conv = np.where(upwind, d_u[:-1], d_u[1:])
    conv *= u_dx
    du -= conv

    ux = u[2:] - u[:-2]
    ux *= 0.5 * inv_dx
    np.multiply(ux, p.mu, out=dth)
    dth -= pres[1:-1]
    dth *= ux
    np.subtract(d_th[1:], d_th[:-1], out=lap)
    lap *= p.kappa * inv_dx * inv_dx
    dth += lap
    dth += drive * drive
    dth *= np.divide(p.gamma - 1.0, r_rho[1:-1])
    conv = np.where(upwind, d_th[:-1], d_th[1:])
    conv *= u_dx
    dth -= conv

    se = p.sqrt_eps
    w2 = se * E
    w1 = w2 - b
    w2 += b
    dw1 = w1[1:-1] - w1[:-2]
    dw2 = w2[2:] - w2[1:-1]
    np.subtract(dw2, dw1, out=dE)
    dE *= 0.5 * inv_dx
    dE -= ub
    dE *= 1.0 / p.eps
    np.add(dw2, dw1, out=db)
    db *= 0.5 * inv_dx / se
    return FieldState.of(tend), fluxes


@pytest.fixture(scope="module")
def layer_stability():
    """configs/layer_stability.cfg, prepared as the scenario runs it."""
    root = Path(__file__).resolve().parent.parent
    return prepare_scenario(load_config(root / "configs"
                                        / "layer_stability.cfg"))


class TestOutflowBranches:
    """The compiled stencil against the numpy oracle select_rhs over
    300-step marches: each state, boundary flux and step size bit for bit,
    from outflow states and from one whose u takes both signs."""

    def march_both(self, prep, state, monkeypatch, outflow):
        args = (prep.params, prep.end, prep.grid)
        config = prep.solver_config
        got = want = state
        assert (state.u.max() < 0.0) == outflow
        for n_step in range(300):
            assert got.u.max() < 0.0 or not outflow
            dt = cfl_dt(*args, got, config, _check_state(got, 0.0, n_step))
            assert dt == cfl_dt(*args, got, config)
            assert dt == reference_cfl_dt(prep.params, prep.grid, want,
                                          config)
            got, info = step(*args, got, dt, config)
            with monkeypatch.context() as m:
                m.setattr(solver, "spatial_rhs", select_rhs)
                want, want_info = step(*args, want, dt, config)
            np.testing.assert_array_equal(got.data, want.data)
            assert info == want_info
            assert all(type(value) is float for value in info.values())

    @pytest.mark.parametrize("which", ["initial", "perturbed"])
    def test_composite_march_is_bitwise(self, composite, which,
                                        monkeypatch):
        self.march_both(composite, march_states(composite)[which],
                        monkeypatch, outflow=which == "initial")

    def test_layer_march_is_bitwise(self, layer_stability, monkeypatch):
        self.march_both(layer_stability, layer_stability.state0,
                        monkeypatch, outflow=True)


def extrapolating_boundary(params, end, state):
    """apply_boundary as it was before: each outgoing field characteristic
    extrapolated linearly (2 w_1 - w_2) from the two nodes next to the
    boundary, in place of the copy from the adjacent node."""
    rho, u, th, E, b = state.data
    u[0], th[0] = end.u_minus, end.theta_minus
    rho[-1], u[-1], th[-1] = end.rho_plus, end.u_plus, end.theta_plus
    se = params.sqrt_eps
    e1, e2, e_2, e_1 = E.item(1), E.item(2), E.item(-3), E.item(-2)
    b1, b2, b_2, b_1 = b.item(1), b.item(2), b.item(-3), b.item(-2)
    w2_ext = 2.0 * (0.5 * se * (se * e1 + b1)) - 0.5 * se * (se * e2 + b2)
    E[0] = e0 = w2_ext / params.eps
    b[0] = se * e0
    w1_ext = 2.0 * (0.5 * se * (se * e_1 - b_1)) - 0.5 * se * (se * e_2 - b_2)
    E[-1] = e_end = w1_ext / params.eps
    b[-1] = -se * e_end


class TestBoundaryField:
    """The march reads the boundary field only through w1(0) and w2(L),
    which are 0 under either closure of the outgoing characteristic, so
    the closure moves the boundary field and nothing else.  What it sets
    is the one-step growth of the field block over every node."""

    def march_both(self, prep, state, monkeypatch):
        """300 steps with the copy and with the extrapolation: each dt,
        boundary flux, fluid row and interior field entry bit for bit.
        Returns the two final states."""
        args = (prep.params, prep.end, prep.grid)
        config = prep.solver_config
        got = want = state
        for _ in range(300):
            dt = cfl_dt(*args, got, config)
            got, info = step(*args, got, dt, config)
            with monkeypatch.context() as m:
                m.setattr(solver, "apply_boundary", extrapolating_boundary)
                assert cfl_dt(*args, want, config) == dt
                want, want_info = step(*args, want, dt, config)
            assert info == want_info
            np.testing.assert_array_equal(got.data[:3], want.data[:3])
            np.testing.assert_array_equal(got.data[3:, 1:-1],
                                          want.data[3:, 1:-1])
        return got, want

    def test_the_extrapolation_moves_only_the_boundary_field(
            self, composite, layer_stability, monkeypatch):
        states = march_states(composite)
        self.march_both(composite, states["initial"], monkeypatch)
        self.march_both(layer_stability, layer_stability.state0, monkeypatch)
        got, want = self.march_both(composite, states["perturbed"],
                                    monkeypatch)
        # the rough field reaches both ends, where the closures differ
        assert (got.data[3:, [0, -1]] != want.data[3:, [0, -1]]).all()

    @pytest.mark.parametrize("name, n_cells", [
        ("layer_stability", 400), ("rarefaction_stability", 300)])
    def test_the_boundary_nodes_add_no_one_step_growth(self, name, n_cells):
        # the extrapolation raised the layer's norm from 1.0006 over the
        # interior to 1.0756 over every node; the copy adds below 1e-5
        root = Path(__file__).resolve().parent.parent
        cfg = replace(load_config(root / "configs" / f"{name}.cfg"),
                      n_cells=n_cells)
        prep = prepare_scenario(cfg)
        state = scenarios._state_from_background(prep.grid, prep.background)
        every, interior = field_step_norms(prep.params, prep.end, prep.grid,
                                           state, prep.solver_config)
        assert every <= interior + 1e-4
        assert abs(interior - 1.0) < 1e-3


class TestSpectralRadius:
    """The spectral radius of the step map at a stationary background
    (the layer): below 1 at cfl_dt's step, and above 1 at a step past the
    scheme's bound, so a cfl_dt that steps too far fails here.  A
    background that moves with t (a fan) has no one step map to certify."""

    @staticmethod
    def radius(prep) -> float:
        state = scenarios._state_from_background(prep.grid, prep.background)
        solver.apply_boundary(prep.params, prep.end, state)
        return step_spectral_radius(prep.params, prep.end, prep.grid, state,
                                    prep.solver_config)

    def test_cfl_dt_is_a_stable_step_on_the_layer(self, layer_stability):
        # the slowest mode decays at -ln(0.999294) / dt = 0.156 per unit t
        radius = self.radius(layer_stability)
        assert radius == pytest.approx(0.999294, abs=1e-6)
        assert radius < 1.0

    def test_a_step_past_the_bound_is_unstable(self, layer_stability,
                                               monkeypatch):
        monkeypatch.setattr(solver, "CFL", 1.5)
        assert self.radius(layer_stability) == pytest.approx(2.489, abs=1e-3)


def bits(a):
    """The IEEE bit patterns of a float64 array: NaNs compare too."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_oracle_bits(params, end, grid, block, nan_sign=True):
    """spatial_rhs on FieldState.of(block) is select_rhs on the block's
    float64 values, bit for bit (with nan_sign false, but for the sign of
    a NaN), and leaves the block as it was."""
    before = np.array(block, copy=True)
    got, fluxes = spatial_rhs(params, end, grid, FieldState.of(block),
                              SolverConfig())
    want, want_fluxes = select_rhs(params, end, grid, FieldState.of(
        np.array(block, dtype=np.float64)), SolverConfig())
    assert all(type(value) is float for value in fluxes.values())
    got = bits(np.append(got.data, list(fluxes.values())))
    want = np.append(want.data, [float(v) for v in want_fluxes.values()])
    sign = np.uint64(0 if nan_sign else 1 << 63) * np.isnan(want)
    np.testing.assert_array_equal(got | sign, bits(want) | sign)
    np.testing.assert_array_equal(bits(block), bits(before))


def rough_block(n, seed):
    """A (5, n) state with u of both signs around positive rho, theta."""
    rng = np.random.default_rng(seed)
    block = rng.uniform(-1.0, 1.0, (5, n))
    block[[0, 2]] = rng.uniform(0.5, 2.0, (2, n))
    return block


class TestCompiledStencil:
    # the stencil reads only grid.dx; Grid1D refuses fewer than 16 cells
    GRID = SimpleNamespace(dx=0.1)

    def test_nan_at_one_node_matches_the_oracle(self, composite):
        prep = composite
        for row in range(5):
            block = prep.state0.data.copy()
            block[row, block.shape[1] // 2] = np.nan
            assert_oracle_bits(prep.params, prep.end, prep.grid, block)

    # every remainder of the vector loop's 2- and 4-lane bodies, and the
    # composite's grid size
    @pytest.mark.parametrize("n", [*range(3, 25), 2001])
    def test_the_loops_edges_match_the_oracle(self, n):
        for seed in range(5):
            assert_oracle_bits(GasParams(), uniform_end(), self.GRID,
                               rough_block(n, seed))

    @pytest.mark.parametrize("row", range(5))
    def test_two_nan_payloads_match_the_oracle(self, row):
        # where np.nan and -np.nan meet in one sum or product, which sign
        # comes out depends on the operand order, which C leaves to the
        # compiler (and each clone orders its own); every other bit holds
        for node in range(1, 22):
            block = rough_block(24, row)
            block[row, node:node + 2] = np.nan, -np.nan
            assert bits(block[row, node]) != bits(block[row, node + 1])
            assert_oracle_bits(GasParams(), uniform_end(), self.GRID, block,
                               nan_sign=False)

    def test_a_non_contiguous_block_matches_the_oracle(self, composite):
        prep = composite
        wide = np.repeat(march_states(prep)["perturbed"].data, 2, axis=1)
        block = wide[:, ::2]
        assert not block.flags.c_contiguous
        assert_oracle_bits(prep.params, prep.end, prep.grid, block)
        assert_oracle_bits(prep.params, prep.end, prep.grid,
                           np.asfortranarray(block))

    def test_an_integer_block_matches_the_oracle(self):
        block = np.rint(4.0 * rough_block(17, 3)).astype(np.int64)
        block[[0, 2]] = np.abs(block[[0, 2]]) + 1
        assert_oracle_bits(GasParams(), uniform_end(), self.GRID, block)

    def test_a_read_only_block_matches_the_oracle(self):
        block = rough_block(17, 4)
        block.flags.writeable = False
        assert_oracle_bits(GasParams(), uniform_end(), self.GRID, block)

    def test_two_nodes_are_refused(self):
        with pytest.raises(ValueError, match="at least 3 nodes"):
            spatial_rhs(GasParams(), uniform_end(), self.GRID,
                        FieldState.of(rough_block(2, 0)), SolverConfig())


class TestStencilBuild:
    def test_the_module_builds_into_the_packages_pycache(self):
        path = Path(compiled._build(compiled._STENCIL_C, compiled._CACHE))
        assert path.is_file()
        assert path.parent == Path(solver.__file__).parent / "__pycache__"
        assert path.name.startswith("_stencil-") and path.suffix == ".so"

    def test_a_second_load_runs_no_compiler(self, tmp_path, monkeypatch):
        compiled._load(compiled._STENCIL_C, tmp_path)
        first = sorted(tmp_path.iterdir())
        assert len(first) == 1

        def no_compiler(*args, **kwargs):
            raise AssertionError("the compiler ran")

        monkeypatch.setattr(compiled.subprocess, "run", no_compiler)
        monkeypatch.setattr(solver, "_outflow_rhs", compiled._load(
            compiled._STENCIL_C, tmp_path).outflow_rhs)
        assert sorted(tmp_path.iterdir()) == first
        assert_oracle_bits(GasParams(), uniform_end(),
                           TestCompiledStencil.GRID, rough_block(17, 1))

    def test_the_default_clone_matches_the_oracle(self, tmp_path,
                                                  monkeypatch):
        # on a CPU with AVX2 the loader picks that clone, so the SSE2 one
        # runs only when the source has no clones at all
        line = '__attribute__((target_clones("avx2", "default")))\n'
        assert compiled._STENCIL_C.count(line) == 1
        monkeypatch.setattr(solver, "_outflow_rhs", compiled._load(
            compiled._STENCIL_C.replace(line, ""), tmp_path).outflow_rhs)
        for n in (*range(3, 12), 2001):
            for seed in range(3):
                assert_oracle_bits(GasParams(), uniform_end(),
                                   TestCompiledStencil.GRID,
                                   rough_block(n, seed))
        for row in range(5):
            block = rough_block(24, row)
            block[row, 11] = np.nan
            assert_oracle_bits(GasParams(), uniform_end(),
                               TestCompiledStencil.GRID, block)

    def test_the_flags_keep_the_bits(self):
        # the cache name hashes the source and the command, not the CPU:
        # a flag that reorders, contracts or targets the build machine
        # would break the oracle or the cache
        assert "-ffp-contract=off" in compiled._CFLAGS
        for flag in ("-ffast-math", "-Ofast", "-funsafe-math-optimizations",
                     "-march=native", "-mfma"):
            assert flag not in compiled._CFLAGS

    def test_an_edited_source_gets_a_new_file(self, tmp_path):
        # the new build removes the earlier one, which no import loads
        first = compiled._build(compiled._STENCIL_C, tmp_path)
        (tmp_path / "kept.pyc").write_bytes(b"")
        edited = compiled._build(compiled._STENCIL_C + "/* edited */\n",
                                 tmp_path)
        assert edited != first
        assert sorted(tmp_path.iterdir()) == [Path(edited),
                                              tmp_path / "kept.pyc"]

    def test_a_failing_compiler_raises_import_error(self, tmp_path):
        cc = [sys.executable, "-c",
              "import sys; sys.stderr.write('no stencil today'); sys.exit(1)"]
        with pytest.raises(ImportError, match="no stencil today"):
            compiled._build(compiled._STENCIL_C, tmp_path, cc)
        with pytest.raises(ImportError, match="error"):   # gcc's own stderr
            compiled._build("not C at all", tmp_path)
        with pytest.raises(ImportError, match="cannot run the C compiler"):
            compiled._build(compiled._STENCIL_C, tmp_path,
                            [str(tmp_path / "no-such-cc")])
        assert not any(tmp_path.iterdir())     # no partial file is left

    def test_no_configured_compiler_raises_import_error(self, tmp_path,
                                                        monkeypatch):
        get = compiled.sysconfig.get_config_var
        monkeypatch.setattr(compiled.sysconfig, "get_config_var",
                            lambda name: None if name == "CC" else get(name))
        with pytest.raises(ImportError,
                           match="^no C compiler: sysconfig has no CC$"):
            compiled._build(compiled._STENCIL_C, tmp_path)
        assert not any(tmp_path.iterdir())

    def test_an_unwritable_cache_raises_import_error(self, tmp_path):
        # a cache path under a regular file cannot be made
        blocker = tmp_path / "file"
        blocker.write_bytes(b"")
        cache = blocker / "__pycache__"
        with pytest.raises(ImportError, match=re.escape(f"build cache {cache}")):
            compiled._build(compiled._STENCIL_C, cache)
