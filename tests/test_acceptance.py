"""End-to-end quality gate: one test per advertised guarantee.

Each check prints a single summary line with the deciding numbers; run

    pytest tests/test_acceptance.py -v -s

to see those lines next to the pass/fail status.  The composite desk run
(a full-resolution march plus its quiet reference and a bitwise duplicate)
is shared by the perturbation-decay and audit checks through a module
fixture.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import (cq_constant, exact_fan_profile, from_riemann,
                     poincare_check, rarefaction_decay_check, sobolev_check,
                     to_riemann)
from outflow1d.config import ScenarioConfig
from outflow1d.gas import EndStates, GasParams, dielectric_bound
from outflow1d.layer import (construct_layer, find_M0, layer_ode_rhs,
                             measure_decay)
from outflow1d.rarefaction import BurgersWave, R3Curve
from outflow1d.scenarios import prepare_scenario
from outflow1d.solver import FieldState, Grid1D, run

# independently derived value of 1 / (64 * (1 + sqrt(2))) at 30 digits
CBAR_UNIT = 6.47208691207961e-3

STD = dict(R=1.0, gamma=5.0 / 3.0, mu=1.0, kappa=1.0)


def check(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def test_01_riemann_round_trips_are_exact():
    rng = np.random.default_rng(108)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        params = GasParams(**STD, eps=float(10.0 ** rng.uniform(-6.0, 3.0)))
        E = rng.uniform(-1e6, 1e6, 100)
        b = rng.uniform(-1e6, 1e6, 100)
        pair = to_riemann(params, E, b)
        E2, b2 = from_riemann(params, pair.W1, pair.W2)
        se = params.sqrt_eps
        num = np.maximum(se * np.abs(E2 - E), np.abs(b2 - b))
        den = np.maximum(se * np.abs(E), np.abs(b))
        worst = max(worst, float(np.max(num / den)))
    elapsed = time.perf_counter() - t0
    check("riemann round trips", worst <= 1e-14 and elapsed < 1.0,
          f"worst characteristic-norm error {worst:.3e} over 10^4 samples "
          f"(tol 1e-14), {elapsed:.3f}s (< 1s)")


def test_02_smoothing_normalization_constants():
    t0 = time.perf_counter()
    c1 = cq_constant(1.0)
    c2 = cq_constant(2.0)
    elapsed = time.perf_counter() - t0
    err = max(abs(c1 - 1.0), abs(c2 - 0.5))
    check("smoothing normalization", err <= 1e-10 and elapsed < 1.0,
          f"C(1)={c1:.15g}, C(2)={c2:.15g}, max error {err:.3e} "
          f"(tol 1e-10), {elapsed:.3f}s (< 1s)")


def test_03_dielectric_bound_unit_case():
    params = GasParams(R=1.0, gamma=2.0, mu=1.0, kappa=1.0, eps=1.0)
    end = EndStates(u_minus=-1.0, theta_minus=1.0,
                    rho_plus=1.0, u_plus=-1.0, theta_plus=1.0)
    c_bar = dielectric_bound(params, end)
    formula = 1.0 / (64.0 * 1.0 * (1.0 + math.sqrt(2.0)))
    rel_formula = abs(c_bar - formula) / formula
    rel_frozen = abs(c_bar - CBAR_UNIT) / CBAR_UNIT
    ok = math.isfinite(c_bar) and rel_formula <= 1e-15 and rel_frozen <= 1e-15
    check("dielectric bound unit case", ok,
          f"c_bar={c_bar:.17g}, vs formula {rel_formula:.2e}, "
          f"vs frozen value {rel_frozen:.2e} (tol 1e-15)")


def test_04_supersonic_layer_quality():
    t0 = time.perf_counter()
    params = GasParams(**STD, eps=1.0)
    far = (1.0, -2.0, 1.0)
    # slow eigenvector of [[-1.5, 1], [1, -3]] is (2, 1)/3 in the 1-norm
    data = (-2.0 - 0.1 * 2.0 / 3.0, 1.0 - 0.1 / 3.0)
    layer = construct_layer(params, far, 0.1)

    xs = np.linspace(0.0, 12.0, 12001)
    _, u, theta = layer.eval(xs)
    du_num = np.gradient(u, xs)
    dth_num = np.gradient(theta, xs)
    du_ode, dth_ode = layer_ode_rhs(params, far, u, theta)
    interior = slice(1, -1)          # one-sided edges are first order
    resid = max(float(np.max(np.abs(du_num - du_ode)[interior])),
                float(np.max(np.abs(dth_num - dth_ode)[interior])))

    _, u0, th0 = layer.eval(0.0)
    gap = max(abs(float(u0) - data[0]), abs(float(th0) - data[1]))

    fit = measure_decay(layer, "u")
    rate_ok = fit["kind"] == "exponential" and abs(fit["rate"] + 1.0) <= 0.1
    elapsed = time.perf_counter() - t0

    ok = resid <= 1e-6 and gap <= 1e-8 and rate_ok and elapsed < 5.0
    check("supersonic layer quality", ok,
          f"ODE residual {resid:.3e} (tol 1e-6), boundary gap {gap:.3e} "
          f"(tol 1e-8), tail rate {fit['rate']:.5f} (within 10% of -1), "
          f"{elapsed:.2f}s (< 5s)")


def test_05_degenerate_layer_algebraic_tail():
    t0 = time.perf_counter()
    params = GasParams(**STD, eps=1.0)
    far = (1.0, -1.0, 0.6)
    layer = construct_layer(params, far, 0.05, "degenerate")
    data = (layer.u[0], layer.theta[0])
    assert data[0] == pytest.approx(-1.0 - 0.05 * 5.0 / 7.0, rel=1e-12)
    assert data[1] == pytest.approx(0.6 - 0.05 * 2.0 / 7.0, rel=1e-12)

    mask = (layer.x >= 50.0) & (layer.x <= 5000.0)
    dev = np.abs(layer.u[mask] - layer.u_far)
    slope = float(np.polyfit(np.log(layer.x[mask]), np.log(dev), 1)[0])

    m0 = find_M0(layer, params)
    du, dth = layer_ode_rhs(params, far, layer.u, layer.theta)
    tail = layer.x >= m0
    monotone = float(min(du[tail].min(), dth[tail].min()))
    elapsed = time.perf_counter() - t0

    ok = (layer.x_max >= 1.9e4
          and -1.2 <= slope <= -0.8 and monotone >= -1e-12
          and elapsed < 10.0)
    check("degenerate layer algebraic tail", ok,
          f"log-log slope {slope:.4f} over x in [50, 5000] "
          f"(window [-1.2, -0.8]), slopes >= {monotone:.2e} beyond "
          f"x={m0:.2f}, reach {layer.x_max:.3g}, {elapsed:.2f}s (< 10s)")


def test_06_fan_slope_decay_rates():
    t0 = time.perf_counter()
    params = GasParams(**STD, eps=1.0)
    wave = BurgersWave(0.5, 3.0, math.e)
    report = rarefaction_decay_check(params, wave)
    sup, l2 = report["sup"], report["l2"]
    elapsed = time.perf_counter() - t0
    span_ok = report["times"].min() == 1.0 and report["times"].max() == 100.0
    ok = (sup["passed"] and l2["passed"] and span_ok
          and -1.15 <= sup["fitted"] <= -0.85
          and -0.575 <= l2["fitted"] <= -0.425
          and elapsed < 30.0)
    check("fan slope decay rates", ok,
          f"sup slope {sup['fitted']:.5f} (window [-1.15, -0.85]), "
          f"L2 slope {l2['fitted']:.5f} (window [-0.575, -0.425]) "
          f"over t in [1, 100], {elapsed:.2f}s (< 30s)")


def test_07_fan_left_edge_constancy():
    params = GasParams(**STD, eps=1.0)
    plus = (1.0, -0.15, 1.0)
    curve = R3Curve(params, *plus)
    left = curve.state_at_theta(0.9)
    w_minus = left[1] + math.sqrt(params.R * params.gamma * left[2])
    wave = BurgersWave(w_minus, curve.w_plus - w_minus, 0.1)

    worst = 0.0
    for t in (0.0, 1.0, 5.0, 20.0, 100.0):
        xs = np.linspace(0.0, w_minus * (1.0 + t), 400)
        for rho, u, theta in (curve.state_from_w(wave.eval(xs, 1.0 + t)[0]),
                              exact_fan_profile(params, curve, wave, xs, t)):
            worst = max(worst,
                        float(np.max(np.abs(rho - left[0]))),
                        float(np.max(np.abs(u - left[1]))),
                        float(np.max(np.abs(theta - left[2]))))
    check("fan left-edge constancy", worst <= 1e-12,
          f"max deviation from the left state {worst:.3e} for "
          f"x <= (u+c)(1+t) at five times (tol 1e-12)")


@pytest.fixture(scope="module")
def composite_runs():
    """Full-resolution composite desk run, its quiet reference, and a
    bitwise duplicate; shared by the decay and audit checks."""
    cfg = ScenarioConfig(scenario="superposition_stability")
    t0 = time.perf_counter()

    def march(config):
        prep = prepare_scenario(config)
        records = []

        def recorder(t, state, _):
            rho, u, theta = prep.background.eval(prep.grid.x, t)
            sup_fluid = max(float(np.max(np.abs(state.rho - rho))),
                            float(np.max(np.abs(state.u - u))),
                            float(np.max(np.abs(state.theta - theta))))
            sup_field = max(float(np.max(np.abs(state.E))),
                            float(np.max(np.abs(state.b))))
            identity = float(prep.params.sqrt_eps * state.E[0] - state.b[0])
            records.append({"t": t, "state": state.copy(),
                            "sup_fluid": sup_fluid, "sup_field": sup_field,
                            "boundary_identity": identity})

        result = run(prep.params, prep.end, prep.grid, prep.state0,
                     cfg.t_final, prep.solver_config,
                     record_dt=prep.record_dt, recorder=recorder)
        return result, records

    result, records = march(cfg)
    _, ref_records = march(replace(cfg, amplitude=0.0))
    dup_result, dup_records = march(cfg)
    runtime = time.perf_counter() - t0
    return {"result": result, "records": records,
            "ref_records": ref_records, "dup_result": dup_result,
            "dup_records": dup_records, "runtime": runtime}


def test_08_composite_perturbation_decay(composite_runs):
    records = composite_runs["records"]
    ref = composite_runs["ref_records"]
    runtime = composite_runs["runtime"]

    fluid0 = records[0]["sup_fluid"]
    fluidT = records[-1]["sup_fluid"]
    floor = ref[-1]["sup_fluid"]
    field0 = records[0]["sup_field"]
    fieldT = records[-1]["sup_field"]
    boundary_worst = max(abs(r["boundary_identity"]) for r in records)

    ok = (fluidT <= max(0.2 * fluid0, 1.5 * floor)
          and fieldT <= 0.1 * field0
          and boundary_worst == 0.0
          and runtime <= 300.0)
    check("composite perturbation decay", ok,
          f"sup fluid {fluid0:.3e} -> {fluidT:.3e} "
          f"(allowed max(0.2*initial, 1.5*{floor:.3e})), "
          f"sup field {field0:.3e} -> {fieldT:.3e} (allowed 10%), "
          f"boundary identity max {boundary_worst:.1e} (exact), "
          f"all three marches {runtime:.1f}s (< 300s)")


def test_09_decoupled_field_relaxation():
    # the full scheme on data that decouple the field: a uniform E with
    # b = 0 feels no transport and no Lorentz force, so in the interior the
    # coupled march must reduce to the exact relaxation factors; boundary
    # values travel at most two nodes per step (one per Heun stage) plus the
    # node the boundary copy reads, so the reach keeps one node to spare
    params = GasParams(**STD, eps=0.01)
    end = EndStates(u_minus=-0.5, theta_minus=1.0,
                    rho_plus=1.0, u_plus=-0.5, theta_plus=1.0)
    grid = Grid1D(40.0, 256)
    n = grid.n_nodes
    state0 = FieldState(np.ones(n), np.full(n, -0.5), np.ones(n),
                        np.full(n, 0.5), np.zeros(n))
    result = run(params, end, grid, state0, 0.05)
    reach = 2 * result.steps + 2
    inner = slice(reach + 1, n - reach - 1)
    expected = 0.5 * math.exp(-0.05 / 0.01)
    rel = float(np.max(np.abs(result.state.E[inner] - expected))) / expected
    b_zero = not result.state.b[inner].any()
    check("field relaxation in the full scheme", rel <= 1e-15 and b_zero,
          f"E vs 0.5 exp(-t/eps) relative error {rel:.3e} over five "
          f"relaxation times at nodes {inner.start}..{inner.stop - 1} "
          f"({result.steps} steps, tol 1e-15), b exactly 0 there: {b_zero}")


def test_10_mass_audit_and_determinism(composite_runs):
    result = composite_runs["result"]
    records = composite_runs["records"]
    dup = composite_runs["dup_result"]
    dup_records = composite_runs["dup_records"]

    budget = 1e-6 * abs(1.0 * -0.15)     # 1e-6 |rho_+ u_+|
    mass_ok = result.mass_residual_max <= budget

    identical = (result.steps == dup.steps
                 and len(records) == len(dup_records))
    for ra, rb in zip(records, dup_records):
        identical &= ra["t"] == rb["t"]
        identical &= bool(np.array_equal(ra["state"].data, rb["state"].data))
    check("mass audit and determinism", mass_ok and identical,
          f"mass residual max {result.mass_residual_max:.3e} "
          f"(tol {budget:.1e}), duplicate run states bit-identical "
          f"at all {len(records)} record times: {identical}")


def test_11_interpolation_inequalities():
    rng = np.random.default_rng(2024)
    x = np.arange(0.0, 60.0 + 1e-9, 0.01)
    failures = 0
    worst = 0.0
    for _ in range(1000):
        f = np.zeros_like(x)
        fx = np.zeros_like(x)
        for _ in range(int(rng.integers(1, 4))):
            a = float(rng.uniform(0.2, 2.0) * rng.choice((-1.0, 1.0)))
            c = float(rng.uniform(5.0, 35.0))
            s = float(rng.uniform(0.3, 2.0))
            g = a * np.exp(-0.5 * ((x - c) / s) ** 2)
            f += g
            fx += -(x - c) / s ** 2 * g
        sob = sobolev_check(x, f, fx)
        poi = poincare_check(x, f, fx)
        failures += (not sob["passed"]) + (not poi["passed"])
        worst = max(worst, sob["violation"], poi["max_violation"])
    check("interpolation inequalities", failures == 0,
          f"0 of 2000 checks violated on 1000 random fields "
          f"(worst excess {worst:.3e}, slack 1e-10)"
          if failures == 0 else f"{failures} violations, worst {worst:.3e}")
