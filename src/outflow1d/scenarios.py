"""Experiment drivers: build a configured run, march it, judge it, file it.

Each scenario turns a ScenarioConfig into concrete objects (end states,
background profile, initial data), optionally time-marches the solver, and
emits a fixed set of artifacts into the output directory:

    config.echo        materialized configuration (reparseable)
    verdict.txt        PASS / FAIL / INCONCLUSIVE plus the deciding numbers
    diagnostics.csv    one row per record (solver scenarios)
    snapshot_*.csv     initial/final fields at 17 significant digits
    plots/*.dat        two-column gnuplot traces described in MANIFEST.txt
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .config import ScenarioConfig, echo_config, load_config
from .diagnostics import (Perturbation, fit_convergence, record_from_state,
                          write_diag_csv)
from .gas import EndStates, GasParams, classify_regime, dielectric_bound, \
    sound_speed
from .layer import boundary_data_for_strength, construct_layer, \
    export_csv, find_M0, measure_decay
from .rarefaction import BurgersWave, R3Curve, r3_connect, \
    rarefaction_decay_check, superpose
from .reduced import format_case_table, reduce_case, closed_form_b, \
    verify_reduction
from .solver import FieldState, Grid1D, SolverConfig, default_domain_length, \
    run, write_snapshot_csv

__all__ = ["ScenarioError", "PreparedRun", "prepare_scenario",
           "run_scenario", "run_batch"]


class ScenarioError(RuntimeError):
    """A config is valid but the requested objects cannot be built."""


@dataclass
class PreparedRun:
    """Everything a solver scenario needs to march."""

    params: GasParams
    end: EndStates
    grid: Grid1D
    background: object                # eval(x, t) -> (rho, u, theta)
    state0: FieldState
    solver_config: SolverConfig
    record_dt: float
    meta: dict


def _resolve_eps(cfg: ScenarioConfig, params0: GasParams,
                 end: EndStates) -> float:
    if cfg.eps is not None:
        return cfg.eps
    bound = dielectric_bound(params0, end)
    if bound.unbounded:
        raise ScenarioError("dielectric bound is unbounded; set eps explicitly")
    return cfg.eps_fraction * bound.c_bar


def _pin_boundary(params: GasParams, end: EndStates,
                  state: FieldState) -> None:
    """Make node 0 exactly compatible with the boundary conditions."""
    state.u[0] = end.u_minus
    state.theta[0] = end.theta_minus
    state.b[0] = params.sqrt_eps * state.E[0]


def _apply_perturbation(cfg: ScenarioConfig, grid: Grid1D, state: FieldState,
                        params: GasParams, end: EndStates) -> dict:
    """Add the configured bumps, then pin the boundary node."""
    targets = cfg.target_list()
    center = cfg.center
    signs = {name: 1.0 for name in ("rho", "u", "theta", "em")}
    if cfg.seed is not None:
        rng = np.random.default_rng(cfg.seed)
        center = cfg.center + rng.uniform(-cfg.width / 4.0, cfg.width / 4.0)
        for name in ("rho", "u", "theta", "em"):   # fixed draw order
            signs[name] = float(rng.choice((-1.0, 1.0)))

    bump = Perturbation(cfg.amplitude, center, cfg.width, cfg.shape)
    profile = bump.profile(grid.x)
    for name in targets:
        if name == "em":
            # equal-speed pair: a packet on the outgoing characteristic only
            state.E += signs["em"] * profile / params.sqrt_eps
            state.b += signs["em"] * profile
        else:
            getattr(state, name)[:] += signs[name] * profile

    _pin_boundary(params, end, state)
    return {"center": center, "signs": {k: signs[k] for k in targets}}


def _check_compatibility(params: GasParams, end: EndStates,
                         state: FieldState) -> None:
    tol = 1e-14
    errs = []
    if abs(state.u[0] - end.u_minus) > tol * max(1.0, abs(end.u_minus)):
        errs.append("u(0) does not match the boundary value")
    if abs(state.theta[0] - end.theta_minus) > tol * max(1.0, end.theta_minus):
        errs.append("theta(0) does not match the boundary value")
    if abs(params.sqrt_eps * state.E[0] - state.b[0]) > tol * max(
            1.0, abs(state.b[0])):
        errs.append("sqrt(eps) E(0) and b(0) disagree")
    if errs:
        raise ScenarioError("incompatible initial data: " + "; ".join(errs))


def _state_from_background(grid: Grid1D, background) -> FieldState:
    rho, u, theta = (np.array(v, dtype=float)
                     for v in background.eval(grid.x, 0.0))
    return FieldState(rho, u, theta, np.zeros(grid.n_nodes),
                      np.zeros(grid.n_nodes))


def _finish_prepared(cfg, params, end, background, meta) -> PreparedRun:
    length = cfg.length
    if length is None:
        length = default_domain_length(params, end, cfg.t_final)
    grid = Grid1D(length, cfg.n_cells)
    state0 = _state_from_background(grid, background)
    meta["perturbation"] = _apply_perturbation(cfg, grid, state0, params, end)
    _check_compatibility(params, end, state0)
    record_dt = cfg.record_dt if cfg.record_dt is not None else cfg.t_final / 50.0
    return PreparedRun(params=params, end=end, grid=grid,
                       background=background, state0=state0,
                       solver_config=SolverConfig(
                           cfl_factor=cfg.cfl_factor, dt_max=cfg.dt_max),
                       record_dt=record_dt, meta=meta)


def _layer_toward(cfg: ScenarioConfig, params: GasParams, far) -> tuple:
    """Boundary data and stationary layer of strength cfg.delta on
    cfg.layer_branch toward the state far = (rho, u, theta)."""
    branch = None if cfg.layer_branch == "lower" else cfg.layer_branch
    data = boundary_data_for_strength(params, far, cfg.delta, branch=branch)
    layer = construct_layer(params, far, data)
    if not layer.exists:
        raise ScenarioError("no boundary layer exists for this data "
                            f"(strength {cfg.delta:g}, far state {far})")
    return data, layer


def _build_layer_stability(cfg: ScenarioConfig) -> PreparedRun:
    params0 = GasParams(cfg.R, cfg.gamma, cfg.mu, cfg.kappa, eps=1.0)
    far = (cfg.rho_plus, cfg.u_plus, cfg.theta_plus)
    data, layer = _layer_toward(cfg, params0, far)
    end = EndStates(u_minus=data[0], theta_minus=data[1],
                    rho_plus=cfg.rho_plus, u_plus=cfg.u_plus,
                    theta_plus=cfg.theta_plus)
    params = replace(params0, eps=_resolve_eps(cfg, params0, end))
    background = superpose(params, layer, None, None, star=far)
    meta = {"layer": layer, "regime": classify_regime(
        params, cfg.u_plus, cfg.theta_plus).tag}
    return _finish_prepared(cfg, params, end, background, meta)


def _build_rarefaction_stability(cfg: ScenarioConfig) -> PreparedRun:
    params0 = GasParams(cfg.R, cfg.gamma, cfg.mu, cfg.kappa, eps=1.0)
    plus = (cfg.rho_plus, cfg.u_plus, cfg.theta_plus)
    left = r3_connect(params0, plus, cfg.theta_minus)
    w_minus = left[1] + float(sound_speed(params0, left[2]))
    if w_minus < 0:
        raise ScenarioError("fan edge speed is negative; the expansion "
                            "would leave through the boundary")
    end = EndStates(u_minus=left[1], theta_minus=left[2],
                    rho_plus=cfg.rho_plus, u_plus=cfg.u_plus,
                    theta_plus=cfg.theta_plus)
    params = replace(params0, eps=_resolve_eps(cfg, params0, end))
    curve = R3Curve(params, *plus)
    wave = BurgersWave(w_minus, curve.w_plus - w_minus, cfg.alpha, cfg.q)
    background = superpose(params, None, curve, wave, star=left)
    meta = {"left": left, "wave": wave}
    return _finish_prepared(cfg, params, end, background, meta)


def _build_superposition(cfg: ScenarioConfig) -> PreparedRun:
    params0 = GasParams(cfg.R, cfg.gamma, cfg.mu, cfg.kappa, eps=1.0)
    plus = (cfg.rho_plus, cfg.u_plus, cfg.theta_plus)
    star = r3_connect(params0, plus, cfg.theta_star)
    w_star = star[1] + float(sound_speed(params0, star[2]))
    if w_star < 0:
        raise ScenarioError("fan edge speed is negative; lower theta_star "
                            "until the expansion moves into the domain")
    data, layer = _layer_toward(cfg, params0, star)
    end = EndStates(u_minus=data[0], theta_minus=data[1],
                    rho_plus=cfg.rho_plus, u_plus=cfg.u_plus,
                    theta_plus=cfg.theta_plus)
    params = replace(params0, eps=_resolve_eps(cfg, params0, end))
    curve = R3Curve(params, *plus)
    wave = BurgersWave(w_star, curve.w_plus - w_star, cfg.alpha, cfg.q)
    background = superpose(params, layer, curve, wave, star=star)
    meta = {"layer": layer, "star": star, "wave": wave,
            "layer_strength": layer.delta,
            "fan_strength": abs(cfg.u_plus - star[1])
            + abs(cfg.theta_plus - star[2])}
    return _finish_prepared(cfg, params, end, background, meta)


_BUILDERS = {
    "layer_stability": _build_layer_stability,
    "rarefaction_stability": _build_rarefaction_stability,
    "superposition_stability": _build_superposition,
}


def prepare_scenario(cfg: ScenarioConfig) -> PreparedRun:
    """Build the marching problem for a solver-backed scenario."""
    if cfg.scenario not in _BUILDERS:
        raise ScenarioError(f"scenario {cfg.scenario!r} is not solver-backed")
    return _BUILDERS[cfg.scenario](cfg)


# --------------------------------------------------------------------------
# artifact emission
# --------------------------------------------------------------------------

def _write_text(path, text) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _verdict_text(summary: dict) -> str:
    lines = [f"scenario = {summary['scenario']}",
             f"verdict = {summary['verdict']}"]
    for key, val in summary.items():
        if key in ("scenario", "verdict", "out_dir"):
            continue
        if isinstance(val, dict):
            for k2, v2 in val.items():
                if isinstance(v2, (int, float, str)):
                    lines.append(f"{key}.{k2} = {v2}")
        elif isinstance(val, (int, float, str)):
            lines.append(f"{key} = {val}")
        elif isinstance(val, (list, tuple)) and all(
                isinstance(v, str) for v in val):
            lines.append(f"{key} = {'; '.join(val) if val else '(none)'}")
    return "\n".join(lines) + "\n"


def _emit(cfg: ScenarioConfig, out_dir, summary: dict, files: dict,
          plots: dict) -> None:
    """Write config.echo, files (name -> writer(path)), verdict.txt and any
    plots (name -> (description, xs, ys)) with their MANIFEST.txt."""
    os.makedirs(out_dir, exist_ok=True)
    _write_text(os.path.join(out_dir, "config.echo"), echo_config(cfg))
    for name, write in files.items():
        write(os.path.join(out_dir, name))
    _write_text(os.path.join(out_dir, "verdict.txt"), _verdict_text(summary))
    if not plots:
        return
    plot_dir = os.path.join(out_dir, "plots")
    os.makedirs(plot_dir, exist_ok=True)
    manifest = []
    for name, (description, xs, ys) in plots.items():
        with open(os.path.join(plot_dir, name + ".dat"), "w") as fh:
            fh.writelines("%.17g %.17g\n" % xy for xy in zip(xs, ys))
        manifest.append(f"{name}.dat: {description}")
    _write_text(os.path.join(plot_dir, "MANIFEST.txt"),
                "\n".join(manifest) + "\n")


# --------------------------------------------------------------------------
# scenario drivers: each returns (summary, files, plots) for _emit
# --------------------------------------------------------------------------

def _sup_diff(sa, sb) -> tuple:
    """(fluid, field) sup norms of the difference of two states."""
    diff = np.abs(sa.data - sb.data)
    return float(diff[:3].max()), float(diff[3:].max())


def _drive_solver_scenario(cfg: ScenarioConfig, progress: bool) -> tuple:
    """March the perturbed data and, alongside it, a zero-amplitude
    reference with the same background.

    The analytic background is not an exact solution of the discrete
    equations (and the fan part is not an exact solution of the viscous
    equations at all), so both runs share a slowly evolving model/mesh
    drift.  The verdict therefore judges the decay of the perturbed-minus-
    reference difference, which isolates the fate of the injected bump;
    norms against the analytic background are still recorded for the
    diagnostics file.  The reference reuses the prepared background and
    keeps its state at every record for the perturbed march to subtract.
    """
    prep = prepare_scenario(cfg)
    reference, diag_records, rel_fluid, rel_field = [], [], [], []

    def recorder(t, state):
        rec = record_from_state(prep.params, prep.grid, state,
                                prep.background, t)
        diag_records.append(rec)
        if reference:
            fluid, field = _sup_diff(state, reference.pop(0))
            rel_fluid.append(fluid)
            rel_field.append(field)

    t0 = time.perf_counter()
    if cfg.amplitude != 0.0:
        ref0 = _state_from_background(prep.grid, prep.background)
        _pin_boundary(prep.params, prep.end, ref0)
        run(prep.params, prep.end, prep.grid, ref0, cfg.t_final,
            prep.solver_config, record_dt=prep.record_dt,
            recorder=lambda t, state: reference.append(state.copy()),
            progress=progress)
    result = run(prep.params, prep.end, prep.grid, prep.state0, cfg.t_final,
                 prep.solver_config, record_dt=prep.record_dt,
                 recorder=recorder, progress=progress)
    for srec, drec in zip(result.records, diag_records):
        drec.mass_residual = srec["mass_residual"]

    times = [r.t for r in diag_records]
    sup_fluid = [r.sup_fluid for r in diag_records]
    sup_field = [r.sup_field for r in diag_records]

    if cfg.amplitude == 0.0:
        verdict = "PASS"
        fit_rel_fluid = fit_rel_field = {
            "verdict": "PASS", "note": "zero amplitude: nothing to damp"}
        rel_fluid, rel_field = sup_fluid, sup_field
    else:
        fit_rel_fluid = fit_convergence(times, rel_fluid)
        fit_rel_field = fit_convergence(times, rel_field)
        verdicts = (fit_rel_fluid["verdict"], fit_rel_field["verdict"])
        if "FAIL" in verdicts:
            verdict = "FAIL"
        elif "INCONCLUSIVE" in verdicts:
            verdict = "INCONCLUSIVE"
        else:
            verdict = "PASS"
    runtime = time.perf_counter() - t0

    summary = {
        "verdict": verdict,
        "fit_rel_fluid": fit_rel_fluid, "fit_rel_field": fit_rel_field,
        "rel_fluid_initial": rel_fluid[0], "rel_fluid_final": rel_fluid[-1],
        "rel_field_initial": rel_field[0], "rel_field_final": rel_field[-1],
        "sup_fluid_final": sup_fluid[-1], "sup_field_final": sup_field[-1],
        "mass_residual_max": result.mass_residual_max,
        "cfl_margin_max": result.cfl_margin_max,
        "steps": result.steps, "runtime_s": runtime,
        "warnings": list(result.warnings),
    }
    files = {
        "diagnostics.csv": lambda path: write_diag_csv(path, diag_records),
        "snapshot_initial.csv": lambda path: write_snapshot_csv(
            path, prep.grid, 0.0, prep.state0),
        "snapshot_final.csv": lambda path: write_snapshot_csv(
            path, prep.grid, result.t_final, result.state),
    }
    plots = {
        "sup_fluid": ("t  max |phi|, |psi|, |zeta| against the analytic "
                      "background", times, sup_fluid),
        "sup_field": ("t  max |E|, |b|", times, sup_field),
        "rel_fluid": ("t  max fluid difference, perturbed minus reference "
                      "run", times, rel_fluid),
        "rel_field": ("t  max field difference, perturbed minus reference "
                      "run", times, rel_field),
        "energy": ("t  weighted perturbation energy", times,
                   [r.energy for r in diag_records]),
        "profile_u_final": ("x  u at the final time", prep.grid.x,
                            result.state.u),
    }
    return summary, files, plots


def _drive_burgers_decay(cfg: ScenarioConfig) -> tuple:
    params = GasParams(cfg.R, cfg.gamma, cfg.mu, cfg.kappa, eps=1.0)
    wave = BurgersWave(cfg.w_minus, cfg.fan_delta, cfg.alpha, cfg.q)
    check_sup = rarefaction_decay_check(params, wave, math.inf)
    check_l2 = rarefaction_decay_check(params, wave, 2.0)
    verdict = "PASS" if (check_sup["passed"] and check_l2["passed"]) else "FAIL"
    summary = {
        "verdict": verdict,
        "slope_sup": check_sup["fitted"], "expected_sup": check_sup["expected"],
        "slope_l2": check_l2["fitted"], "expected_l2": check_l2["expected"],
    }

    def write_norms(path):
        with open(path, "w") as fh:
            fh.write("t,sup_slope_norm,l2_slope_norm\n")
            for t, vs, v2 in zip(check_sup["times"], check_sup["norms"],
                                 check_l2["norms"]):
                fh.write("%.17g,%.17g,%.17g\n" % (t, vs, v2))

    plots = {
        "slope_sup": ("t  sup norm of the fan velocity slope",
                      check_sup["times"], check_sup["norms"]),
        "slope_l2": ("t  L2 norm of the fan velocity slope",
                     check_l2["times"], check_l2["norms"]),
    }
    return summary, {"decay_norms.csv": write_norms}, plots


def _drive_layer_decay(cfg: ScenarioConfig) -> tuple:
    params = GasParams(cfg.R, cfg.gamma, cfg.mu, cfg.kappa, eps=1.0)
    far = (cfg.rho_plus, cfg.u_plus, cfg.theta_plus)
    _, layer = _layer_toward(cfg, params, far)

    fit_u = measure_decay(layer, "u")
    fit_th = measure_decay(layer, "theta")
    m0 = find_M0(layer, params)

    if layer.case_tag == "transonic_degenerate":
        ok = -1.2 <= fit_u["exponent"] <= -0.8
        detail = {"kind": "algebraic", "exponent": fit_u["exponent"],
                  "window": "[-1.2, -0.8]"}
    else:
        rate = fit_u["rate"]
        lam_slow = float(layer.decay_rate_oracle)   # tail eigenvalue
        ok = (fit_u["kind"] == "exponential"
              and abs(rate - lam_slow) <= 0.1 * abs(lam_slow))
        detail = {"kind": fit_u["kind"], "rate": rate,
                  "rate_oracle": lam_slow}
    summary = {
        "verdict": "PASS" if ok else "FAIL",
        "case_tag": layer.case_tag, "decay_u": detail,
        "decay_theta_kind": fit_th["kind"], "monotone_from": m0,
        "x_max": layer.x_max,
    }
    files = {"layer_profile.csv": lambda path: export_csv(layer, path)}
    plots = {
        "layer_u": ("x  stationary velocity profile", layer.x, layer.u),
        "layer_theta": ("x  stationary temperature profile", layer.x,
                        layer.theta),
    }
    return summary, files, plots


def _drive_reduced_check(cfg: ScenarioConfig) -> tuple:
    params0 = GasParams(cfg.R, cfg.gamma, cfg.mu, cfg.kappa, eps=1.0)
    end = EndStates(u_minus=cfg.u_plus, theta_minus=cfg.theta_plus,
                    rho_plus=cfg.rho_plus, u_plus=cfg.u_plus,
                    theta_plus=cfg.theta_plus)
    params = replace(params0, eps=_resolve_eps(cfg, params0, end))
    model = reduce_case(cfg.case)

    length = cfg.length if cfg.length is not None else 40.0
    grid = Grid1D(length, cfg.n_cells)
    x = grid.x
    n = grid.n_nodes
    amp = cfg.amplitude if cfg.amplitude > 0 else 1e-2
    bump = Perturbation(amp, cfg.center, cfg.width, cfg.shape).profile(x)

    state0 = FieldState(np.full(n, cfg.rho_plus), np.full(n, cfg.u_plus),
                        np.full(n, cfg.theta_plus), np.zeros(n), np.zeros(n))
    if model.system in (2, 3):
        state0.E[:] = amp                    # these systems keep E uniform
    else:
        state0.E[:] = bump
    if model.system in (2, 4):
        state0.b[:] = closed_form_b(x, amp, u0=state0.u, system=model.system,
                                    branch="frozen")
    else:
        state0.b[:] = amp

    report = verify_reduction(params, end, grid, state0, cfg.case,
                              branch=cfg.branch, n_relax=cfg.n_relax)
    summary = {"verdict": "PASS" if report["passed"] else "FAIL",
               "report": report}
    files = {"case_table.txt": lambda path: _write_text(
        path, format_case_table() + "\n")}
    return summary, files, {}


_DRIVERS = {
    "burgers_decay": _drive_burgers_decay,
    "layer_decay": _drive_layer_decay,
    "reduced_model_check": _drive_reduced_check,
}


def run_scenario(cfg: ScenarioConfig, out_dir, progress: bool = False) -> dict:
    """Execute one configured scenario, emitting artifacts into out_dir."""
    if cfg.scenario in _BUILDERS:
        summary, files, plots = _drive_solver_scenario(cfg, progress)
    elif cfg.scenario in _DRIVERS:
        summary, files, plots = _DRIVERS[cfg.scenario](cfg)
    else:
        raise ScenarioError(f"unknown scenario {cfg.scenario!r}")
    summary = {"scenario": cfg.scenario, "out_dir": str(out_dir), **summary}
    summary.setdefault("warnings", [])
    _emit(cfg, out_dir, summary, files, plots)
    return summary


# --------------------------------------------------------------------------
# batches
# --------------------------------------------------------------------------

def _batch_worker(job):
    """Isolated worker: any failure is captured, never propagated."""
    path, out_dir, seed = job
    row = {"config": str(path), "scenario": "", "verdict": "ERROR",
           "out_dir": str(out_dir), "error": ""}
    try:
        cfg = load_config(path)
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        row["scenario"] = cfg.scenario
        summary = run_scenario(cfg, out_dir)
        row["verdict"] = summary["verdict"]
    except Exception as exc:            # noqa: BLE001 - isolation by design
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_batch(config_paths, out_root, workers: int = 2,
              seed: int | None = None) -> list:
    """Run several configs in worker processes; one failure never takes the
    batch down.  Writes out_root/batch_summary.csv and returns the rows."""
    config_paths = [str(p) for p in config_paths]
    os.makedirs(out_root, exist_ok=True)
    jobs = []
    for path in config_paths:
        stem = os.path.splitext(os.path.basename(path))[0]
        jobs.append((path, os.path.join(out_root, stem), seed))

    if workers <= 1:
        rows = [_batch_worker(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_batch_worker, jobs))

    with open(os.path.join(out_root, "batch_summary.csv"), "w") as fh:
        fh.write("config,scenario,verdict,out_dir,error\n")
        for row in rows:
            cells = []
            for key in ("config", "scenario", "verdict", "out_dir", "error"):
                val = str(row[key]).replace("\n", " ")
                cells.append('"%s"' % val if "," in val else val)
            fh.write(",".join(cells) + "\n")
    return rows
