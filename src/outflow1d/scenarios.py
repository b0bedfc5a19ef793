"""Experiment drivers: build a configured run, march it, judge it, file it.

Each scenario turns a ScenarioConfig into concrete objects (end states,
background profile, initial data), optionally time-marches the solver, and
emits a fixed set of artifacts into the output directory.  The one solver
scenario marches the composite wave of prepare_scenario, whose parts of
zero strength are absent:

    config.echo        materialized configuration (reparseable)
    verdict.txt        PASS / FAIL / INCONCLUSIVE, the numbers that decided
                       it and the facts of the run that no table holds
    diagnostics.csv    one row per record (the solver scenario), with the
                       rel_fluid, sup_E and sup_b columns the verdict judges
    snapshot_*.csv     initial/final fields at 17 significant digits
    layer_profile.csv  layer_decay's layer

Every numeric artifact is a headed CSV table, and each number is filed
once: verdict.txt repeats no table cell and no input.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .config import ScenarioConfig, echo_config, load_config
from .diagnostics import (bump_profile, fit_convergence, record_from_state,
                          write_diag_csv)
from .gas import EndStates, GasParams, dielectric_bound, sound_speed
from .layer import construct_layer, export_csv, find_M0, measure_decay
from .rarefaction import BurgersWave, CompositeProfile, R3Curve
from .solver import FieldState, Grid1D, SolverConfig, apply_boundary, run, \
    write_snapshot_csv

__all__ = ["ScenarioError", "PreparedRun", "prepare_scenario",
           "profile_scenario", "run_scenario", "run_batch"]


class ScenarioError(RuntimeError):
    """A config is valid but the requested objects cannot be built."""


# largest gap allowed between the background at x = L and the far state,
# which the march enforces there; an auto length grows by LENGTH_GROWTH
# until it holds, at most MAX_GROWTHS times
FAR_FIELD_TOL = 1e-8
LENGTH_GROWTH = 1.25
MAX_GROWTHS = 16
# the perturbation bump: its centre (a seed jitters it by up to a quarter
# width) and width
BUMP_CENTER = 5.0
BUMP_WIDTH = 2.0


@dataclass
class PreparedRun:
    """Everything a solver scenario needs to march.  state0 is the state
    the march starts from: its boundary values are already enforced.
    solver_config is a field-less SolverConfig that no march reads."""

    params: GasParams
    end: EndStates
    grid: Grid1D
    background: CompositeProfile
    state0: FieldState
    solver_config: SolverConfig
    record_dt: float
    perturbation: dict                # bump centre and signs per field
    warnings: list                    # hypotheses of the theory not met


def _apply_perturbation(cfg: ScenarioConfig, grid: Grid1D, state: FieldState,
                        params: GasParams) -> dict:
    """Add the cos^2 bump to u and theta and as an equal-speed (E, b)
    packet; return its centre and signs."""
    center = BUMP_CENTER
    signs = {"u": 1.0, "theta": 1.0, "em": 1.0}
    if cfg.seed is not None:
        rng = np.random.default_rng(cfg.seed)
        center += rng.uniform(-BUMP_WIDTH / 4.0, BUMP_WIDTH / 4.0)
        # draw order rho, u, theta, em: rho's sign goes unused, but a
        # skipped draw would move every seeded bump
        drawn = [float(rng.choice((-1.0, 1.0))) for _ in range(4)]
        signs = dict(zip(signs, drawn[1:]))

    profile = bump_profile(grid.x, cfg.amplitude, center, BUMP_WIDTH)
    state.u += signs["u"] * profile
    state.theta += signs["theta"] * profile
    # equal-speed pair: a packet on the outgoing characteristic only
    state.E += signs["em"] * profile / params.sqrt_eps
    state.b += signs["em"] * profile
    return {"center": center, "signs": signs}


def _state_from_background(grid: Grid1D, background) -> FieldState:
    return FieldState(*background.eval(grid.x, 0.0), np.zeros(grid.n_nodes),
                      np.zeros(grid.n_nodes))


def _gas(cfg: ScenarioConfig) -> GasParams:
    """The configured gas at eps = 1: no layer or fan depends on eps."""
    return GasParams(cfg.R, cfg.gamma, cfg.mu, cfg.kappa, eps=1.0)


def prepare_scenario(cfg: ScenarioConfig) -> PreparedRun:
    """Build the marching problem of the solver scenario: the composite
    wave of a boundary layer (if delta > 0) from the boundary to the star
    state, then a 3-rarefaction fan (if theta_star < theta_plus) from the
    star state at temperature theta_star to the far state.  Without a fan
    the star state is the far state; without a layer (layer_branch is then
    not read) it is the boundary data.  The fan depends on R and gamma
    only, so it is built before eps, which is eps_fraction times the
    dielectric bound c_bar; an eps at or above c_bar is filed in warnings.

    The march pins the far state at x = L, so the background must sit
    there within FAR_FIELD_TOL from t = 0 to t_final (_far_field_gap).  An
    auto length starts at default_domain_length and grows until it does,
    keeping the starting dx: n_cells grows with it.  A length that still
    misses raises ScenarioError."""
    if cfg.scenario != "superposition_stability":
        raise ScenarioError(f"scenario {cfg.scenario!r} is not solver-backed")
    params0 = _gas(cfg)
    plus = (cfg.rho_plus, cfg.u_plus, cfg.theta_plus)
    star, curve, wave = plus, None, None
    if cfg.theta_star < cfg.theta_plus:
        curve = R3Curve(params0, *plus)
        star = curve.state_at_theta(cfg.theta_star)
        w_star = star[1] + float(sound_speed(params0, star[2]))
        if w_star < 0:
            raise ScenarioError(
                f"fan edge speed is negative at theta = {cfg.theta_star:g}; "
                "the expansion would leave through the boundary (theta_star "
                "= theta_plus builds no fan)")
        wave = BurgersWave(w_star, curve.w_plus - w_star, cfg.alpha)
    layer = (construct_layer(params0, star, cfg.delta, cfg.layer_branch)
             if cfg.delta > 0 else None)
    data = star[1:] if layer is None else (layer.u[0], layer.theta[0])
    end = EndStates(u_minus=float(data[0]), theta_minus=float(data[1]),
                    rho_plus=cfg.rho_plus, u_plus=cfg.u_plus,
                    theta_plus=cfg.theta_plus)
    c_bar = dielectric_bound(params0, end)
    params = replace(params0, eps=cfg.eps_fraction * c_bar)
    warnings = []
    if params.eps >= c_bar:
        warnings.append(f"eps = {params.eps:g} is not below the dielectric "
                        f"bound {c_bar:g}; the stability theory does not "
                        "cover this run")
    background = CompositeProfile(star, layer, curve, wave)

    length, growths = cfg.length, 0
    if length is None:
        length = default_domain_length(params, end, cfg.t_final)
        growths = MAX_GROWTHS
    dx = length / cfg.n_cells
    gap, t_gap = _far_field_gap(background, length, plus, cfg.t_final)
    while gap > FAR_FIELD_TOL and growths:
        length *= LENGTH_GROWTH
        growths -= 1
        gap, t_gap = _far_field_gap(background, length, plus, cfg.t_final)
    if gap > FAR_FIELD_TOL:
        raise ScenarioError(
            f"the background at x = L = {length:g} is {gap:.3g} off the far "
            f"state at t = {t_gap:g}, above {FAR_FIELD_TOL:g}; lengthen the "
            "domain")
    grid = Grid1D(length, round(length / dx))
    state0 = _state_from_background(grid, background)
    perturbation = _apply_perturbation(cfg, grid, state0, params)
    if (reach := perturbation["center"] + BUMP_WIDTH / 2.0) > length:
        raise ScenarioError(f"the perturbation bump reaches x = {reach:g}, "
                            f"beyond L = {length:g}; lengthen the domain")
    apply_boundary(params, end, state0)     # the values run enforces first
    return PreparedRun(params=params, end=end, grid=grid,
                       background=background, state0=state0,
                       solver_config=SolverConfig(),
                       record_dt=cfg.t_final / 50.0,
                       perturbation=perturbation, warnings=warnings)


def default_domain_length(params: GasParams, end: EndStates,
                          t_final: float) -> float:
    """Where an auto length starts: 2 (u_+ + c_+)(1 + t_final), the reach
    of the far state's fastest signal, at least 40."""
    c_plus = math.sqrt(params.R * params.gamma * end.theta_plus)
    return max(40.0, 2.0 * (end.u_plus + c_plus) * (1.0 + t_final))


def _far_field_gap(background, length: float, far, t_final: float) -> tuple:
    """(gap, t): the larger distance max(|rho - rho_+|, |u - u_+|,
    |theta - theta_+|) of the background at x = length from the far state
    at t = 0 and t_final, and the first time it is reached.  These two
    bound every time between: at fixed x, rho, u and theta are the layer's
    values plus a fan term monotone in t (the characteristic foot through x
    moves left, w0 is nondecreasing, and rho, u, theta rise with w)."""
    gaps = [max(abs(float(v[0]) - f)
                for v, f in zip(background.eval([length], t), far))
            for t in (0.0, t_final)]
    k = int(np.argmax(gaps))
    return gaps[k], (0.0, t_final)[k]


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
        if key in ("scenario", "verdict"):
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


# every path, relative to out_dir, that some scenario emits
ARTIFACTS = ("config.echo", "verdict.txt", "diagnostics.csv",
             "snapshot_initial.csv", "snapshot_final.csv", "layer_profile.csv")
# every path, relative to out_dir, that profile_scenario writes
PROFILE_ARTIFACTS = ("initial.csv", "layer_profile.csv")


def _clear(out_dir, names) -> None:
    """Make out_dir and remove the files of names from it (nothing else)."""
    os.makedirs(out_dir, exist_ok=True)
    for name in names:
        if os.path.isfile(path := os.path.join(out_dir, name)):
            os.remove(path)


def _emit(cfg: ScenarioConfig, out_dir, summary: dict, files: dict) -> None:
    """Write config.echo, files (name -> writer(path)) and verdict.txt
    into out_dir, which run_scenario has cleared of ARTIFACTS."""
    _write_text(os.path.join(out_dir, "config.echo"), echo_config(cfg))
    for name, write in files.items():
        write(os.path.join(out_dir, name))
    _write_text(os.path.join(out_dir, "verdict.txt"), _verdict_text(summary))


# --------------------------------------------------------------------------
# scenario drivers: each returns (summary, files) for _emit
# --------------------------------------------------------------------------

def _drive_solver_scenario(cfg: ScenarioConfig) -> tuple:
    """March the perturbed data and, alongside it, a zero-amplitude
    reference with the same background.

    The analytic background is not an exact solution of the discrete
    equations (and the fan part is not an exact solution of the viscous
    equations at all), so both runs share a slowly evolving model/mesh
    drift.  The verdict therefore judges the decay of the perturbed-minus-
    reference difference, which isolates the fate of the injected bump;
    sup norms against the analytic background are still recorded for the
    diagnostics file.  The reference reuses the prepared background and
    keeps its rho, u, theta at every record for the perturbed march's
    records to subtract; at amplitude 0 there is no reference march, as the
    data are the reference's start bit for bit, and rel_fluid is 0.  Its
    field stays E = b = 0 exactly, so the field is judged by sup_field.
    Every run, amplitude 0 included, is judged by fit_convergence on both
    series, and an all-zero series reads PASS, "nothing to damp".
    """
    prep = prepare_scenario(cfg)
    reference, diag_records = [], []

    def recorder(t, state, mass_residual_max):
        diag_records.append(record_from_state(
            prep.grid, state, prep.background,
            reference.pop(0) if reference else None, t, mass_residual_max))

    t0 = time.perf_counter()
    if cfg.amplitude != 0.0:
        ref0 = _state_from_background(prep.grid, prep.background)
        # a bump between the nodes leaves the two marches equal bit for bit
        if np.array_equal(prep.state0.data[:, 1:-1].view(np.int64),
                          ref0.data[:, 1:-1].view(np.int64)):
            raise ScenarioError(
                "the perturbation is zero at every interior node (dx = "
                f"{prep.grid.dx:.3g}, bump width {BUMP_WIDTH:g}); refine "
                "the grid")
        run(prep.params, prep.end, prep.grid, ref0, cfg.t_final,
            record_dt=prep.record_dt,
            recorder=lambda t, s, _: reference.append(s.data[:3].copy()))
    result = run(prep.params, prep.end, prep.grid, prep.state0, cfg.t_final,
                 record_dt=prep.record_dt, recorder=recorder)

    times = [r.t for r in diag_records]
    fit_rel_fluid = fit_convergence(times, [r.rel_fluid for r in diag_records])
    fit_rel_field = fit_convergence(times, [r.sup_field for r in diag_records])
    # the worse fit decides: FAIL > INCONCLUSIVE > PASS
    verdict = max(fit_rel_fluid["verdict"], fit_rel_field["verdict"],
                  key=("PASS", "INCONCLUSIVE", "FAIL").index)
    runtime = time.perf_counter() - t0

    summary = {
        "verdict": verdict,
        "fit_rel_fluid": fit_rel_fluid, "fit_rel_field": fit_rel_field,
        "steps": result.steps, "runtime_s": runtime,
        "warnings": prep.warnings,
    }
    files = {
        "diagnostics.csv": lambda path: write_diag_csv(path, diag_records),
        "snapshot_initial.csv": lambda path: write_snapshot_csv(
            path, prep.grid, 0.0, prep.state0),
        "snapshot_final.csv": lambda path: write_snapshot_csv(
            path, prep.grid, cfg.t_final, result.state),
    }
    return summary, files


def _far_layer(cfg: ScenarioConfig):
    """layer_decay's layer: strength delta toward the far state."""
    far = (cfg.rho_plus, cfg.u_plus, cfg.theta_plus)
    return construct_layer(_gas(cfg), far, cfg.delta, cfg.layer_branch)


def _drive_layer_decay(cfg: ScenarioConfig) -> tuple:
    layer = _far_layer(cfg)
    fit_u = measure_decay(layer, "u")
    fit_th = measure_decay(layer, "theta")
    m0 = find_M0(layer, _gas(cfg))

    if layer.case_tag == "transonic_degenerate":
        ok = -1.2 <= fit_u["exponent"] <= -0.8
        detail = {"kind": "algebraic", "exponent": fit_u["exponent"]}
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
    }
    files = {"layer_profile.csv": lambda path: export_csv(layer, path)}
    return summary, files


_DRIVERS = {
    "superposition_stability": _drive_solver_scenario,
    "layer_decay": _drive_layer_decay,
}


def run_scenario(cfg: ScenarioConfig, out_dir) -> dict:
    """Execute one configured scenario, emitting artifacts into out_dir.
    out_dir is made first, so an unusable one raises OSError before any
    work, and cleared of what an earlier run left of ARTIFACTS (and
    nothing else), so a run that fails leaves none of them behind."""
    _clear(out_dir, ARTIFACTS)
    summary, files = _DRIVERS[cfg.scenario](cfg)
    summary = {"scenario": cfg.scenario, **summary}
    _emit(cfg, out_dir, summary, files)
    return summary


def profile_scenario(cfg: ScenarioConfig, out_dir) -> None:
    """Write the analytic objects of cfg's scenario into out_dir without
    marching: the solver scenario's initial.csv (its prep.state0) and,
    with a layer, layer_profile.csv; and layer_decay's layer_profile.csv.
    out_dir is made first and cleared of what an earlier profile left of
    PROFILE_ARTIFACTS, as in run_scenario."""
    _clear(out_dir, PROFILE_ARTIFACTS)
    if cfg.scenario == "layer_decay":
        layer = _far_layer(cfg)
    else:
        prep = prepare_scenario(cfg)
        write_snapshot_csv(os.path.join(out_dir, "initial.csv"), prep.grid,
                           0.0, prep.state0)
        layer = prep.background.layer
    if layer is not None:
        export_csv(layer, os.path.join(out_dir, "layer_profile.csv"))


# --------------------------------------------------------------------------
# batches
# --------------------------------------------------------------------------

def _batch_worker(job):
    """Isolated worker: any failure is captured, never propagated."""
    path, out_dir, seed = job
    row = {"config": str(path), "scenario": "", "verdict": "ERROR",
           "out_dir": str(out_dir), "error": ""}
    try:
        cfg = load_config(path, seed)
        row["scenario"] = cfg.scenario
        summary = run_scenario(cfg, out_dir)
        row["verdict"] = summary["verdict"]
    except Exception as exc:            # noqa: BLE001 - isolation by design
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_batch(config_paths, out_root, workers: int = 2,
              seed: int | None = None) -> list:
    """Run several configs in worker processes; one failure never takes the
    batch down.  Writes out_root/batch_summary.csv and returns the rows.
    Each config writes into out_root/<file stem>: raises ValueError before
    any run when two configs share a stem or workers is below 1."""
    if workers < 1:
        raise ValueError("workers must be at least 1")
    config_paths = [str(p) for p in config_paths]
    stems = [os.path.splitext(os.path.basename(p))[0] for p in config_paths]
    clashes = [p for p, stem in zip(config_paths, stems)
               if stems.count(stem) > 1]
    if clashes:
        raise ValueError("configs with the same file name would share an "
                         f"output directory: {', '.join(clashes)}")
    os.makedirs(out_root, exist_ok=True)
    jobs = [(path, os.path.join(out_root, stem), seed)
            for path, stem in zip(config_paths, stems)]

    workers = min(workers, len(jobs))     # the pool forks them all at once
    if workers <= 1:
        rows = [_batch_worker(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_batch_worker, jobs))

    columns = ("config", "scenario", "verdict", "out_dir", "error")
    with open(os.path.join(out_root, "batch_summary.csv"), "w",
              newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([str(row[key]).replace("\n", " ") for key in columns]
                         for row in rows)
    return rows
