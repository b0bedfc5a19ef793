"""Benchmark workloads: inputs made from the seed, one timed unit, checks.

A verdict workload times one `run_scenario` call, from the loaded config to
the last artifact written.  The sweep workload times `solver.step` on the
composite initial state at several grid sizes with the same number of
node-steps per size.  Every unit is checked after it is timed; a unit that
raises or fails a check counts as failed.

Units are timed in CPU seconds scaled to a quiet machine (see speed.py);
the raw CPU and wall times are kept next to the scaled time.
"""

from __future__ import annotations

import contextlib
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import outflow1d.config as config
import outflow1d.scenarios as scenarios
import outflow1d.solver as solver
from speed import Timed, cpu_seconds

SEED_MODULUS = 2 ** 32
SOLVER_SCENARIOS = ("layer_stability", "rarefaction_stability",
                    "superposition_stability")
MASS_TOL = 1e-6                 # mass_residual_max / |rho_+ u_+|
DEGENERATE_WINDOW = (-1.2, -0.8)


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                      # relative to the checkout root
    seeded: bool = True              # the seed sets the config seed
    overrides: tuple = ()            # (key, value) pairs applied on load
    sizes: tuple = ()                # sweep: grid sizes in nodes
    node_steps: int = 0              # sweep: nodes x steps per size

    @property
    def is_sweep(self) -> bool:
        return bool(self.sizes)


WORKLOADS = {wl.name: wl for wl in (
    Workload("composite_verdict", "configs/superposition_stability.cfg"),
    Workload("layer_verdict", "configs/layer_stability.cfg"),
    Workload("degenerate_layer", "bench/degenerate_layer.cfg", seeded=False),
    Workload("rhs_scaling", "configs/superposition_stability.cfg",
             sizes=(500, 2000, 8000, 32000), node_steps=640_000),
)}


@dataclass
class Outcome:
    """One timed unit: scaled, CPU and wall seconds, solver work (nodes x
    steps, and the scaled seconds the marches took) and what the checks
    found."""

    time_s: float
    cpu_s: float = 0.0
    wall_s: float = 0.0
    node_steps: int = 0
    march_s: float = 0.0
    problems: list = field(default_factory=list)

    @classmethod
    def of(cls, timed: Timed, **kw) -> "Outcome":
        return cls(timed.scaled_s, timed.cpu_s, timed.wall_s, **kw)


@dataclass
class Context:
    workload: Workload
    root: Path
    seed: int
    out_dir: Path
    sweep: list = field(default_factory=list)   # (n, PreparedRun, dt, steps)


def load(wl: Workload, root: Path, seed: int):
    """The workload's config; looked up at call time so tracing sees it."""
    cfg = config.load_config(root / wl.config)
    if wl.overrides:
        cfg = replace(cfg, **dict(wl.overrides))
    if wl.seeded:
        cfg = replace(cfg, seed=seed % SEED_MODULUS)
    return cfg


def prepare(wl: Workload, root: Path, seed: int) -> Context:
    """Untimed set-up inside the benchmark process."""
    ctx = Context(wl, root, seed, root / ".bench_out" / wl.name)
    if wl.is_sweep:
        cfg = load(wl, root, seed)
        for n in wl.sizes:
            prep = scenarios.prepare_scenario(replace(cfg, n_cells=n - 1))
            dt = solver.cfl_dt(prep.params, prep.end, prep.grid, prep.state0,
                               prep.solver_config)
            ctx.sweep.append((n, prep, dt, max(1, wl.node_steps // n)))
        _sweep(ctx, None)           # warm the allocator and caches, untimed
    return ctx


@dataclass
class _March:
    nodes: int
    steps: int
    seconds: float
    mass_residual_max: float


@contextlib.contextmanager
def _observe_marches():
    """Record every solver march a scenario starts: two clock reads per
    march, so it stays on when tracing is off."""
    inner = scenarios.run
    marches = []

    def observed(params, end, grid, *args, **kwargs):
        t0 = cpu_seconds()
        result = inner(params, end, grid, *args, **kwargs)
        marches.append(_March(grid.n_nodes, result.steps,
                              cpu_seconds() - t0, result.mass_residual_max))
        return result

    scenarios.run = observed
    try:
        yield marches
    finally:
        scenarios.run = inner


def iterate(ctx: Context, tracer=None) -> Outcome:
    """Run and check one timed unit of the workload."""
    if ctx.workload.is_sweep:
        return _sweep(ctx, tracer)
    return _verdict(ctx)


def _verdict(ctx: Context) -> Outcome:
    cfg = load(ctx.workload, ctx.root, ctx.seed)
    shutil.rmtree(ctx.out_dir / "artifacts", ignore_errors=True)
    with _observe_marches() as marches, Timed() as timed:
        summary = scenarios.run_scenario(cfg, ctx.out_dir / "artifacts")
    out = Outcome.of(timed,
                     node_steps=sum(m.nodes * m.steps for m in marches),
                     march_s=timed.factor * sum(m.seconds for m in marches))
    out.problems = check_verdict(cfg, summary, marches,
                                 ctx.out_dir / "artifacts")
    return out


def check_verdict(cfg, summary: dict, marches, out_dir: Path) -> list:
    problems = []
    if summary.get("verdict") != "PASS":
        problems.append(f"verdict {summary.get('verdict')!r}, not PASS")
    if not (out_dir / "verdict.txt").is_file():
        problems.append("verdict.txt was not written")
    if cfg.scenario in SOLVER_SCENARIOS:
        limit = MASS_TOL * abs(cfg.rho_plus * cfg.u_plus)
        if not marches:
            problems.append("no solver march ran")
        for m in marches:
            if not m.mass_residual_max <= limit:
                problems.append(f"mass_residual_max {m.mass_residual_max:.3e}"
                                f" above {limit:.3e}")
    if cfg.layer_branch == "degenerate":
        if summary.get("case_tag") != "transonic_degenerate":
            problems.append(f"case {summary.get('case_tag')!r}, "
                            "not transonic_degenerate")
        exponent = summary.get("decay_u", {}).get("exponent", math.nan)
        lo, hi = DEGENERATE_WINDOW
        if not lo <= exponent <= hi:
            problems.append(f"tail exponent {exponent:.4f} outside "
                            f"[{lo}, {hi}]")
    return problems


def _sweep(ctx: Context, tracer) -> Outcome:
    finals = []
    with Timed() as timed:
        for n, prep, dt, steps in ctx.sweep:
            if tracer is not None:
                tracer.tag = f"n{n}"
            state = prep.state0.copy()
            for _ in range(steps):
                state, _ = solver.step(prep.params, prep.end, prep.grid,
                                       state, dt, prep.solver_config)
            finals.append((n, state))
    if tracer is not None:
        tracer.tag = ""
    node_steps = sum(n * steps for n, _, _, steps in ctx.sweep)
    return Outcome.of(timed, node_steps=node_steps, march_s=timed.scaled_s,
                      problems=check_states(finals))


def check_states(finals) -> list:
    problems = []
    for n, st in finals:
        for name in ("rho", "u", "theta", "E", "b"):
            if not np.all(np.isfinite(getattr(st, name))):
                problems.append(f"n{n}: non-finite {name}")
        for name in ("rho", "theta"):
            if not np.all(getattr(st, name) > 0.0):
                problems.append(f"n{n}: non-positive {name}")
    return problems


def alloc_args(ctx: Context):
    """(spatial_rhs args, step args) at the workload's grid, or None when the
    workload never calls the solver."""
    wl = ctx.workload
    if wl.is_sweep:
        _, prep, dt, _ = ctx.sweep[-1]
    else:
        cfg = load(wl, ctx.root, ctx.seed)
        if cfg.scenario not in SOLVER_SCENARIOS:
            return None
        prep = scenarios.prepare_scenario(cfg)
        dt = solver.cfl_dt(prep.params, prep.end, prep.grid, prep.state0,
                           prep.solver_config)
    base = (prep.params, prep.end, prep.grid, prep.state0)
    return base + (prep.solver_config,), base + (dt, prep.solver_config)
