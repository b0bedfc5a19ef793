"""Finite-difference solver for the coupled fluid--field system on [0, L].

Unknowns live on N+1 nodes of a uniform grid.  The fluid block

    rho_t + (rho u)_x               = 0
    rho (u_t + u u_x) + p_x         = mu u_xx - (E + u b) b
    cv rho (theta_t + u theta_x)
        + p u_x                     = mu u_x^2 + kappa theta_xx + (E + u b)^2

(p = R rho theta, cv = R/(gamma-1)) uses upwind convection and central
stencils for pressure gradient, dilatation and diffusion.  Continuity is
advanced in conservative flux form with a half-cell closure at the boundary
node, so the trapezoid mass obeys dM/dt = rho(0) u_- - F_out to rounding and
the per-step mass audit is exact in exact arithmetic.

The field block

    eps E_t - b_x + E + u b = 0,    b_t - E_x = 0

is advanced in Riemann coordinates W1 = (sqrt(eps)/2)(sqrt(eps) E - b)
(speed +1/sqrt(eps), prescribed zero at x = 0) and W2 = (sqrt(eps)/2)
(sqrt(eps) E + b) (speed -1/sqrt(eps), absorbed at x = L) with upwind
differences.  The stiff relaxation eps E_t = -E is kept out of the stage
operator and applied exactly as a Strang pair of half-interval decay
factors exp(-dt/(2 eps)).  The far field at x = L is Dirichlet: L is sized
beyond the fastest fluid signal (default_domain_length).

Boundary conditions are re-applied after every sub-operation.  At x = 0 the
magnetic field is assigned literally as b(0) := sqrt(eps) * E(0), so the
boundary identity sqrt(eps) E(0,t) - b(0,t) evaluates to exactly 0.0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gas import EndStates, GasParams, dielectric_bound

__all__ = [
    "Grid1D", "FieldState", "SolverConfig", "RunResult",
    "SolverError", "PositivityError",
    "default_domain_length", "spatial_rhs", "apply_boundary", "cfl_dt",
    "step", "run", "write_snapshot_csv", "read_snapshot_csv",
]

DT_FLOOR = 1e-14          # below this the march has stagnated
MAXWELL_MODES = ("full", "decoupled")


class SolverError(RuntimeError):
    """Fatal integration failure (stagnant step size, bad configuration)."""


class PositivityError(SolverError):
    """Density or temperature left the positive cone; never clipped."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid with n_cells cells (n_cells + 1 nodes) on [0, L]."""

    length: float
    n_cells: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("domain length must be positive")
        if self.n_cells < 16:
            raise ValueError("grid needs at least 16 cells")

    @property
    def dx(self) -> float:
        return self.length / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @cached_property
    def x(self) -> np.ndarray:
        """Node coordinates, built once and read-only: a grid is shared."""
        x = np.linspace(0.0, self.length, self.n_nodes)
        x.flags.writeable = False
        return x


def default_domain_length(params: GasParams, end: EndStates,
                          t_final: float) -> float:
    """Large enough that the fastest fluid signal stays inside until t_final."""
    c_plus = math.sqrt(params.R * params.gamma * end.theta_plus)
    return max(40.0, 2.0 * (end.u_plus + c_plus) * (1.0 + t_final))


FIELDS = ("rho", "u", "theta", "E", "b")


def _row(i: int) -> property:
    def get(self) -> np.ndarray:
        return self.data[i]

    def put(self, value) -> None:       # lets `state.E *= f` write through
        self.data[i] = value

    return property(get, put, doc=f"{FIELDS[i]} nodal values (a row view)")


class FieldState:
    """Nodal values of (rho, u, theta, E, b) as the rows of one C-contiguous
    (5, n) block `data`; the named attributes are views of its rows."""

    rho, u, theta, E, b = (_row(i) for i in range(len(FIELDS)))

    def __init__(self, rho, u, theta, E, b) -> None:
        rows = (rho, u, theta, E, b)
        if any(np.size(r) != np.size(rho) for r in rows):
            raise ValueError("field arrays must share one grid")
        self.data = np.array(rows, dtype=float)

    @classmethod
    def of(cls, data: np.ndarray) -> "FieldState":
        """Wrap an existing (5, n) block without copying it."""
        if np.ndim(data) != 2 or len(data) != len(FIELDS):
            raise ValueError("state block must have shape (5, n)")
        state = cls.__new__(cls)
        state.data = data
        return state

    @property
    def n_nodes(self) -> int:
        return self.data.shape[1]

    def copy(self) -> "FieldState":
        return FieldState.of(self.data.copy())


@dataclass(frozen=True)
class SolverConfig:
    """Time-march controls.

    The stiff eps E_t = -E relaxation is always applied exactly, as
    half-interval decay factors around each step; it never limits dt.
    maxwell_mode "decoupled" drops transport and coupling from the field
    block (pointwise E-relaxation, frozen b, no characteristic boundary
    work) and removes the field speed from the CFL bound.
    """

    cfl_factor: float = 0.9
    dt_max: float | None = None
    maxwell_mode: str = "full"
    freeze_fluid: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.cfl_factor <= 0.9:
            raise ValueError("cfl_factor must lie in (0, 0.9]")
        if self.dt_max is not None and not self.dt_max > 0:
            raise ValueError("dt_max must be positive")
        if self.maxwell_mode not in MAXWELL_MODES:
            raise ValueError(f"maxwell_mode must be one of {MAXWELL_MODES}")


def spatial_rhs(params: GasParams, end: EndStates, grid: Grid1D,
                state: FieldState, config: SolverConfig):
    """Tendencies at every node plus the boundary mass fluxes.

    Boundary-node tendencies are zero for Dirichlet / characteristic
    controlled fields; apply_boundary owns those values.  The relaxation
    -E/eps is left to step's exact factors.
    """
    p = params
    dx = grid.dx
    rho, u, th, E, b = state.data
    n = state.n_nodes
    tend = np.zeros((len(FIELDS), n))
    drho, du, dth, dE, db = tend

    # --- continuity, conservative form -------------------------------------
    u_half = 0.5 * (u[:-1] + u[1:])
    rho_up = np.where(u_half >= 0.0, rho[:-1], rho[1:])
    flux = u_half * rho_up                       # flux[i] sits at face i+1/2
    flux_left = rho[0] * end.u_minus             # boundary flux rho(0) u_-
    flux_right = flux[-1]                        # last interior face
    if not config.freeze_fluid:
        drho[1:-1] = -(flux[1:] - flux[:-1]) / dx
        drho[0] = -(flux[0] - flux_left) / (0.5 * dx)

        # --- momentum and temperature ---------------------------------------
        u_pos = np.maximum(u[1:-1], 0.0)
        u_neg = np.minimum(u[1:-1], 0.0)
        conv_u = (u_pos * (u[1:-1] - u[:-2]) +
                  u_neg * (u[2:] - u[1:-1])) / dx
        pres = p.R * rho * th
        px = (pres[2:] - pres[:-2]) / (2.0 * dx)
        uxx = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
        drive = E + u * b                        # E + u b, the compound field
        du[1:-1] = -conv_u + (-px + p.mu * uxx - drive[1:-1] * b[1:-1]) / rho[1:-1]

        conv_th = (u_pos * (th[1:-1] - th[:-2]) +
                   u_neg * (th[2:] - th[1:-1])) / dx
        ux_c = (u[2:] - u[:-2]) / (2.0 * dx)
        thxx = (th[2:] - 2.0 * th[1:-1] + th[:-2]) / (dx * dx)
        heat = (-pres[1:-1] * ux_c + p.mu * ux_c * ux_c + p.kappa * thxx
                + drive[1:-1] * drive[1:-1])
        dth[1:-1] = -conv_th + (p.gamma - 1.0) / (p.R * rho[1:-1]) * heat

    # --- field block ---------------------------------------------------------
    if config.maxwell_mode == "full":
        se = p.sqrt_eps
        w1 = 0.5 * se * (se * E - b)
        w2 = 0.5 * se * (se * E + b)
        # upwind transport along the two characteristics; the stencils at the
        # first/last interior node consume the boundary-set w1[0] and w2[-1]
        t1 = -(w1[1:-1] - w1[:-2]) / (se * dx)
        t2 = (w2[2:] - w2[1:-1]) / (se * dx)
        dE[1:-1] = (t1 + t2) / p.eps - u[1:-1] * b[1:-1] / p.eps
        db[1:-1] = (t2 - t1) / se
    # decoupled: b frozen, and the exact factors in step are E's whole update

    return FieldState.of(tend), {"flux_left": flux_left,
                                 "flux_right": flux_right}


def apply_boundary(params: GasParams, end: EndStates, state: FieldState,
                   config: SolverConfig) -> None:
    """Enforce boundary values in place.

    x = 0: u and theta Dirichlet (rho(0) is evolved); the outgoing field
    characteristic W2 is extrapolated from the interior, the incoming one is
    zero, and b(0) is assigned literally as sqrt(eps) * E(0).
    x = L: fluid Dirichlet to the far state; the outgoing W1 is extrapolated
    and the incoming W2 absorbed (zero), i.e. b(L) = -sqrt(eps) * E(L).
    """
    if not config.freeze_fluid:
        state.u[0] = end.u_minus
        state.theta[0] = end.theta_minus
        state.rho[-1] = end.rho_plus
        state.u[-1] = end.u_plus
        state.theta[-1] = end.theta_plus

    if config.maxwell_mode == "full":
        se = params.sqrt_eps
        E, b = state.E, state.b
        w2_1 = 0.5 * se * (se * E[1] + b[1])
        w2_2 = 0.5 * se * (se * E[2] + b[2])
        w2_ext = 2.0 * w2_1 - w2_2
        E[0] = w2_ext / params.eps            # eps E = W1 + W2 with W1 = 0
        b[0] = se * E[0]                      # literal: identity is bitwise
        w1_1 = 0.5 * se * (se * E[-2] - b[-2])
        w1_2 = 0.5 * se * (se * E[-3] - b[-3])
        w1_ext = 2.0 * w1_1 - w1_2
        E[-1] = w1_ext / params.eps           # incoming W2 absorbed to zero
        b[-1] = -se * E[-1]


def cfl_dt(params: GasParams, end: EndStates, grid: Grid1D,
           state: FieldState, config: SolverConfig) -> float:
    """Stable step: cfl * min(advective, diffusive), capped at dt_max."""
    p = params
    c = np.sqrt(p.R * p.gamma * state.theta)
    s_max = float(np.max(np.abs(state.u) + c))
    if config.maxwell_mode == "full":
        s_max = max(s_max, 1.0 / p.sqrt_eps)
    diffusivity = max(float(np.max(p.mu / state.rho)),
                      float(np.max(p.kappa * (p.gamma - 1.0)
                                   / (p.R * state.rho))))
    dt = config.cfl_factor * min(grid.dx / s_max,
                                 grid.dx * grid.dx / (2.0 * diffusivity))
    if config.dt_max is not None:
        dt = min(dt, config.dt_max)
    return dt


def step(params: GasParams, end: EndStates, grid: Grid1D, state: FieldState,
         dt: float, config: SolverConfig):
    """One Heun step, Strang-wrapped in exact relaxation halves.  Returns
    (new_state, info) where info carries the stage-averaged boundary fluxes
    of spatial_rhs for the mass audit."""
    decay = math.exp(-dt / (2.0 * params.eps))
    work = state.copy()
    work.E *= decay
    apply_boundary(params, end, work, config)

    k1, f1 = spatial_rhs(params, end, grid, work, config)
    stage = FieldState.of(work.data + dt * k1.data)
    apply_boundary(params, end, stage, config)
    k2, f2 = spatial_rhs(params, end, grid, stage, config)
    new = FieldState.of(work.data + 0.5 * dt * (k1.data + k2.data))
    apply_boundary(params, end, new, config)

    new.E *= decay
    apply_boundary(params, end, new, config)

    return new, {key: 0.5 * (f1[key] + f2[key]) for key in f1}


def _mass(grid: Grid1D, state: FieldState) -> float:
    return float(np.trapezoid(state.rho, dx=grid.dx))


def _base_record(params: GasParams, state: FieldState, t: float,
                 mass: float, mass_residual: float) -> dict:
    se = params.sqrt_eps
    return {
        "t": t,
        "mass": mass,
        "E0": float(state.E[0]),
        "b0": float(state.b[0]),
        "boundary_identity": float(se * state.E[0] - state.b[0]),
        "mass_residual": mass_residual,
    }


@dataclass
class RunResult:
    """March outcome: final state, sampled records, stored snapshots and the
    audit extrema."""

    state: FieldState
    t_final: float
    steps: int
    records: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)   # (t, FieldState) pairs
    mass_residual_max: float = 0.0
    cfl_margin_max: float = 0.0
    dt_min: float = math.inf
    dt_max_used: float = 0.0
    warnings: list = field(default_factory=list)


def run(params: GasParams, end: EndStates, grid: Grid1D, state0: FieldState,
        t_final: float, config: SolverConfig | None = None,
        record_dt: float | None = None, snapshot_times=(),
        recorder=None, progress: bool = False) -> RunResult:
    """March state0 to t_final.

    record_dt samples scalar records (plus t = 0 and t_final); recorder, if
    given, is called as recorder(t, state) and may return a dict merged into
    each record.  snapshot_times are landed on exactly and stored as deep
    copies.  Raises SolverError if a field turns non-finite or the step
    size collapses, and PositivityError if rho or theta leaves the positive
    cone.
    """
    if config is None:
        config = SolverConfig()
    if state0.n_nodes != grid.n_nodes:
        raise SolverError("state and grid sizes disagree")
    if t_final <= 0:
        raise SolverError("t_final must be positive")
    snapshot_times = tuple(float(t) for t in snapshot_times)
    if any(t <= 0.0 or t > t_final for t in snapshot_times):
        raise SolverError("snapshot times must lie in (0, t_final]")

    result = RunResult(state=state0.copy(), t_final=0.0, steps=0)

    bound = dielectric_bound(params, end)
    if not bound.unbounded and params.eps >= bound.c_bar:
        msg = (f"eps = {params.eps:g} is not below the dielectric bound "
               f"{bound.c_bar:g}; the stability theory does not cover this run")
        warnings.warn(msg)
        result.warnings.append(msg)

    state = result.state
    apply_boundary(params, end, state, config)
    _check_state(state, 0.0, 0)

    # event times: the record grid plus t_final, and the snapshots; a record
    # time within rounding of a snapshot lands on the snapshot instead
    snapshot_set = set(snapshot_times)
    record_times = {float(t_final)}
    if record_dt is not None:
        k = 1
        while k * record_dt < t_final * (1.0 - 1e-12):
            t_rec = k * record_dt
            record_times.add(next((ts for ts in snapshot_set if abs(
                ts - t_rec) <= 1e-12 * t_final), t_rec))
            k += 1

    def make_record(t_now, state_now, mass_now, mres):
        rec = _base_record(params, state_now, t_now, mass_now, mres)
        if recorder is not None:
            extra = recorder(t_now, state_now)
            if extra:
                rec.update(extra)
        return rec

    mass = _mass(grid, state)
    result.records.append(make_record(0.0, state, mass, 0.0))

    t = 0.0
    next_report = 0.1
    for t_event in sorted(record_times | snapshot_set):
        while t < t_event:
            dt_stab = cfl_dt(params, end, grid, state, config)
            if dt_stab < DT_FLOOR:
                raise SolverError(f"step size collapsed to {dt_stab:g} "
                                  f"at t = {t:g}")
            remaining = t_event - t
            landed = remaining <= dt_stab * (1.0 + 1e-12)
            dt = remaining if landed else dt_stab
            state, info = step(params, end, grid, state, dt, config)
            mass_after = _mass(grid, state)
            t = t_event if landed else t + dt
            result.steps += 1
            _check_state(state, t, result.steps)

            resid = abs((mass_after - mass) / dt
                        - (info["flux_left"] - info["flux_right"]))
            mass = mass_after
            if not config.freeze_fluid:
                result.mass_residual_max = max(result.mass_residual_max, resid)
            result.cfl_margin_max = max(result.cfl_margin_max, dt / dt_stab)
            result.dt_min = min(result.dt_min, dt)
            result.dt_max_used = max(result.dt_max_used, dt)

            if progress and t / t_final >= next_report:
                print(f"  t = {t:10.4f} / {t_final:g}  "
                      f"(step {result.steps}, dt = {dt:.3e})")
                next_report += 0.1

        if t_event in record_times:
            result.records.append(make_record(t_event, state, mass,
                                              result.mass_residual_max))
        if t_event in snapshot_set:
            result.snapshots.append((t_event, state.copy()))

    result.state = state
    result.t_final = t
    return result


def _check_state(state: FieldState, t: float, n_step: int) -> None:
    """Refuse a non-finite field (SolverError) or a non-positive rho/theta
    (PositivityError).  The fast path folds the finiteness tests into one
    dot product of the block with itself, non-finite whenever an entry is
    NaN or inf, and the positivity tests into minima, which propagate NaN."""
    flat = state.data.ravel()
    if (math.isfinite(flat @ flat)
            and state.rho.min() > 0.0 and state.theta.min() > 0.0):
        return
    for name, values in zip(FIELDS, state.data):
        if not np.isfinite(values).all():
            raise SolverError(f"{name} became non-finite at t = {t:g} "
                              f"(step {n_step})")
    for name in ("rho", "theta"):
        if not (getattr(state, name) > 0.0).all():
            raise PositivityError(
                f"{name} lost positivity at t = {t:g} (step {n_step}); "
                "refusing to clip")


# --------------------------------------------------------------------------
# snapshot serialization: one snapshot per file, 17 significant digits
# --------------------------------------------------------------------------

SNAPSHOT_HEADER = "t,x,rho,u,theta,E,b"


def write_snapshot_csv(path, grid: Grid1D, t: float,
                       state: FieldState) -> None:
    table = np.column_stack((np.full(grid.n_nodes, t), grid.x, state.data.T))
    np.savetxt(path, table, fmt="%.17g", delimiter=",",
               header=SNAPSHOT_HEADER, comments="")


def read_snapshot_csv(path):
    """Inverse of write_snapshot_csv: returns (t, x, FieldState)."""
    table = np.atleast_2d(np.genfromtxt(path, delimiter=",", skip_header=1))
    return float(table[0, 0]), table[:, 1], FieldState.of(table[:, 2:].T.copy())
