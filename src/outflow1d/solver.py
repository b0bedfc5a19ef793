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
factors exp(-dt/(2 eps)).  The far field at x = L is Dirichlet.

Boundary conditions are enforced on the relaxed start of each step and on
its result after the closing relaxation.  At x = 0 the
magnetic field is assigned literally as b(0) := sqrt(eps) * E(0), so the
boundary identity sqrt(eps) E(0,t) - b(0,t) evaluates to exactly 0.0.

The stencil of spatial_rhs is one C loop over the nodes (in _compiled),
compiled on first import and called through ctypes.  Its upwind operands
are a per-node select by the sign of the local velocity, and it keeps the
order of every rounded operation of the numpy stencil that the tests keep
as its oracle, so its tendencies are that stencil's bit for bit (where
two NaNs meet in one sum or product, but for the sign of the NaN).  No
value is carried from one node to the next, so gcc vectorizes the loop;
the function has an AVX2 and a baseline (SSE2) clone, and the loader
picks one by the CPU.  One fast path is left, and it changes no bit:
when the state check's extrema bound max(|u| + c) within the field speed
1/sqrt(eps), cfl_dt takes the field speed without a per-node pass.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _compiled
from .gas import EndStates, GasParams
from .table import write_table

__all__ = [
    "Grid1D", "FieldState", "SolverConfig", "RunResult",
    "SolverError", "PositivityError",
    "spatial_rhs", "apply_boundary", "cfl_dt",
    "step", "record_times", "run", "write_snapshot_csv",
]

DT_FLOOR = 1e-14          # below this the march has stagnated
CFL = 0.9                 # safety factor on the stable step


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
        if not 0.0 < self.length < math.inf:    # nan fails too
            raise ValueError("domain length must be positive and finite")
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


FIELDS = ("rho", "u", "theta", "E", "b")


def _row(i: int) -> property:
    def get(self) -> np.ndarray:
        return self.data[i]

    def put(self, value) -> None:       # lets `state.E *= f` write through
        self.data[i] = value

    return property(get, put, doc=f"{FIELDS[i]} nodal values (a row view)")


def _block(data):
    """data itself, refused unless it is a (5, n) block: one 1-D row per
    field (scalars or 2-D rows would make a block of another rank)."""
    if np.ndim(data) != 2 or len(data) != len(FIELDS):
        raise ValueError("state block must have shape (5, n)")
    return data


class FieldState:
    """Nodal values of (rho, u, theta, E, b) as the rows of one C-contiguous
    (5, n) block `data`; the named attributes are views of its rows."""

    rho, u, theta, E, b = (_row(i) for i in range(len(FIELDS)))

    def __init__(self, rho, u, theta, E, b) -> None:
        rows = (rho, u, theta, E, b)
        if any(np.size(r) != np.size(rho) for r in rows):
            raise ValueError("field arrays must share one grid")
        self.data = _block(np.array(rows, dtype=float))

    @classmethod
    def of(cls, data: np.ndarray) -> "FieldState":
        """Wrap an existing (5, n) block without copying it."""
        state = cls.__new__(cls)
        state.data = _block(data)
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
    dt_max, if given, caps every step.
    """

    dt_max: float | None = None

    def __post_init__(self) -> None:
        if self.dt_max is not None and not self.dt_max > 0:
            raise ValueError("dt_max must be positive")


_outflow_rhs = _compiled.LIB.outflow_rhs


def spatial_rhs(params: GasParams, end: EndStates, grid: Grid1D,
                state: FieldState, config: SolverConfig):
    """Tendencies at every node plus the boundary mass fluxes.

    Boundary-node tendencies are zero for Dirichlet / characteristic
    controlled fields; apply_boundary owns those values.  The relaxation
    -E/eps is left to step's exact factors.  config is unread.

    One call of the compiled stencil outflow_rhs fills a new block.  It
    reads the state block as C-contiguous, writable doubles (ctypes's
    from_buffer takes no other), so any other block is copied first.
    Upwinding selects rho at each face and the u and theta differences at
    each interior node by the local velocity's sign.  The face velocity's
    exact 1/2 is folded into the continuity scale and the right boundary
    flux; a power-of-two scaling commutes with rounding.  The scale
    factors are rounded here, once per call, as the tests' numpy oracle
    rounds them.  Raises ValueError on fewer than 3 nodes.
    """
    p = params
    data = state.data
    flags = data.flags
    if not (flags.c_contiguous and flags.writeable
            and data.dtype == np.float64):
        data = np.array(data, dtype=np.float64, order="C")
    n = data.shape[1]
    if n < 3:
        raise ValueError("the stencil needs at least 3 nodes")
    dx = grid.dx
    inv_dx = 1.0 / dx
    half_inv_dx = 0.5 * inv_dx
    se = p.sqrt_eps
    tend = np.empty((5, n))
    flux_left = data.item(0, 0) * end.u_minus    # boundary flux rho(0) u_-
    flux_right = _outflow_rhs(
        n, ctypes.c_double.from_buffer(data),
        ctypes.c_double.from_buffer(tend), dx, inv_dx, half_inv_dx,
        flux_left, p.R, p.mu, 2.0 * p.mu * inv_dx, p.kappa * inv_dx * inv_dx,
        p.gamma - 1.0, se, 1.0 / p.eps, half_inv_dx / se)
    return (FieldState.of(tend),
            {"flux_left": flux_left, "flux_right": flux_right})


def apply_boundary(params: GasParams, end: EndStates,
                   state: FieldState) -> None:
    """Enforce boundary values in place.

    x = 0: u and theta Dirichlet (rho(0) is evolved); the outgoing field
    characteristic W2 is copied from the adjacent node, the incoming one is
    zero, and b(0) is assigned literally as sqrt(eps) * E(0).
    x = L: fluid Dirichlet to the far state; the outgoing W1 is copied from
    the adjacent node and the incoming W2 absorbed (zero), i.e.
    b(L) = -sqrt(eps) * E(L).
    """
    rho, u, th, E, b = state.data
    u[0] = end.u_minus
    th[0] = end.theta_minus
    rho[-1] = end.rho_plus
    u[-1] = end.u_plus
    th[-1] = end.theta_plus

    se = params.sqrt_eps
    # read as Python floats: the same double arithmetic, minus the cost of
    # numpy scalars
    w2 = 0.5 * se * (se * E.item(1) + b.item(1))
    E[0] = e0 = w2 / params.eps               # eps E = W1 + W2 with W1 = 0
    b[0] = se * e0                            # literal: identity is bitwise
    w1 = 0.5 * se * (se * E.item(-2) - b.item(-2))
    E[-1] = e_end = w1 / params.eps           # incoming W2 absorbed to zero
    b[-1] = -se * e_end


def cfl_dt(params: GasParams, end: EndStates, grid: Grid1D,
           state: FieldState, config: SolverConfig,
           extrema: tuple | None = None) -> float:
    """Stable step: CFL * min(advective, diffusive), capped at dt_max.

    extrema, if given, is _check_state's (minima, maxima) of this state's
    rows; without it they are taken here.  The diffusivities mu/rho and
    kappa (gamma-1)/(R rho) peak where rho is least; rounded division is
    monotone, so taking them at min(rho) gives the same maxima bit for bit.

    The signal speed is the larger of the field speed 1/sqrt(eps) and the
    largest |u| + c.  Rounded multiply, sqrt and add are monotone, so
    sqrt(R gamma theta_max) + max|u| bounds every node's |u| + c as the
    exact pass rounds it; when that bound is within the field speed, the
    field speed is the answer bit for bit and no per-node pass runs.  Only
    a state whose sound or flow speed nears the field speed (or a NaN
    bound) takes the exact pass."""
    p = params
    if extrema is None:
        extrema = _extrema(state)
    (rho_min, u_min, *_), (_, u_max, th_max, *_) = extrema
    r_gamma = p.R * p.gamma
    s_max = 1.0 / p.sqrt_eps
    if not math.sqrt(th_max * r_gamma) + max(-u_min, u_max) <= s_max:
        c = state.theta * r_gamma
        np.sqrt(c, out=c)
        c += np.abs(state.u)
        s_max = max(float(c.max()), s_max)
    diffusivity = max(p.mu / rho_min,
                      p.kappa * (p.gamma - 1.0) / (p.R * rho_min))
    dt = CFL * min(grid.dx / s_max, grid.dx * grid.dx / (2.0 * diffusivity))
    if config.dt_max is not None:
        dt = min(dt, config.dt_max)
    return dt


def step(params: GasParams, end: EndStates, grid: Grid1D, state: FieldState,
         dt: float, config: SolverConfig):
    """One Heun step, Strang-wrapped in exact relaxation halves.  Returns
    (new_state, info) where info carries the stage-averaged boundary fluxes
    of spatial_rhs for the mass audit.

    Boundary values are enforced on the relaxed start and once on the
    result after its closing relaxation half.  Enforcing them on the Euler
    stage would change nothing: k1 is zero at every fluid entry the call
    writes, and k2 reads the boundary E and b only through w1(0) and w2(L),
    which are exactly 0 with or without it.  Enforcing them between the
    Heun average and the closing half would write only entries the last
    call overwrites, and read none it changes."""
    decay = math.exp(-dt / (2.0 * params.eps))
    work = state.copy()
    np.multiply(work.E, decay, out=work.E)
    apply_boundary(params, end, work)

    k1, f1 = spatial_rhs(params, end, grid, work, config)
    stage = k1.data * dt
    stage += work.data
    k2, f2 = spatial_rhs(params, end, grid, FieldState.of(stage), config)
    k1.data += k2.data
    k1.data *= 0.5 * dt
    # work + dt/2 (k1 + k2) in a block allocated last: on top of the heap it
    # keeps the step's freed temporaries below it for reuse, where a result
    # written into an earlier block lets malloc trim them and the next step
    # fault the pages in again (over twice the page faults at 32k nodes)
    new = FieldState.of(work.data + k1.data)
    np.multiply(new.E, decay, out=new.E)
    apply_boundary(params, end, new)

    return new, {key: 0.5 * (f1[key] + f2[key]) for key in f1}


def _mass(grid: Grid1D, state: FieldState) -> float:
    """Trapezoid mass, as one reduction: the node sum less half the ends."""
    rho = state.rho
    return grid.dx * (float(rho.sum()) - 0.5 * (rho.item(0) + rho.item(-1)))


def record_times(t_final: float, record_dt: float | None) -> list:
    """The times run lands on and shows its recorder: 0, each k * record_dt
    (k >= 1) short of t_final by more than rounding, and t_final.  Raises
    SolverError unless t_final and record_dt (if given) are finite and
    positive."""
    if not 0.0 < t_final < math.inf:      # nan fails too; inf never ends
        raise SolverError("t_final must be finite and positive")
    if record_dt is not None and not 0.0 < record_dt < math.inf:
        raise SolverError("record_dt must be finite and positive")
    times = [0.0]
    if record_dt is not None:
        k = 1
        while k * record_dt < t_final * (1.0 - 1e-12):
            times.append(k * record_dt)
            k += 1
    times.append(float(t_final))
    return times


@dataclass
class RunResult:
    """March outcome: final state, step count, the mass audit's maximum."""

    state: FieldState
    steps: int
    mass_residual_max: float


def run(params: GasParams, end: EndStates, grid: Grid1D, state0: FieldState,
        t_final: float, config: SolverConfig | None = None,
        record_dt: float | None = None, recorder=None) -> RunResult:
    """March state0 to t_final.

    The march lands exactly on each of record_times(t_final, record_dt).
    recorder, if given, is called as recorder(t, state, mass_residual_max)
    at each of those times, with the running maximum of the mass audit
    (0.0 at t = 0); state is the march's own array, so a recorder that
    keeps it must copy it.  Raises SolverError if a field turns non-finite
    or the step size collapses, and PositivityError if rho or theta leaves
    the positive cone.  run only marches: params.eps is taken as given,
    and whether it meets the theory's dielectric bound is for whoever set
    it (prepare_scenario files that in its warnings).
    """
    if config is None:
        config = SolverConfig()
    if state0.n_nodes != grid.n_nodes:
        raise SolverError("state and grid sizes disagree")
    times = record_times(t_final, record_dt)

    state = state0.copy()
    apply_boundary(params, end, state)
    extrema = _check_state(state, 0.0, 0)

    mass = _mass(grid, state)
    if recorder is not None:
        recorder(0.0, state, 0.0)
    t, steps, mass_residual_max = 0.0, 0, 0.0
    for t_event in times[1:]:
        while t < t_event:
            dt_stab = cfl_dt(params, end, grid, state, config, extrema)
            if dt_stab < DT_FLOOR:
                raise SolverError(f"step size collapsed to {dt_stab:g} "
                                  f"at t = {t:g}")
            remaining = t_event - t
            landed = remaining <= dt_stab * (1.0 + 1e-12)
            dt = remaining if landed else dt_stab
            state, info = step(params, end, grid, state, dt, config)
            mass_after = _mass(grid, state)
            t = t_event if landed else t + dt
            steps += 1
            extrema = _check_state(state, t, steps)

            resid = abs((mass_after - mass) / dt
                        - (info["flux_left"] - info["flux_right"]))
            mass = mass_after
            mass_residual_max = max(mass_residual_max, resid)

        if recorder is not None:
            recorder(t_event, state, mass_residual_max)

    return RunResult(state, steps, mass_residual_max)


def _extrema(state: FieldState) -> tuple[list, list]:
    """The minimum and the maximum of each row, as lists of five floats."""
    return state.data.min(axis=1).tolist(), state.data.max(axis=1).tolist()


def _check_state(state: FieldState, t: float,
                 n_step: int) -> tuple[list, list]:
    """Refuse a non-finite field (SolverError) or a non-positive rho/theta
    (PositivityError); return the rows' (minima, maxima) for cfl_dt.

    The fast path takes one minimum and one maximum per row: they bound
    every entry from both sides and cannot overflow, and they need neither
    BLAS (a dot product would run on BLAS threads that spin between steps)
    nor a boolean temporary.  A NaN makes its row's minimum NaN, which
    fails the tests on the minima; the maxima are read only for +inf."""
    minima, maxima = _extrema(state)
    rho_min, u_min, th_min, e_min, b_min = minima
    if (rho_min > 0.0 and th_min > 0.0 and u_min > -math.inf
            and e_min > -math.inf and b_min > -math.inf
            and max(maxima) < math.inf):
        return minima, maxima
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
    write_table(path, SNAPSHOT_HEADER,
                (np.full(grid.n_nodes, t), grid.x, *state.data))
