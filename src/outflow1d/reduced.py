"""One-dimensional reductions of the three-dimensional parent flow.

A longitudinal flow u = (u, 0, 0) that is uniform in the transverse
directions admits nine field alignments, which collapse onto five distinct
one-dimensional systems:

    system 1  transported b, Lorentz force -(E+ub)b, heating (E+ub)^2
              (the fully coupled model solved elsewhere in this package)
    system 2  E uniform with eps E_t + E = 0; b time-independent with
              b_x = u b; Lorentz -u b^2; heating E^2 + (ub)^2
    system 3  constraint E b = 0; E uniform and relaxing, b constant;
              no Lorentz force; heating E^2
    system 4  constraint E b = 0; E = E(x,0) exp(-t/eps) with b = 0, or
              E = 0 with b_x = u b; Lorentz -u b^2; heating E^2 + (ub)^2
    system 5  E = E(x,0) exp(-t/eps); b a global constant; no Lorentz
              force; heating E^2

Every reduction leaves b frozen in time, and E either vanishes or decays
by the factor exp(-t/eps); verify_reduction drives the solver in its
decoupled field mode against these closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gas import EndStates, GasParams
from .solver import FieldState, Grid1D, SolverConfig, run

__all__ = [
    "ReducedModelCase", "SYSTEM_OF_CASE",
    "reduce_case", "closed_form_E", "closed_form_b",
    "verify_reduction", "format_case_table",
]

#: case -> (E alignment, B alignment, system, sign of stored b)
_CASE_SPEC = {
    1: ((0, 0, 1), (0, 1, 0), 1, +1),
    2: ((0, 1, 0), (0, 0, 1), 1, -1),   # stored b is minus the B component
    3: ((0, 0, 1), (0, 0, 1), 2, +1),
    4: ((0, 1, 0), (0, 1, 0), 2, +1),
    5: ((0, 0, 1), (1, 0, 0), 3, +1),
    6: ((0, 1, 0), (1, 0, 0), 3, +1),
    7: ((1, 0, 0), (0, 1, 0), 4, +1),
    8: ((1, 0, 0), (0, 0, 1), 4, +1),
    9: ((1, 0, 0), (1, 0, 0), 5, +1),
}

SYSTEM_OF_CASE = {case: spec[2] for case, spec in _CASE_SPEC.items()}


@dataclass(frozen=True)
class ReducedModelCase:
    """Field alignment of one transversally-uniform longitudinal flow."""

    case: int
    e_axis: tuple
    b_axis: tuple
    system: int
    b_sign: int = 1          # scalar unknown b is b_sign * (B component)

    @property
    def has_transport(self) -> bool:
        """Only the fully coupled system propagates the fields in x."""
        return self.system == 1

    @property
    def has_lorentz(self) -> bool:
        return self.system in (1, 2, 4)

    @property
    def eb_constrained(self) -> bool:
        """Systems forced onto the branches E = 0 or b = 0."""
        return self.system in (3, 4)

    @property
    def heating(self) -> str:
        if self.system == 1:
            return "(E + u b)^2"
        if self.system in (2, 4):
            return "E^2 + (u b)^2"
        return "E^2"


def reduce_case(case: int) -> ReducedModelCase:
    """Alignment table lookup for case 1..9."""
    if case not in _CASE_SPEC:
        raise ValueError("case must be an integer in 1..9")
    e_axis, b_axis, system, sign = _CASE_SPEC[case]
    return ReducedModelCase(case=case, e_axis=e_axis, b_axis=b_axis,
                            system=system, b_sign=sign)


def closed_form_E(params: GasParams, E0, t: float, system: int,
                  branch: str = "decay"):
    """E at time t for the explicitly solvable systems (2..5).

    E0 is the initial value: a scalar for the spatially uniform systems
    2 and 3, an array-compatible profile for 4 and 5.  branch selects the
    zero-product alternative of systems 3 and 4: "decay" keeps E and kills
    b, "frozen" keeps b and kills E.
    """
    if system == 1:
        raise ValueError("the fully coupled system has no closed form")
    if system not in (2, 3, 4, 5):
        raise ValueError("system must be in 1..5")
    if branch not in ("decay", "frozen"):
        raise ValueError("branch must be 'decay' or 'frozen'")
    E0 = np.asarray(E0, dtype=float)
    if system in (3, 4) and branch == "frozen":
        return np.zeros_like(E0)
    return E0 * math.exp(-t / params.eps)


def closed_form_b(x, b_at_0: float, u0=None, system: int = 2,
                  branch: str = "decay"):
    """Time-independent magnetic profile of systems 2..5.

    Systems 2 and 4 ("frozen" branch) integrate b_x = u b from the boundary
    value, giving b(x) = b(0) exp(int_0^x u(y,0) dy); systems 3 and 5 carry
    a global constant.  Branch "decay" of the constrained systems has b = 0.
    """
    x = np.asarray(x, dtype=float)
    if system == 1:
        raise ValueError("the fully coupled system has no closed form")
    if system not in (2, 3, 4, 5):
        raise ValueError("system must be in 1..5")
    if system in (3, 4) and branch == "decay":
        return np.zeros_like(x)
    if system in (3, 5):
        return np.full(x.shape, float(b_at_0))
    if u0 is None:
        raise ValueError("systems 2 and 4 need the initial velocity profile")
    u0 = np.asarray(u0, dtype=float)
    integral = np.concatenate(
        ([0.0], np.cumsum(0.5 * (u0[1:] + u0[:-1]) * np.diff(x))))
    return float(b_at_0) * np.exp(integral)


def verify_reduction(params: GasParams, end: EndStates, grid: Grid1D,
                     state0: FieldState, case: int, branch: str = "decay",
                     n_relax: float = 5.0) -> dict:
    """March a reduced case with the decoupled field mode and compare with
    the closed forms.

    The fluid is frozen (the reductions constrain only the fields) and the
    run covers n_relax relaxation times.  The solver applies the relaxation
    as exact decay factors, so E must match exp(-t/eps) to 1e-6; b must
    stay constant in time to 1e-12.
    """
    model = reduce_case(case)
    if model.system == 1:
        raise ValueError("case %d keeps the full coupling; nothing to verify"
                         % case)
    t_final = n_relax * params.eps
    config = SolverConfig(maxwell_mode="decoupled")

    state = state0.copy()
    if model.eb_constrained:
        if branch == "decay":
            state.b[:] = 0.0
        else:
            state.E[:] = 0.0

    result = run(params, end, grid, state, t_final, config)
    E_exact = closed_form_E(params, state.E, t_final, model.system, branch)
    b_exact = state.b                      # frozen in time in every reduction

    scale = max(1.0, float(np.max(np.abs(state.E))))
    err_E = float(np.max(np.abs(result.state.E - E_exact))) / scale
    err_b = float(np.max(np.abs(result.state.b - b_exact)))
    tol_E = 1e-6
    tol_b = 1e-12
    return {
        "case": case, "system": model.system, "branch": branch,
        "t_final": t_final,
        "err_E": err_E, "tol_E": tol_E,
        "err_b": err_b, "tol_b": tol_b,
        "passed": err_E <= tol_E and err_b <= tol_b,
        "steps": result.steps,
    }


def format_case_table() -> str:
    """Plain-text table of the nine alignments and their reductions."""
    header = (f"{'case':>4}  {'E axis':>9}  {'B axis':>9}  {'system':>6}  "
              f"{'Lorentz':>8}  {'heating':<14}  notes")
    lines = [header, "-" * len(header)]
    notes = {
        1: "fully coupled model",
        2: "same as case 1 with b = -B component",
        3: "E uniform + relaxing; b constant in t with b_x = u b",
        4: "E uniform + relaxing; b constant in t with b_x = u b",
        5: "E b = 0: relaxing E with b = 0, or E = 0 with b constant",
        6: "E b = 0: relaxing E with b = 0, or E = 0 with b constant",
        7: "E b = 0: E(x,0) exp(-t/eps) with b = 0, or E = 0 with b_x = u b",
        8: "E b = 0: E(x,0) exp(-t/eps) with b = 0, or E = 0 with b_x = u b",
        9: "E(x,0) exp(-t/eps); b a global constant",
    }
    for case in range(1, 10):
        m = reduce_case(case)
        axis = lambda a: "(%d,%d,%d)" % a
        lines.append(f"{case:>4}  {axis(m.e_axis):>9}  {axis(m.b_axis):>9}  "
                     f"{m.system:>6}  {'yes' if m.has_lorentz else 'no':>8}  "
                     f"{m.heating:<14}  {notes[case]}")
    return "\n".join(lines)
