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
by the factor exp(-t/eps); CASE_NOTES states these closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ReducedModelCase", "CASE_NOTES", "reduce_case", "format_case_table",
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

_B_ODE = "b(x) = b(0) exp(int_0^x u(y,0) dy)"

#: case -> (table note, closed form of E and b)
CASE_NOTES = {
    1: ("fully coupled model", "none: E, b transported"),
    2: ("same as case 1 with b = -B component", "none: E, b transported"),
    **dict.fromkeys((3, 4), (
        "E uniform + relaxing; b constant in t with b_x = u b",
        "E(t) = E(0) exp(-t/eps); " + _B_ODE)),
    **dict.fromkeys((5, 6), (
        "E b = 0: relaxing E with b = 0, or E = 0 with b constant",
        "E(t) = E(0) exp(-t/eps), b = 0; or E = 0, b = b(0)")),
    **dict.fromkeys((7, 8), (
        "E b = 0: E(x,0) exp(-t/eps) with b = 0, or E = 0 with b_x = u b",
        "E(x,t) = E(x,0) exp(-t/eps), b = 0; or E = 0, " + _B_ODE)),
    9: ("E(x,0) exp(-t/eps); b a global constant",
        "E(x,t) = E(x,0) exp(-t/eps); b = b(0)"),
}


@dataclass(frozen=True)
class ReducedModelCase:
    """Field alignment of one transversally-uniform longitudinal flow."""

    case: int
    e_axis: tuple
    b_axis: tuple
    system: int
    b_sign: int = 1          # scalar unknown b is b_sign * (B component)

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


def format_case_table() -> str:
    """Plain-text table of the nine alignments and their reductions."""
    header = (f"{'case':>4}  {'E axis':>9}  {'B axis':>9}  {'system':>6}  "
              f"{'Lorentz':>8}  {'heating':<14}  notes")
    lines = [header, "-" * len(header)]
    for case in range(1, 10):
        m = reduce_case(case)
        axis = lambda a: "(%d,%d,%d)" % a
        lines.append(f"{case:>4}  {axis(m.e_axis):>9}  {axis(m.b_axis):>9}  "
                     f"{m.system:>6}  {'yes' if m.has_lorentz else 'no':>8}  "
                     f"{m.heating:<14}  {CASE_NOTES[case][0]}")
    return "\n".join(lines)
