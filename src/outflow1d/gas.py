"""Core state relations for the 1-D plasma outflow model.

Ideal polytropic gas p = R*rho*theta coupled to a transverse
electromagnetic pair (E, b).  The field subsystem

    eps*E_t - b_x + E + u*b = 0,      b_t - E_x = 0

diagonalizes into two transport equations with speeds +-1/sqrt(eps);
the corresponding invariants W1, W2 are what the half-line boundary
conditions are written in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["GasParams", "EndStates", "sound_speed", "classify_regime",
           "dielectric_bound"]

# relative tolerance for deciding |u|/c == 1 (transonic)
MACH_TOL = 1e-9


@dataclass(frozen=True)
class GasParams:
    """Gas constants and transport/field coefficients.

    R : gas constant (>0)
    gamma : adiabatic exponent (>1)
    mu : viscosity (lambda + 2*mu' of the parent 3-D model)
    kappa : heat conductivity
    eps : dielectric constant
    """

    R: float = 1.0
    gamma: float = 5.0 / 3.0
    mu: float = 1.0
    kappa: float = 1.0
    eps: float = 1.0

    def __post_init__(self) -> None:
        # `not v > 0`: nan fails too
        if not self.R > 0:
            raise ValueError("R must be positive")
        if not self.gamma > 1:
            raise ValueError("gamma must exceed 1")
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if not self.eps > 0:
            raise ValueError("eps must be positive")

    @property
    def sqrt_eps(self) -> float:
        return math.sqrt(self.eps)


@dataclass(frozen=True)
class EndStates:
    """Boundary data at x=0 and far-field state at x=+inf.

    The outflow condition requires u_minus < 0.  rho at the boundary is not
    free data (the u<0 characteristic leaves the domain): the solver evolves
    rho(0) with the boundary flux rho(0)*u_minus.
    """

    u_minus: float
    theta_minus: float
    rho_plus: float
    u_plus: float
    theta_plus: float

    def __post_init__(self) -> None:
        if not self.u_minus < 0:
            raise ValueError("u_minus must be negative (outflow problem)")
        if not (self.theta_minus > 0 and self.theta_plus > 0):
            raise ValueError("temperatures must be positive")
        if not self.rho_plus > 0:
            raise ValueError("rho_plus must be positive")


def sound_speed(params: GasParams, theta):
    """c = sqrt(R*gamma*theta); theta must be positive."""
    theta = np.asarray(theta, dtype=float)
    if not np.all(theta > 0):             # nan fails too
        raise ValueError("sound_speed requires theta > 0")
    return np.sqrt(params.R * params.gamma * theta)


def classify_regime(params: GasParams, u: float, theta: float) -> str:
    """'subsonic', 'transonic' or 'supersonic': |u|/c against 1 with a
    relative tolerance of MACH_TOL.  u must be finite and theta positive."""
    if not math.isfinite(u):
        raise ValueError("classify_regime requires a finite u")
    mach = abs(u) / float(sound_speed(params, theta))
    if abs(mach - 1.0) <= MACH_TOL:
        return "transonic"
    return "subsonic" if mach < 1.0 else "supersonic"


def dielectric_bound(params: GasParams, end: EndStates) -> float:
    """The stability threshold c_bar = 1/(64*beta1*beta3) for the dielectric
    constant, with beta1 = max(|u-|, |u+|), beta2 = max(theta-, theta+) and
    beta3 = beta1 + sqrt(R*gamma*beta2).  EndStates requires u- < 0, so
    beta1 > 0 and c_bar is finite."""
    beta1 = max(abs(end.u_minus), abs(end.u_plus))
    beta2 = max(end.theta_minus, end.theta_plus)
    beta3 = beta1 + math.sqrt(params.R * params.gamma * beta2)
    return 1.0 / (64.0 * beta1 * beta3)
