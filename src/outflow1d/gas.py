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

__all__ = [
    "GasParams", "EndStates", "SonicRegime", "RiemannPair", "DielectricBound",
    "pressure", "sound_speed", "classify_regime", "dielectric_bound",
    "to_riemann", "from_riemann", "check_pointwise_bounds",
]

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
        if self.R <= 0:
            raise ValueError("R must be positive")
        if self.gamma <= 1:
            raise ValueError("gamma must exceed 1")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.eps <= 0:
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
        if self.u_minus >= 0:
            raise ValueError("u_minus must be negative (outflow problem)")
        if self.theta_minus <= 0 or self.theta_plus <= 0:
            raise ValueError("temperatures must be positive")
        if self.rho_plus <= 0:
            raise ValueError("rho_plus must be positive")


@dataclass(frozen=True)
class SonicRegime:
    """Flow regime of a (u, theta) state: tag like 'subsonic-negative'."""

    tag: str
    mach: float

    @property
    def regime(self) -> str:
        return self.tag.split("-")[0]

    @property
    def sign(self) -> str:
        return self.tag.split("-")[1]


@dataclass(frozen=True)
class RiemannPair:
    """Transport invariants of the field subsystem.

    W1 rides the +1/sqrt(eps) characteristic (incoming at x=0),
    W2 rides the -1/sqrt(eps) characteristic (outgoing at x=0).
    """

    W1: np.ndarray | float
    W2: np.ndarray | float


@dataclass(frozen=True)
class DielectricBound:
    """Stability threshold for the dielectric constant.

    c_bar = 1/(64*beta1*beta3) with beta1 = max(|u-|,|u+|),
    beta2 = max(theta-, theta+), beta3 = beta1 + sqrt(R*gamma*beta2).
    Static boundary data (beta1 = 0) puts no constraint on eps: the bound
    is reported as unbounded (c_bar = inf).
    """

    c_bar: float
    beta1: float
    beta2: float
    beta3: float

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.c_bar)


def pressure(params: GasParams, rho, theta):
    """p = R*rho*theta."""
    return params.R * np.asarray(rho) * np.asarray(theta)


def sound_speed(params: GasParams, theta):
    """c = sqrt(R*gamma*theta); theta must be positive."""
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0):
        raise ValueError("sound_speed requires theta > 0")
    return np.sqrt(params.R * params.gamma * theta)


def classify_regime(params: GasParams, u: float, theta: float) -> SonicRegime:
    """Classify |u|/c against 1 with a relative tolerance of MACH_TOL."""
    c = float(sound_speed(params, theta))
    mach = abs(u) / c
    if abs(mach - 1.0) <= MACH_TOL:
        regime = "transonic"
    elif mach < 1.0:
        regime = "subsonic"
    else:
        regime = "supersonic"
    if u < 0:
        sign = "negative"
    elif u > 0:
        sign = "positive"
    else:
        sign = "zero"
    return SonicRegime(tag=f"{regime}-{sign}", mach=mach)


def dielectric_bound(params: GasParams, end: EndStates) -> DielectricBound:
    beta1 = max(abs(end.u_minus), abs(end.u_plus))
    beta2 = max(end.theta_minus, end.theta_plus)
    beta3 = beta1 + math.sqrt(params.R * params.gamma * beta2)
    if beta1 == 0.0:
        return DielectricBound(math.inf, beta1, beta2, beta3)
    return DielectricBound(1.0 / (64.0 * beta1 * beta3), beta1, beta2, beta3)


def to_riemann(params: GasParams, E, b) -> RiemannPair:
    """(E, b) -> (W1, W2) = (sqrt(eps)/2)*(sqrt(eps)E -+ b)."""
    s = params.sqrt_eps
    E = np.asarray(E, dtype=float)
    b = np.asarray(b, dtype=float)
    return RiemannPair(W1=0.5 * s * (s * E - b), W2=0.5 * s * (s * E + b))


def from_riemann(params: GasParams, W1, W2):
    """Inverse map: E = (W1+W2)/eps, b = (W2-W1)/sqrt(eps)."""
    W1 = np.asarray(W1, dtype=float)
    W2 = np.asarray(W2, dtype=float)
    E = (W1 + W2) / params.eps
    b = (W2 - W1) / params.sqrt_eps
    return E, b


def check_pointwise_bounds(params: GasParams, state, end: EndStates) -> dict:
    """A-priori solution corridor used as a runtime sanity monitor.

    Bands (open intervals):
        theta in (min(th-,th+)/4, 3*max(th-,th+)/2)
        |u|   <  2*max(|u-|,|u+|)
        rho   in (rho+/4*(3*th-/(4*th+))^(1/(gamma-1)), 7*rho+/4)

    `state` is anything with rho/u/theta attributes (arrays or scalars).
    Returns a report dict with per-field pass flags and worst offenders.
    """
    rho = np.asarray(state.rho, dtype=float)
    u = np.asarray(state.u, dtype=float)
    theta = np.asarray(state.theta, dtype=float)

    th_lo = 0.25 * min(end.theta_minus, end.theta_plus)
    th_hi = 1.5 * max(end.theta_minus, end.theta_plus)
    u_hi = 2.0 * max(abs(end.u_minus), abs(end.u_plus))
    rho_lo = 0.25 * end.rho_plus * (0.75 * end.theta_minus / end.theta_plus) ** (
        1.0 / (params.gamma - 1.0))
    rho_hi = 1.75 * end.rho_plus

    report = {
        "theta_ok": bool(np.all((theta > th_lo) & (theta < th_hi))),
        "u_ok": bool(np.all(np.abs(u) < u_hi)),
        "rho_ok": bool(np.all((rho > rho_lo) & (rho < rho_hi))),
        "theta_band": (th_lo, th_hi),
        "u_band": u_hi,
        "rho_band": (rho_lo, rho_hi),
        "theta_minmax": (float(theta.min()), float(theta.max())),
        "u_maxabs": float(np.abs(u).max()),
        "rho_minmax": (float(rho.min()), float(rho.max())),
    }
    report["all_ok"] = report["theta_ok"] and report["u_ok"] and report["rho_ok"]
    return report
