"""Perturbation bookkeeping: bumps, norms, energy functionals, decay fits.

Perturbations are measured against a background profile (rho_hat, u_hat,
theta_hat) with zero field part: phi = rho - rho_hat, psi = u - u_hat,
zeta = theta - theta_hat.  The weighted perturbation energy uses the convex
gap Phi(s) = s - 1 - ln s,

    eta = psi^2/2 + R theta_hat Phi(rho_hat/rho)
          + R/(gamma-1) theta_hat Phi(theta/theta_hat),

integrated against rho.  The compound field dissipation is the square
integral of E + psi b + u_hat b (algebraically equal to E + u b; the two
evaluation routes are kept distinct on purpose so tests can compare them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .gas import GasParams
from .solver import FIELDS, FieldState, Grid1D

__all__ = [
    "Perturbation", "DiagRecord",
    "bump_profile", "perturb", "phi_gap", "energy_density", "perturbation_energy",
    "compound_dissipation", "l2_norm", "h1_norm", "sup_norm", "gradient",
    "sobolev_check", "poincare_check", "fit_convergence",
    "record_from_state", "write_diag_csv",
]

PERTURBATION_SHAPES = ("cosine", "gaussian")


@dataclass(frozen=True)
class Perturbation:
    """Localized bump: amplitude * cos^2(pi (x-c)/w) on |x - c| <= w/2, or a
    Gaussian of deviation w/4 when shape = "gaussian"."""

    amplitude: float = 1e-2
    center: float = 5.0
    width: float = 2.0
    shape: str = "cosine"

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("width must be positive")
        if self.shape not in PERTURBATION_SHAPES:
            raise ValueError(f"shape must be one of {PERTURBATION_SHAPES}")

    def profile(self, x) -> np.ndarray:
        return bump_profile(x, self.amplitude, self.center, self.width,
                            self.shape)


def bump_profile(x, amplitude: float, center: float, width: float,
                 shape: str = "cosine") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if shape == "cosine":
        arg = np.pi * (x - center) / width
        out = amplitude * np.cos(arg) ** 2
        out[np.abs(x - center) > width / 2.0] = 0.0
        return out
    sigma = width / 4.0
    return amplitude * np.exp(-0.5 * ((x - center) / sigma) ** 2)


def perturb(grid: Grid1D, state: FieldState, pert: Perturbation,
            targets=("u", "theta")) -> FieldState:
    """Return a copy of state with the bump added to each target field."""
    out = state.copy()
    bump = pert.profile(grid.x)
    for name in targets:
        if name not in FIELDS:
            raise ValueError(f"unknown field {name!r}")
        getattr(out, name)[:] += bump
    return out


# --------------------------------------------------------------------------
# energy functionals
# --------------------------------------------------------------------------

def phi_gap(s):
    """Phi(s) = s - 1 - ln s: nonnegative, vanishing only at s = 1."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise ValueError("phi_gap needs positive arguments")
    return s - 1.0 - np.log(s)


def energy_density(params: GasParams, rho, theta, rho_hat, theta_hat, psi):
    """Pointwise eta; integrate rho * eta for the perturbation energy."""
    p = params
    rho = np.asarray(rho, float)
    theta = np.asarray(theta, float)
    rho_hat = np.asarray(rho_hat, float)
    theta_hat = np.asarray(theta_hat, float)
    psi = np.asarray(psi, float)
    return (0.5 * psi * psi
            + p.R * theta_hat * phi_gap(rho_hat / rho)
            + p.R / (p.gamma - 1.0) * theta_hat * phi_gap(theta / theta_hat))


def perturbation_energy(params: GasParams, x, rho, theta, rho_hat, theta_hat,
                        psi) -> float:
    eta = energy_density(params, rho, theta, rho_hat, theta_hat, psi)
    return float(np.trapezoid(np.asarray(rho, float) * eta, x))


def compound_dissipation(x, E, b, psi, u_hat) -> float:
    """int (E + psi b + u_hat b)^2 dx, the damping rate of the field part."""
    E = np.asarray(E, float)
    b = np.asarray(b, float)
    drive = E + np.asarray(psi, float) * b + np.asarray(u_hat, float) * b
    return float(np.trapezoid(drive * drive, x))


# --------------------------------------------------------------------------
# norms
# --------------------------------------------------------------------------

def gradient(x, f) -> np.ndarray:
    """Centered first differences, one-sided at the ends (along the last
    axis, so a stack of fields is differentiated row by row)."""
    return np.gradient(np.asarray(f, float), np.asarray(x, float), axis=-1)


def _per_field(norms):
    """A Python float for one field, the array of row norms for a stack."""
    return float(norms) if np.ndim(norms) == 0 else norms


def l2_norm(x, f):
    f = np.asarray(f, float)
    return _per_field(np.sqrt(np.trapezoid(f * f, x, axis=-1)))


def h1_norm(x, f):
    fx = gradient(x, f)
    f = np.asarray(f, float)
    return _per_field(np.sqrt(np.trapezoid(f * f + fx * fx, x, axis=-1)))


def sup_norm(f):
    return _per_field(np.max(np.abs(f), axis=-1))


# --------------------------------------------------------------------------
# functional inequalities used as run-time sanity checks
# --------------------------------------------------------------------------

def sobolev_check(x, f, fx=None, slack: float = 1e-10) -> dict:
    """sup f^2 <= 2 ||f|| ||f_x|| for fields that die out by the right end."""
    f = np.asarray(f, float)
    fx = gradient(x, f) if fx is None else np.asarray(fx, float)
    lhs = float(np.max(f * f))
    rhs = 2.0 * l2_norm(x, f) * l2_norm(x, fx)
    violation = max(0.0, lhs - rhs)
    return {"lhs": lhs, "rhs": rhs, "violation": violation,
            "passed": violation <= slack}


def poincare_check(x, z, zx=None, slack: float = 1e-10) -> dict:
    """|z(x)| <= |z(0)| + sqrt(x) ||z_x||_{L^2(0,x)} at every node."""
    x = np.asarray(x, float)
    z = np.asarray(z, float)
    zx = gradient(x, z) if zx is None else np.asarray(zx, float)
    # cumulative trapezoid of zx^2
    g = zx * zx
    cum = np.concatenate(([0.0],
                          np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(x))))
    rhs = abs(z[0]) + np.sqrt(np.maximum(x - x[0], 0.0)) * np.sqrt(cum)
    violation = float(np.max(np.abs(z) - rhs))
    return {"max_violation": max(0.0, violation), "passed": violation <= slack}


def fit_convergence(times, values, floor: float | None = None,
                    ratio_threshold: float = 0.5) -> dict:
    """Decide whether a sampled signal is decaying.

    Verdict PASS when the mean over the last quarter of the samples is at
    most ratio_threshold times the mean over the first quarter, or lies at
    or below the supplied floor.  Requires at least 10 samples whose
    positive times span a decade; otherwise INCONCLUSIVE.  Also reports a
    least-squares exponential rate (value ~ exp(-rate * t)) over the
    positive samples.
    """
    times = np.asarray(times, float)
    values = np.asarray(values, float)
    if times.size != values.size:
        raise ValueError("times and values must align")
    out = {"verdict": "INCONCLUSIVE", "n": int(times.size),
           "first_quartile_mean": math.nan, "last_quartile_mean": math.nan,
           "ratio": math.nan, "rate": math.nan}
    if times.size < 10:
        return out
    pos = times > 0
    if not np.any(pos) or times[pos].max() < 10.0 * times[pos].min():
        return out

    q = max(1, times.size // 4)
    first = float(np.mean(values[:q]))
    last = float(np.mean(values[-q:]))
    out["first_quartile_mean"] = first
    out["last_quartile_mean"] = last
    out["ratio"] = last / first if first > 0 else math.inf

    ok = pos & (values > 0)
    if np.count_nonzero(ok) >= 2:
        slope = np.polyfit(times[ok], np.log(values[ok]), 1)[0]
        out["rate"] = float(-slope)

    decayed = first > 0 and last <= ratio_threshold * first
    floored = floor is not None and last <= floor
    out["verdict"] = "PASS" if (decayed or floored) else "FAIL"
    return out


# --------------------------------------------------------------------------
# records
# --------------------------------------------------------------------------

@dataclass
class DiagRecord:
    """One sampled diagnostic row; CSV columns follow this field order."""

    t: float
    l2_phi: float
    l2_psi: float
    l2_zeta: float
    l2_E: float
    l2_b: float
    h1_phi: float
    h1_psi: float
    h1_zeta: float
    h1_E: float
    h1_b: float
    sup_phi: float
    sup_psi: float
    sup_zeta: float
    sup_E: float
    sup_b: float
    energy: float
    dissipation: float
    phi0: float
    E0: float
    b0: float
    mass_residual: float

    @property
    def sup_fluid(self) -> float:
        return max(self.sup_phi, self.sup_psi, self.sup_zeta)

    @property
    def sup_field(self) -> float:
        return max(self.sup_E, self.sup_b)


def _background_arrays(background, x, t):
    if hasattr(background, "eval"):
        rho_h, u_h, th_h = background.eval(x, t)
    elif callable(background):
        rho_h, u_h, th_h = background(x, t)
    else:
        r, u, th = background
        rho_h = np.full(x.shape, float(r))
        u_h = np.full(x.shape, float(u))
        th_h = np.full(x.shape, float(th))
    return np.asarray(rho_h, float), np.asarray(u_h, float), np.asarray(th_h, float)


def record_from_state(params: GasParams, grid: Grid1D, state: FieldState,
                      background, t: float,
                      mass_residual: float = 0.0) -> DiagRecord:
    """Measure the state against the background profile at time t.

    background may expose eval(x, t) -> (rho, u, theta), be a plain callable
    with that signature, or be a constant (rho, u, theta) triple; its field
    part is identically zero.
    """
    x = grid.x
    rho_h, u_h, th_h = _background_arrays(background, x, t)
    pert = state.data.copy()                 # (phi, psi, zeta, E, b)
    pert[:3] -= (rho_h, u_h, th_h)
    psi = pert[1]
    return DiagRecord(
        t, *l2_norm(x, pert).tolist(), *h1_norm(x, pert).tolist(),
        *sup_norm(pert).tolist(),
        energy=perturbation_energy(params, x, state.rho, state.theta,
                                   rho_h, th_h, psi),
        dissipation=compound_dissipation(x, state.E, state.b, psi, u_h),
        phi0=float(pert[0, 0]), E0=float(state.E[0]), b0=float(state.b[0]),
        mass_residual=mass_residual,
    )


DIAG_COLUMNS = tuple(f.name for f in fields(DiagRecord))


def write_diag_csv(path, records) -> None:
    """CSV with one row per record; columns in DiagRecord field order."""
    with open(path, "w") as fh:
        fh.write(",".join(DIAG_COLUMNS) + "\n")
        for rec in records:
            fh.write(",".join("%.17g" % getattr(rec, c)
                              for c in DIAG_COLUMNS) + "\n")
