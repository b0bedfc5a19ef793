"""Perturbation bookkeeping: bumps, sup norms, decay fits, records.

Perturbations are measured against a background profile (rho_hat, u_hat,
theta_hat) with zero field part: phi = rho - rho_hat, psi = u - u_hat,
zeta = theta - theta_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .solver import FieldState, Grid1D
from .table import write_table

__all__ = [
    "DiagRecord",
    "bump_profile", "sup_norm", "fit_convergence",
    "record_from_state", "write_diag_csv",
]

DECAY_RATIO = 0.5        # fit_convergence: last/first quartile mean to PASS


def bump_profile(x, amplitude: float, center: float,
                 width: float) -> np.ndarray:
    """Localized bump: amplitude * cos^2(pi (x-c)/w) on |x - c| <= w/2."""
    if not width > 0:                     # nan fails too
        raise ValueError("width must be positive")
    x = np.asarray(x, dtype=float)
    arg = np.pi * (x - center) / width
    out = amplitude * np.cos(arg) ** 2
    out[np.abs(x - center) > width / 2.0] = 0.0
    return out


def sup_norm(f):
    return np.max(np.abs(f), axis=-1)


def fit_convergence(times, values) -> dict:
    """Decide whether a sampled signal is decaying.

    A nonempty signal that is exactly 0.0 at every sample has nothing to
    damp: verdict PASS with note "nothing to damp", whatever its length or
    time span (its quartile means are 0.0, its ratio and rate nan).  A
    signal with a NaN or infinite sample is FAIL, whatever its length or
    time span (its quartile means, ratio and rate nan).  Any other signal
    is PASS when the mean over the last quarter of the samples is at most
    DECAY_RATIO times the mean over the first quarter, FAIL otherwise
    (ratio inf when the first quarter is all 0), and INCONCLUSIVE with
    fewer than 10 samples or when their positive times do not span a
    decade.  Also reports a least-squares exponential rate
    (value ~ exp(-rate * t)) over the positive samples.
    """
    times = np.asarray(times, float)
    values = np.asarray(values, float)
    if times.size != values.size:
        raise ValueError("times and values must align")
    out = {"verdict": "INCONCLUSIVE", "n": int(times.size),
           "first_quartile_mean": math.nan, "last_quartile_mean": math.nan,
           "ratio": math.nan, "rate": math.nan}
    if values.size and not np.any(values):      # a nan sample is not 0
        out.update(verdict="PASS", first_quartile_mean=0.0,
                   last_quartile_mean=0.0, note="nothing to damp")
        return out
    if not np.isfinite(values).all():
        return {**out, "verdict": "FAIL"}
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

    decayed = first > 0 and last <= DECAY_RATIO * first
    out["verdict"] = "PASS" if decayed else "FAIL"
    return out


# --------------------------------------------------------------------------
# records
# --------------------------------------------------------------------------

@dataclass
class DiagRecord:
    """One sampled diagnostic row; CSV columns follow this field order."""

    t: float
    sup_phi: float
    sup_psi: float
    sup_zeta: float
    sup_E: float
    sup_b: float
    mass_residual: float              # the march's running audit maximum
    rel_fluid: float                  # sup |(rho, u, theta) - reference|

    @property
    def sup_field(self) -> float:
        return max(self.sup_E, self.sup_b)


def record_from_state(grid: Grid1D, state: FieldState, background,
                      reference, t: float, mass_residual: float) -> DiagRecord:
    """Measure the state against the background profile at time t and its
    fluid part against reference[:3], a reference's (rho, u, theta) (rel_fluid
    is 0.0 for None); the record carries the march's mass audit as given.

    background exposes eval(x, t) -> (rho, u, theta) as float arrays on x;
    its field part is identically zero.
    """
    fluid = state.data[:3]
    pert = fluid - background.eval(grid.x, t)      # (phi, psi, zeta)
    rel = 0.0 if reference is None else \
        float(sup_norm(fluid - reference[:3]).max())
    return DiagRecord(t, *sup_norm(pert).tolist(),
                      *sup_norm(state.data[3:]).tolist(), mass_residual, rel)


DIAG_COLUMNS = tuple(f.name for f in fields(DiagRecord))


def write_diag_csv(path, records) -> None:
    """CSV with one row per record; columns in DiagRecord field order."""
    write_table(path, ",".join(DIAG_COLUMNS),
                [[getattr(rec, c) for rec in records] for c in DIAG_COLUMNS])
