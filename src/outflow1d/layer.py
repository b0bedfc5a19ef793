"""Stationary boundary-layer profiles on the half line.

Time-independent solutions with far-field state (rho_+, u_+, theta_+) and
boundary data (u_-, theta_-) satisfy, after one integration of the
continuity equation (mass flux m := rho_+ * u_+ < 0),

    u'     = (m/mu)    * [ (u - u_+) + R*(theta/u - theta_+/u_+) ]
    theta' = (m/kappa) * [ (R*theta_+/u_+)*(u - u_+)
                           + (R/(gamma-1))*(theta - theta_+)
                           - (u - u_+)^2 / 2 ]
    rho(x) = m / u(x)

The far state is a fixed point whose linearization decides everything:

  * supersonic  -> stable node: every nearby datum connects; integrate
    forward from (u_-, theta_-) and the orbit falls into the node.
  * subsonic    -> saddle: a layer exists only for data on the 1-D stable
    manifold.  Walk that manifold backwards from a small offset along the
    stable eigendirection (backward flow contracts the transverse error)
    until the strength |u - u_+| + |theta - theta_+| reaches delta: that
    point is the boundary data.
  * transonic   -> one zero eigenvalue.  The non-degenerate branch (stable
    eigendirection) decays exponentially and is found by the same backward
    walk; data on the attracting side of the center direction gives the
    degenerate layer with algebraic tail |u - u_+| ~ delta/(1 + delta*x),
    found by forward integration.

Both off-diagonal Jacobian entries are positive, so the eigenvalues are
always real: no spiraling orbits in any regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import LSODA
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .gas import GasParams, classify_regime
from .table import write_table

__all__ = [
    "LayerProfile", "LayerError",
    "layer_ode_rhs", "layer_jacobian", "stable_direction", "center_direction",
    "construct_layer",
    "measure_decay", "find_M0", "export_csv",
]

CASE_TAGS = ("supersonic", "transonic_manifold", "transonic_degenerate",
             "subsonic")
LAYER_BRANCHES = ("lower", "upper", "degenerate")


class LayerError(RuntimeError):
    pass


# Orbit construction; scale = max(1, |u_+|, theta_+).
RTOL = ATOL = 1e-10      # LSODA tolerances
STOP_XTOL = 4.0 * np.finfo(float).eps   # brentq xtol = rtol at a stop
EPS_MFD_FACTOR = 1e-6    # manifold offset = factor*max(1,|u_+|)
FP_TOL = 1e-9            # forward orbits stop FP_TOL*scale from the far point
ALG_SPAN = 1e3           # degenerate orbits stop once delta*x >= ALG_SPAN
SAMPLE_H = 1e-3          # uniform sample spacing (exponential cases)
ALG_H_LIN = 2e-3         # sample spacing of the degenerate transient
ALG_X_LIN = 10.0         # linear sampling up to here, geometric beyond
ALG_N_GEOM = 4000


@dataclass
class LayerProfile:
    """Sampled stationary profile of strength delta > 0 plus a
    monotone-cubic evaluator, built on the first eval (a caller that reads
    only the samples never builds it).

    Beyond x_max, the last sample, the evaluator returns the far-field
    constants.  A zero-strength layer is the constant far state: no
    profile holds it.
    """

    x: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    delta: float
    case_tag: str
    rho_far: float
    u_far: float
    theta_far: float
    decay_rate_oracle: float | None = None   # nonzero eigenvalue(s) at the far point

    def __post_init__(self) -> None:
        if self.case_tag not in CASE_TAGS:
            raise ValueError(f"unknown case tag {self.case_tag!r}")

    @cached_property
    def _u_i(self) -> PchipInterpolator:
        return PchipInterpolator(self.x, self.u, extrapolate=False)

    @cached_property
    def _th_i(self) -> PchipInterpolator:
        return PchipInterpolator(self.x, self.theta, extrapolate=False)

    @property
    def x_max(self) -> float:
        return float(self.x[-1])

    @property
    def mass_flux(self) -> float:
        return self.rho_far * self.u_far

    @property
    def rho(self) -> np.ndarray:
        return self.mass_flux / self.u

    def eval(self, x):
        """(rho, u, theta) at arbitrary x >= 0; constants beyond x_max."""
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, self.x[0], self.x_max)
        u = np.where(x >= self.x_max, self.u_far, self._u_i(xc))
        th = np.where(x >= self.x_max, self.theta_far, self._th_i(xc))
        rho = self.mass_flux / u
        return rho, u, th


def layer_ode_rhs(params: GasParams, far, u, theta):
    """Right side of the stationary profile ODE; far = (rho, u, theta)_+.

    Floats (the orbit walk) and arrays give bitwise equal results: the
    square is a product, as a float's ** 2 goes through libm pow.  Singular
    on u = 0 (the equations divide by the velocity): LayerError when any
    |u| < 1e-12 max(1, |u_+|), while NaN compares False and passes through.
    A float u makes no numpy call: its comparison is a Python bool, tested
    by identity, because a numpy reduction on it costs more than the rest
    of the call together (the walk calls this once per LSODA evaluation).
    """
    rho_f, u_f, th_f = far
    small = abs(u) < 1e-12 * max(1.0, abs(u_f))
    if small is True or (small is not False and small.any()):
        raise LayerError("layer ODE is singular at u = 0")
    m = rho_f * u_f
    R, g = params.R, params.gamma
    d = u - u_f
    du = (m / params.mu) * (d + R * (theta / u - th_f / u_f))
    dth = (m / params.kappa) * ((R * th_f / u_f) * d
                                + (R / (g - 1.0)) * (theta - th_f)
                                - 0.5 * (d * d))
    return du, dth


def layer_jacobian(params: GasParams, far) -> np.ndarray:
    """Linearization of the profile ODE at the far fixed point."""
    rho_f, u_f, th_f = far
    m = rho_f * u_f
    R, g = params.R, params.gamma
    return np.array([
        [(m / params.mu) * (1.0 - R * th_f / u_f ** 2), rho_f * R / params.mu],
        [rho_f * R * th_f / params.kappa, m * R / ((g - 1.0) * params.kappa)],
    ])


def _eigen(J: np.ndarray):
    ev, V = np.linalg.eig(J)
    order = np.argsort(ev)          # eigenvalues are always real here
    return ev[order].real, V[:, order].real


def stable_direction(params: GasParams, far):
    """(lambda_s, unit vector) of the most negative eigenvalue."""
    ev, V = _eigen(layer_jacobian(params, far))
    v = V[:, 0]
    return float(ev[0]), v / np.linalg.norm(v)


def center_direction(params: GasParams, far) -> np.ndarray:
    """Null direction at a transonic far point: (R*gamma, -u_+(gamma-1)).

    Both components are positive for u_+ < 0; normalized to unit 1-norm so
    that strength delta = |du| + |dtheta| maps linearly onto the offset.
    """
    _, u_f, _ = far
    v = np.array([params.R * params.gamma, -u_f * (params.gamma - 1.0)])
    return v / np.abs(v).sum()


def _deficit(y, far):
    return abs(y[0] - far[1]) + abs(y[1] - far[2])


def _walk(params, far, y0, span, t_eval, stops=(), backward=False):
    """LSODA orbit of the profile ODE from y0 over [0, span] (in s = -x when
    backward), sampled at the increasing points of the array t_eval.  LSODA
    switches to BDF where the orbit turns stiff, as the transonic tail does
    (eigenvalues 0 and -1.9).

    `stops` are (g, direction) pairs: g maps a state (u, theta) to a float
    and direction is +1, -1 or 0 (either way).  A stop fires on a step whose
    start and end values of g bracket 0 in its direction, ends included;
    brentq finds the crossing on the step's dense output, the earliest of
    several ends the walk, and the samples run up to it.  u = 0 and then
    theta = 0 are always the last two stops, so every walk ends before it
    leaves the physical states.  Every sample and crossing is what
    solve_ivp's t_eval and terminal events give, bit for bit.

    Returns (t, y, stop, t_stop, y_stop): the samples (y of shape (2, n)),
    the index of the stop that ended the walk, its crossing and the state
    there, or None for all three when the walk reached span.  Raises
    LayerError when a step fails."""

    def rhs(x, y):      # a plain pair: scipy's wrapper makes the array
        du, dth = layer_ode_rhs(params, far, *y.tolist())
        return (-du, -dth) if backward else (du, dth)

    stops = (*stops, (lambda y: y[0], 0), (lambda y: y[1], 0))
    solver = LSODA(rhs, 0.0, y0, float(span), rtol=RTOL, atol=ATOL)
    state = y0.tolist()
    g = [fn(state) for fn, _ in stops]
    ts, ys, done = [], [], 0
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise LayerError(message)
        t, sol = solver.t, None
        state = solver.y.tolist()
        g_new = [fn(state) for fn, _ in stops]
        fired = [k for k, ((_, d), a, b) in enumerate(zip(stops, g, g_new))
                 if d >= 0 and a <= 0.0 <= b or d <= 0 and a >= 0.0 >= b]
        g = g_new
        if fired:
            sol = solver.dense_output()
            roots = [brentq(lambda s, fn=stops[k][0]: fn(sol(s)),
                            solver.t_old, t, xtol=STOP_XTOL, rtol=STOP_XTOL)
                     for k in fired]
            t = min(roots)
        end = t_eval.searchsorted(t, "right")
        if end > done:
            if sol is None:
                sol = solver.dense_output()
            ts.append(t_eval[done:end])
            ys.append(sol(t_eval[done:end]))
            done = end
        if fired:
            return (np.hstack(ts), np.hstack(ys), fired[roots.index(t)], t,
                    sol(t))
    return np.hstack(ts), np.hstack(ys), None, None, None


def _forward_layer(params, far, data, tag: str, rate) -> LayerProfile:
    """Forward orbit from the boundary data; converges for the node (tail
    rate `rate`) and the degenerate-transonic attracting side (rate None).
    Raises LayerError if the data's theta is not positive or the orbit
    misses the far state."""
    rho_f, u_f, th_f = far
    if not data[1] > 0:
        raise LayerError(f"the {tag} layer's boundary data has theta_- = "
                         f"{data[1]:g}, not positive; lower delta")
    delta = _deficit(data, far)
    scale = max(1.0, abs(u_f), th_f)
    runaway = 10.0 * delta + 0.1 * scale
    alg = rate is None

    if alg:
        x_end = ALG_SPAN / max(delta, 1e-12)
        xs = np.concatenate([
            np.arange(0.0, ALG_X_LIN, ALG_H_LIN),
            np.geomspace(ALG_X_LIN, x_end, ALG_N_GEOM),
        ])
    else:
        # enough room for the slow mode to reach the FP_TOL ball
        x_end = 2.0 * (math.log(max(delta, 1e-12) / (FP_TOL * scale))
                       / rate if delta > FP_TOL * scale else 1.0) + 10.0
        xs = np.arange(0.0, x_end, SAMPLE_H)

    # runaway ends every walk; entering the fixed-point ball ends an
    # exponential one only (an algebraic tail is sampled to x_end)
    stops = [(lambda y: _deficit(y, far) - runaway, 0)]
    if not alg:
        stops.append((lambda y: _deficit(y, far) - FP_TOL * scale, -1))
    x, (u, th), stop, x_stop, y_stop = _walk(
        params, far, np.array(data, dtype=float), x_end, xs, stops)
    converged = not alg and stop == 1
    miss = _deficit((u[-1], th[-1]), far)
    # runaway, u = 0, theta = 0, an algebraic orbit that fails to contract,
    # or an exponential one that never enters the fixed-point ball
    if ((stop is not None and not converged)
            or (miss > 0.5 * delta if alg
                else not converged and miss > 10.0 * FP_TOL * scale)):
        raise LayerError(
            f"the {tag} orbit from (u_-, theta_-) = ({data[0]:g}, "
            f"{data[1]:g}) misses the far state (rho_+, u_+, theta_+) = "
            f"({rho_f:g}, {u_f:g}, {th_f:g})")
    if converged and x_stop > x[-1] + 1e-12:   # append the stopping point
        x = np.append(x, x_stop)
        u = np.append(u, y_stop[0])
        th = np.append(th, y_stop[1])
    return LayerProfile(
        x=x, u=u, theta=th, delta=delta, case_tag=tag,
        rho_far=rho_f, u_far=u_f, theta_far=th_f,
        decay_rate_oracle=None if alg else -rate)


def _manifold_layer(params, far, delta: float, upper: bool,
                    tag: str) -> LayerProfile:
    """Backward walk along the stable eigendirection, stopped where the
    strength reaches delta: that point is the boundary data, at x = 0."""
    rho_f, u_f, th_f = far
    lam_s, v_s = stable_direction(params, far)
    span = 30.0 / abs(lam_s) + 50.0
    sgn = -math.copysign(1.0, v_s[0])     # lower branch: u_- < u_+ side
    if upper:
        sgn = -sgn
    eps_mfd = EPS_MFD_FACTOR * max(1.0, abs(u_f))
    y0 = np.array([u_f, th_f]) + sgn * eps_mfd * v_s
    s, (u_s, th_s), stop, s_ev, y_ev = _walk(
        params, far, y0, span, np.arange(0.0, span, SAMPLE_H),
        [(lambda y: _deficit(y, far) - delta, 0)], backward=True)
    if stop != 0:
        end = (f"reached {('u', 'theta')[stop - 1]} = 0" if stop
               else "ran out of span")
        reached = _deficit(y_ev if stop else (u_s[-1], th_s[-1]), far)
        raise LayerError(f"the {tag} manifold walk {end} at strength "
                         f"{reached:.3g}, short of delta = {delta:g}")
    # samples at or past the stop are dropped: x must strictly increase
    keep = s < s_ev
    x = s_ev - np.append(s[keep], s_ev)[::-1]   # the stop lands at x = 0
    u = np.append(u_s[keep], y_ev[0])[::-1]
    th = np.append(th_s[keep], y_ev[1])[::-1]
    return LayerProfile(
        x=x, u=u, theta=th, delta=_deficit(y_ev, far), case_tag=tag,
        rho_far=rho_f, u_far=u_f, theta_far=th_f, decay_rate_oracle=lam_s)


def construct_layer(params: GasParams, far, delta: float,
                    branch: str = "lower") -> LayerProfile:
    """Build the stationary profile of strength delta = |u_- - u_+| +
    |theta_- - theta_+| on `branch` toward the far state far = (rho_+, u_+,
    theta_+).  The boundary data (u_-, theta_-) is its x = 0 sample.

    supersonic: the data sits on the slow eigendirection below u_+ (any
    datum connects; the slow direction keeps the tail rate equal to the
    slow eigenvalue); the branch must be 'lower'.  subsonic and transonic
    'lower'/'upper': the stable manifold on the side of u_- below/above
    u_+.  transonic 'degenerate': the attracting (minus) side of the center
    direction.  Raises ValueError for delta <= 0 (a zero-strength layer is
    the far state itself) or a branch outside LAYER_BRANCHES, and
    LayerError when the branch does not fit the regime, the profile would
    reach theta <= 0 (a delta too large for the far state), or the orbit
    fails.
    """
    rho_f, u_f, th_f = far
    if not (0 < rho_f < math.inf and 0 < th_f < math.inf):  # nan fails too
        raise ValueError("far state needs positive, finite density and "
                         "temperature")
    if not delta > 0:                     # nan fails too
        raise ValueError("layer strength delta must be positive")
    if branch not in LAYER_BRANCHES:
        raise ValueError(f"branch must be one of {', '.join(LAYER_BRANCHES)}")
    regime = classify_regime(params, u_f, th_f)
    if ((branch == "degenerate" and regime != "transonic")
            or (branch == "upper" and regime == "supersonic")):
        raise LayerError(f"a {regime} far state has no {branch!r} layer "
                         "branch")

    if regime == "supersonic":
        ev, V = _eigen(layer_jacobian(params, far))
        v = V[:, 1]                       # slow (least negative) direction
        v = v / np.abs(v).sum()
        sgn = -math.copysign(1.0, v[0])   # push u below u_+ (stronger outflow)
        return _forward_layer(params, far, (u_f + sgn * delta * v[0],
                                            th_f + sgn * delta * v[1]),
                              "supersonic", -float(ev[1]))
    if branch == "degenerate":
        # l.D2F[v_c,v_c] / (l.v_c) > 0 at transonic points: minus side attracts
        v_c = center_direction(params, far)
        return _forward_layer(params, far, (u_f - delta * v_c[0],
                                            th_f - delta * v_c[1]),
                              "transonic_degenerate", None)
    tag = "subsonic" if regime == "subsonic" else "transonic_manifold"
    return _manifold_layer(params, far, delta, branch == "upper", tag)


def measure_decay(profile: LayerProfile, component: str = "u") -> dict:
    """Fit exponential vs algebraic tail models to the sampled deficit.

    Exponential model:  ln dev = a + rate * x
    Algebraic model:    ln dev = a + exponent * ln(1 + delta*x)
    The better least-squares residual decides `kind`.
    """
    far = {"u": profile.u_far, "theta": profile.theta_far}[component]
    vals = {"u": profile.u, "theta": profile.theta}[component]
    dev = np.abs(vals - far)
    dmax = dev.max()
    lo = max(1e-8 * max(1.0, dmax), dev[dev > 0].min())
    hi = dmax / 3.0
    m = (dev >= lo) & (dev <= hi)
    if m.sum() < 16:
        hi = 0.9 * dmax
        m = (dev >= lo) & (dev <= hi)
    x = profile.x[m]
    ld = np.log(dev[m])
    # exponential fit
    ce = np.polyfit(x, ld, 1)
    rms_e = float(np.sqrt(np.mean((np.polyval(ce, x) - ld) ** 2)))
    # algebraic fit against (1 + delta*x)
    reg = np.log1p(profile.delta * x)
    ca = np.polyfit(reg, ld, 1)
    rms_a = float(np.sqrt(np.mean((np.polyval(ca, reg) - ld) ** 2)))
    kind = "exponential" if rms_e <= rms_a else "algebraic"
    return {
        "kind": kind,
        "rate": float(ce[0]),
        "exponent": float(ca[0]),
        "residual": rms_e if kind == "exponential" else rms_a,
        "decades": float((reg.max() - reg.min()) / math.log(10.0)),
    }


def find_M0(profile: LayerProfile, params: GasParams) -> float:
    """Smallest sampled x >= 1 beyond which both deficits |far - value| are
    non-increasing, i.e. slope * sign(far - value) >= -1e-12.

    Clamped below at 1; raises if the tail never turns monotone.
    """
    du, dth = layer_ode_rhs(
        params, (profile.rho_far, profile.u_far, profile.theta_far),
        profile.u, profile.theta)
    ok = ((du * np.sign(profile.u_far - profile.u) >= -1e-12)
          & (dth * np.sign(profile.theta_far - profile.theta) >= -1e-12))
    # suffix scan: all samples beyond the candidate must be monotone
    suffix_ok = np.logical_and.accumulate(ok[::-1])[::-1]
    cand = np.nonzero(suffix_ok)[0]
    if cand.size == 0:
        raise LayerError("profile deficits never become non-increasing")
    x0 = profile.x[cand[0]]
    return float(max(1.0, x0))


def export_csv(profile: LayerProfile, path) -> None:
    """Write the samples: x, u_tilde, theta_tilde, rho_tilde."""
    write_table(path, "x,u_tilde,theta_tilde,rho_tilde",
                (profile.x, profile.u, profile.theta, profile.rho))
