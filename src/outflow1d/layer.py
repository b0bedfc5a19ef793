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
    stable eigendirection (backward flow contracts the transverse error),
    and root-find the crossing u = u_-.
  * transonic   -> one zero eigenvalue.  Data on the non-degenerate branch
    (stable eigendirection) decays exponentially and is found by the same
    backward walk; data on the attracting side of the center direction
    gives the degenerate layer with algebraic tail
    |u - u_+| ~ delta/(1 + delta*x), found by forward integration.

Both off-diagonal Jacobian entries are positive, so the eigenvalues are
always real: no spiraling orbits in any regime.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

from .gas import GasParams, classify_regime

__all__ = [
    "LayerConfig", "LayerProfile", "LayerError",
    "layer_ode_rhs", "layer_jacobian", "stable_direction", "center_direction",
    "construct_layer", "boundary_data_for_strength",
    "measure_decay", "find_M0", "export_csv",
]

CASE_TAGS = ("supersonic", "transonic_manifold", "transonic_degenerate",
             "subsonic", "nonexistent")


class LayerError(RuntimeError):
    pass


@dataclass(frozen=True)
class LayerConfig:
    """Numerical knobs for the orbit construction."""

    rtol: float = 1e-10
    abstol: float = 1e-10            # solve_ivp atol
    eps_mfd_factor: float = 1e-6     # manifold offset = factor*max(1,|u_+|)
    fp_tol: float = 1e-9             # forward orbits stop this close to the fixed point
    alg_span: float = 1e3            # degenerate orbits stop once delta*x >= alg_span
    existence_tol: float | None = None  # boundary theta mismatch deciding nonexistence
    sample_h: float = 1e-3           # uniform sample spacing (exponential cases)
    alg_h_lin: float = 2e-3          # sample spacing of the degenerate transient
    alg_x_lin: float = 10.0          # linear sampling up to here, geometric beyond
    alg_n_geom: int = 4000


def _exist_tol(cfg: LayerConfig, far) -> float:
    if cfg.existence_tol is not None:
        return cfg.existence_tol
    _, u_f, th_f = far
    return 1e-6 * max(1.0, abs(u_f), th_f)


@dataclass
class LayerProfile:
    """Sampled stationary profile plus a monotone-cubic evaluator.

    Beyond x_max the evaluator returns the far-field constants; the recorded
    far_field_gap is the actual deficit of the last sample (for exponential
    layers it is at most the manifold offset / stop tolerance, for the
    degenerate layer it is the algebraic remainder ~ delta/alg_span).
    """

    x: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    delta: float
    case_tag: str
    rho_far: float
    u_far: float
    theta_far: float
    x_max: float
    far_field_gap: float
    boundary_gap: float = 0.0
    decay_rate_oracle: float | None = None   # nonzero eigenvalue(s) at the far point
    _u_i: PchipInterpolator | None = field(default=None, repr=False)
    _th_i: PchipInterpolator | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.case_tag not in CASE_TAGS:
            raise ValueError(f"unknown case tag {self.case_tag!r}")
        if self.exists and self.x.size >= 2:
            self._u_i = PchipInterpolator(self.x, self.u, extrapolate=False)
            self._th_i = PchipInterpolator(self.x, self.theta, extrapolate=False)

    @property
    def exists(self) -> bool:
        return self.case_tag != "nonexistent"

    @property
    def mass_flux(self) -> float:
        return self.rho_far * self.u_far

    @property
    def rho(self) -> np.ndarray:
        return self.mass_flux / self.u

    def eval(self, x):
        """(rho, u, theta) at arbitrary x >= 0; constants beyond x_max."""
        if not self.exists:
            raise LayerError("profile does not exist (nonexistent case)")
        x = np.asarray(x, dtype=float)
        if self.x.size < 2:      # zero-strength layer
            u = np.full(x.shape, self.u_far)
            th = np.full(x.shape, self.theta_far)
        else:
            xc = np.clip(x, self.x[0], self.x_max)
            u = np.where(x >= self.x_max, self.u_far, self._u_i(xc))
            th = np.where(x >= self.x_max, self.theta_far, self._th_i(xc))
        rho = self.mass_flux / u
        return rho, u, th

    def slopes(self, params: GasParams):
        """ODE slopes (u', theta') at the sample points."""
        return layer_ode_rhs(params, (self.rho_far, self.u_far, self.theta_far),
                             self.u, self.theta)


def layer_ode_rhs(params: GasParams, far, u, theta):
    """Right side of the stationary profile ODE; far = (rho, u, theta)_+.

    Singular on u = 0 (the equations divide by the velocity).
    """
    rho_f, u_f, th_f = far
    u = np.asarray(u, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(np.abs(u) < 1e-12 * max(1.0, abs(u_f))):
        raise LayerError("layer ODE is singular at u = 0")
    m = rho_f * u_f
    R, g = params.R, params.gamma
    du = (m / params.mu) * ((u - u_f) + R * (theta / u - th_f / u_f))
    dth = (m / params.kappa) * ((R * th_f / u_f) * (u - u_f)
                                + (R / (g - 1.0)) * (theta - th_f)
                                - 0.5 * (u - u_f) ** 2)
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


def _event(fn, terminal=True, direction=0):
    """Tag fn as a solve_ivp event."""
    fn.terminal, fn.direction = terminal, direction
    return fn


def _walk(params, far, y0, span, cfg: LayerConfig, events=(), t_eval=None,
          backward=False):
    """RK45 orbit of the profile ODE from y0 over [0, span] (in s = -x when
    backward).  A terminal u = 0 event is appended after `events`, so their
    t_events indices keep their meaning."""

    def rhs(x, y):
        dy = np.concatenate(layer_ode_rhs(params, far, y[:1], y[1:]))
        return -dy if backward else dy

    return solve_ivp(rhs, (0.0, span), y0, method="RK45", rtol=cfg.rtol,
                     atol=cfg.abstol, t_eval=t_eval,
                     events=(*events, _event(lambda x, y: y[0])))


def _stable_start(params, far, cfg: LayerConfig):
    """(lambda_s, v_s, eps_mfd, span) of a backward walk that leaves the far
    point at far + sgn*eps_mfd*v_s; None without a stable eigendirection."""
    lam_s, v_s = stable_direction(params, far)
    if lam_s >= -1e-12:
        return None
    eps_mfd = cfg.eps_mfd_factor * max(1.0, abs(far[1]))
    return lam_s, v_s, eps_mfd, 30.0 / abs(lam_s) + 50.0


def _forward_layer(params, far, data, cfg: LayerConfig, tag: str,
                   alg: bool) -> LayerProfile | None:
    """Forward orbit from the boundary data; converges for the node and the
    degenerate-transonic attracting side, returns None if it runs away."""
    rho_f, u_f, th_f = far
    delta = _deficit(data, far)
    scale = max(1.0, abs(u_f), th_f)
    runaway = 10.0 * delta + 0.1 * scale

    ev, _ = _eigen(layer_jacobian(params, far))
    rate_min = min(abs(e) for e in ev if abs(e) > 1e-12)

    if alg:
        x_end = cfg.alg_span / max(delta, 1e-12)
        xs = np.concatenate([
            np.arange(0.0, cfg.alg_x_lin, cfg.alg_h_lin),
            np.geomspace(cfg.alg_x_lin, x_end, cfg.alg_n_geom),
        ])
    else:
        # enough room for the slow mode to reach the fp_tol ball
        x_end = 2.0 * (math.log(max(delta, 1e-12) / (cfg.fp_tol * scale))
                       / rate_min if delta > cfg.fp_tol * scale else 1.0) + 10.0
        xs = np.arange(0.0, x_end, cfg.sample_h)

    ev_conv = _event(lambda x, y: _deficit(y, far) - cfg.fp_tol * scale,
                     terminal=not alg, direction=-1)
    ev_run = _event(lambda x, y: _deficit(y, far) - runaway)
    sol = _walk(params, far, np.array(data, dtype=float), x_end, cfg,
                (ev_conv, ev_run), t_eval=xs)
    if sol.t_events[1].size or sol.t_events[2].size:
        return None                       # ran away or hit the u=0 singularity
    x, u, th = sol.t, sol.y[0], sol.y[1]
    if not alg:
        if sol.t_events[0].size:          # append the stopping point
            xe = sol.t_events[0][0]
            ye = sol.y_events[0][0]
            if xe > x[-1] + 1e-12:
                x = np.append(x, xe)
                u = np.append(u, ye[0])
                th = np.append(th, ye[1])
        elif _deficit((u[-1], th[-1]), far) > 10.0 * cfg.fp_tol * scale:
            return None                   # never entered the fixed-point ball
    else:
        if _deficit((u[-1], th[-1]), far) > 0.5 * delta:
            return None                   # algebraic orbit failed to contract

    return LayerProfile(
        x=x, u=u, theta=th, delta=delta, case_tag=tag,
        rho_far=rho_f, u_far=u_f, theta_far=th_f,
        x_max=float(x[-1]), far_field_gap=_deficit((u[-1], th[-1]), far),
        boundary_gap=0.0, decay_rate_oracle=-rate_min if not alg else None)


def _manifold_layer(params, far, data, cfg: LayerConfig, tag: str) -> LayerProfile | None:
    """Backward walk along the stable eigendirection; None when the u = u_-
    crossing is missing or the temperature misses the data there."""
    rho_f, u_f, th_f = far
    u_m, th_m = data
    start = _stable_start(params, far, cfg)
    if start is None:
        return None
    lam_s, v_s, eps_mfd, span = start
    delta = _deficit(data, far)
    scale = max(1.0, abs(u_f), th_f)
    tol = _exist_tol(cfg, far)
    runaway = 4.0 * delta + 10.0 * eps_mfd + 0.1 * scale
    ev_cross = _event(lambda s, y: y[0] - u_m)
    ev_run = _event(lambda s, y: _deficit(y, far) - runaway)

    best = None
    sides = [math.copysign(1.0, (u_m - u_f) * v_s[0])] if v_s[0] != 0.0 else [1.0, -1.0]
    for sgn in sides:
        y0 = np.array([u_f, th_f]) + sgn * eps_mfd * v_s
        sol = _walk(params, far, y0, span, cfg, (ev_cross, ev_run),
                    backward=True)
        if sol.t_events[0].size:
            s_ev = sol.t_events[0][0]
            y_ev = sol.y_events[0][0]
            if abs(y_ev[1] - th_m) <= tol:
                best = (y0, s_ev, y_ev)
                break
    if best is None:
        return None

    y0, s_ev, y_ev = best
    ss = np.arange(0.0, s_ev, cfg.sample_h)
    sol = _walk(params, far, y0, s_ev, cfg, t_eval=ss, backward=True)
    s = np.append(sol.t, s_ev)
    u = np.append(sol.y[0], y_ev[0])
    th = np.append(sol.y[1], y_ev[1])
    x = s_ev - s[::-1]                    # flip: boundary point lands at x = 0
    u = u[::-1]
    th = th[::-1]
    return LayerProfile(
        x=x, u=u, theta=th, delta=delta, case_tag=tag,
        rho_far=rho_f, u_far=u_f, theta_far=th_f,
        x_max=float(s_ev), far_field_gap=eps_mfd,
        boundary_gap=float(abs(y_ev[1] - th_m)), decay_rate_oracle=lam_s)


def construct_layer(params: GasParams, far, data,
                    cfg: LayerConfig | None = None) -> LayerProfile:
    """Build the stationary profile joining boundary data (u_-, theta_-) to
    the far state far = (rho_+, u_+, theta_+); tag 'nonexistent' on failure.
    """
    cfg = cfg or LayerConfig()
    rho_f, u_f, th_f = far
    if rho_f <= 0 or th_f <= 0:
        raise ValueError("far state needs positive density and temperature")
    u_m, th_m = float(data[0]), float(data[1])
    delta = _deficit((u_m, th_m), far)
    regime = classify_regime(params, u_f, th_f).regime

    def _none(tag="nonexistent"):
        return LayerProfile(x=np.empty(0), u=np.empty(0), theta=np.empty(0),
                            delta=delta, case_tag=tag, rho_far=rho_f,
                            u_far=u_f, theta_far=th_f, x_max=0.0,
                            far_field_gap=0.0)

    if delta == 0.0:                      # zero-strength layer is exact
        tag = {"supersonic": "supersonic", "subsonic": "subsonic",
               "transonic": "transonic_manifold"}[regime]
        return LayerProfile(x=np.array([0.0]), u=np.array([u_f]),
                            theta=np.array([th_f]), delta=0.0, case_tag=tag,
                            rho_far=rho_f, u_far=u_f, theta_far=th_f,
                            x_max=0.0, far_field_gap=0.0)

    if regime == "supersonic":
        prof = _forward_layer(params, far, (u_m, th_m), cfg, "supersonic", alg=False)
    elif regime == "subsonic":
        prof = _manifold_layer(params, far, (u_m, th_m), cfg, "subsonic")
    else:
        prof = _manifold_layer(params, far, (u_m, th_m), cfg, "transonic_manifold")
        if prof is None:
            prof = _forward_layer(params, far, (u_m, th_m), cfg,
                                  "transonic_degenerate", alg=True)
    return prof if prof is not None else _none()


def boundary_data_for_strength(params: GasParams, far, delta: float,
                               cfg: LayerConfig | None = None,
                               branch: str | None = None):
    """Boundary data (u_-, theta_-) of strength |du|+|dtheta| = delta that
    admits a layer toward `far`.

    supersonic: offset along the slow eigendirection (any datum works; the
    slow direction keeps the tail rate equal to the slow eigenvalue).
    subsonic / branch='manifold': walk the stable manifold to the requested
    strength.  branch='degenerate': offset along the center direction on
    the attracting (minus) side; integrates nothing.
    """
    cfg = cfg or LayerConfig()
    rho_f, u_f, th_f = far
    if delta == 0.0:
        return u_f, th_f
    regime = classify_regime(params, u_f, th_f).regime
    if regime == "transonic" and branch is None:
        branch = "manifold"

    if regime == "supersonic":
        ev, V = _eigen(layer_jacobian(params, far))
        v = V[:, 1]                       # slow (least negative) direction
        v = v / np.abs(v).sum()
        sgn = -math.copysign(1.0, v[0])   # push u below u_+ (stronger outflow)
        return u_f + sgn * delta * v[0], th_f + sgn * delta * v[1]

    if regime == "transonic" and branch == "degenerate":
        # l.D2F[v_c,v_c] / (l.v_c) > 0 at transonic points: minus side attracts
        v_c = center_direction(params, far)
        return u_f - delta * v_c[0], th_f - delta * v_c[1]

    # saddle / transonic manifold branch: walk backward to the target strength
    start = _stable_start(params, far, cfg)
    if start is None:
        raise LayerError("far state has no stable eigendirection")
    _, v_s, eps_mfd, span = start
    sgn = -math.copysign(1.0, v_s[0])     # default branch: u_- < u_+ side
    if branch == "upper":
        sgn = -sgn
    y0 = np.array([u_f, th_f]) + sgn * eps_mfd * v_s
    ev_strength = _event(lambda s, y: _deficit(y, far) - delta)
    sol = _walk(params, far, y0, span, cfg, (ev_strength,), backward=True)
    if not sol.t_events[0].size:
        raise LayerError("manifold walk never reached the requested strength")
    y_ev = sol.y_events[0][0]
    return float(y_ev[0]), float(y_ev[1])


def measure_decay(profile: LayerProfile, component: str = "u") -> dict:
    """Fit exponential vs algebraic tail models to the sampled deficit.

    Exponential model:  ln dev = a + rate * x
    Algebraic model:    ln dev = a + exponent * ln(1 + delta*x)
    The better least-squares residual decides `kind`.
    """
    if not profile.exists:
        raise LayerError("cannot measure decay of a nonexistent profile")
    far = {"u": profile.u_far, "theta": profile.theta_far}[component]
    vals = {"u": profile.u, "theta": profile.theta}[component]
    dev = np.abs(vals - far)
    dmax = dev.max()
    if dmax == 0.0:
        return {"kind": "constant", "rate": 0.0, "exponent": 0.0,
                "residual": 0.0, "decades": 0.0}
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
    reg = np.log1p(profile.delta * x) if profile.delta > 0 else np.log1p(x)
    ca = np.polyfit(reg, ld, 1)
    rms_a = float(np.sqrt(np.mean((np.polyval(ca, reg) - ld) ** 2)))
    kind = "exponential" if rms_e <= rms_a else "algebraic"
    return {
        "kind": kind,
        "rate": float(ce[0]),
        "exponent": float(ca[0]),
        "residual": rms_e if kind == "exponential" else rms_a,
        "residual_exponential": rms_e,
        "residual_algebraic": rms_a,
        "decades": float((reg.max() - reg.min()) / math.log(10.0)),
        "window": (float(x.min()), float(x.max())),
    }


def find_M0(profile: LayerProfile, params: GasParams) -> float:
    """Smallest sampled x >= 1 beyond which both deficits |far - value| are
    non-increasing, i.e. slope * sign(far - value) >= -1e-12.

    Clamped below at 1; raises if the tail never turns monotone.
    """
    if not profile.exists:
        raise LayerError("nonexistent profile")
    if profile.x.size < 2:
        return 1.0
    du, dth = profile.slopes(params)
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
    """Write the samples: columns x, u_tilde, theta_tilde, rho_tilde."""
    if not profile.exists:
        raise LayerError("nonexistent profile")
    rho = profile.rho
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x", "u_tilde", "theta_tilde", "rho_tilde"])
        for i in range(profile.x.size):
            w.writerow([f"{profile.x[i]:.17g}", f"{profile.u[i]:.17g}",
                        f"{profile.theta[i]:.17g}", f"{rho[i]:.17g}"])
