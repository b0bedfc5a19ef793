"""Smoothed expansion fans of the third characteristic family.

Across the fan the entropy and the invariant u - 2c/(gamma-1) are constant,
so the whole state is a function of the characteristic speed w = u + c:

    c(w)     = (gamma-1)/(gamma+1) * (w - I),   I = u_+ - 2c_+/(gamma-1)
    u        = w - c
    theta    = c^2/(R*gamma)
    rho      = rho_+ * (theta/theta_+)^(1/(gamma-1))

and w itself solves the inviscid Burgers equation.  The smooth profile uses
the regularized data

    w0(x0) = w_-                               for x0 <= 0
           = w_- + delta_r * P(2, alpha*x0)    for x0 > 0

(P = regularized lower incomplete gamma: P(2, z) = int_0^z y e^-y dy)
solved along characteristics at time tau = 1 + t, so the t=0 profile is
already one time unit into the expansion and the left edge of the fan sits
at x = w_-(1+t) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

from .gas import GasParams, sound_speed
from .layer import LayerProfile

__all__ = ["R3Curve", "BurgersWave", "CompositeProfile"]


@dataclass(frozen=True)
class R3Curve:
    """Expansion locus through the far state (rho_+, u_+, theta_+)."""

    params: GasParams
    rho_plus: float
    u_plus: float
    theta_plus: float

    @property
    def c_plus(self) -> float:
        return float(sound_speed(self.params, self.theta_plus))

    @property
    def invariant(self) -> float:
        return self.u_plus - 2.0 * self.c_plus / (self.params.gamma - 1.0)

    @property
    def w_plus(self) -> float:
        return self.u_plus + self.c_plus

    def state_at_theta(self, theta: float):
        """Left state with temperature theta (< theta_plus) on the curve."""
        p = self.params
        if theta <= 0:
            raise ValueError("theta must be positive")
        if theta >= self.theta_plus:
            raise ValueError("expansion requires theta_minus < theta_plus")
        c = float(sound_speed(p, theta))
        u = self.u_plus - 2.0 / (p.gamma - 1.0) * (self.c_plus - c)
        rho = self.rho_plus * (theta / self.theta_plus) ** (1.0 / (p.gamma - 1.0))
        return rho, u, theta

    def state_from_w(self, w):
        """(rho, u, theta) as functions of the characteristic speed w."""
        p = self.params
        w = np.asarray(w, dtype=float)
        c = (p.gamma - 1.0) / (p.gamma + 1.0) * (w - self.invariant)
        theta = c * c / (p.R * p.gamma)
        rho = self.rho_plus * (theta / self.theta_plus) ** (1.0 / (p.gamma - 1.0))
        u = w - c
        top = self.rho_plus * (1 + 1e-12)
        if not (np.all(rho > 0) and np.all(rho <= top)):    # nan fails too
            raise ValueError("state left the admissible band (0, rho_plus]")
        return rho, u, theta


@dataclass(frozen=True)
class BurgersWave:
    """Characteristic speed field of the smoothed fan."""

    w_minus: float
    delta_r: float
    alpha: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.w_minus):
            raise ValueError("w_minus must be finite")
        if not 0 <= self.delta_r < math.inf:    # nan fails too
            raise ValueError("delta_r must be nonnegative and finite")
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")

    @property
    def w_plus(self) -> float:
        return self.w_minus + self.delta_r

    def w0(self, x0):
        x0 = np.asarray(x0, dtype=float)
        z = self.alpha * np.maximum(x0, 0.0)
        return self.w_minus + self.delta_r * gammainc(2.0, z)

    def w0_prime(self, x0):
        x0 = np.asarray(x0, dtype=float)
        z = self.alpha * np.maximum(x0, 0.0)
        out = self.delta_r * self.alpha * z * np.exp(-z)
        return np.where(x0 > 0.0, out, 0.0)

    def eval(self, x, tau):
        """Arrays w and w_x on the points x at Burgers time tau (no shock:
        w0 is nondecreasing).  tau = 0 gives w0 itself; raises ValueError
        unless 0 <= tau < inf (nan fails too).

        Points left of the fan edge x <= w_-*tau short-circuit to w_- exactly.
        """
        if not 0.0 <= tau < math.inf:
            raise ValueError("Burgers time tau must be nonnegative and finite")
        x = np.asarray(x, dtype=float)
        w = np.full(x.shape, self.w_minus, dtype=float)
        wx = np.zeros(x.shape, dtype=float)
        act = x > self.w_minus * tau
        if np.any(act):
            x0 = self._feet(x[act], tau)
            wp = self.w0_prime(x0)
            w[act] = self.w0(x0)
            wx[act] = wp / (1.0 + wp * tau)
        return w, wx

    def _feet(self, xa, tau):
        """Feet of the characteristics through xa > w_minus * tau.

        The foot x0 solves g(x0) = x0 + w0(x0)*tau - xa = 0, bracketed by
        [xa - w_plus*tau, xa - w_minus*tau], where g rises with slope >= 1.
        Anderson-Bjorck regula falsi (BIT 13, 1973) keeps the bracket and
        converges superlinearly.  A point stops once |g| <= 1e-12 (1 + |xa|),
        which puts it at most that far from its root, and two Newton polish
        steps leave |x0 + w0(x0)tau - xa| below 1e-10.  The 64-step cap only
        ends a point whose rounding in g exceeds that tolerance.
        """
        a = xa - self.w_plus * tau
        b = xa - self.w_minus * tau
        ga = a + self.w0(a) * tau - xa
        gb = b + self.w0(b) * tau - xa
        tol = 1e-12 * (1.0 + np.abs(xa))
        x0 = b.copy()
        idx, xt = np.arange(xa.size), xa    # the points still iterating
        for _ in range(64):
            live = np.abs(gb) > tol
            if not live.any():
                break
            idx, xt, tol, a, b, ga, gb = (
                v[live] for v in (idx, xt, tol, a, b, ga, gb))
            c = b - gb * (b - a) / (gb - ga)
            gc = c + self.w0(c) * tau - xt
            # c on b's side keeps the end a once more: scale its g down
            kept = gc * gb > 0.0
            m = 1.0 - gc / gb
            ga = np.where(kept, ga * np.where(m > 0.0, m, 0.5), gb)
            a = np.where(kept, a, b)
            b, gb = c, gc
            x0[idx] = b
        for _ in range(2):
            g = x0 + self.w0(x0) * tau - xa
            x0 = x0 - g / (1.0 + self.w0_prime(x0) * tau)
        return x0


@dataclass
class CompositeProfile:
    """Layer + fan superposition sharing the intermediate (star) state:

        (rho, u, theta)^hat (x,t) = tilde(x) + bar(x,t) - star,

    with zero electromagnetic part.  An absent part stands at the star
    state: a pure layer uses bar == star (= the layer's far state), a pure
    fan uses tilde == star (= the fan's left state), and with neither part
    the background is the constant star state.
    """

    star: tuple          # (rho, u, theta) shared state
    layer: LayerProfile | None = None
    curve: R3Curve | None = None
    wave: BurgersWave | None = None

    def __post_init__(self) -> None:
        self.star = tuple(map(float, self.star))
        if (self.curve is None) != (self.wave is None):
            raise ValueError("fan part needs both curve and wave")

    def eval(self, x, t: float):
        x = np.asarray(x, dtype=float)
        star = [np.full(x.shape, s) for s in self.star]
        tilde = star if self.layer is None else self.layer.eval(x)
        # the fan at time t is the Burgers field at tau = 1 + t
        bar = (star if self.wave is None
               else self.curve.state_from_w(self.wave.eval(x, 1.0 + t)[0]))
        return tuple(a + b - s for a, b, s in zip(tilde, bar, self.star))
