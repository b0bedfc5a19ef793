"""Independent oracles the tests check the package against.

Nothing in the package calls these: each restates a piece of the theory
(the field characteristics, a normalization constant, the sharp fan, the
fan's slope decay rates, two functional inequalities), measures the march's one-step map (its field
block's norm, its Jacobian's spectral radius), inverts an artifact writer
or writes a table in pure Python, so a test can compare
the package's numbers or bytes with a second route to the same result.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import eigs

from outflow1d.gas import GasParams
from outflow1d.rarefaction import BurgersWave, R3Curve
from outflow1d.solver import FieldState, cfl_dt, step


# --------------------------------------------------------------------------
# field characteristics
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RiemannPair:
    """Transport invariants of the field subsystem.

    W1 rides the +1/sqrt(eps) characteristic (incoming at x=0),
    W2 rides the -1/sqrt(eps) characteristic (outgoing at x=0).
    """

    W1: np.ndarray | float
    W2: np.ndarray | float


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


def field_step_norms(params: GasParams, end, grid, state: FieldState,
                     config) -> tuple[float, float]:
    """The 2-norm of solver.step's field block at a zero-field state, over
    every node and over the interior nodes, as a pair.

    At E = b = 0 the field enters the fluid rows only quadratically, so
    the step map's field block is linear: column j is the step's (E, b)
    from a kick of h at the j-th field entry, over h.  The kick h = 2^-27
    puts the quadratic terms below rounding, and 2n steps at cfl_dt's step
    give the whole block.  The norm is the one of the field energy
    1/2 sum dx (eps E^2 + b^2), a node sum with the same weight at every
    node, so the boundary rows count as much as an interior one."""
    if state.data[3:].any():
        raise ValueError("the field block is linear only at E = b = 0")
    n = state.n_nodes
    dt = cfl_dt(params, end, grid, state, config)
    h = 2.0 ** -27
    block = np.empty((2 * n, 2 * n))
    for col in range(2 * n):
        kicked = state.copy()
        kicked.data[3 + col // n, col % n] = h
        new, _ = step(params, end, grid, kicked, dt, config)
        block[:, col] = new.data[3:].ravel() / h
    # the eps E^2 + b^2 weights; dx and 1/2 scale every entry alike
    scale = np.repeat([params.sqrt_eps, 1.0], n)
    block = scale[:, None] * block / scale[None, :]
    inner = np.r_[1:n - 1, n + 1:2 * n - 1]
    return (float(np.linalg.norm(block, 2)),
            float(np.linalg.norm(block[np.ix_(inner, inner)], 2)))


def step_jacobian(params: GasParams, end, grid, state: FieldState,
                  dt: float, config, stride: int = 11):
    """The Jacobian of solver.step at state and a fixed dt, as a sparse
    (5n, 5n) matrix over the rows of state.data, by colored forward
    differences.

    A step reads two nodes to either side (two stencil stages) and its
    boundary copies reach one further, so kicking every stride-th node of
    one field at once (stride >= 7) leaves the responses apart: row node r
    answers the kicked node within stride // 2 of it.  That is
    5 * stride step calls, 55 at the default stride.  Each kick is
    2^-27 times the field's largest magnitude (or 2^-27 for a zero field),
    which keeps the quadratic terms near rounding."""
    n = state.n_nodes
    base, _ = step(params, end, grid, state, dt, config)
    nodes = np.arange(n)
    rows, cols, vals = [], [], []
    for f in range(5):
        h = 2.0 ** -27 * max(float(np.abs(state.data[f]).max()), 1.0)
        for color in range(stride):
            kicked = state.copy()
            kicked.data[f, color::stride] += h
            new, _ = step(params, end, grid, kicked, dt, config)
            diff = (new.data - base.data) / h
            # the kicked node each row node answers: the nearest of color
            owner = nodes - (nodes - color + stride // 2) % stride \
                + stride // 2
            mine = (owner >= 0) & (owner < n)
            for g in range(5):
                hit = mine & (diff[g] != 0.0)
                rows.append(g * n + nodes[hit])
                cols.append(f * n + owner[hit])
                vals.append(diff[g][hit])
    return csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(5 * n, 5 * n))


def step_spectral_radius(params: GasParams, end, grid, state: FieldState,
                         config, dt: float | None = None) -> float:
    """The largest eigenvalue modulus of step_jacobian at state, at dt
    (cfl_dt's step if None).  Of six eigenvalues of largest modulus from
    ARPACK with a fixed start vector, so a repeat gives the same digits.
    Meaningful for a stationary background only: a step map that drifts
    with t has no one spectrum to certify."""
    if dt is None:
        dt = cfl_dt(params, end, grid, state, config)
    jac = step_jacobian(params, end, grid, state, dt, config)
    start = np.full(jac.shape[0], 1.0 / math.sqrt(jac.shape[0]))
    values = eigs(jac, k=6, which="LM", v0=start, return_eigenvectors=False)
    return float(np.abs(values).max())


# --------------------------------------------------------------------------
# expansion fan
# --------------------------------------------------------------------------

def cq_constant(q: float) -> float:
    """Normalization with int_0^inf C_q y^q e^-y dy = 1, by adaptive
    quadrature (the closed form 1/Gamma(q+1) is kept as a test oracle)."""
    if q < 1:
        raise ValueError("smoothing exponent q must be >= 1")
    val, err = quad(lambda y: y ** q * math.exp(-y), 0.0, np.inf)
    return 1.0 / val


def exact_fan_profile(params: GasParams, curve: R3Curve, wave: BurgersWave,
                      x, t: float):
    """The sharp self-similar fan: w = clip(x/(1+t), w_-, w_+)."""
    x = np.asarray(x, dtype=float)
    w = np.clip(x / (1.0 + t), wave.w_minus, wave.w_plus)
    return curve.state_from_w(w)


# tolerance on fitted decay exponents (fraction of expected)
DECAY_FIT_TOL = 0.15
# decay fit: sample times, grid spacing, and room beyond the fan's right edge
DECAY_TIMES = np.geomspace(1.0, 100.0, 24)
DECAY_DX = 0.02
DECAY_PAD = 40.0


def rarefaction_decay_check(params: GasParams, wave: BurgersWave) -> dict:
    """Fit the decay exponents of the sup and L2 norms of the fan's velocity
    slope u_bar_x = 2/(gamma+1) * w_x against (1+t) at DECAY_TIMES, both
    from one evaluation per time (the (1+t)^(-1+1/p) rates of
    Hattori-Nishihara, Japan J. Indust. Appl. Math. 8, 1991).

    Returns {"times": ..., "sup": fit, "l2": fit}; each fit holds the
    "norms", the "fitted" slope, the "expected" one (-1 + 1/p: -1 for sup,
    -1/2 for L2) and whether they agree within DECAY_FIT_TOL relative
    ("passed").
    """
    times = DECAY_TIMES.copy()
    sup, l2 = [], []
    for t in times:
        tau = 1.0 + t
        x = np.arange(0.0, wave.w_plus * tau + DECAY_PAD, DECAY_DX)
        ux = np.abs(2.0 / (params.gamma + 1.0) * wave.eval(x, tau)[1])
        sup.append(ux.max())
        l2.append(np.trapezoid(ux ** 2.0, x) ** 0.5)

    def fit(norms, expected):
        slope = float(np.polyfit(np.log1p(times), np.log(norms), 1)[0])
        return {"norms": np.asarray(norms), "fitted": slope,
                "expected": expected,
                "passed": abs(slope - expected) <= DECAY_FIT_TOL * abs(expected)}

    return {"times": times, "sup": fit(sup, -1.0), "l2": fit(l2, -0.5)}


# --------------------------------------------------------------------------
# functional inequalities
# --------------------------------------------------------------------------

def _l2(x, f) -> float:
    return math.sqrt(np.trapezoid(f * f, x))


def sobolev_check(x, f, fx=None, slack: float = 1e-10) -> dict:
    """sup f^2 <= 2 ||f|| ||f_x|| for fields that die out by the right end."""
    x = np.asarray(x, float)
    f = np.asarray(f, float)
    fx = np.gradient(f, x) if fx is None else np.asarray(fx, float)
    lhs = float(np.max(f * f))
    rhs = 2.0 * _l2(x, f) * _l2(x, fx)
    violation = max(0.0, lhs - rhs)
    return {"lhs": lhs, "rhs": rhs, "violation": violation,
            "passed": violation <= slack}


def poincare_check(x, z, zx=None, slack: float = 1e-10) -> dict:
    """|z(x)| <= |z(0)| + sqrt(x) ||z_x||_{L^2(0,x)} at every node."""
    x = np.asarray(x, float)
    z = np.asarray(z, float)
    zx = np.gradient(z, x) if zx is None else np.asarray(zx, float)
    # cumulative trapezoid of zx^2
    g = zx * zx
    cum = np.concatenate(([0.0],
                          np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(x))))
    rhs = abs(z[0]) + np.sqrt(np.maximum(x - x[0], 0.0)) * np.sqrt(cum)
    violation = float(np.max(np.abs(z) - rhs))
    return {"max_violation": max(0.0, violation), "passed": violation <= slack}


# --------------------------------------------------------------------------
# snapshot files
# --------------------------------------------------------------------------

def read_snapshot_csv(path):
    """Inverse of solver.write_snapshot_csv: returns (t, x, FieldState)."""
    table = np.atleast_2d(np.genfromtxt(path, delimiter=",", skip_header=1))
    return float(table[0, 0]), table[:, 1], FieldState.of(table[:, 2:].T.copy())


# --------------------------------------------------------------------------
# tables
# --------------------------------------------------------------------------

def python_write_table(path, header, columns) -> None:
    """The table writer before its cells were formatted in C: each chunk
    of 512 rows is one bytes `%` of Python's `%.17g` over the chunk's
    row-interleaved values."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"column lengths differ: {[len(c) for c in columns]}")
    row = (",".join(["%.17g"] * len(columns)) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        for i in range(0, len(columns[0]), 512):
            chunk = np.column_stack([c[i:i + 512] for c in columns])
            fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))
