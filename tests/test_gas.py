"""State relations: invariant maps, regimes, dielectric threshold, and the
constructors' checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import from_riemann, to_riemann
from outflow1d.diagnostics import bump_profile
from outflow1d.gas import (EndStates, GasParams, classify_regime,
                           dielectric_bound, sound_speed)
from outflow1d.layer import construct_layer
from outflow1d.rarefaction import BurgersWave
from outflow1d.solver import Grid1D

# frozen by hand: 1/(64*(1+sqrt(2))) for beta1=1, R=1, gamma=2, beta2=1
CBAR_UNIT = 6.47208691207961e-3


def make_end(**kw):
    base = dict(u_minus=-0.5, theta_minus=0.9, rho_plus=1.0,
                u_plus=-0.15, theta_plus=1.0)
    base.update(kw)
    return EndStates(**base)


class TestGasParams:
    def test_defaults_are_unit_monatomic(self):
        p = GasParams()
        assert p.R == 1.0 and p.gamma == pytest.approx(5.0 / 3.0)
        assert p.sqrt_eps == 1.0

    @pytest.mark.parametrize("field,bad", [
        ("R", 0.0), ("R", -1.0), ("gamma", 1.0), ("gamma", 0.5),
        ("mu", 0.0), ("kappa", -2.0), ("eps", 0.0),
    ])
    def test_rejects_nonphysical_constants(self, field, bad):
        with pytest.raises(ValueError):
            GasParams(**{field: bad})

    def test_sound_speed_rejects_cold_states(self):
        with pytest.raises(ValueError):
            sound_speed(GasParams(), -0.1)


class TestEndStates:
    def test_outflow_sign_enforced(self):
        with pytest.raises(ValueError):
            make_end(u_minus=0.1)

    @pytest.mark.parametrize("u_plus", [0.1, 0.0])
    def test_far_state_outflow_sign_enforced(self, u_plus):
        with pytest.raises(ValueError, match="u_plus must be negative"):
            make_end(u_plus=u_plus)


NON_FINITE = {
    "GasParams(mu=nan)": lambda: GasParams(mu=math.nan),
    "GasParams(eps=nan)": lambda: GasParams(eps=math.nan),
    "EndStates(u_minus=nan)": lambda: make_end(u_minus=math.nan),
    "EndStates(theta_minus=nan)": lambda: make_end(theta_minus=math.nan),
    "EndStates(rho_plus=nan)": lambda: make_end(rho_plus=math.nan),
    "EndStates(u_plus=nan)": lambda: make_end(u_plus=math.nan),
    "Grid1D(nan)": lambda: Grid1D(math.nan, 100),
    "Grid1D(inf)": lambda: Grid1D(math.inf, 100),
    "BurgersWave(alpha=nan)": lambda: BurgersWave(0.5, 3.0, math.nan),
    "BurgersWave(delta_r=nan)": lambda: BurgersWave(0.5, math.nan, 0.1),
    "BurgersWave(w_minus=nan)": lambda: BurgersWave(math.nan, 3.0, 0.1),
    "bump_profile(width=nan)":
        lambda: bump_profile(np.linspace(0.0, 10.0, 11), 0.5, 5.0, math.nan),
    "classify_regime(theta=nan)":
        lambda: classify_regime(GasParams(), -2.0, math.nan),
    "classify_regime(u=nan)":
        lambda: classify_regime(GasParams(), math.nan, 1.0),
    "construct_layer(theta_plus=nan)":
        lambda: construct_layer(GasParams(), (1.0, -2.0, math.nan), 0.1),
    "construct_layer(rho_plus=nan)":
        lambda: construct_layer(GasParams(), (math.nan, -2.0, 1.0), 0.1),
    **{f"GasParams({name}=inf)":
       (lambda name=name: GasParams(**{name: math.inf}))
       for name in ("R", "gamma", "mu", "kappa", "eps")},
    **{f"EndStates({name}={value})":
       (lambda name=name, value=value: make_end(**{name: value}))
       for name, value in (("u_minus", -math.inf), ("u_plus", -math.inf),
                           ("theta_minus", math.inf),
                           ("theta_plus", math.inf),
                           ("rho_plus", math.inf))},
    "BurgersWave(delta_r=inf)": lambda: BurgersWave(0.5, math.inf, 0.1),
    "BurgersWave(alpha=inf)": lambda: BurgersWave(0.5, 3.0, math.inf),
    "construct_layer(theta_plus=inf)":
        lambda: construct_layer(GasParams(), (1.0, -2.0, math.inf), 0.1),
    "construct_layer(rho_plus=inf)":
        lambda: construct_layer(GasParams(), (math.inf, -2.0, 1.0), 0.1),
}


@pytest.mark.parametrize("name", list(NON_FINITE))
def test_constructors_refuse_non_finite_values(name):
    # each guard is written `not 0 < v < inf` (or asks for a finite u or
    # w), which nan and inf fail; a value past the guard fails later with
    # a subclass, such as numpy's LinAlgError
    with pytest.raises(ValueError) as exc:
        NON_FINITE[name]()
    assert type(exc.value) is ValueError


class TestRegime:
    # each case names the regime and the sign of u: only |u| counts
    @pytest.mark.parametrize("u,theta,tag", [
        (-2.0, 1.0, "supersonic-negative"),
        (-0.15, 1.0, "subsonic-negative"),
        (0.3, 1.0, "subsonic-positive"),
        (0.0, 1.0, "subsonic-zero"),
    ])
    def test_tags(self, u, theta, tag):
        assert classify_regime(GasParams(), u, theta) == tag.split("-")[0]

    def test_transonic_at_exact_sound_speed(self):
        p = GasParams()
        c = float(sound_speed(p, 0.6))
        assert classify_regime(p, -c, 0.6) == "transonic"
        assert classify_regime(p, -c * (1.0 + 1e-6), 0.6) == "supersonic"
        assert classify_regime(p, -c * (1.0 - 1e-6), 0.6) == "subsonic"


class TestDielectricBound:
    def test_unit_case_matches_formula(self):
        params = GasParams(R=1.0, gamma=2.0)
        end = make_end(u_minus=-1.0, u_plus=-0.5, theta_minus=1.0,
                       theta_plus=0.5)
        # beta1 = 1, beta2 = 1, beta3 = 1 + sqrt(2)
        c_bar = dielectric_bound(params, end)
        assert c_bar == pytest.approx(CBAR_UNIT, rel=1e-15)
        assert c_bar == pytest.approx(
            1.0 / (64.0 * (1.0 + math.sqrt(2.0))), rel=1e-15)


class TestRiemannMaps:
    @given(eps=st.floats(1e-6, 1e3), E=st.floats(-1e6, 1e6),
           b=st.floats(-1e6, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_identity(self, eps, E, b):
        # Componentwise error cancels catastrophically when sqrt(eps)*|E|
        # and |b| differ by many orders, so measure in the characteristic
        # norm where the subsystem is symmetric: scale E by sqrt(eps).
        params = GasParams(eps=eps)
        s = params.sqrt_eps
        pair = to_riemann(params, E, b)
        E2, b2 = from_riemann(params, pair.W1, pair.W2)
        scale = max(s * abs(E), abs(b), 1e-300)
        assert max(s * abs(E2 - E), abs(b2 - b)) <= 1e-14 * scale

    @given(eps=st.floats(0.25, 4.0), E=st.floats(-2.0, 2.0),
           b=st.floats(-2.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_componentwise_at_moderate_scales(self, eps, E, b):
        params = GasParams(eps=eps)
        pair = to_riemann(params, E, b)
        E2, b2 = from_riemann(params, pair.W1, pair.W2)
        scale = max(abs(E), abs(b), 1.0)
        assert abs(E2 - E) <= 1e-14 * scale
        assert abs(b2 - b) <= 1e-14 * scale

    def test_boundary_condition_reads_as_w1(self):
        # sqrt(eps)*E - b = 0  <=>  W1 = 0
        params = GasParams(eps=0.04)
        E = 1.7
        b = params.sqrt_eps * E
        pair = to_riemann(params, E, b)
        assert pair.W1 == pytest.approx(0.0, abs=1e-15)
        assert pair.W2 == pytest.approx(params.eps * E, rel=1e-14)

    def test_vectorized(self):
        params = GasParams(eps=0.25)
        E = np.linspace(-1, 1, 7)
        b = np.cos(E)
        pair = to_riemann(params, E, b)
        E2, b2 = from_riemann(params, pair.W1, pair.W2)
        np.testing.assert_allclose(E2, E, atol=1e-14)
        np.testing.assert_allclose(b2, b, atol=1e-14)
