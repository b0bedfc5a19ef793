"""State relations: invariant maps, regime tags, dielectric threshold."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outflow1d.gas import (EndStates, GasParams, check_pointwise_bounds,
                           classify_regime, dielectric_bound, from_riemann,
                           pressure, sound_speed, to_riemann)

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

    def test_pressure_is_ideal_gas_law(self):
        p = GasParams(R=2.0)
        assert pressure(p, 3.0, 0.5) == pytest.approx(3.0)
        rho = np.array([1.0, 2.0])
        th = np.array([1.0, 0.25])
        np.testing.assert_allclose(pressure(p, rho, th), [2.0, 1.0])

    def test_sound_speed_rejects_cold_states(self):
        with pytest.raises(ValueError):
            sound_speed(GasParams(), -0.1)


class TestEndStates:
    def test_outflow_sign_enforced(self):
        with pytest.raises(ValueError):
            make_end(u_minus=0.1)


class TestRegime:
    @pytest.mark.parametrize("u,theta,tag", [
        (-2.0, 1.0, "supersonic-negative"),
        (-0.15, 1.0, "subsonic-negative"),
        (0.3, 1.0, "subsonic-positive"),
        (0.0, 1.0, "subsonic-zero"),
    ])
    def test_tags(self, u, theta, tag):
        assert classify_regime(GasParams(), u, theta).tag == tag

    def test_transonic_at_exact_sound_speed(self):
        p = GasParams()
        c = float(sound_speed(p, 0.6))
        reg = classify_regime(p, -c, 0.6)
        assert reg.regime == "transonic" and reg.sign == "negative"
        assert reg.mach == pytest.approx(1.0, abs=1e-12)


class TestDielectricBound:
    def test_unit_case_matches_formula(self):
        params = GasParams(R=1.0, gamma=2.0)
        end = make_end(u_minus=-1.0, u_plus=-0.5, theta_minus=1.0,
                       theta_plus=0.5)
        bound = dielectric_bound(params, end)
        assert bound.beta1 == 1.0 and bound.beta2 == 1.0
        assert bound.beta3 == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-15)
        assert bound.c_bar == pytest.approx(CBAR_UNIT, rel=1e-15)
        assert bound.c_bar == pytest.approx(
            1.0 / (64.0 * bound.beta1 * bound.beta3), rel=1e-15)

    def test_static_data_is_unbounded(self):
        # u=0 on both ends is not constructible through EndStates (u_minus<0),
        # so probe the beta1=0 branch directly via a tiny stand-in object.
        class Still:
            u_minus = -0.0
            u_plus = 0.0
            theta_minus = 1.0
            theta_plus = 1.0
        bound = dielectric_bound(GasParams(), Still())
        assert bound.unbounded and math.isinf(bound.c_bar)


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


class TestPointwiseBounds:
    class S:
        def __init__(self, rho, u, theta):
            self.rho, self.u, self.theta = rho, u, theta

    def test_background_state_sits_inside_corridor(self):
        end = make_end()
        report = check_pointwise_bounds(GasParams(), self.S(1.0, -0.15, 1.0),
                                        end)
        assert report["all_ok"]

    def test_flags_runaway_velocity(self):
        end = make_end()
        report = check_pointwise_bounds(GasParams(),
                                        self.S(1.0, -5.0, 1.0), end)
        assert not report["u_ok"] and not report["all_ok"]
        assert report["u_maxabs"] == pytest.approx(5.0)
