"""Smoothed expansion fans: state curve, speed field, decay, superposition."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (DECAY_DX, DECAY_PAD, DECAY_TIMES, cq_constant,
                     exact_fan_profile, rarefaction_decay_check)
from outflow1d.config import ScenarioConfig, load_config
from outflow1d.gas import GasParams, sound_speed
from outflow1d.layer import construct_layer
from outflow1d.rarefaction import BurgersWave, CompositeProfile, R3Curve
from outflow1d.scenarios import prepare_scenario

ROOT = Path(__file__).resolve().parents[1]
PARAMS = GasParams(R=1.0, gamma=5.0 / 3.0, mu=1.0, kappa=1.0)
PLUS = (1.0, -0.15, 1.0)

# frozen by hand for plus = (1, -0.15, 1), theta_* = 0.94, gamma = 5/3:
#   c_+ = sqrt(5/3), c_* = sqrt(5/3*0.94),
#   u_* = u_+ - 3*(c_+ - c_*),  rho_* = 0.94**1.5
STAR_RHO = 0.9113638131942698
STAR_U = -0.2679866751036993


def fan(curve, wave, x, t):
    """The fan term of CompositeProfile.eval: the state on the curve at the
    Burgers speed of time tau = 1 + t."""
    return curve.state_from_w(wave.eval(x, 1.0 + t)[0])


def foot_residual(wave, x, tau):
    """|x0 + w0(x0)tau - x| of the feet _feet finds for the points of x
    inside the fan (x > w_- tau), the points eval solves for."""
    xa = x[x > wave.w_minus * tau]
    x0 = wave._feet(xa, tau)
    return np.abs(x0 + wave.w0(x0) * tau - xa)


class TestR3Curve:
    def test_invariant_and_edge_speed(self):
        curve = R3Curve(PARAMS, *PLUS)
        c_plus = math.sqrt(5.0 / 3.0)
        assert curve.c_plus == pytest.approx(c_plus, rel=1e-15)
        assert curve.invariant == pytest.approx(-0.15 - 3.0 * c_plus, rel=1e-15)
        assert curve.w_plus == pytest.approx(-0.15 + c_plus, rel=1e-15)

    def test_star_state_matches_hand_derivation(self):
        rho, u, th = R3Curve(PARAMS, *PLUS).state_at_theta(0.94)
        c_plus = math.sqrt(5.0 / 3.0)
        c_star = math.sqrt(5.0 / 3.0 * 0.94)
        assert rho == pytest.approx(0.94 ** 1.5, rel=1e-14)
        assert u == pytest.approx(-0.15 - 3.0 * (c_plus - c_star), rel=1e-14)
        assert th == 0.94
        assert rho == pytest.approx(STAR_RHO, rel=1e-14)
        assert u == pytest.approx(STAR_U, rel=1e-13)

    @given(th=st.floats(0.2, 0.999))
    @settings(max_examples=100, deadline=None)
    def test_invariant_constant_along_curve(self, th):
        curve = R3Curve(PARAMS, *PLUS)
        rho, u, theta = curve.state_at_theta(th)
        c = math.sqrt(PARAMS.R * PARAMS.gamma * theta)
        I = u - 2.0 * c / (PARAMS.gamma - 1.0)
        assert I == pytest.approx(curve.invariant, abs=1e-13)

    @given(th=st.floats(0.2, 0.999))
    @settings(max_examples=100, deadline=None)
    def test_w_parametrization_round_trip(self, th):
        curve = R3Curve(PARAMS, *PLUS)
        rho, u, theta = curve.state_at_theta(th)
        w = u + sound_speed(PARAMS, theta)
        rho2, u2, th2 = curve.state_from_w(float(w))
        assert rho2 == pytest.approx(rho, rel=1e-12)
        assert u2 == pytest.approx(u, abs=1e-12)
        assert th2 == pytest.approx(theta, rel=1e-12)

    def test_rejects_compression_data(self):
        curve = R3Curve(PARAMS, *PLUS)
        with pytest.raises(ValueError):
            curve.state_at_theta(1.0)
        with pytest.raises(ValueError):
            curve.state_at_theta(-0.5)

    def test_state_from_w_guards_admissible_band(self):
        curve = R3Curve(PARAMS, *PLUS)
        with pytest.raises(ValueError):
            curve.state_from_w(curve.w_plus + 1.0)   # rho above rho_plus
        with pytest.raises(ValueError):
            curve.state_from_w(curve.invariant)      # vacuum


class TestNormalization:
    @pytest.mark.parametrize("q,expected", [
        (1.0, 1.0), (2.0, 0.5), (3.0, 1.0 / 6.0), (1.5, 1.0 / math.gamma(2.5)),
    ])
    def test_quadrature_matches_closed_form(self, q, expected):
        assert cq_constant(q) == pytest.approx(expected, abs=1e-10)

    def test_rejects_weak_smoothing(self):
        with pytest.raises(ValueError):
            cq_constant(0.5)


class TestBurgersWave:
    WAVE = BurgersWave(w_minus=0.5, delta_r=3.0, alpha=0.1)

    @pytest.mark.parametrize("kw", [
        {"delta_r": -0.1}, {"alpha": 0.0},
    ])
    def test_validation(self, kw):
        base = dict(w_minus=0.5, delta_r=3.0, alpha=0.1)
        base.update(kw)
        with pytest.raises(ValueError):
            BurgersWave(**base)

    def test_data_matches_closed_form_for_q1(self):
        # q = 1: regularized ramp is 1 - e^-z (1+z), z = alpha*x
        x0 = np.linspace(-5.0, 80.0, 300)
        z = self.WAVE.alpha * np.maximum(x0, 0.0)
        expected = 0.5 + 3.0 * (1.0 - np.exp(-z) * (1.0 + z))
        np.testing.assert_allclose(self.WAVE.w0(x0), expected, atol=1e-14)

    def test_data_slope_matches_closed_form_for_q1(self):
        x0 = np.linspace(0.1, 80.0, 200)
        z = self.WAVE.alpha * x0
        expected = 3.0 * self.WAVE.alpha * z * np.exp(-z)
        np.testing.assert_allclose(self.WAVE.w0_prime(x0), expected,
                                   atol=1e-14)
        assert self.WAVE.w0_prime(-1.0) == 0.0

    def test_characteristic_feet_are_recovered(self):
        tau = 7.0
        x = np.linspace(-2.0, self.WAVE.w_plus * tau + 60.0, 500)
        assert foot_residual(self.WAVE, x, tau).max() < 1e-10

    def test_implicit_solution_identity(self):
        # w(x, tau) == w0(x - w*tau) is the characteristic solution
        tau = 12.5
        x = np.linspace(0.0, self.WAVE.w_plus * tau + 40.0, 400)
        w, _ = self.WAVE.eval(x, tau)
        np.testing.assert_allclose(w, self.WAVE.w0(x - w * tau), atol=1e-9)

    def test_profile_is_monotone_and_bounded(self):
        tau = 3.0
        x = np.linspace(-5.0, 120.0, 800)
        w, wx = self.WAVE.eval(x, tau)
        assert np.all(np.diff(w) >= -1e-12)
        assert np.all(wx >= 0.0)
        assert w.min() >= 0.5 and w.max() <= 3.5 + 1e-12

    def test_exact_left_value_before_the_fan(self):
        tau = 4.0
        w, wx = self.WAVE.eval(np.array([-1.0, 0.0, 0.5 * tau]), tau)
        assert w[0] == 0.5 and w[1] == 0.5 and w[2] == 0.5
        assert np.all(wx == 0.0)

    def test_time_shift_enters_as_one_plus_t(self):
        # the shipped composite background at t = 0 and t_final is, bit for
        # bit, layer + fan at Burgers time 1 + t - star on its grid
        cfg = load_config(ROOT / "configs" / "superposition_stability.cfg")
        prep = prepare_scenario(cfg)
        bg, x = prep.background, prep.grid.x
        for t in (0.0, cfg.t_final):
            want = [a + b - s for a, b, s in zip(
                bg.layer.eval(x), fan(bg.curve, bg.wave, x, t), bg.star)]
            for got, ref in zip(bg.eval(x, t), want):
                np.testing.assert_array_equal(got.view(np.int64),
                                              ref.view(np.int64))


# tuned data reaching the asymptotic regime inside t in [1, 100]: the
# steepest fan the suite evaluates
STEEP_WAVE = BurgersWave(w_minus=0.5, delta_r=3.0, alpha=math.e)


def bisection_eval(wave, x, tau):
    """eval with the feet found by 56 fixed bisection steps and two Newton
    polish steps, the solve the bracketed regula falsi replaced."""
    w = np.full(x.shape, wave.w_minus)
    wx = np.zeros(x.shape)
    act = x > wave.w_minus * tau
    xa = x[act]
    lo = xa - wave.w_plus * tau
    hi = xa - wave.w_minus * tau
    for _ in range(56):
        mid = 0.5 * (lo + hi)
        neg = mid + wave.w0(mid) * tau - xa < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    x0 = 0.5 * (lo + hi)
    for _ in range(2):
        g = x0 + wave.w0(x0) * tau - xa
        x0 = x0 - g / (1.0 + wave.w0_prime(x0) * tau)
    wp = wave.w0_prime(x0)
    w[act] = wave.w0(x0)
    wx[act] = wp / (1.0 + wp * tau)
    return w, wx


def steep_cases():
    """(wave, x, tau) on the grids rarefaction_decay_check samples."""
    for t in DECAY_TIMES:
        tau = 1.0 + t
        yield STEEP_WAVE, np.arange(0.0, STEEP_WAVE.w_plus * tau + DECAY_PAD,
                                    DECAY_DX), tau


@pytest.fixture(scope="module")
def composite_cases():
    """The default composite fan on its 2001-node grid at the 51 record
    times of the default superposition run."""
    prep = prepare_scenario(ScenarioConfig(scenario="superposition_stability"))
    wave = prep.background.wave
    return [(wave, prep.grid.x, 1.0 + k * prep.record_dt) for k in range(51)]


class TestFootSolve:
    def test_residual_on_the_steep_wave(self):
        for wave, x, tau in steep_cases():
            assert foot_residual(wave, x, tau).max() <= 1e-10, tau

    def test_matches_the_bisection_solve(self, composite_cases):
        for wave, x, tau in list(steep_cases()) + composite_cases:
            w, wx = wave.eval(x, tau)
            w_ref, wx_ref = bisection_eval(wave, x, tau)
            assert np.max(np.abs(w - w_ref)) <= 1e-13, tau
            assert np.max(np.abs(wx - wx_ref)) <= 1e-13, tau

    def test_few_data_evaluations_per_solve(self, composite_cases,
                                            monkeypatch):
        count, per_solve = [0], []
        w0, feet = BurgersWave.w0, BurgersWave._feet

        def counted_w0(self, x0):
            count[0] += 1
            return w0(self, x0)

        def counted_feet(self, xa, tau):
            count[0] = 0
            x0 = feet(self, xa, tau)
            per_solve.append(count[0])
            return x0

        monkeypatch.setattr(BurgersWave, "w0", counted_w0)
        monkeypatch.setattr(BurgersWave, "_feet", counted_feet)
        for wave, x, tau in composite_cases:
            wave.eval(x, tau)
        assert len(per_solve) == len(composite_cases)
        assert max(per_solve) <= 16


class TestFanProfiles:
    CURVE = R3Curve(PARAMS, *PLUS)

    def make_wave(self):
        # left state on the curve with w_- >= 0, fan opening toward +x
        rho_m, u_m, th_m = self.CURVE.state_at_theta(0.9)
        w_m = float(u_m + sound_speed(PARAMS, th_m))
        return BurgersWave(w_minus=w_m, delta_r=self.CURVE.w_plus - w_m,
                           alpha=0.1)

    def test_left_of_fan_is_constant_state(self):
        wave = self.make_wave()
        rho_m, u_m, th_m = self.CURVE.state_at_theta(0.9)
        for t in (0.0, 1.0, 10.0, 100.0):
            edge = wave.w_minus * (1.0 + t)
            x = np.linspace(0.0, edge, 64)
            rho, u, th = fan(self.CURVE, wave, x, t)
            assert np.max(np.abs(rho - rho_m)) < 1e-12
            assert np.max(np.abs(u - u_m)) < 1e-12
            assert np.max(np.abs(th - th_m)) < 1e-12

    def test_exact_fan_is_self_similar(self):
        wave = self.make_wave()
        t = 3.0
        x = np.linspace(0.0, 30.0, 400)
        rho, u, th = exact_fan_profile(PARAMS, self.CURVE, wave, x, t)
        w = u + np.sqrt(PARAMS.R * PARAMS.gamma * th)
        np.testing.assert_allclose(
            w, np.clip(x / (1.0 + t), wave.w_minus, self.CURVE.w_plus),
            atol=1e-12)

    def test_slope_scaling(self):
        # the decay check's norms are those of u_x = 2/(gamma+1) w_x
        report = rarefaction_decay_check(PARAMS, STEEP_WAVE)
        for k, (wave, x, tau) in enumerate(steep_cases()):
            ux = 2.0 / (PARAMS.gamma + 1.0) * np.abs(wave.eval(x, tau)[1])
            assert report["sup"]["norms"][k] == pytest.approx(ux.max(),
                                                              rel=1e-14)
            assert report["l2"]["norms"][k] == pytest.approx(
                math.sqrt(np.trapezoid(ux * ux, x)), rel=1e-14)


class TestDecayRates:
    WAVE = STEEP_WAVE

    @pytest.fixture(scope="class")
    def report(self):
        return rarefaction_decay_check(PARAMS, self.WAVE)

    def test_sup_norm_rate(self, report):
        sup = report["sup"]
        assert sup["passed"] and sup["expected"] == -1.0
        assert sup["fitted"] == pytest.approx(-1.0, rel=0.15)
        # pinned measurement guarding against silent regressions
        assert sup["fitted"] == pytest.approx(-0.96523, abs=2e-3)

    def test_l2_norm_rate(self, report):
        l2 = report["l2"]
        assert l2["passed"] and l2["expected"] == -0.5
        assert l2["fitted"] == pytest.approx(-0.5, rel=0.15)
        assert l2["fitted"] == pytest.approx(-0.46773, abs=2e-3)


class TestComposite:
    CURVE = R3Curve(PARAMS, *PLUS)

    def build_parts(self):
        star = R3Curve(PARAMS, *PLUS).state_at_theta(0.94)
        layer = construct_layer(PARAMS, star, 0.05)
        w_star = float(star[1] + sound_speed(PARAMS, star[2]))
        wave = BurgersWave(w_minus=w_star,
                           delta_r=self.CURVE.w_plus - w_star, alpha=0.1)
        return star, layer, wave

    def test_no_component_is_the_star(self):
        # a background with neither part is the constant star state
        star = R3Curve(PARAMS, *PLUS).state_at_theta(0.94)
        x = np.linspace(0.0, 30.0, 301)
        for got, want in zip(CompositeProfile(star).eval(x, 5.0), star):
            assert got.shape == x.shape
            np.testing.assert_array_equal(got.view(np.int64),
                                          np.full(x.shape, want).view(np.int64))

    def test_fan_needs_curve_and_wave_together(self):
        _, layer, wave = self.build_parts()
        with pytest.raises(ValueError):
            CompositeProfile(star=(1.0, -0.15, 1.0), layer=layer, wave=wave)

    def test_pure_layer_reduces_to_layer(self):
        star, layer, _ = self.build_parts()
        comp = CompositeProfile(star, layer)
        x = np.linspace(0.0, 30.0, 301)
        np.testing.assert_allclose(comp.eval(x, 5.0), layer.eval(x),
                                   rtol=1e-14)

    def test_pure_fan_reduces_to_fan(self):
        star, _, wave = self.build_parts()
        comp = CompositeProfile(star, None, self.CURVE, wave)
        x = np.linspace(0.0, 80.0, 400)
        np.testing.assert_allclose(
            comp.eval(x, 5.0),
            fan(self.CURVE, wave, x, 5.0), rtol=1e-14)

    def test_composite_interpolates_layer_and_fan(self):
        star, layer, wave = self.build_parts()
        comp = CompositeProfile(star, layer, self.CURVE, wave)
        # near the boundary the fan still sits at star: composite == layer
        x_near = np.array([0.0])
        np.testing.assert_allclose(comp.eval(x_near, 0.0),
                                   layer.eval(x_near), atol=1e-12)
        # far beyond both: composite -> plus state
        x_far = np.array([1e4])
        rho, u, th = comp.eval(x_far, 0.0)
        assert rho[0] == pytest.approx(1.0, abs=1e-5)
        assert u[0] == pytest.approx(-0.15, abs=1e-5)
        assert th[0] == pytest.approx(1.0, abs=1e-5)
