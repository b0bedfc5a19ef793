"""Stationary boundary-layer construction across all far-state regimes."""

import itertools
import math

import numpy as np
import pytest

from outflow1d import layer as layer_mod
from outflow1d.gas import GasParams
from outflow1d.layer import (LayerConfig, LayerError, boundary_data_for_strength,
                             center_direction, construct_layer, export_csv,
                             find_M0, layer_jacobian, layer_ode_rhs,
                             measure_decay, stable_direction)

PARAMS = GasParams(R=1.0, gamma=5.0 / 3.0, mu=1.0, kappa=1.0)

# Desk case: far = (1, -2, 1).  m = -2 and the linearization is
#   [[ (m/mu)(1 - R*th/u^2), rho*R/mu ],          [[-1.5, 1.0],
#    [ rho*R*th/kappa, m*R/((g-1)*kappa) ]]   =    [ 1.0, -3.0]]
# with characteristic roots (-4.5 +- sqrt(20.25 - 14))/2 = -1 and -3.5.
FAR_SUPER = (1.0, -2.0, 1.0)
J_SUPER = np.array([[-1.5, 1.0], [1.0, -3.0]])
LAMBDA_SLOW = -1.0
LAMBDA_FAST = -3.5

FAR_SUB = (1.0, -0.15, 1.0)
# Transonic far state: u = -c = -sqrt(R*gamma*theta) with theta = 0.6.
FAR_TRANS = (1.0, -1.0, 0.6)


def quadratic_eigs(J):
    """Independent route: characteristic polynomial by the quadratic formula."""
    tr = J[0, 0] + J[1, 1]
    det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    disc = math.sqrt(tr * tr - 4.0 * det)
    return (tr - disc) / 2.0, (tr + disc) / 2.0


class TestLinearization:
    def test_desk_jacobian_entries(self):
        np.testing.assert_allclose(layer_jacobian(PARAMS, FAR_SUPER), J_SUPER,
                                   rtol=1e-14)

    def test_desk_eigenvalues_exact(self):
        lam_s, v = stable_direction(PARAMS, FAR_SUPER)
        assert lam_s == pytest.approx(LAMBDA_FAST, rel=1e-12)
        lo, hi = quadratic_eigs(J_SUPER)
        assert (lo, hi) == (pytest.approx(-3.5), pytest.approx(-1.0))

    def test_subsonic_far_state_is_a_saddle(self):
        J = layer_jacobian(PARAMS, FAR_SUB)
        lo, hi = quadratic_eigs(J)
        assert lo < 0 < hi
        lam_s, v = stable_direction(PARAMS, FAR_SUB)
        assert lam_s == pytest.approx(lo, rel=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_transonic_center_direction(self):
        v = center_direction(PARAMS, FAR_TRANS)
        np.testing.assert_allclose(v, [5.0 / 7.0, 2.0 / 7.0], rtol=1e-14)
        # null vector of the Jacobian
        J = layer_jacobian(PARAMS, FAR_TRANS)
        np.testing.assert_allclose(J @ v, [0.0, 0.0], atol=1e-12)

    def test_rhs_singular_at_stagnation(self):
        with pytest.raises(LayerError):
            layer_ode_rhs(PARAMS, FAR_SUPER, 0.0, 1.0)

    def test_rhs_vanishes_at_far_state(self):
        du, dth = layer_ode_rhs(PARAMS, FAR_SUPER, -2.0, 1.0)
        assert du == 0.0 and dth == 0.0


@pytest.fixture(scope="module")
def super_profile():
    data = boundary_data_for_strength(PARAMS, FAR_SUPER, 0.1)
    return construct_layer(PARAMS, FAR_SUPER, data)


@pytest.fixture(scope="module")
def sub_profile():
    data = boundary_data_for_strength(PARAMS, FAR_SUB, 0.05)
    return construct_layer(PARAMS, FAR_SUB, data)


@pytest.fixture(scope="module")
def degenerate_profile():
    v_c = center_direction(PARAMS, FAR_TRANS)
    data = (FAR_TRANS[1] - 0.05 * v_c[0], FAR_TRANS[2] - 0.05 * v_c[1])
    return construct_layer(PARAMS, FAR_TRANS, data)


def center_manifold_coefficient(params, far, h=1e-4):
    """l.D2F[v_c, v_c] / (l.v_c) with l = (c, -a) the left null vector of
    the Jacobian [[a, b], [c, d]] and D2F a central second difference of
    layer_ode_rhs along the center direction."""
    v = center_direction(params, far)
    J = layer_jacobian(params, far)
    ell = np.array([J[1, 0], -J[0, 0]])
    _, u_f, th_f = far
    F = [np.array(layer_ode_rhs(params, far, u_f + k * h * v[0],
                                th_f + k * h * v[1])) for k in (-1, 0, 1)]
    d2F = (F[0] - 2.0 * F[1] + F[2]) / (h * h)
    return float(ell @ d2F) / float(ell @ v)


class TestSupersonicLayer:
    @pytest.fixture
    def profile(self, super_profile):
        return super_profile

    def test_strength_and_tag(self, profile):
        assert profile.exists and profile.case_tag == "supersonic"
        assert profile.delta == pytest.approx(0.1, rel=1e-12)

    def test_boundary_data_on_slow_direction(self):
        # slow eigenvector of [[-1.5,1],[1,-3]] for -1 is (2,1)/3 in 1-norm
        u_m, th_m = boundary_data_for_strength(PARAMS, FAR_SUPER, 0.1)
        assert u_m == pytest.approx(-2.0 - 0.1 * 2.0 / 3.0, rel=1e-9)
        assert th_m == pytest.approx(1.0 - 0.1 / 3.0, rel=1e-9)

    def test_profile_solves_the_ode(self, profile):
        x = np.arange(0.5, 10.0, 1e-3)
        _, u, th = profile.eval(x)
        du_fd = np.gradient(u, x)
        dth_fd = np.gradient(th, x)
        du, dth = layer_ode_rhs(PARAMS, FAR_SUPER, u, th)
        assert np.max(np.abs(du_fd[2:-2] - du[2:-2])) < 1e-6
        assert np.max(np.abs(dth_fd[2:-2] - dth[2:-2])) < 1e-6

    def test_tail_rate_matches_slow_eigenvalue(self, profile):
        fit = measure_decay(profile, "u")
        assert fit["kind"] == "exponential"
        assert fit["rate"] == pytest.approx(LAMBDA_SLOW, rel=0.05)
        assert profile.decay_rate_oracle == pytest.approx(LAMBDA_SLOW, rel=1e-9)

    def test_density_from_mass_flux(self, profile):
        rho, u, _ = profile.eval(np.array([0.0, 1.0, 5.0]))
        np.testing.assert_allclose(rho * u, profile.mass_flux, rtol=1e-12)

    def test_far_field_constants_beyond_x_max(self, profile):
        rho, u, th = profile.eval(profile.x_max + 100.0)
        assert u == pytest.approx(-2.0) and th == pytest.approx(1.0)
        assert rho == pytest.approx(1.0)


class TestSubsonicLayer:
    @pytest.fixture
    def profile(self, sub_profile):
        return sub_profile

    def test_manifold_datum_admits_a_layer(self, profile):
        assert profile.exists and profile.case_tag == "subsonic"
        assert profile.delta == pytest.approx(0.05, rel=1e-6)
        assert profile.boundary_gap < 1e-8

    def test_tail_rate_is_the_stable_eigenvalue(self, profile):
        lam_s, _ = stable_direction(PARAMS, FAR_SUB)
        fit = measure_decay(profile, "u")
        assert fit["kind"] == "exponential"
        assert fit["rate"] == pytest.approx(lam_s, rel=0.05)

    def test_off_manifold_datum_is_rejected(self, profile):
        u_m = profile.u[0]
        th_m = profile.theta[0] + 0.02      # leave the 1-D stable manifold
        off = construct_layer(PARAMS, FAR_SUB, (u_m, th_m))
        assert not off.exists and off.case_tag == "nonexistent"
        with pytest.raises(LayerError):
            off.eval(1.0)

    def test_upper_branch_sits_on_the_other_side(self):
        u_lo, _ = boundary_data_for_strength(PARAMS, FAR_SUB, 0.05)
        u_hi, _ = boundary_data_for_strength(PARAMS, FAR_SUB, 0.05,
                                             branch="upper")
        assert (u_lo - FAR_SUB[1]) * (u_hi - FAR_SUB[1]) < 0


class TestTransonicLayers:
    def test_manifold_branch_decays_exponentially(self):
        data = boundary_data_for_strength(PARAMS, FAR_TRANS, 0.05)
        prof = construct_layer(PARAMS, FAR_TRANS, data)
        assert prof.exists and prof.case_tag == "transonic_manifold"
        fit = measure_decay(prof, "u")
        assert fit["kind"] == "exponential"

    def test_degenerate_branch_has_algebraic_tail(self, degenerate_profile):
        prof = degenerate_profile
        assert prof.exists and prof.case_tag == "transonic_degenerate"
        fit = measure_decay(prof, "u")
        assert fit["kind"] == "algebraic"
        assert -1.2 < fit["exponent"] < -0.8
        assert fit["decades"] >= 2.0

    def test_degenerate_tail_is_monotone_beyond_m0(self, degenerate_profile):
        prof = degenerate_profile
        x0 = find_M0(prof, PARAMS)
        assert x0 >= 1.0
        du, dth = prof.slopes(PARAMS)
        tail = prof.x >= x0
        assert np.all(du[tail] >= -1e-12) and np.all(dth[tail] >= -1e-12)

    def test_center_manifold_coefficient_is_positive(self):
        # positive coefficient: the reduced flow xi' ~ xi^2 contracts on the
        # minus side of the center direction, at every transonic far state
        for gamma, R, mu, kappa, rho, theta in itertools.product(
                (1.4, 5.0 / 3.0, 3.0), (0.5, 2.0), (0.3, 3.0), (0.3, 3.0),
                (0.5, 2.0), (0.2, 2.5)):
            params = GasParams(R=R, gamma=gamma, mu=mu, kappa=kappa)
            far = (rho, -math.sqrt(gamma * R * theta), theta)
            np.testing.assert_allclose(layer_jacobian(params, far)
                                       @ center_direction(params, far),
                                       0.0, atol=1e-12)
            assert center_manifold_coefficient(params, far) > 0.0, far

    def test_degenerate_data_integrates_nothing(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return layer_ode_rhs(*args)

        monkeypatch.setattr(layer_mod, "layer_ode_rhs", counting)
        u_m, th_m = boundary_data_for_strength(PARAMS, FAR_TRANS, 0.05,
                                               branch="degenerate")
        v_c = center_direction(PARAMS, FAR_TRANS)
        assert (u_m, th_m) == (-1.0 - 0.05 * v_c[0], 0.6 - 0.05 * v_c[1])
        assert calls == []

    def test_find_m0_accepts_a_tail_falling_to_the_far_state(self):
        # a manifold layer approaches the far state with u rising and theta
        # falling; both deficits still shrink monotonically
        data = boundary_data_for_strength(PARAMS, FAR_TRANS, 0.05)
        prof = construct_layer(PARAMS, FAR_TRANS, data)
        du, dth = prof.slopes(PARAMS)
        assert (dth < -1e-12).any()
        x0 = find_M0(prof, PARAMS)
        tail = prof.x >= x0
        assert np.all(du[tail] * np.sign(prof.u_far - prof.u[tail]) >= -1e-12)
        assert np.all(dth[tail] * np.sign(prof.theta_far - prof.theta[tail])
                      >= -1e-12)


class TestEdgesAndSerialization:
    def test_zero_strength_layer_is_exact(self):
        prof = construct_layer(PARAMS, FAR_SUPER, (-2.0, 1.0))
        assert prof.exists and prof.delta == 0.0 and prof.x_max == 0.0
        rho, u, th = prof.eval(np.linspace(0, 5, 11))
        np.testing.assert_allclose(u, -2.0)
        np.testing.assert_allclose(th, 1.0)
        np.testing.assert_allclose(rho, 1.0)

    def test_zero_strength_data_helper(self):
        assert boundary_data_for_strength(PARAMS, FAR_SUPER, 0.0) == (-2.0, 1.0)

    def test_far_state_validation(self):
        with pytest.raises(ValueError):
            construct_layer(PARAMS, (0.0, -2.0, 1.0), (-2.1, 0.95))

    def test_csv_round_trip(self, tmp_path):
        data = boundary_data_for_strength(PARAMS, FAR_SUPER, 0.1)
        prof = construct_layer(PARAMS, FAR_SUPER, data)
        path = tmp_path / "layer.csv"
        export_csv(prof, path)
        raw = np.genfromtxt(path, delimiter=",", names=True)
        np.testing.assert_allclose(raw["x"], prof.x, rtol=1e-15)
        np.testing.assert_allclose(raw["u_tilde"], prof.u, rtol=1e-15)
        np.testing.assert_allclose(raw["theta_tilde"], prof.theta, rtol=1e-15)
        np.testing.assert_allclose(raw["rho_tilde"], prof.rho, rtol=1e-15)
