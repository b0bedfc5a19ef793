"""Stationary boundary-layer construction across all far-state regimes."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from outflow1d import config as config_mod
from outflow1d import layer as layer_mod
from outflow1d.gas import GasParams
from outflow1d.layer import (LayerError, LayerProfile, center_direction,
                             construct_layer, export_csv, find_M0,
                             layer_jacobian, layer_ode_rhs, measure_decay,
                             stable_direction)

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


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


class TestRhsOnFloats:
    """The orbit walk calls layer_ode_rhs on floats; find_M0's slopes and
    the tests call it on arrays.  Both must give the same bits."""

    def test_square_is_a_product_at_the_pow_point(self):
        # here a float's (u - u_+) ** 2, libm pow, is 1 ulp off numpy's
        # square: 3.7659629068011817e-06 against 3.765962906801182e-06.  On
        # the center direction the linear part of theta' cancels, so that
        # ulp reaches theta' itself.
        u = -1.0019406089010414
        th = FAR_TRANS[2] + 0.4 * (u - FAR_TRANS[1])
        floats = layer_ode_rhs(PARAMS, FAR_TRANS, u, th)
        arrays = layer_ode_rhs(PARAMS, FAR_TRANS, np.array([u]),
                               np.array([th]))
        assert all(type(v) is float for v in floats)
        np.testing.assert_array_equal(bits(floats), bits(np.ravel(arrays)))

    @pytest.mark.parametrize("far", [FAR_SUPER, FAR_SUB, FAR_TRANS],
                             ids=["supersonic", "subsonic", "transonic"])
    def test_floats_match_arrays_bitwise(self, far):
        rng = np.random.default_rng(14)
        _, u_f, th_f = far
        u = u_f * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, 10_000))
        th = th_f * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, 10_000))
        arrays = layer_ode_rhs(PARAMS, far, u, th)
        floats = [layer_ode_rhs(PARAMS, far, a, b)
                  for a, b in zip(u.tolist(), th.tolist())]
        np.testing.assert_array_equal(bits(floats), bits(arrays).T)

    def test_nan_passes_through_without_an_error(self):
        du, dth = layer_ode_rhs(PARAMS, FAR_SUPER, math.nan, 1.0)
        assert math.isnan(du) and math.isnan(dth)
        with pytest.raises(LayerError):
            layer_ode_rhs(PARAMS, FAR_SUPER, np.array([math.nan, 0.0]),
                          np.ones(2))


@pytest.fixture(scope="module")
def super_profile():
    return construct_layer(PARAMS, FAR_SUPER, 0.1)


@pytest.fixture(scope="module")
def sub_profile():
    return construct_layer(PARAMS, FAR_SUB, 0.05)


def degenerate_data():
    """Strength-0.05 data on the attracting side of the center direction."""
    v_c = center_direction(PARAMS, FAR_TRANS)
    return FAR_TRANS[1] - 0.05 * v_c[0], FAR_TRANS[2] - 0.05 * v_c[1]


@pytest.fixture(scope="module")
def degenerate_profile():
    return construct_layer(PARAMS, FAR_TRANS, 0.05, "degenerate")


def counting(monkeypatch, name):
    """Route layer.<name> through a wrapper; returns its list of calls."""
    calls, fn = [], getattr(layer_mod, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(layer_mod, name, wrapper)
    return calls


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
        assert profile.case_tag == "supersonic"
        assert profile.delta == pytest.approx(0.1, rel=1e-12)

    def test_boundary_data_on_slow_direction(self, profile):
        # slow eigenvector of [[-1.5,1],[1,-3]] for -1 is (2,1)/3 in 1-norm
        u_m, th_m = profile.u[0], profile.theta[0]
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
        assert profile.case_tag == "subsonic"
        assert profile.delta == pytest.approx(0.05, rel=1e-6)
        # the walk stops at the requested strength: that sample is x = 0
        assert profile.x[0] == 0.0
        strength = (abs(profile.u[0] - FAR_SUB[1])
                    + abs(profile.theta[0] - FAR_SUB[2]))
        assert strength == pytest.approx(0.05, rel=1e-9)

    def test_tail_rate_is_the_stable_eigenvalue(self, profile):
        lam_s, _ = stable_direction(PARAMS, FAR_SUB)
        fit = measure_decay(profile, "u")
        assert fit["kind"] == "exponential"
        assert fit["rate"] == pytest.approx(lam_s, rel=0.05)

    def test_upper_branch_sits_on_the_other_side(self, profile):
        upper = construct_layer(PARAMS, FAR_SUB, 0.05, "upper")
        assert upper.case_tag == "subsonic"
        assert (profile.u[0] - FAR_SUB[1]) * (upper.u[0] - FAR_SUB[1]) < 0


class TestTransonicLayers:
    def test_manifold_branch_decays_exponentially(self):
        prof = construct_layer(PARAMS, FAR_TRANS, 0.05)
        assert prof.case_tag == "transonic_manifold"
        fit = measure_decay(prof, "u")
        assert fit["kind"] == "exponential"

    def test_degenerate_branch_has_algebraic_tail(self, degenerate_profile):
        prof = degenerate_profile
        assert prof.case_tag == "transonic_degenerate"
        fit = measure_decay(prof, "u")
        assert fit["kind"] == "algebraic"
        assert -1.2 < fit["exponent"] < -0.8
        assert fit["decades"] >= 2.0

    def test_degenerate_tail_is_monotone_beyond_m0(self, degenerate_profile):
        prof = degenerate_profile
        x0 = find_M0(prof, PARAMS)
        assert x0 >= 1.0
        du, dth = layer_ode_rhs(PARAMS, FAR_TRANS, prof.u, prof.theta)
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

    def test_degenerate_orbit_is_integrated_stiffly(self, monkeypatch):
        # the tail has eigenvalues 0 and -1.9 out to x = 2e4: an explicit
        # integrator needs ~80k right-hand sides there, a stiff one < 1k
        calls = counting(monkeypatch, "layer_ode_rhs")
        prof = construct_layer(PARAMS, FAR_TRANS, 0.05, "degenerate")
        assert prof.case_tag == "transonic_degenerate"
        assert len(calls) <= 2000

    def test_find_m0_accepts_a_tail_falling_to_the_far_state(self):
        # a manifold layer approaches the far state with u rising and theta
        # falling; both deficits still shrink monotonically
        prof = construct_layer(PARAMS, FAR_TRANS, 0.05)
        du, dth = layer_ode_rhs(PARAMS, FAR_TRANS, prof.u, prof.theta)
        assert (dth < -1e-12).any()
        x0 = find_M0(prof, PARAMS)
        tail = prof.x >= x0
        assert np.all(du[tail] * np.sign(prof.u_far - prof.u[tail]) >= -1e-12)
        assert np.all(dth[tail] * np.sign(prof.theta_far - prof.theta[tail])
                      >= -1e-12)


class TestOneWalkPerLayer:
    CASES = {"supersonic": (FAR_SUPER, "lower"),
             "subsonic": (FAR_SUB, "lower"),
             "transonic_manifold": (FAR_TRANS, "lower"),
             "transonic_degenerate": (FAR_TRANS, "degenerate")}

    @pytest.mark.parametrize("tag", list(CASES))
    def test_one_solve_ivp_call_per_layer(self, monkeypatch, tag):
        # the walk that builds the layer also finds its boundary data
        far, branch = self.CASES[tag]
        walks = counting(monkeypatch, "LSODA")
        prof = construct_layer(PARAMS, far, 0.05, branch)
        assert len(walks) == 1 and prof.case_tag == tag
        assert prof.x[0] == 0.0 and prof.x[-1] == prof.x_max
        assert np.all(np.diff(prof.x) > 0.0)

    def test_degenerate_data_sits_on_the_center_direction(
            self, degenerate_profile):
        prof = degenerate_profile
        assert (prof.u[0], prof.theta[0]) == degenerate_data()


def solve_ivp_walk(params, far, y0, span, t_eval, stops=(), backward=False):
    """The walk's oracle: solve_ivp's LSODA with the same t_eval, each stop
    a terminal event and u = 0 and theta = 0 the last two; returns what
    _walk returns."""

    def rhs(x, y):
        du, dth = layer_ode_rhs(params, far, *y.tolist())
        return np.array((-du, -dth) if backward else (du, dth))

    events = []
    for g, direction in (*stops, (lambda y: y[0], 0), (lambda y: y[1], 0)):
        def event(x, y, g=g):
            return g(y)
        event.terminal, event.direction = True, direction
        events.append(event)
    sol = solve_ivp(rhs, (0.0, span), y0, method="LSODA",
                    rtol=layer_mod.RTOL, atol=layer_mod.ATOL, t_eval=t_eval,
                    events=events)
    assert sol.success, sol.message
    fired = [k for k, te in enumerate(sol.t_events) if te.size]
    if not fired:
        return sol.t, sol.y, None, None, None
    (k,) = fired
    return sol.t, sol.y, k, sol.t_events[k][0], sol.y_events[k][0]


class TestWalkMatchesSolveIvp:
    """_walk steps LSODA itself; solve_ivp with t_eval and terminal events
    on the same orbit gives the same samples and stop, bit for bit."""

    # branch -> (far, delta, branch, the stop that ends the walk)
    BRANCHES = {
        "supersonic": (FAR_SUPER, 0.1, "lower", 1),         # fixed-point ball
        "subsonic_lower": (FAR_SUB, 0.05, "lower", 0),      # strength
        "subsonic_upper": (FAR_SUB, 0.05, "upper", 0),
        "transonic_lower": (FAR_TRANS, 0.05, "lower", 0),
        "transonic_upper": (FAR_TRANS, 0.05, "upper", 0),
        "degenerate_0.05": (FAR_TRANS, 0.05, "degenerate", None),   # span
        "degenerate_0.2": (FAR_TRANS, 0.2, "degenerate", None),
    }

    @pytest.mark.parametrize("case", list(BRANCHES))
    def test_samples_and_stop_are_bitwise_solve_ivps(self, monkeypatch,
                                                     case):
        far, delta, branch, stop = self.BRANCHES[case]
        walks, walk = [], layer_mod._walk

        def recording(*args, **kwargs):
            walks.append((args, kwargs, walk(*args, **kwargs)))
            return walks[-1][2]

        monkeypatch.setattr(layer_mod, "_walk", recording)
        construct_layer(PARAMS, far, delta, branch)
        ((args, kwargs, (t, y, got_stop, t_stop, y_stop)),) = walks
        t_ref, y_ref, ref_stop, t_ref_stop, y_ref_stop = solve_ivp_walk(
            *args, **kwargs)
        assert got_stop == ref_stop == stop
        np.testing.assert_array_equal(bits(t), bits(t_ref))
        np.testing.assert_array_equal(bits(y), bits(y_ref))
        if stop is None:
            assert t_stop is None and y_stop is None
        else:
            assert bits(t_stop) == bits(t_ref_stop)
            np.testing.assert_array_equal(bits(y_stop), bits(y_ref_stop))


    # on the supersonic orbit u rises from -2.0667 toward -2
    @pytest.mark.parametrize("stops, stop", [
        ([(lambda y: y[0] + 2.03, -1)], None),      # rises: wrong direction
        ([(lambda y: y[0] + 2.03, 1)], 0),
        ([(lambda y: y[0] + 2.03, 1),               # both in one step: the
          (lambda y: y[0] + 2.03 + 1e-12, 0)], 1),  # earlier one ends it
    ], ids=["wrong_direction", "rising", "earliest_of_two"])
    def test_stop_directions_and_order_are_solve_ivps(self, stops, stop):
        y0 = np.array([-2.0 - 0.2 / 3.0, 1.0 - 0.1 / 3.0])
        t_eval = np.arange(0.0, 10.0, 1e-3)
        got = layer_mod._walk(PARAMS, FAR_SUPER, y0, 10.0, t_eval, stops)
        want = solve_ivp_walk(PARAMS, FAR_SUPER, y0, 10.0, t_eval, stops)
        assert got[2] == want[2] == stop
        for a, b in zip(got[:2], want[:2]):
            np.testing.assert_array_equal(bits(a), bits(b))
        if stop is not None:
            assert bits(got[3]) == bits(want[3])
            np.testing.assert_array_equal(bits(got[4]), bits(want[4]))


class TestPhysicalLayers:
    """A layer keeps theta > 0: a strength too large for its far state is
    refused with LayerError, never built through theta <= 0."""

    @pytest.mark.parametrize("far, delta, branch", [
        (FAR_SUPER, 5.0, "lower"),          # theta_- = -2/3
        (FAR_SUPER, 3.0, "lower"),          # theta_- = -2.2e-16
        (FAR_TRANS, 3.0, "degenerate"),     # theta_- = -0.257
    ], ids=["supersonic_5", "supersonic_3", "degenerate_3"])
    def test_forward_data_below_theta_0_is_refused_before_walking(
            self, monkeypatch, far, delta, branch):
        walks = counting(monkeypatch, "LSODA")
        with pytest.raises(LayerError, match="theta_- = .*, not positive"):
            construct_layer(PARAMS, far, delta, branch)
        assert walks == []

    @pytest.mark.parametrize("delta", [2.0, 3.0, 6.0])
    def test_a_manifold_walk_ends_at_theta_0(self, monkeypatch, delta):
        # the transonic upper branch reaches theta = 0 before strength 2:
        # the walk stops there, with every sample at theta > 0
        walks, walk = [], layer_mod._walk

        def recording(*args, **kwargs):
            walks.append(walk(*args, **kwargs))
            return walks[-1]

        monkeypatch.setattr(layer_mod, "_walk", recording)
        with pytest.raises(LayerError, match="walk reached theta = 0 at "
                           "strength 1.04, short of delta"):
            construct_layer(PARAMS, FAR_TRANS, delta, "upper")
        ((_, (_, th), stop, _, y_stop),) = walks
        assert stop == 2                    # strength, u = 0, theta = 0
        assert y_stop[1] == pytest.approx(0.0, abs=1e-12)
        assert th.min() > 0.0

    @pytest.mark.parametrize("far, delta, branch, message", [
        (FAR_TRANS, 2.0, "upper", "transonic_manifold manifold walk reached "
         "theta = 0 at strength 1.04, short of delta = 2"),
        (FAR_SUB, 50.0, "upper", "subsonic manifold walk reached theta = 0 "
         "at strength 1.15, short of delta = 50"),
        (FAR_SUB, 1000.0, "lower", "subsonic manifold walk reached theta = 0 "
         "at strength 69, short of delta = 1000"),
        (FAR_TRANS, 40.0, "lower", "transonic_manifold manifold walk reached "
         "theta = 0 at strength 8.9, short of delta = 40"),
    ], ids=["transonic_upper", "subsonic_upper", "subsonic_lower",
            "transonic_lower"])
    def test_a_failed_manifold_walk_names_its_stop(self, far, delta, branch,
                                                   message):
        with pytest.raises(LayerError) as err:
            construct_layer(PARAMS, far, delta, branch)
        assert str(err.value) == "the " + message

    @pytest.mark.parametrize("far, branch, theta_min", [
        (FAR_SUPER, "lower", 1.0 / 3.0),
        (FAR_TRANS, "degenerate", 0.2 / 7.0),
    ], ids=["supersonic", "degenerate"])
    def test_strength_2_is_still_built(self, far, branch, theta_min):
        prof = construct_layer(PARAMS, far, 2.0, branch)
        assert prof.theta.min() == pytest.approx(theta_min, abs=1e-12)
        assert prof.theta.min() == prof.theta[0]


class TestEdgesAndSerialization:
    def test_zero_strength_layer_is_refused(self):
        # a layer of strength 0 is the far state itself: the caller builds
        # no layer (a scenario at delta = 0 has none)
        for delta in (0.0, -0.05, math.nan):
            with pytest.raises(ValueError, match="delta must be positive"):
                construct_layer(PARAMS, FAR_SUPER, delta)

    @pytest.mark.parametrize("far", [FAR_SUPER, FAR_SUB, FAR_TRANS],
                             ids=["supersonic", "subsonic", "transonic"])
    def test_zero_strength_walks_nothing(self, monkeypatch, far):
        walks = counting(monkeypatch, "LSODA")
        branches = ["lower", "degenerate"] if far is FAR_TRANS else ["lower"]
        for branch in branches:
            with pytest.raises(ValueError, match="delta must be positive"):
                construct_layer(PARAMS, far, 0.0, branch)
        assert walks == []

    @pytest.mark.parametrize("regime", ["supersonic", "subsonic",
                                        "transonic_degenerate"])
    def test_failed_integration_is_an_error(self, monkeypatch, regime):
        # a failed walk must not read as a missing layer ('nonexistent')
        far, branch = {
            "supersonic": (FAR_SUPER, "lower"),
            "subsonic": (FAR_SUB, "lower"),
            "transonic_degenerate": (FAR_TRANS, "degenerate"),
        }[regime]

        class Failing(layer_mod.LSODA):
            def _step_impl(self):
                return False, ("Required step size is less than spacing "
                               "between numbers.")

        monkeypatch.setattr(layer_mod, "LSODA", Failing)
        with pytest.raises(LayerError, match="Required step size"):
            construct_layer(PARAMS, far, 0.05, branch)

    def test_csv_is_lf_text_with_a_header(self, tmp_path):
        # LF-ended like every other table the package files
        path = tmp_path / "layer.csv"
        prof = construct_layer(PARAMS, FAR_SUPER, 0.1)
        export_csv(prof, path)
        lines = path.read_bytes().split(b"\n")
        assert lines[0] == b"x,u_tilde,theta_tilde,rho_tilde"
        assert lines[-1] == b"" and len(lines) == prof.x.size + 2
        assert not any(b"\r" in line for line in lines)
        rows = np.array([line.split(b",") for line in lines[1:-1]], float)
        np.testing.assert_array_equal(
            rows, np.column_stack((prof.x, prof.u, prof.theta, prof.rho)))

    def test_an_unknown_case_tag_is_refused(self):
        x = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="unknown case tag 'sonic'"):
            LayerProfile(x=x, u=-2.0 - 0.1 * np.exp(-x), theta=np.ones(3),
                         delta=0.1, case_tag="sonic", rho_far=1.0,
                         u_far=-2.0, theta_far=1.0)

    def test_far_state_validation(self):
        with pytest.raises(ValueError):
            construct_layer(PARAMS, (0.0, -2.0, 1.0), 0.1)

    def test_unknown_branch_is_refused(self, monkeypatch):
        # a typo must not silently build the lower layer
        walks = counting(monkeypatch, "LSODA")
        with pytest.raises(ValueError, match="branch must be one of lower, "
                           "upper, degenerate"):
            construct_layer(PARAMS, FAR_SUB, 0.05, "manifold")
        assert walks == []
        assert config_mod.LAYER_BRANCHES is layer_mod.LAYER_BRANCHES

    def test_csv_round_trip(self, tmp_path):
        prof = construct_layer(PARAMS, FAR_SUPER, 0.1)
        path = tmp_path / "layer.csv"
        export_csv(prof, path)
        raw = np.genfromtxt(path, delimiter=",", names=True)
        np.testing.assert_allclose(raw["x"], prof.x, rtol=1e-15)
        np.testing.assert_allclose(raw["u_tilde"], prof.u, rtol=1e-15)
        np.testing.assert_allclose(raw["theta_tilde"], prof.theta, rtol=1e-15)
        np.testing.assert_allclose(raw["rho_tilde"], prof.rho, rtol=1e-15)
