"""Tests for scenario preparation, the solver-scenario driver, and batches.

The driver tests use deliberately coarse grids and short horizons so the
whole module stays fast; the physics-quality runs live in the acceptance
suite.
"""

import csv
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from outflow1d import layer as layer_mod
from outflow1d import scenarios
from outflow1d.config import ConfigError, ScenarioConfig, load_config, \
    parse_config_text
from outflow1d.diagnostics import DIAG_COLUMNS, bump_profile, \
    fit_convergence
from outflow1d.gas import (EndStates, GasParams, classify_regime,
                           dielectric_bound, sound_speed)
from outflow1d.layer import LayerError
from outflow1d.rarefaction import R3Curve
from outflow1d.scenarios import (PreparedRun, ScenarioError,
                                 default_domain_length, prepare_scenario,
                                 run_batch, run_scenario)
from outflow1d.solver import apply_boundary, record_times, run


def layer_cfg(**over) -> ScenarioConfig:
    """Coarse supersonic layer: the composite wave with a fan of zero
    strength (theta_star = theta_plus)."""
    base = dict(scenario="superposition_stability", u_plus=-2.0, delta=0.1,
                theta_star=1.0, amplitude=1e-2, seed=7,
                n_cells=120, length=40.0, t_final=20.0)
    base.update(over)
    return ScenarioConfig(**base)


# the fan cfgs' length holds the smoothed fan's tail to t_final (see
# FAR_FIELD_TOL); rarefaction_cfg's layer has zero strength
def rarefaction_cfg(**over) -> ScenarioConfig:
    base = dict(scenario="superposition_stability", delta=0.0, theta_star=0.9,
                amplitude=1e-2, seed=7, n_cells=64, length=300.0,
                t_final=10.0)
    base.update(over)
    return ScenarioConfig(**base)


def short_cfg() -> ScenarioConfig:
    """The bump alone on the constant far state, marched for 50 steps."""
    return ScenarioConfig(scenario="superposition_stability", delta=0.0,
                          theta_star=1.0, n_cells=100, t_final=0.1)


def superposition_cfg(**over) -> ScenarioConfig:
    base = dict(scenario="superposition_stability", theta_star=0.94,
                delta=0.05, amplitude=1e-2, seed=11, n_cells=64,
                length=300.0, t_final=10.0)
    base.update(over)
    return ScenarioConfig(**base)


class TestPrepareLayer:
    def test_returns_prepared_run_with_meta(self):
        prep = prepare_scenario(layer_cfg())
        assert isinstance(prep, PreparedRun)
        _, u_star, theta_star = prep.background.star
        assert classify_regime(prep.params, u_star, theta_star) \
            == "supersonic"
        assert prep.background.layer.case_tag == "supersonic"
        assert prep.background.layer.delta == pytest.approx(0.1, rel=1e-12)

    def test_auto_eps_is_fraction_of_dielectric_bound(self):
        prep = prepare_scenario(layer_cfg())
        params0 = GasParams(1.0, 5.0 / 3.0, 1.0, 1.0, eps=1.0)
        c_bar = dielectric_bound(params0, prep.end)
        assert math.isfinite(c_bar)
        assert prep.params.eps == pytest.approx(0.5 * c_bar, rel=1e-15)

    def test_eps_fraction_scales_linearly(self):
        eps_half = prepare_scenario(layer_cfg(eps_fraction=0.5)).params.eps
        eps_quarter = prepare_scenario(layer_cfg(eps_fraction=0.25)).params.eps
        assert eps_quarter == pytest.approx(0.5 * eps_half, rel=1e-15)

    def test_dielectric_warning_above_bound(self):
        # eps at the bound c_bar is outside the theory: filed once, at set-up
        prep = prepare_scenario(layer_cfg(eps_fraction=1.0))
        c_bar = dielectric_bound(replace(prep.params, eps=1.0), prep.end)
        assert prep.warnings == [
            f"eps = {c_bar:g} is not below the dielectric bound {c_bar:g}; "
            "the stability theory does not cover this run"]
        assert prepare_scenario(layer_cfg(eps_fraction=0.5)).warnings == []

    def test_grid_uses_requested_length(self):
        prep = prepare_scenario(layer_cfg())
        assert prep.grid.length == 40.0
        assert prep.grid.n_nodes == 121

    def test_auto_length_sized_from_fastest_signal(self):
        cfg = layer_cfg(length=None, t_final=10.0)
        prep = prepare_scenario(cfg)
        expected = default_domain_length(prep.params, prep.end, 10.0)
        assert prep.grid.length == pytest.approx(expected, rel=1e-15)
        assert prep.grid.length >= 40.0

    def test_default_domain_length_floor(self):
        end = EndStates(u_minus=-0.5, theta_minus=1.0, rho_plus=1.0,
                        u_plus=-0.5, theta_plus=1.0)
        assert default_domain_length(GasParams(), end, 1.0) == 40.0
        long = default_domain_length(GasParams(), end, 500.0)
        c = math.sqrt(5.0 / 3.0)
        assert long == pytest.approx(2.0 * (-0.5 + c) * 501.0)

    def test_record_dt_defaults_to_fiftieth_of_horizon(self):
        assert prepare_scenario(layer_cfg()).record_dt == pytest.approx(0.4)

    def test_initial_data_is_boundary_compatible(self):
        prep = prepare_scenario(layer_cfg())
        assert prep.state0.u[0] == prep.end.u_minus
        assert prep.state0.theta[0] == prep.end.theta_minus
        assert prep.state0.b[0] == prep.params.sqrt_eps * prep.state0.E[0]

    @staticmethod
    def bump(cfg, prep):
        return bump_profile(prep.grid.x, cfg.amplitude, scenarios.BUMP_CENTER,
                            scenarios.BUMP_WIDTH)

    def test_fluid_bump_rides_on_the_background(self):
        cfg = layer_cfg(seed=None)
        prep = prepare_scenario(cfg)
        bg_rho, bg_u, bg_theta = prep.background.eval(prep.grid.x, 0.0)
        prof = self.bump(cfg, prep)
        assert prof.any()
        assert np.array_equal(prep.state0.u[1:], (bg_u + prof)[1:])
        assert np.array_equal(prep.state0.theta[1:], (bg_theta + prof)[1:])
        assert np.array_equal(prep.state0.rho, bg_rho)
        assert prep.state0.u[0] == prep.end.u_minus
        assert prep.state0.theta[0] == prep.end.theta_minus

    def test_field_bump_is_an_equal_speed_pair(self):
        cfg = layer_cfg(seed=None)
        prep = prepare_scenario(cfg)
        prof = self.bump(cfg, prep)
        assert np.array_equal(prep.state0.E, prof / prep.params.sqrt_eps)
        assert np.array_equal(prep.state0.b, prof)
        # the pair cancels on the incoming characteristic
        incoming = prep.params.sqrt_eps * prep.state0.E - prep.state0.b
        assert np.max(np.abs(incoming)) < 1e-15

    def test_unseeded_perturbation_is_nominal(self):
        info = prepare_scenario(layer_cfg(seed=None)).perturbation
        assert info["center"] == 5.0
        assert all(s == 1.0 for s in info["signs"].values())
        assert set(info["signs"]) == {"u", "theta", "em"}

    def test_seeded_perturbation_reproduces_bitwise(self):
        a = prepare_scenario(layer_cfg(seed=11))
        b = prepare_scenario(layer_cfg(seed=11))
        for name in ("rho", "u", "theta", "E", "b"):
            assert np.array_equal(getattr(a.state0, name),
                                  getattr(b.state0, name))
        assert a.perturbation == b.perturbation

    def test_seed_jitters_center_within_quarter_width(self):
        centers = set()
        for seed in (1, 2, 3):
            info = prepare_scenario(layer_cfg(seed=seed)).perturbation
            assert abs(info["center"] - 5.0) <= 0.5  # width / 4
            assert set(info["signs"].values()) <= {-1.0, 1.0}
            centers.add(info["center"])
        assert len(centers) == 3


class TestPrepareFanScenarios:
    def test_rarefaction_left_state_and_wave(self):
        cfg = rarefaction_cfg()
        prep = prepare_scenario(cfg)
        params0 = GasParams(1.0, 5.0 / 3.0, 1.0, 1.0, eps=1.0)
        left = R3Curve(params0, 1.0, -0.15, 1.0).state_at_theta(0.9)
        assert prep.end.theta_minus == pytest.approx(left[2], rel=1e-15)
        assert prep.end.u_minus == pytest.approx(left[1], rel=1e-14)
        w_minus = left[1] + float(sound_speed(params0, left[2]))
        assert prep.background.wave.w_minus == pytest.approx(w_minus,
                                                             rel=1e-14)
        assert prep.state0.b[0] == prep.params.sqrt_eps * prep.state0.E[0]

    def test_rarefaction_rejects_fan_leaving_the_boundary(self):
        with pytest.raises(ScenarioError, match="fan edge speed is negative"):
            prepare_scenario(rarefaction_cfg(theta_star=0.5))

    def test_superposition_intermediate_state(self):
        prep = prepare_scenario(superposition_cfg())
        star = prep.background.star
        assert star[0] == pytest.approx(0.9113638131942698, rel=1e-12)
        assert star[1] == pytest.approx(-0.2679866751036993, rel=1e-12)
        assert star[2] == 0.94
        assert prep.background.layer.delta == pytest.approx(0.05, rel=1e-12)
        # the fan runs from the star state to the far state
        params0 = GasParams(1.0, 5.0 / 3.0, 1.0, 1.0, eps=1.0)
        wave = prep.background.wave
        assert wave.w_minus == pytest.approx(
            star[1] + float(sound_speed(params0, star[2])), rel=1e-14)
        assert wave.w_plus == pytest.approx(
            -0.15 + float(sound_speed(params0, 1.0)), rel=1e-14)

    def test_superposition_rejects_too_cold_intermediate(self):
        with pytest.raises(ScenarioError, match="fan edge speed"):
            prepare_scenario(superposition_cfg(theta_star=0.5))

    @pytest.mark.parametrize("make,has_layer,has_fan", [
        (layer_cfg, True, False),
        (rarefaction_cfg, False, True),
        (superposition_cfg, True, True),
    ])
    def test_every_solver_scenario_describes_both_parts(self, make,
                                                        has_layer, has_fan):
        cfg = make()
        prep = prepare_scenario(cfg)
        bg = prep.background
        assert set(prep.perturbation) == {"center", "signs"}
        assert (bg.layer is not None) == has_layer
        assert (bg.wave is not None) == has_fan
        assert bg.layer is None or bg.layer.delta > 0.0
        assert bg.wave is None or bg.wave.delta_r > 0.0
        plus = (cfg.rho_plus, cfg.u_plus, cfg.theta_plus)
        assert (bg.star != plus) == has_fan

    def test_non_solver_scenarios_cannot_be_prepared(self):
        with pytest.raises(ScenarioError, match="not solver-backed"):
            prepare_scenario(ScenarioConfig(scenario="layer_decay"))



class TestZeroStrengthLayer:
    """A part of strength 0 is absent: the background is the star state
    plus whichever parts exist."""

    def test_superposition_without_a_layer_is_the_fan(self):
        # the fan is the composite's own fan, and the boundary data are its
        # left (star) state
        comp = prepare_scenario(superposition_cfg())
        fan = prepare_scenario(superposition_cfg(delta=0.0))
        assert fan.background.layer is None
        assert fan.background.star == comp.background.star
        assert fan.background.wave == comp.background.wave
        assert (fan.end.u_minus, fan.end.theta_minus) \
            == fan.background.star[1:]

    def test_theta_star_at_theta_plus_builds_no_fan(self):
        cfg = superposition_cfg(theta_star=1.0)
        prep = prepare_scenario(cfg)
        assert prep.background.wave is None and prep.background.curve is None
        assert prep.background.star == (cfg.rho_plus, cfg.u_plus,
                                        cfg.theta_plus)
        assert prep.background.layer.delta == pytest.approx(0.05, rel=1e-12)

    def test_a_layer_scenario_at_zero_strength_marches_the_far_state(
            self, tmp_path):
        # layer_branch is not read: "upper" has no supersonic layer
        cfg = layer_cfg(delta=0.0, layer_branch="upper")
        prep = prepare_scenario(cfg)
        assert prep.background.layer is None
        assert (prep.end.u_minus, prep.end.theta_minus) == (cfg.u_plus,
                                                            cfg.theta_plus)
        scenarios.profile_scenario(cfg, tmp_path / "profile")
        assert os.listdir(tmp_path / "profile") == ["initial.csv"]
        assert run_scenario(cfg, tmp_path / "run")["verdict"] == "PASS"


ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def bits(state) -> np.ndarray:
    """The state's doubles as integers: equal means bitwise equal, down to
    the sign of a zero."""
    return state.data.view(np.uint64)


class TestPreparedState:
    @pytest.mark.parametrize("name", ["layer_stability",
                                      "rarefaction_stability",
                                      "superposition_stability"])
    def test_prepared_state_is_the_marched_start(self, name):
        prep = prepare_scenario(load_config(CONFIGS / f"{name}.cfg"))
        pinned = prep.state0.copy()
        apply_boundary(prep.params, prep.end, pinned)
        np.testing.assert_array_equal(bits(pinned), bits(prep.state0))

        records = []                    # (t, state) at t = 0 and t_final
        run(prep.params, prep.end, prep.grid, prep.state0, 1e-3,
            prep.solver_config,
            recorder=lambda t, state, _: records.append((t, state.copy())))
        t0, start = records[0]
        assert t0 == 0.0
        np.testing.assert_array_equal(bits(start), bits(prep.state0))

    @pytest.mark.parametrize("name,perturbation", [
        ("layer_stability", {"center": 5.125095466604667,
                             "signs": {"u": 1.0, "theta": 1.0, "em": 1.0}}),
        ("superposition_stability", {"center": 4.6285702027691995,
                                     "signs": {"u": -1.0, "theta": 1.0,
                                               "em": 1.0}}),
    ])
    def test_seeded_draw_is_pinned(self, name, perturbation):
        # the seed draws the centre jitter, then the signs of rho, u, theta
        # and em in that order (rho's sign is drawn but unused)
        prep = prepare_scenario(load_config(CONFIGS / f"{name}.cfg"))
        assert prep.perturbation == perturbation


class TestFarField:
    """The march pins the far state at x = L, so the background must sit
    there, within FAR_FIELD_TOL, at every time of the march.  At fixed x
    the gap is monotone in t, so prepare_scenario checks it at t = 0 and
    t_final only; test_the_gap_is_monotone_over_the_record_times guards
    that premise on the configs and lengths that are marched."""

    @staticmethod
    def gaps(prep, cfg, length, times):
        plus = (cfg.rho_plus, cfg.u_plus, cfg.theta_plus)
        return [max(abs(float(v[0]) - f) for v, f in zip(
            prep.background.eval([length], t), plus)) for t in times]

    @staticmethod
    def far_field_calls(monkeypatch) -> list:
        """The times of every CompositeProfile.eval at a single point (the
        far-field check's x = L); evaluations on a grid are not listed."""
        calls = []
        evaluate = scenarios.CompositeProfile.eval

        def spy(self, x, t):
            if np.size(x) == 1:
                calls.append(t)
            return evaluate(self, x, t)

        monkeypatch.setattr(scenarios.CompositeProfile, "eval", spy)
        return calls

    @pytest.mark.parametrize("name", ["layer_stability",
                                      "rarefaction_stability",
                                      "superposition_stability"])
    def test_every_solver_config_passes(self, name):
        cfg = load_config(CONFIGS / f"{name}.cfg")
        prep = prepare_scenario(cfg)
        times = prep.record_dt * np.arange(51)
        assert (max(self.gaps(prep, cfg, prep.grid.length, times))
                <= scenarios.FAR_FIELD_TOL)

    def test_the_fan_config_at_length_80_is_refused(self):
        # the rarefaction config before its domain held the fan's tail:
        # 6.6e-4 off at t = 0, 2.8e-2 at t = 40
        cfg = replace(load_config(CONFIGS / "rarefaction_stability.cfg"),
                      length=80.0, n_cells=400)
        with pytest.raises(ScenarioError, match=r"at x = L = 80 is 0\.0276 "
                           r"off the far state at t = 40, above 1e-08; "
                           "lengthen the domain"):
            prepare_scenario(cfg)

    def test_a_gap_only_at_a_later_time_is_refused(self):
        # at L = 200 the fan's tail reaches the boundary after t = 0
        cfg = rarefaction_cfg()
        gaps = self.gaps(prepare_scenario(cfg), cfg, 200.0, [0.0, 10.0])
        assert gaps[0] <= scenarios.FAR_FIELD_TOL < gaps[1]
        with pytest.raises(ScenarioError, match="at t = 10,"):
            prepare_scenario(replace(cfg, length=200.0))

    def test_an_auto_length_grows_past_the_fan(self):
        # default_domain_length counts u_+ + c_+ only (40 here); the fan's
        # tail reaches x = 40 * 1.25^7 and clears x = 40 * 1.25^8
        cfg = rarefaction_cfg(length=None, t_final=1.0)
        times = cfg.t_final / 50.0 * np.arange(51)
        prep = prepare_scenario(cfg)
        assert prep.grid.length == 40.0 * scenarios.LENGTH_GROWTH ** 8
        assert prep.grid.length == pytest.approx(238.42, abs=5e-3)
        # n_cells grows with L, so dx stays the starting 40 / 64 to within
        # half a cell's rounding
        dx0 = 40.0 / cfg.n_cells
        assert prep.grid.n_cells == round(prep.grid.length / dx0) == 381
        assert abs(prep.grid.dx - dx0) <= 0.5 * dx0 / prep.grid.n_cells
        assert (max(self.gaps(prep, cfg, prep.grid.length / 1.25, times))
                > scenarios.FAR_FIELD_TOL
                >= max(self.gaps(prep, cfg, prep.grid.length, times)))

    @staticmethod
    def lengths_tried(prep, cfg) -> list:
        """The lengths prepare_scenario tried, in order: cfg's, or an auto
        length's start and each growth up to the grid's length."""
        lengths = [prep.grid.length]
        if cfg.length is None:
            start = scenarios.default_domain_length(prep.params, prep.end,
                                                    cfg.t_final)
            while lengths[0] > start * (1.0 + 1e-12):
                lengths.insert(0, lengths[0] / scenarios.LENGTH_GROWTH)
            assert lengths[0] == pytest.approx(start, rel=1e-12)
        return lengths

    # bench/tests' reduced composite_verdict: its auto length grows 5 times
    BENCH_COMPOSITE = pytest.param("superposition_stability",
                                   dict(n_cells=200, t_final=40.0), 6,
                                   id="bench_composite")

    @pytest.mark.parametrize("name,over,tried", [
        pytest.param("rarefaction_stability", dict(n_cells=64), 1,
                     id="rarefaction_stability"),
        pytest.param("superposition_stability", dict(n_cells=64), 1,
                     id="superposition_stability"),
        BENCH_COMPOSITE])
    def test_the_check_sees_t_0_and_t_final(self, name, over, tried,
                                            monkeypatch):
        # two evaluations at x = L per length tried, whatever the number
        # of record times (51 here)
        calls = self.far_field_calls(monkeypatch)
        cfg = replace(load_config(CONFIGS / f"{name}.cfg"), **over)
        prep = prepare_scenario(cfg)
        assert len(self.lengths_tried(prep, cfg)) == tried
        assert calls == [0.0, cfg.t_final] * tried

    @pytest.mark.parametrize("name,over,tried", [
        ("layer_stability", {}, 1), ("rarefaction_stability", {}, 1),
        ("superposition_stability", {}, 1), BENCH_COMPOSITE])
    def test_the_gap_is_monotone_over_the_record_times(self, name, over,
                                                        tried):
        # at every length tried, the gap at x = L never shrinks over the
        # record times, so its largest is at t = 0 or t_final
        cfg = replace(load_config(CONFIGS / f"{name}.cfg"), **over)
        prep = prepare_scenario(cfg)
        times = record_times(cfg.t_final, prep.record_dt)
        assert len(times) == 51
        lengths = self.lengths_tried(prep, cfg)
        assert len(lengths) == tried
        for length in lengths:
            gaps = self.gaps(prep, cfg, length, times)
            assert all(a <= b for a, b in zip(gaps, gaps[1:])), length

    def test_an_auto_length_that_never_clears_is_refused(self):
        # a transonic degenerate layer (u_+ + c_+ = 0, so the start is 40):
        # its algebraic tail is still 6.6e-4 off at 40 * 1.25^16
        cfg = layer_cfg(u_plus=-1.0, theta_plus=0.6, theta_star=0.6,
                        delta=0.05, layer_branch="degenerate", length=None)
        with pytest.raises(ScenarioError, match=r"at x = L = 1421\.09 is "
                           r"0\.000657 off the far state at t = 0, above "
                           "1e-08; lengthen the domain"):
            prepare_scenario(cfg)

    def test_a_fan_free_background_is_checked_once_per_length(
            self, monkeypatch):
        # without a fan the background does not move: one check per length
        # tried (the start and 16 growths), whose two times give equal
        # gaps, so the refusal names t = 0
        calls = self.far_field_calls(monkeypatch)
        cfg = layer_cfg(u_plus=-1.0, theta_plus=0.6, theta_star=0.6,
                        delta=0.05, layer_branch="degenerate", length=None)
        with pytest.raises(ScenarioError, match="at t = 0, above"):
            prepare_scenario(cfg)
        assert calls == [0.0, cfg.t_final] * (scenarios.MAX_GROWTHS + 1)


class TestBumpReach:
    """A domain that cannot hold the whole perturbation bump is refused:
    a run that perturbs nothing cannot judge its decay."""

    @staticmethod
    def no_wave_cfg(**over) -> ScenarioConfig:
        base = dict(scenario="superposition_stability", delta=0.0,
                    theta_star=1.0, seed=None, n_cells=16, length=3.0)
        base.update(over)
        return ScenarioConfig(**base)

    def test_the_domain_must_reach_past_the_bump(self):
        # centre 5, width 2: the bump lies on [4, 6], wholly past L = 3
        with pytest.raises(ScenarioError,
                           match="bump reaches x = 6, beyond L = 3;"):
            prepare_scenario(self.no_wave_cfg())
        with pytest.raises(ScenarioError, match="beyond L = 5.9"):
            prepare_scenario(self.no_wave_cfg(length=5.9))
        length = np.nextafter(6.0, 7.0)
        prep = prepare_scenario(self.no_wave_cfg(length=length))
        assert prep.grid.length == length
        assert prep.state0.u.max() > prep.background.star[1]

    @pytest.mark.parametrize("seed", [4, 3])    # jitter +0.443, -0.414
    def test_the_drawn_centre_sets_the_reach(self, seed):
        center = prepare_scenario(self.no_wave_cfg(
            seed=seed, length=40.0)).perturbation["center"]
        reach = center + scenarios.BUMP_WIDTH / 2.0
        # far enough from the unjittered reach 6 that a check on the fixed
        # centre would decide one of the two lengths below wrongly
        assert abs(reach - 6.0) > 0.4
        with pytest.raises(ScenarioError, match=f"reaches x = {reach:g},"):
            prepare_scenario(self.no_wave_cfg(seed=seed, length=reach - 0.1))
        prep = prepare_scenario(self.no_wave_cfg(seed=seed, length=reach))
        assert prep.perturbation["center"] == center


class TestUnsampledBump:
    """A bump that falls between the grid nodes leaves the perturbed march
    equal to its reference: the run is refused, not judged FAIL."""

    @pytest.mark.parametrize("name, n_cells, dx", [
        ("superposition_stability", 50, "9.17"),
        ("layer_stability", 16, "3.75"),
    ])
    def test_the_run_is_refused(self, name, n_cells, dx, tmp_path):
        cfg = replace(load_config(CONFIGS / f"{name}.cfg"), n_cells=n_cells)
        with pytest.raises(ScenarioError, match=(
                rf"zero at every interior node \(dx = {dx}, bump width 2\); "
                "refine the grid")):
            run_scenario(cfg, tmp_path)
        assert not any(tmp_path.iterdir())


class TestLayerDecay:
    @pytest.mark.parametrize("far, tag", [
        ({"u_plus": -0.15}, "subsonic"),
        ({"u_plus": -1.0, "theta_plus": 0.6}, "transonic_manifold"),
    ])
    def test_manifold_layers_pass_against_the_stable_eigenvalue(
            self, far, tag, tmp_path):
        cfg = ScenarioConfig(scenario="layer_decay", delta=0.05, **far)
        summary = run_scenario(cfg, tmp_path)
        assert summary["case_tag"] == tag
        assert summary["decay_u"]["rate_oracle"] < 0.0
        assert summary["verdict"] == "PASS"

    def test_a_layer_through_theta_0_is_refused(self, tmp_path):
        # at delta = 5 the supersonic layer would start at theta = -2/3:
        # there is no layer to measure, so no verdict either
        cfg = ScenarioConfig(scenario="layer_decay", u_plus=-2.0, delta=5.0)
        with pytest.raises(LayerError, match="theta_- = -0.666667"):
            run_scenario(cfg, tmp_path)
        assert not any(tmp_path.iterdir())


class TestOneWalkPerLayer:
    """A layer is named by its strength and branch; the one orbit walk that
    builds it also yields its boundary data, the x = 0 sample."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls, lsoda = [], layer_mod.LSODA

        def counting(*args, **kwargs):
            calls.append(1)
            return lsoda(*args, **kwargs)

        monkeypatch.setattr(layer_mod, "LSODA", counting)
        return calls

    def test_composite_layer_is_walked_once(self, walks):
        prep = prepare_scenario(
            load_config(CONFIGS / "superposition_stability.cfg"))
        assert prep.background.layer.case_tag == "subsonic"
        assert len(walks) == 1

    def test_degenerate_layer_is_walked_once(self, walks, tmp_path):
        cfg = load_config(ROOT / "bench" / "degenerate_layer.cfg")
        summary = run_scenario(cfg, tmp_path)
        assert summary["case_tag"] == "transonic_degenerate"
        assert len(walks) == 1

    def test_boundary_data_is_the_x0_sample_bitwise(self):
        prep = prepare_scenario(
            load_config(CONFIGS / "superposition_stability.cfg"))
        layer = prep.background.layer
        assert float(layer.u[0]).hex() == prep.end.u_minus.hex()
        assert float(layer.theta[0]).hex() == prep.end.theta_minus.hex()


class TestLayerBranch:
    @pytest.mark.parametrize("scenario, u_plus, branch, regime", [
        ("layer_decay", -0.15, "degenerate", "subsonic"),
        ("layer_decay", -2.0, "upper", "supersonic"),
        ("layer_decay", -2.0, "degenerate", "supersonic"),
        ("superposition_stability", -0.15, "degenerate", "subsonic"),
    ])
    def test_branch_that_misfits_the_far_state_is_refused(
            self, tmp_path, scenario, u_plus, branch, regime):
        cfg = ScenarioConfig(scenario=scenario, u_plus=u_plus,
                             layer_branch=branch, n_cells=64, length=60.0,
                             t_final=1.0)
        with pytest.raises(LayerError,
                           match=f"a {regime} far state has no '{branch}'"):
            run_scenario(cfg, tmp_path)
        assert not any(tmp_path.iterdir())


def files_in(out: Path) -> set:
    return {p.relative_to(out).as_posix() for p in out.rglob("*")
            if p.is_file()}


class TestReusedOutputDirectory:
    def test_an_earlier_runs_artifacts_are_removed(self, tmp_path):
        # the layer run's profile must not outlive it, while a file no
        # scenario emits (the user's own, or an older version's plots/) is
        # left alone
        (tmp_path / "plots").mkdir()
        for name in ("notes.txt", "plots/mine.dat"):
            (tmp_path / name).write_text("keep\n")
        run_scenario(ScenarioConfig(scenario="layer_decay"), tmp_path)
        layer_files = files_in(tmp_path) - {"notes.txt", "plots/mine.dat"}
        assert "layer_profile.csv" in layer_files
        run_scenario(short_cfg(), tmp_path)
        march_files = files_in(tmp_path) - {"notes.txt", "plots/mine.dat"}
        assert march_files == {
            "config.echo", "verdict.txt", "diagnostics.csv",
            "snapshot_initial.csv", "snapshot_final.csv"}
        assert layer_files | march_files <= set(scenarios.ARTIFACTS)
        for name in ("notes.txt", "plots/mine.dat"):
            assert (tmp_path / name).read_text() == "keep\n"

    def test_a_failed_run_leaves_no_earlier_artifact(self, tmp_path):
        # an earlier run's PASS must not stand for a run that failed
        (tmp_path / "notes.txt").write_text("keep\n")
        run_scenario(load_config(CONFIGS / "layer_decay.cfg"), tmp_path)
        assert (tmp_path / "verdict.txt").is_file()
        short = replace(load_config(CONFIGS / "layer_stability.cfg"),
                        length=10.0)
        with pytest.raises(ScenarioError, match="at x = L = 10 is"):
            run_scenario(short, tmp_path)
        assert files_in(tmp_path) == {"notes.txt"}
        assert (tmp_path / "notes.txt").read_text() == "keep\n"

    def test_an_earlier_profile_is_removed(self, tmp_path):
        # the layer's layer_profile.csv must not stand next to the initial
        # state of a run without a layer
        scenarios.profile_scenario(
            load_config(CONFIGS / "layer_stability.cfg"), tmp_path)
        assert files_in(tmp_path) == {"initial.csv", "layer_profile.csv"}
        scenarios.profile_scenario(short_cfg(), tmp_path)
        assert files_in(tmp_path) == {"initial.csv"}


@pytest.fixture(scope="module")
def layer_run(tmp_path_factory):
    cfg = layer_cfg()
    out = tmp_path_factory.mktemp("layer_run")
    summary = run_scenario(cfg, out)
    return cfg, Path(out), summary


class TestSolverScenarioRun:
    def test_perturbation_decays_to_pass(self, layer_run):
        _, _, summary = layer_run
        assert summary["verdict"] == "PASS"
        assert summary["fit_rel_fluid"]["verdict"] == "PASS"
        assert summary["fit_rel_field"]["verdict"] == "PASS"

    @staticmethod
    def diagnostics(out: Path):
        return np.genfromtxt(out / "diagnostics.csv", delimiter=",",
                             names=True)

    def test_difference_series_starts_at_injected_size(self, layer_run):
        cfg, out, _ = layer_run
        table = self.diagnostics(out)
        fluid = table["rel_fluid"]
        field = np.maximum(table["sup_E"], table["sup_b"])
        assert 0.8 * cfg.amplitude <= fluid[0] <= 1.000001 * cfg.amplitude
        assert field[0] > cfg.amplitude  # amplified 1/sqrt(eps)
        assert fluid[-1] < 0.05 * fluid[0]
        assert field[-1] < 1e-8

    def test_audits_stay_clean(self, layer_run):
        _, out, summary = layer_run
        # mass_residual is the running maximum: its last row is the march's
        assert self.diagnostics(out)["mass_residual"][-1] < 1e-8
        assert summary["warnings"] == []
        assert summary["steps"] > 100

    def test_artifact_tree(self, layer_run):
        _, out, _ = layer_run
        for name in ("config.echo", "diagnostics.csv", "snapshot_initial.csv",
                     "snapshot_final.csv", "verdict.txt"):
            assert (out / name).is_file(), name
        assert not (out / "plots").exists()
        assert files_in(out) <= set(scenarios.ARTIFACTS)

    def test_config_echo_reparses_to_same_config(self, layer_run):
        cfg, out, _ = layer_run
        assert parse_config_text((out / "config.echo").read_text()) == cfg

    def test_diagnostics_csv_schema_and_cadence(self, layer_run):
        cfg, out, _ = layer_run
        with open(out / "diagnostics.csv") as fh:
            header = fh.readline().strip()
        assert header == ",".join(DIAG_COLUMNS)
        table = np.genfromtxt(out / "diagnostics.csv", delimiter=",",
                              names=True)
        assert table.shape[0] == 51  # t = 0, 0.4, ..., 20
        assert table["t"][0] == 0.0
        assert table["t"][-1] == pytest.approx(cfg.t_final)
        assert np.all(np.diff(table["t"]) > 0)

    def test_difference_trace_files(self, layer_run):
        # the file holds the very series the verdict was fitted from
        _, out, summary = layer_run
        table = self.diagnostics(out)
        assert table["rel_fluid"].shape == (51,)
        assert fit_convergence(table["t"], table["rel_fluid"]) \
            == summary["fit_rel_fluid"]
        assert fit_convergence(table["t"], np.maximum(
            table["sup_E"], table["sup_b"])) == summary["fit_rel_field"]

    def test_verdict_file_names_the_deciding_numbers(self, layer_run):
        _, out, summary = layer_run
        text = (out / "verdict.txt").read_text()
        assert text.startswith("scenario = superposition_stability\n")
        assert "verdict = PASS" in text
        assert "fit_rel_fluid.verdict = PASS" in text
        for fit in ("fit_rel_fluid", "fit_rel_field"):
            assert f"{fit}.ratio = {summary[fit]['ratio']}\n" in text

    def test_zero_amplitude_passes_trivially(self, tmp_path, monkeypatch):
        cfg = layer_cfg(amplitude=0.0, n_cells=64, t_final=5.0, seed=None)
        marches, march = [], scenarios.run

        def counting_run(*args, **kw):
            marches.append(args)
            return march(*args, **kw)

        monkeypatch.setattr(scenarios, "run", counting_run)
        summary = run_scenario(cfg, tmp_path / "quiet")
        assert summary["verdict"] == "PASS"
        assert len(marches) == 1            # no reference march
        for fit in ("fit_rel_fluid", "fit_rel_field"):
            assert summary[fit]["verdict"] == "PASS"
            assert summary[fit]["note"] == "nothing to damp"
        # the data are the reference's start, so nothing separates the two
        # runs, while the analytic background is some way off
        table = self.diagnostics(tmp_path / "quiet")
        for name in ("rel_fluid", "sup_E", "sup_b"):
            assert table[name].tolist() == [0.0] * 51
        assert max(table[name][-1]
                   for name in ("sup_phi", "sup_psi", "sup_zeta")) > 0.0

    def test_unknown_scenario_is_refused(self):
        # refused when the config is built, so no driver ever sees it
        with pytest.raises(ConfigError, match="scenario must be one of"):
            ScenarioConfig(scenario="nonsense")


class TestVerdictSchema:
    """verdict.txt holds the verdict, the numbers that decided it and the
    facts of the run that no table holds, and nothing else."""

    FIT = ("verdict", "n", "first_quartile_mean", "last_quartile_mean",
           "ratio", "rate")

    @staticmethod
    def keys(out: Path) -> list:
        return [line.split(" = ")[0]
                for line in (out / "verdict.txt").read_text().splitlines()]

    def test_each_scenario_files_exactly_its_keys(self, layer_run, tmp_path):
        _, out, _ = layer_run
        assert self.keys(out) == [
            "scenario", "verdict",
            *(f"fit_rel_fluid.{k}" for k in self.FIT),
            *(f"fit_rel_field.{k}" for k in self.FIT),
            "steps", "runtime_s", "warnings"]
        run_scenario(load_config(CONFIGS / "layer_decay.cfg"),
                     tmp_path / "layer")
        assert self.keys(tmp_path / "layer") == [
            "scenario", "verdict", "case_tag", "decay_u.kind",
            "decay_u.rate", "decay_u.rate_oracle", "decay_theta_kind",
            "monotone_from"]
        run_scenario(load_config(ROOT / "bench" / "degenerate_layer.cfg"),
                     tmp_path / "degenerate")
        assert self.keys(tmp_path / "degenerate") == [
            "scenario", "verdict", "case_tag", "decay_u.kind",
            "decay_u.exponent", "decay_theta_kind", "monotone_from"]

    def test_an_amplitude_zero_run_notes_both_fits(self, tmp_path):
        # judged by fit_convergence like any run: the same keys plus a note
        run_scenario(layer_cfg(amplitude=0.0, n_cells=64, t_final=5.0),
                     tmp_path)
        fit = (*self.FIT, "note")
        assert self.keys(tmp_path) == [
            "scenario", "verdict",
            *(f"fit_rel_fluid.{k}" for k in fit),
            *(f"fit_rel_field.{k}" for k in fit),
            "steps", "runtime_s", "warnings"]


class TestDecoupledProbes:
    """Around E = b = 0 the fluid and the field decouple at first order, so
    a bump in one part alone is a probe of that part: the other part's
    series is 0, or second order in the amplitude."""

    @staticmethod
    def run_probe(monkeypatch, tmp_path, keep, amplitude=0.01) -> dict:
        """Run layer_stability.cfg, coarse and short, with the bump of
        _apply_perturbation kept in the rows of keep only."""
        bump = scenarios._apply_perturbation

        def probe(cfg, grid, state, params):
            before = state.data.copy()
            out = bump(cfg, grid, state, params)
            drop = [k for k in range(5) if k not in keep]
            state.data[drop] = before[drop]
            return out

        monkeypatch.setattr(scenarios, "_apply_perturbation", probe)
        cfg = replace(load_config(CONFIGS / "layer_stability.cfg"),
                      n_cells=100, t_final=20.0, amplitude=amplitude)
        return run_scenario(cfg, tmp_path / f"a{amplitude}")

    def test_a_fluid_only_bump_passes(self, monkeypatch, tmp_path):
        # the field series is 0 at every record: nothing to damp, not FAIL
        summary = self.run_probe(monkeypatch, tmp_path, keep=(1, 2))
        assert summary["verdict"] == "PASS"
        assert summary["fit_rel_field"]["note"] == "nothing to damp"
        assert summary["fit_rel_fluid"]["verdict"] == "PASS"
        assert "note" not in summary["fit_rel_fluid"]

    def test_a_field_only_bump_moves_the_fluid_at_second_order(
            self, monkeypatch, tmp_path):
        first = []
        for amplitude in (0.01, 0.1):
            summary = self.run_probe(monkeypatch, tmp_path, keep=(3, 4),
                                     amplitude=amplitude)
            assert summary["verdict"] == "PASS"
            first.append(summary["fit_rel_fluid"]["first_quartile_mean"])
        assert first[1] / first[0] == pytest.approx(100.0, rel=0.01)


class TestReferencePairing:
    """The reference march reuses the prepared background and is paired
    with the perturbed march record by record."""

    @staticmethod
    def sup_diffs(sa, sb):
        def sup(names):
            return max(float(np.max(np.abs(getattr(sa, n) - getattr(sb, n))))
                       for n in names)
        return sup(("rho", "u", "theta")), sup(("E", "b"))

    def test_paired_differences_match_independent_marches(self, tmp_path,
                                                          monkeypatch):
        cfg = layer_cfg(n_cells=64, t_final=5.0)
        prepared = []

        def counting_prepare(c):
            prepared.append(c)
            return prepare_scenario(c)

        monkeypatch.setattr(scenarios, "prepare_scenario", counting_prepare)
        run_scenario(cfg, tmp_path)
        assert prepared == [cfg]

        table = np.genfromtxt(tmp_path / "diagnostics.csv", delimiter=",",
                              names=True)
        preps = [prepare_scenario(cfg),
                 prepare_scenario(replace(cfg, amplitude=0.0))]
        states = []
        for p in preps:
            kept = []
            run(p.params, p.end, p.grid, p.state0, cfg.t_final,
                p.solver_config, record_dt=p.record_dt,
                recorder=lambda t, s, _: kept.append((t, s.copy())))
            states.append(kept)
        assert [t for t, _ in states[0]] == table["t"].tolist()
        expected = [self.sup_diffs(sa, sb) for (_, sa), (_, sb)
                    in zip(*states)]
        assert len(expected) == len(table) == 51
        assert table["rel_fluid"].tolist() == [f for f, _ in expected]
        # the reference's field is 0, so its distance is the record's own
        assert np.maximum(table["sup_E"], table["sup_b"]).tolist() \
            == [g for _, g in expected]

    def test_the_reference_keeps_only_its_fluid_rows(self, tmp_path,
                                                     monkeypatch):
        # the verdict reads the reference's rho, u and theta; its field
        # stays 0 (below), so no record keeps it
        cfg = layer_cfg(n_cells=64, t_final=5.0)
        kept, record = [], scenarios.record_from_state

        def recording(grid, state, background, reference, *args):
            kept.append(reference)
            return record(grid, state, background, reference, *args)

        monkeypatch.setattr(scenarios, "record_from_state", recording)
        run_scenario(cfg, tmp_path)
        assert len(kept) == 51
        assert all(r.shape == (3, 65) and r.base is None for r in kept)

    @pytest.mark.parametrize("name", ["layer_stability",
                                      "rarefaction_stability",
                                      "superposition_stability"])
    def test_the_reference_field_stays_exactly_zero(self, name):
        # every term of the field block and of its boundary copy
        # is a multiple of E or b, so the verdict judges sup_E and sup_b
        cfg = load_config(CONFIGS / f"{name}.cfg")
        prep = prepare_scenario(cfg)
        em = []
        run(prep.params, prep.end, prep.grid,
            scenarios._state_from_background(prep.grid, prep.background),
            cfg.t_final, prep.solver_config, record_dt=prep.record_dt,
            recorder=lambda t, s, _: em.append(s.data[3:].copy()))
        assert len(em) == 51
        assert all(not f.any() for f in em)


GOOD_BATCH = """\
scenario = layer_decay
u_plus = -2.0
delta = 0.1
"""

BAD_BATCH = """\
scenario = superposition_stability
delta = 0
theta_star = 0.5
n_cells = 64
length = 40
t_final = 5
"""


class TestBatch:
    def test_serial_batch_isolates_failures(self, tmp_path):
        good = tmp_path / "good.cfg"
        bad = tmp_path / "bad.cfg"
        good.write_text(GOOD_BATCH)
        bad.write_text(BAD_BATCH)
        out_root = tmp_path / "batch"

        rows = run_batch([good, bad], out_root, workers=1)

        assert [r["config"] for r in rows] == [str(good), str(bad)]
        assert rows[0]["scenario"] == "layer_decay"
        assert rows[0]["verdict"] == "PASS"
        assert rows[0]["error"] == ""
        assert (out_root / "good" / "verdict.txt").is_file()

        assert rows[1]["scenario"] == "superposition_stability"
        assert rows[1]["verdict"] == "ERROR"
        assert rows[1]["error"].startswith("ScenarioError")

        lines = (out_root / "batch_summary.csv").read_text().splitlines()
        assert lines[0] == "config,scenario,verdict,out_dir,error"
        assert len(lines) == 3
        assert "PASS" in lines[1]
        assert "ERROR" in lines[2]

    def test_workers_are_capped_at_the_number_of_configs(self, tmp_path,
                                                         monkeypatch):
        # a stand-in pool that maps in this process: no worker is started
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(scenarios, "ProcessPoolExecutor", SerialPool)
        good = tmp_path / "good.cfg"
        bad = tmp_path / "bad.cfg"
        good.write_text(GOOD_BATCH)
        bad.write_text(BAD_BATCH)
        rows = run_batch([good, bad], tmp_path / "two", workers=64)
        assert pools == [2]
        assert [r["verdict"] for r in rows] == ["PASS", "ERROR"]
        rows = run_batch([good], tmp_path / "one", workers=64)
        assert pools == [2]                  # one config runs in-process
        assert rows[0]["verdict"] == "PASS"

    def test_configs_sharing_a_stem_are_refused_before_any_run(self,
                                                                tmp_path):
        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            paths.append(tmp_path / sub / "x.cfg")
            paths[-1].write_text(GOOD_BATCH)
        out_root = tmp_path / "batch"
        with pytest.raises(ValueError, match="same file name") as err:
            run_batch(paths, out_root, workers=1)
        assert all(str(p) in str(err.value) for p in paths)
        assert not out_root.exists()

    def test_summary_cells_round_trip_through_csv_reader(self, tmp_path):
        path = tmp_path / 'a,"q".cfg'
        path.write_text(GOOD_BATCH)
        out_root = tmp_path / "batch"
        rows = run_batch([path], out_root, workers=1)
        assert rows[0]["verdict"] == "PASS"
        with open(out_root / "batch_summary.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["config", "scenario", "verdict", "out_dir",
                            "error"]
        assert table[1] == [str(path), "layer_decay", "PASS",
                            str(out_root / 'a,"q"'), ""]
