"""Tests for scenario preparation, the solver-scenario driver, and batches.

The driver tests use deliberately coarse grids and short horizons so the
whole module stays fast; the physics-quality runs live in the acceptance
suite.
"""

import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from outflow1d import scenarios
from outflow1d.config import ScenarioConfig, parse_config_text
from outflow1d.diagnostics import DIAG_COLUMNS, Perturbation
from outflow1d.gas import GasParams, dielectric_bound, sound_speed
from outflow1d.rarefaction import r3_connect
from outflow1d.scenarios import (PreparedRun, ScenarioError,
                                 _check_compatibility, prepare_scenario,
                                 run_batch, run_scenario)
from outflow1d.solver import FieldState, default_domain_length, run


def layer_cfg(**over) -> ScenarioConfig:
    """Coarse supersonic layer-stability configuration."""
    base = dict(scenario="layer_stability", u_plus=-2.0, delta=0.1,
                amplitude=1e-2, center=5.0, width=2.0, seed=7,
                n_cells=120, length=40.0, t_final=20.0)
    base.update(over)
    return ScenarioConfig(**base)


def rarefaction_cfg(**over) -> ScenarioConfig:
    base = dict(scenario="rarefaction_stability", theta_minus=0.9,
                amplitude=1e-2, seed=7, n_cells=64, length=60.0,
                t_final=10.0)
    base.update(over)
    return ScenarioConfig(**base)


def superposition_cfg(**over) -> ScenarioConfig:
    base = dict(scenario="superposition_stability", theta_star=0.94,
                delta=0.05, amplitude=1e-2, seed=11, n_cells=64,
                length=60.0, t_final=10.0)
    base.update(over)
    return ScenarioConfig(**base)


class TestPrepareLayer:
    def test_returns_prepared_run_with_meta(self):
        prep = prepare_scenario(layer_cfg())
        assert isinstance(prep, PreparedRun)
        assert prep.meta["regime"] == "supersonic-negative"
        assert prep.meta["layer"].exists
        assert prep.meta["layer"].delta == pytest.approx(0.1, rel=1e-12)

    def test_auto_eps_is_fraction_of_dielectric_bound(self):
        prep = prepare_scenario(layer_cfg())
        params0 = GasParams(1.0, 5.0 / 3.0, 1.0, 1.0, eps=1.0)
        bound = dielectric_bound(params0, prep.end)
        assert not bound.unbounded
        assert prep.params.eps == pytest.approx(0.5 * bound.c_bar, rel=1e-15)

    def test_eps_fraction_scales_linearly(self):
        eps_half = prepare_scenario(layer_cfg(eps_fraction=0.5)).params.eps
        eps_quarter = prepare_scenario(layer_cfg(eps_fraction=0.25)).params.eps
        assert eps_quarter == pytest.approx(0.5 * eps_half, rel=1e-15)

    def test_explicit_eps_wins_over_fraction(self):
        prep = prepare_scenario(layer_cfg(eps=0.002, eps_fraction=0.25))
        assert prep.params.eps == 0.002

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

    def test_record_dt_defaults_to_fiftieth_of_horizon(self):
        assert prepare_scenario(layer_cfg()).record_dt == pytest.approx(0.4)
        assert prepare_scenario(layer_cfg(record_dt=0.25)).record_dt == 0.25

    def test_initial_data_is_boundary_compatible(self):
        prep = prepare_scenario(layer_cfg())
        assert prep.state0.u[0] == prep.end.u_minus
        assert prep.state0.theta[0] == prep.end.theta_minus
        assert prep.state0.b[0] == prep.params.sqrt_eps * prep.state0.E[0]

    def test_fluid_bump_rides_on_the_background(self):
        cfg = layer_cfg(targets="u", seed=None)
        prep = prepare_scenario(cfg)
        bg_rho, bg_u, bg_theta = prep.background.eval(prep.grid.x, 0.0)
        prof = Perturbation(cfg.amplitude, cfg.center, cfg.width,
                            cfg.shape).profile(prep.grid.x)
        assert np.array_equal(prep.state0.u[1:], (bg_u + prof)[1:])
        assert np.array_equal(prep.state0.rho, bg_rho)
        assert np.array_equal(prep.state0.theta[1:], bg_theta[1:])
        assert abs(prep.state0.theta[0] - bg_theta[0]) < 1e-12
        assert not prep.state0.E.any()
        assert not prep.state0.b.any()

    def test_field_bump_is_an_equal_speed_pair(self):
        cfg = layer_cfg(targets="em", seed=None, center=10.0, width=4.0)
        prep = prepare_scenario(cfg)
        prof = Perturbation(cfg.amplitude, cfg.center, cfg.width,
                            cfg.shape).profile(prep.grid.x)
        assert np.array_equal(prep.state0.E, prof / prep.params.sqrt_eps)
        assert np.array_equal(prep.state0.b, prof)
        # the pair cancels on the incoming characteristic
        incoming = prep.params.sqrt_eps * prep.state0.E - prep.state0.b
        assert np.max(np.abs(incoming)) < 1e-15

    def test_unseeded_perturbation_is_nominal(self):
        info = prepare_scenario(layer_cfg(seed=None)).meta["perturbation"]
        assert info["center"] == 5.0
        assert all(s == 1.0 for s in info["signs"].values())
        assert set(info["signs"]) == {"u", "theta", "em"}

    def test_seeded_perturbation_reproduces_bitwise(self):
        a = prepare_scenario(layer_cfg(seed=11))
        b = prepare_scenario(layer_cfg(seed=11))
        for name in ("rho", "u", "theta", "E", "b"):
            assert np.array_equal(getattr(a.state0, name),
                                  getattr(b.state0, name))
        assert a.meta["perturbation"] == b.meta["perturbation"]

    def test_seed_jitters_center_within_quarter_width(self):
        centers = set()
        for seed in (1, 2, 3):
            info = prepare_scenario(layer_cfg(seed=seed)).meta["perturbation"]
            assert abs(info["center"] - 5.0) <= 0.5  # width / 4
            assert set(info["signs"].values()) <= {-1.0, 1.0}
            centers.add(info["center"])
        assert len(centers) == 3


class TestPrepareFanScenarios:
    def test_rarefaction_left_state_and_wave(self):
        cfg = rarefaction_cfg()
        prep = prepare_scenario(cfg)
        params0 = GasParams(1.0, 5.0 / 3.0, 1.0, 1.0, eps=1.0)
        left = r3_connect(params0, (1.0, -0.15, 1.0), 0.9)
        assert prep.end.theta_minus == pytest.approx(left[2], rel=1e-15)
        assert prep.end.u_minus == pytest.approx(left[1], rel=1e-14)
        w_minus = left[1] + float(sound_speed(params0, left[2]))
        assert prep.meta["wave"].w_minus == pytest.approx(w_minus, rel=1e-14)
        assert prep.state0.b[0] == prep.params.sqrt_eps * prep.state0.E[0]

    def test_rarefaction_rejects_fan_leaving_the_boundary(self):
        with pytest.raises(ScenarioError, match="fan edge speed is negative"):
            prepare_scenario(rarefaction_cfg(theta_minus=0.5))

    def test_superposition_intermediate_state(self):
        prep = prepare_scenario(superposition_cfg())
        star = prep.meta["star"]
        assert star[0] == pytest.approx(0.9113638131942698, rel=1e-12)
        assert star[1] == pytest.approx(-0.2679866751036993, rel=1e-12)
        assert star[2] == 0.94
        assert prep.meta["layer"].exists
        assert prep.meta["layer_strength"] == pytest.approx(0.05, rel=1e-12)
        expected_fan = abs(-0.15 - star[1]) + abs(1.0 - star[2])
        assert prep.meta["fan_strength"] == pytest.approx(expected_fan)

    def test_superposition_rejects_too_cold_intermediate(self):
        with pytest.raises(ScenarioError, match="fan edge speed"):
            prepare_scenario(superposition_cfg(theta_star=0.5))

    def test_non_solver_scenarios_cannot_be_prepared(self):
        for name in ("burgers_decay", "layer_decay", "reduced_model_check"):
            with pytest.raises(ScenarioError, match="not solver-backed"):
                prepare_scenario(ScenarioConfig(scenario=name))

    def test_incompatible_data_is_refused(self):
        prep = prepare_scenario(layer_cfg())
        bad = FieldState(prep.state0.rho.copy(), prep.state0.u.copy(),
                         prep.state0.theta.copy(), prep.state0.E.copy(),
                         prep.state0.b.copy())
        bad.u[0] += 1e-3
        with pytest.raises(ScenarioError, match="incompatible initial data"):
            _check_compatibility(prep.params, prep.end, bad)


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

    def test_difference_series_starts_at_injected_size(self, layer_run):
        cfg, _, summary = layer_run
        assert 0.8 * cfg.amplitude <= summary["rel_fluid_initial"] \
            <= 1.000001 * cfg.amplitude
        assert summary["rel_field_initial"] > cfg.amplitude  # amplified 1/sqrt(eps)
        assert summary["rel_fluid_final"] < 0.05 * summary["rel_fluid_initial"]
        assert summary["rel_field_final"] < 1e-8

    def test_audits_stay_clean(self, layer_run):
        _, _, summary = layer_run
        assert summary["mass_residual_max"] < 1e-8
        assert 0.0 < summary["cfl_margin_max"] <= 1.0 + 1e-9
        assert summary["warnings"] == []
        assert summary["steps"] > 100

    def test_artifact_tree(self, layer_run):
        _, out, _ = layer_run
        for name in ("config.echo", "diagnostics.csv", "snapshot_initial.csv",
                     "snapshot_final.csv", "verdict.txt"):
            assert (out / name).is_file(), name
        plots = out / "plots"
        for name in ("sup_fluid", "sup_field", "rel_fluid", "rel_field",
                     "energy", "profile_u_final"):
            assert (plots / f"{name}.dat").is_file(), name
        manifest = (plots / "MANIFEST.txt").read_text()
        assert manifest.count(".dat:") == 6

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
        _, out, summary = layer_run
        trace = np.loadtxt(out / "plots" / "rel_fluid.dat")
        assert trace.shape == (51, 2)
        assert trace[0, 0] == 0.0
        assert trace[0, 1] == pytest.approx(summary["rel_fluid_initial"],
                                            rel=1e-15)
        assert trace[-1, 1] == pytest.approx(summary["rel_fluid_final"],
                                             rel=1e-15)
        assert np.all(np.diff(trace[:, 0]) > 0)

    def test_verdict_file_names_the_deciding_numbers(self, layer_run):
        _, out, _ = layer_run
        text = (out / "verdict.txt").read_text()
        assert text.startswith("scenario = layer_stability\n")
        assert "verdict = PASS" in text
        assert "fit_rel_fluid.verdict = PASS" in text
        assert "mass_residual_max" in text

    def test_zero_amplitude_passes_trivially(self, tmp_path):
        cfg = layer_cfg(amplitude=0.0, n_cells=64, t_final=5.0, seed=None)
        summary = run_scenario(cfg, tmp_path / "quiet")
        assert summary["verdict"] == "PASS"
        assert "zero amplitude" in summary["fit_rel_fluid"]["note"]
        # only boundary pinning separates the data from the background
        assert summary["rel_fluid_initial"] < 1e-14
        assert summary["rel_field_initial"] == 0.0

    def test_unknown_scenario_is_refused(self, tmp_path):
        cfg = ScenarioConfig(scenario="nonsense")
        with pytest.raises(ScenarioError, match="unknown scenario"):
            run_scenario(cfg, tmp_path)


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

        rel_fluid = np.loadtxt(tmp_path / "plots" / "rel_fluid.dat")
        rel_field = np.loadtxt(tmp_path / "plots" / "rel_field.dat")
        times = rel_fluid[1:, 0]
        preps = [prepare_scenario(cfg),
                 prepare_scenario(replace(cfg, amplitude=0.0))]
        runs = [run(p.params, p.end, p.grid, p.state0, cfg.t_final,
                    p.solver_config, snapshot_times=times) for p in preps]
        expected = [self.sup_diffs(preps[0].state0, preps[1].state0)]
        expected += [self.sup_diffs(sa, sb) for (_, sa), (_, sb)
                     in zip(runs[0].snapshots, runs[1].snapshots)]
        assert len(expected) == len(rel_fluid) == 51
        assert rel_fluid[:, 1].tolist() == [f for f, _ in expected]
        assert rel_field[:, 1].tolist() == [g for _, g in expected]


GOOD_BATCH = """\
scenario = reduced_model_check
case = 5
branch = decay
eps = 0.01
n_cells = 64
length = 40
"""

BAD_BATCH = """\
scenario = rarefaction_stability
theta_minus = 0.5
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
        assert rows[0]["scenario"] == "reduced_model_check"
        assert rows[0]["verdict"] == "PASS"
        assert rows[0]["error"] == ""
        assert (out_root / "good" / "verdict.txt").is_file()

        assert rows[1]["scenario"] == "rarefaction_stability"
        assert rows[1]["verdict"] == "ERROR"
        assert rows[1]["error"].startswith("ScenarioError")

        lines = (out_root / "batch_summary.csv").read_text().splitlines()
        assert lines[0] == "config,scenario,verdict,out_dir,error"
        assert len(lines) == 3
        assert "PASS" in lines[1]
        assert "ERROR" in lines[2]
