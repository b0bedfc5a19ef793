"""Flat key=value configs, the command-line front end and the package's
public names."""

import argparse
import importlib
import math
import pkgutil
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

import outflow1d
from outflow1d.cli import _build_parser, main
from outflow1d import scenarios
from outflow1d.config import (ConfigError, ScenarioConfig, echo_config,
                              load_config, parse_config_text)
from outflow1d.scenarios import run_scenario

MINIMAL = "scenario = superposition_stability\n"
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["outflow1d"] + [
    "outflow1d." + m.name for m in pkgutil.iter_modules(outflow1d.__path__)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


class TestParsing:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.scenario == "superposition_stability"
        assert cfg.gamma == pytest.approx(5.0 / 3.0)
        assert cfg.n_cells == 2000 and cfg.length is None and cfg.seed is None

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text(
            "# experiment\n\nscenario = burgers_decay  # trailing\n"
            "delta = 0.1\n")
        assert cfg.delta == 0.1

    def test_auto_and_none_sentinels(self):
        cfg = parse_config_text(MINIMAL + "length = auto\nseed = none\n")
        assert cfg.length is None and cfg.seed is None

    def test_typed_fields(self):
        cfg = parse_config_text(MINIMAL + "n_cells = 400\nseed = 7\n"
                                "length = 50\nlayer_branch = upper\n")
        assert cfg.n_cells == 400 and isinstance(cfg.n_cells, int)
        assert cfg.seed == 7
        assert cfg.length == 50.0 and isinstance(cfg.length, float)
        assert cfg.layer_branch == "upper"

    def test_scenario_defaults_for_decay_study(self):
        # one default per key: a parsed config and one built in code agree,
        # and the decay study's steep fan is its config file's own alpha
        cfg = parse_config_text("scenario = burgers_decay\n")
        assert cfg == ScenarioConfig(scenario="burgers_decay")
        over = parse_config_text("scenario = burgers_decay\nalpha = 0.3\n")
        assert over == ScenarioConfig(scenario="burgers_decay", alpha=0.3)
        assert load_config(ROOT / "configs" / "burgers_decay.cfg").alpha \
            == math.e

    # each text fails to parse, and parsing stops before validation, so the
    # retired scenario name layer_stability in it goes unreported
    @pytest.mark.parametrize("text,needle", [
        ("scenario = layer_stability\njust words\n", "expected key = value"),
        ("scenario = layer_stability\ncolour = red\n", "unknown key"),
        ("scenario = layer_stability\ndelta = 0.1\ndelta = 0.2\n",
         "duplicate key"),
        ("delta = 0.1\n", "missing required key 'scenario'"),
        ("scenario = layer_stability\nn_cells = many\n",
         "n_cells must be an integer"),
        ("scenario = layer_stability\nseed = maybe\n",
         "seed must be an integer or none"),
        ("scenario = layer_stability\nlength = soft\n",
         "line 2: length must be a number or auto"),
        ("scenario = layer_stability\nfar_field = sponge\n", "unknown key"),
        ("scenario = layer_stability\nsource_treatment = exact\n",
         "unknown key"),
        # retired knobs that took one value everywhere: eps is eps_fraction
        # times c_bar, the fan's star temperature is theta_star, and the
        # bump and burgers_decay's fan are fixed, so an old config.echo
        # naming any of them no longer parses
        *((f"scenario = layer_stability\n{key} = {value}\n",
           f"line 2: unknown key {key!r}") for key, value in (
            ("eps", "0.01"), ("q", "1.0"), ("shape", "cosine"),
            ("cfl_factor", "0.9"), ("dt_max", "0.5"), ("record_dt", "auto"),
            ("theta_minus", "0.9"), ("center", "5.0"), ("width", "2.0"),
            ("targets", "u,theta,em"), ("w_minus", "0.5"),
            ("fan_delta", "3.0"))),
        ("scenario = layer_stability\nt_final = inf\n",
         "line 2: t_final must be a finite number"),
        ("scenario = layer_stability\nlength = nan\n",
         "line 2: length must be a finite number"),
        ("scenario = layer_stability\nmu = nan\n",
         "line 2: mu must be a finite number"),
        ("scenario = layer_stability\ndelta = -inf\n",
         "line 2: delta must be a finite number"),
    ])
    def test_parse_errors_carry_context(self, text, needle):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        assert any(needle in e for e in exc.value.errors)
        assert not any(e.startswith("scenario must be one of")
                       for e in exc.value.errors)

    def test_line_numbers_in_messages(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(MINIMAL + "\nbad line\n")
        assert any(e.startswith("line 3:") for e in exc.value.errors)

    def test_all_problems_reported_at_once(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(MINIMAL + "who = 1\nwhat = 2\nn_cells = x\n")
        assert len(exc.value.errors) == 3


class TestValidation:
    @pytest.mark.parametrize("line,needle", [
        ("u_plus = 0.3", "u_plus must be negative"),
        ("gamma = 1.0", "gamma must exceed 1"),
        ("layer_branch = sideways", "layer_branch"),
        ("n_cells = 8", "n_cells"),
        ("seed = -1", "seed must be nonnegative"),
    ])
    def test_single_violations(self, line, needle):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(MINIMAL + line + "\n")
        assert any(needle in e for e in exc.value.errors)

    def test_non_finite_floats_are_listed(self):
        # a config built in code never meets the parser's finiteness check
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig(scenario="burgers_decay", t_final=math.inf,
                           length=math.nan, amplitude=-math.inf)
        for key in ("t_final", "length", "amplitude"):
            assert f"{key} must be a finite number" in exc.value.errors
        ScenarioConfig(scenario="burgers_decay", t_final=1.0, length=None,
                       amplitude=0.0)

    def test_a_config_built_in_code_is_checked(self):
        # the checks of the parser, all at once, with no file in sight
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig(scenario="superposition_stability",
                           theta_star=1.2, delta=-0.05, amplitude=-0.01)
        assert exc.value.errors == ["delta must be nonnegative",
                                    "theta_star must lie in (0, theta_plus]",
                                    "amplitude must be nonnegative"]

    def test_a_replaced_field_is_checked_again(self):
        cfg = ScenarioConfig(scenario="superposition_stability")
        with pytest.raises(ConfigError) as exc:
            replace(cfg, n_cells=8)
        assert exc.value.errors == ["n_cells must be at least 16"]

    def test_violations_accumulate(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(MINIMAL + "u_plus = 0.3\ngamma = 0.9\n"
                              "alpha = -1\n")
        assert len(exc.value.errors) == 3

    def test_zero_strength_layer_scoped_to_layer_decay(self):
        # a zero-strength layer has no tail for layer_decay to measure; the
        # solver scenario builds no layer at delta = 0
        for scenario in ("superposition_stability", "burgers_decay"):
            ScenarioConfig(scenario=scenario, delta=0.0)
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig(scenario="layer_decay", delta=0.0)
        assert exc.value.errors == [
            "delta must be positive for layer_decay: a zero-strength layer "
            "has no tail to measure"]

    def test_theta_star_scoped_to_superposition(self):
        # ignored by the decay checks; the solver scenario takes theta_star
        # up to theta_plus, where it builds no fan
        for scenario in ("layer_decay", "burgers_decay"):
            parse_config_text(f"scenario = {scenario}\ntheta_star = 2.0\n")
        parse_config_text(MINIMAL + "theta_star = 1.0\n")
        for value in ("1.0000001", "2.0", "0", "-0.5"):
            with pytest.raises(ConfigError) as exc:
                parse_config_text(MINIMAL + f"theta_star = {value}\n")
            assert exc.value.errors == [
                "theta_star must lie in (0, theta_plus]"]

    def test_fully_coupled_cases_rejected_for_reduced_check(self):
        # the reduced-model scenario and its keys are gone: README's
        # "Aligned-field special cases" states each case's closed form
        with pytest.raises(ConfigError) as exc:
            parse_config_text("scenario = reduced_model_check\n")
        assert any("scenario must be one of" in e for e in exc.value.errors)
        for key in ("case = 1", "branch = decay", "n_relax = 5.0"):
            with pytest.raises(ConfigError) as exc:
                parse_config_text(MINIMAL + key + "\n")
            assert any("unknown key" in e for e in exc.value.errors)


class TestEcho:
    def test_round_trip_identity(self):
        cfg = parse_config_text(MINIMAL + "delta = 0.07\nseed = 3\n"
                                "length = auto\n")
        echoed = echo_config(cfg)
        again = parse_config_text(echoed)
        assert again == cfg
        assert echo_config(again) == echoed

    def test_round_trip_preserves_awkward_floats(self):
        cfg = replace(parse_config_text(MINIMAL), alpha=math.e,
                      delta=0.1 + 2e-16, length=1.2345678901234567e-3)
        assert parse_config_text(echo_config(cfg)) == cfg

    def test_echo_spells_out_sentinels(self):
        echoed = echo_config(parse_config_text(MINIMAL))
        assert "length = auto" in echoed
        assert "seed = none" in echoed

    def test_example_configs_round_trip(self):
        # every shipped config loads; bench/degenerate_layer.cfg keeps the
        # default theta_star above its theta_plus = 0.6, which only the
        # solver scenario refuses
        paths = sorted((ROOT / "configs").glob("*.cfg"))
        assert len(paths) == 5
        for path in paths + [ROOT / "bench" / "degenerate_layer.cfg"]:
            cfg = load_config(path)
            assert parse_config_text(echo_config(cfg)) == cfg


def test_readme_key_knobs_name_every_config_key():
    # README's "Key knobs" paragraph names every config key but scenario,
    # each once: a knob added or retired without it fails here
    text = (ROOT / "README.md").read_text()
    start = text.index("Key knobs:")
    paragraph = text[start:text.index("\n\n", start)]
    named = re.findall(r"`([A-Za-z_]\w*)`", paragraph)
    assert sorted(named) == sorted(
        f.name for f in fields(ScenarioConfig) if f.name != "scenario")


def test_readme_command_block_names_every_subcommand():
    # the `outflow1d ...` lines of README's "Command line" block name each
    # subcommand of the parser once: one added or removed without it fails
    text = (ROOT / "README.md").read_text()
    start = text.index("```sh", text.index("## Command line"))
    block = text[start:text.index("```", start + 3)]
    named = [line.split()[1] for line in block.splitlines()
             if line.startswith("outflow1d ")]
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(named) == sorted(sub.choices)


@pytest.fixture
def write_cfg(tmp_path):
    def _write(text, name="case.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return _write


class TestCli:
    def test_check_valid_config(self, write_cfg, capsys):
        path = write_cfg(MINIMAL + "delta = 0.1\n")
        assert main(["check", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "delta = 0.1" in out
        assert "scenario = superposition_stability" in out

    def test_check_invalid_config(self, write_cfg, capsys):
        path = write_cfg(MINIMAL + "u_plus = 0.3\n")
        assert main(["check", "--config", path]) == 2
        assert "u_plus" in capsys.readouterr().err

    def test_check_missing_file(self, capsys):
        # every command that loads a config reports an unreadable one alike
        for command in ("check", "profile", "run"):
            assert main([command, "--config", "/nonexistent/x.cfg"]) == 2
            assert capsys.readouterr().err.startswith("cannot read config: ")

    def test_profile_writes_layer_csv(self, write_cfg, tmp_path, capsys):
        path = write_cfg("scenario = layer_decay\nu_plus = -2.0\n"
                         "delta = 0.1\n")
        out = tmp_path / "prof"
        assert main(["profile", "--config", path, "--out", str(out)]) == 0
        header = (out / "layer_profile.csv").read_text().splitlines()[0]
        assert header == "x,u_tilde,theta_tilde,rho_tilde"
        assert capsys.readouterr().out == f"wrote analytic profiles to {out}\n"

    def test_profile_writes_the_fan_speed(self, write_cfg, tmp_path, capsys):
        path = write_cfg("scenario = burgers_decay\n")
        out = tmp_path / "prof"
        assert main(["profile", "--config", path, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["speed_profile.csv"]
        lines = (out / "speed_profile.csv").read_text().splitlines()
        assert lines[0] == "x,w,w_x"
        assert float(lines[1].split(",")[1]) == 0.5     # the fan's w_-

    def test_run_failing_fit_returns_one(self, write_cfg, tmp_path, capsys):
        # the untuned smoothing never reaches the asymptotic decay window
        path = write_cfg("scenario = burgers_decay\nalpha = 0.1\n")
        out = tmp_path / "burg"
        assert main(["run", "--config", path, "--out", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert (out / "verdict.txt").read_text().startswith(
            "scenario = burgers_decay")

    def test_profile_refused_build_returns_one(self, write_cfg, tmp_path,
                                               capsys):
        # a fan that reaches theta_plus at t_final = 200 misses the far
        # state at x = 80, and a set length is never grown
        path = write_cfg(MINIMAL + "delta = 0\ntheta_star = 0.9\n"
                         "length = 80\n")
        out = tmp_path / "prof"
        assert main(["profile", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("profile construction failed: ")
        assert "lengthen the domain" in err

    def test_run_at_the_dielectric_bound_warns(self, write_cfg, tmp_path,
                                               capsys):
        path = write_cfg(MINIMAL + "u_plus = -2\ntheta_star = 1\n"
                         "delta = 0.1\nn_cells = 64\nlength = 60\n"
                         "t_final = 5\neps_fraction = 1\n")
        out = tmp_path / "bound"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert re.search(r"^warning: eps = \S+ is not below the dielectric "
                         r"bound ", stdout, re.MULTILINE)
        verdict = (out / "verdict.txt").read_text()
        assert "verdict = PASS\n" in verdict
        assert re.search(r"^warnings = eps = \S+ is not below the "
                         r"dielectric bound ", verdict, re.MULTILINE)

    def test_run_invalid_config_returns_two(self, write_cfg, capsys):
        path = write_cfg(MINIMAL + "gamma = 0.5\n")
        assert main(["run", "--config", path]) == 2

    def test_run_zero_strength_layer_decay_returns_two(self, write_cfg,
                                                        tmp_path, capsys):
        path = write_cfg("scenario = layer_decay\nu_plus = -2.0\n"
                         "delta = 0\n")
        out = tmp_path / "flat"
        assert main(["run", "--config", path, "--out", str(out)]) == 2
        assert "delta must be positive for layer_decay" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_run_negative_seed_override_returns_two(self, write_cfg,
                                                     tmp_path, capsys):
        path = write_cfg(MINIMAL + "n_cells = 16\n")
        out = tmp_path / "neg"
        assert main(["run", "--config", path, "--out", str(out),
                     "--seed", "-1"]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name,has_layer", [
        ("layer_stability", True),
        ("rarefaction_stability", False),
        ("superposition_stability", True),
    ])
    def test_profile_solver_scenarios(self, write_cfg, tmp_path, capsys,
                                      name, has_layer):
        # each shipped solver config, on a coarse grid
        cfg = load_config(ROOT / "configs" / f"{name}.cfg")
        path = write_cfg(echo_config(replace(cfg, n_cells=64)))
        out = tmp_path / "prof"
        assert main(["profile", "--config", path, "--out", str(out)]) == 0
        assert (out / "initial.csv").is_file()
        assert (out / "layer_profile.csv").is_file() == has_layer

    def test_profile_writes_the_objects_a_run_uses(self, write_cfg, tmp_path,
                                                   capsys):
        # initial.csv is the state the run marches from; a pure layer's
        # layer_profile.csv is the far-state layer that layer_decay judges
        path = write_cfg(MINIMAL + "u_plus = -2.0\ntheta_star = 1.0\n"
                         "delta = 0.1\nn_cells = 64\nlength = 60\n"
                         "t_final = 0.5\n")
        prof, run_out, decay_out = (tmp_path / name for name in (
            "prof", "run", "decay"))
        assert main(["profile", "--config", path, "--out", str(prof)]) == 0
        cfg = load_config(path)
        run_scenario(cfg, run_out)
        run_scenario(replace(cfg, scenario="layer_decay"), decay_out)
        assert ((prof / "initial.csv").read_bytes()
                == (run_out / "snapshot_initial.csv").read_bytes())
        assert ((prof / "layer_profile.csv").read_bytes()
                == (decay_out / "layer_profile.csv").read_bytes())

    def test_batch_negative_seed_is_a_config_error(self, write_cfg,
                                                   tmp_path, capsys):
        path = write_cfg(MINIMAL + "n_cells = 16\n")
        out = tmp_path / "batch"
        assert main(["batch", "--config", path, "--out", str(out),
                     "--workers", "1", "--seed", "-1"]) == 1
        row = (out / "batch_summary.csv").read_text().splitlines()[1]
        assert "ERROR" in row and "ConfigError" in row
        assert "seed must be nonnegative" in row
        assert not (out / "case").exists()     # no scenario started

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_batch_refuses_fewer_than_one_worker(self, write_cfg, tmp_path,
                                                 capsys, workers):
        path = write_cfg("scenario = layer_decay\nu_plus = -2.0\n")
        out = tmp_path / "batch"
        assert main(["batch", "--config", path, "--out", str(out),
                     "--workers", workers]) == 2
        assert "workers must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_batch_refuses_configs_sharing_a_file_name(self, tmp_path,
                                                       capsys):
        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            paths.append(str(tmp_path / sub / "x.cfg"))
            with open(paths[-1], "w") as fh:
                fh.write("scenario = layer_decay\nu_plus = -2.0\n")
        out = tmp_path / "batch"
        assert main(["batch", "--config", *paths, "--out", str(out),
                     "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert paths[0] in err and paths[1] in err
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under"])
    def test_run_refuses_an_unusable_out_before_marching(
            self, tmp_path, capsys, monkeypatch, under):
        # an existing file, or a path under one, is no output directory
        def no_march(*args, **kwargs):
            raise AssertionError("the march started")

        monkeypatch.setattr(scenarios, "run", no_march)
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "sub" if under else tmp_path / "taken"
        path = str(ROOT / "configs" / "layer_stability.cfg")
        assert main(["run", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"cannot write to {out}: ")

    def test_profile_refuses_an_unusable_out(self, write_cfg, tmp_path,
                                              capsys):
        (tmp_path / "taken").write_text("")
        path = write_cfg("scenario = layer_decay\nu_plus = -2.0\n")
        out = tmp_path / "taken"
        assert main(["profile", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"cannot write to {out}: ")

    def test_batch_refuses_an_unusable_out(self, write_cfg, tmp_path, capsys,
                                           monkeypatch):
        def no_run(job):
            raise AssertionError("a config ran")

        monkeypatch.setattr(scenarios, "_batch_worker", no_run)
        (tmp_path / "taken").write_text("")
        path = write_cfg("scenario = layer_decay\nu_plus = -2.0\n")
        out = tmp_path / "taken" / "batch"
        assert main(["batch", "--config", path, "--out", str(out),
                     "--workers", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"cannot write to {out}: ")
        assert (tmp_path / "taken").read_text() == ""

    def test_run_with_a_misfit_layer_branch_returns_one(self, write_cfg,
                                                         tmp_path, capsys):
        path = write_cfg("scenario = layer_decay\nu_plus = -0.15\n"
                         "layer_branch = degenerate\n")
        assert main(["run", "--config", path, "--out",
                     str(tmp_path / "run")]) == 1
        assert "subsonic far state has no 'degenerate'" in (
            capsys.readouterr().err)

    def test_batch_mixed_verdicts(self, write_cfg, tmp_path, capsys):
        good = write_cfg("scenario = layer_decay\nu_plus = -2.0\n"
                         "delta = 0.1\n", "good.cfg")
        bad = write_cfg("scenario = burgers_decay\nalpha = 0.1\n", "bad.cfg")
        out = tmp_path / "batch"
        code = main(["batch", "--config", good, bad, "--out", str(out),
                     "--workers", "2"])
        assert code == 1
        lines = (out / "batch_summary.csv").read_text().splitlines()
        assert lines[0].startswith("config,scenario,verdict")
        assert len(lines) == 3
        assert any("PASS" in line for line in lines[1:])
        assert any("FAIL" in line for line in lines[1:])
