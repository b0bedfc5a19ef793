"""Flat key=value configs, the command-line front end and the package's
public names."""

import importlib
import math
import pkgutil
from dataclasses import replace

import pytest

import outflow1d
from outflow1d.cli import main
from outflow1d.config import (ConfigError, ScenarioConfig, echo_config,
                              load_config, parse_config_text)

MINIMAL = "scenario = layer_stability\n"


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
        assert cfg.scenario == "layer_stability"
        assert cfg.gamma == pytest.approx(5.0 / 3.0)
        assert cfg.n_cells == 2000 and cfg.eps is None and cfg.seed is None

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text(
            "# experiment\n\nscenario = layer_stability  # trailing\n"
            "delta = 0.1\n")
        assert cfg.delta == 0.1

    def test_auto_and_none_sentinels(self):
        cfg = parse_config_text(MINIMAL + "eps = auto\nlength = auto\n"
                                "seed = none\n")
        assert cfg.eps is None and cfg.length is None and cfg.seed is None

    def test_typed_fields(self):
        cfg = parse_config_text(MINIMAL + "n_cells = 400\nseed = 7\n"
                                "eps = 0.01\ntargets = u,em\n")
        assert cfg.n_cells == 400 and isinstance(cfg.n_cells, int)
        assert cfg.seed == 7
        assert cfg.eps == 0.01
        assert cfg.target_list() == ("u", "em")

    def test_target_list_strips_whitespace(self):
        cfg = parse_config_text(MINIMAL + "targets = u , theta ,em\n")
        assert cfg.target_list() == ("u", "theta", "em")

    def test_scenario_defaults_for_decay_study(self):
        cfg = parse_config_text("scenario = burgers_decay\n")
        assert cfg.alpha == pytest.approx(math.e)
        over = parse_config_text("scenario = burgers_decay\nalpha = 0.3\n")
        assert over.alpha == 0.3

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
        ("scenario = layer_stability\neps = soft\n",
         "eps must be a number or auto"),
        ("scenario = layer_stability\nfar_field = sponge\n", "unknown key"),
        ("scenario = layer_stability\nsource_treatment = exact\n",
         "unknown key"),
    ])
    def test_parse_errors_carry_context(self, text, needle):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        assert any(needle in e for e in exc.value.errors)

    def test_line_numbers_in_messages(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("scenario = layer_stability\n\nbad line\n")
        assert any(e.startswith("line 3:") for e in exc.value.errors)

    def test_all_problems_reported_at_once(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("scenario = layer_stability\nwho = 1\n"
                              "what = 2\nn_cells = x\n")
        assert len(exc.value.errors) == 3


class TestValidation:
    @pytest.mark.parametrize("line,needle", [
        ("u_plus = 0.3", "u_plus must be negative"),
        ("gamma = 1.0", "gamma must exceed 1"),
        ("cfl_factor = 1.5", "cfl_factor"),
        ("targets = u,swirl", "targets"),
        ("layer_branch = sideways", "layer_branch"),
        ("shape = square", "shape"),
        ("n_cells = 8", "n_cells"),
        ("q = 0.5", "q must be at least 1"),
    ])
    def test_single_violations(self, line, needle):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(MINIMAL + line + "\n")
        assert any(needle in e for e in exc.value.errors)

    def test_violations_accumulate(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(MINIMAL + "u_plus = 0.3\ngamma = 0.9\n"
                              "width = -1\n")
        assert len(exc.value.errors) == 3

    def test_theta_star_scoped_to_superposition(self):
        # harmless for a pure-layer run, rejected for the composite
        parse_config_text(MINIMAL + "theta_star = 2.0\n")
        with pytest.raises(ConfigError):
            parse_config_text("scenario = superposition_stability\n"
                              "theta_star = 2.0\n")

    def test_fully_coupled_cases_rejected_for_reduced_check(self):
        parse_config_text(MINIMAL + "case = 1\n")   # unused -> fine
        with pytest.raises(ConfigError) as exc:
            parse_config_text("scenario = reduced_model_check\ncase = 1\n")
        assert any("cases 1 and 2" in e for e in exc.value.errors)


class TestEcho:
    def test_round_trip_identity(self):
        cfg = parse_config_text(MINIMAL + "delta = 0.07\nseed = 3\n"
                                "eps = auto\n")
        echoed = echo_config(cfg)
        again = parse_config_text(echoed)
        assert again == cfg
        assert echo_config(again) == echoed

    def test_round_trip_preserves_awkward_floats(self):
        cfg = replace(parse_config_text(MINIMAL), alpha=math.e,
                      delta=0.1 + 2e-16, eps=1.2345678901234567e-3)
        assert parse_config_text(echo_config(cfg)) == cfg

    def test_echo_spells_out_sentinels(self):
        echoed = echo_config(parse_config_text(MINIMAL))
        assert "eps = auto" in echoed
        assert "seed = none" in echoed

    def test_example_configs_round_trip(self):
        from pathlib import Path
        cfg_dir = Path(__file__).resolve().parents[1] / "configs"
        paths = sorted(cfg_dir.glob("*.cfg"))
        assert len(paths) == 6
        for path in paths:
            cfg = load_config(path)
            assert parse_config_text(echo_config(cfg)) == cfg


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
        assert "delta = 0.1" in out and "scenario = layer_stability" in out

    def test_check_invalid_config(self, write_cfg, capsys):
        path = write_cfg(MINIMAL + "u_plus = 0.3\n")
        assert main(["check", "--config", path]) == 2
        assert "u_plus" in capsys.readouterr().err

    def test_check_missing_file(self, capsys):
        assert main(["check", "--config", "/nonexistent/x.cfg"]) == 2

    def test_reduce_table_and_detail(self, capsys):
        assert main(["reduce"]) == 0
        table = capsys.readouterr().out
        assert "system" in table and "fully coupled" in table
        assert main(["reduce", "--case", "5"]) == 0
        detail = capsys.readouterr().out
        assert "system 3" in detail and "E b = 0" in detail

    def test_reduce_bad_case(self, capsys):
        assert main(["reduce", "--case", "12"]) == 2

    def test_profile_writes_layer_csv(self, write_cfg, tmp_path, capsys):
        path = write_cfg("scenario = layer_decay\nu_plus = -2.0\n"
                         "delta = 0.1\n")
        out = tmp_path / "prof"
        assert main(["profile", "--config", path, "--out", str(out)]) == 0
        header = (out / "layer_profile.csv").read_text().splitlines()[0]
        assert header == "x,u_tilde,theta_tilde,rho_tilde"

    def test_run_reduced_check_passes(self, write_cfg, tmp_path, capsys):
        path = write_cfg("scenario = reduced_model_check\ncase = 5\n"
                         "eps = 0.01\nn_cells = 64\nlength = 40\n")
        out = tmp_path / "red"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        assert "PASS" in capsys.readouterr().out
        assert (out / "verdict.txt").exists()
        assert (out / "config.echo").exists()
        assert (out / "case_table.txt").exists()

    def test_run_failing_fit_returns_one(self, write_cfg, tmp_path, capsys):
        # the untuned smoothing never reaches the asymptotic decay window
        path = write_cfg("scenario = burgers_decay\nalpha = 0.1\n")
        out = tmp_path / "burg"
        assert main(["run", "--config", path, "--out", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert (out / "verdict.txt").read_text().startswith(
            "scenario = burgers_decay")

    def test_run_invalid_config_returns_two(self, write_cfg, capsys):
        path = write_cfg(MINIMAL + "gamma = 0.5\n")
        assert main(["run", "--config", path]) == 2

    def test_batch_mixed_verdicts(self, write_cfg, tmp_path, capsys):
        good = write_cfg("scenario = reduced_model_check\ncase = 5\n"
                         "eps = 0.01\nn_cells = 64\nlength = 40\n",
                         "good.cfg")
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
