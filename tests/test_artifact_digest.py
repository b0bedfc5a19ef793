"""tools/artifact_digest.py: only the wall-clock line escapes the digest,
only fresh artifacts are hashed, and every config is run and profiled."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("artifact_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runtime_is_masked_and_nothing_else(tmp_path):
    digest = load_tool().digest
    texts = {
        "a": "verdict = PASS\nsteps = 10\nruntime_s = 1.25\n",
        "b": "verdict = PASS\nsteps = 10\nruntime_s = 7.5\n",
        "c": "verdict = PASS\nsteps = 11\nruntime_s = 1.25\n",
    }
    sums = {}
    for name, text in texts.items():
        (tmp_path / name).mkdir()
        path = tmp_path / name / "verdict.txt"
        path.write_text(text)
        sums[name] = digest(path)
    assert sums["a"] == sums["b"] != sums["c"]

    other = tmp_path / "a" / "diagnostics.csv"
    other.write_text(texts["a"])
    assert digest(other) != sums["a"]


def test_a_non_empty_out_dir_is_refused(tmp_path, capsys):
    # a stale artifact there would be hashed as if the run had written it
    tool = load_tool()
    runs = []
    tool.run_scenario = lambda cfg, out: runs.append(out)
    (tmp_path / "stale").mkdir()
    (tmp_path / "stale" / "layer_profile.csv").write_text("x\n")
    assert tool.main([str(tmp_path)]) == 2
    assert runs == [] and "usage" in capsys.readouterr().err


def test_every_config_is_run_and_profiled_apart(tmp_path, capsys):
    tool = load_tool()
    runs, profiles = [], []
    tool.run_scenario = lambda cfg, out: runs.append(out)

    def profile(argv):
        profiles.append(argv)
        return 0

    tool.cli_main = profile
    assert tool.main([str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == ""        # nothing was written
    assert len(runs) == len(profiles) == len(tool.CONFIGS)
    for config, run_out, argv in zip(tool.CONFIGS, runs, profiles):
        assert argv[:3] == ["profile", "--config", str(config)]
        assert argv[3] == "--out" and len(argv) == 5
        assert run_out == tmp_path / "out" / config.stem
        assert argv[4] == str(run_out / "profile")
    assert len(set(runs) | {argv[4] for argv in profiles}) == 2 * len(runs)
