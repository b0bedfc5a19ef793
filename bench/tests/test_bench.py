"""The benchmark's own checks: metric names, a reduced pass of every
workload, and span accounting.

    python3 -m pytest bench/tests -q
"""

import json
import math
from dataclasses import replace
from time import perf_counter

import pytest

import outflow1d.scenarios
import outflow1d.solver
import run
import spans
import workloads

ROOT = run.ROOT

# Small versions of each workload: same code paths, seconds instead of
# minutes.  Each still gives a PASS verdict.
REDUCED = {
    "composite_verdict": dict(overrides=(("n_cells", 200), ("t_final", 40.0))),
    "layer_verdict": dict(overrides=(("n_cells", 100), ("t_final", 20.0))),
    "degenerate_layer": dict(overrides=(("delta", 0.2),)),
    "rhs_scaling": dict(sizes=(64, 256), node_steps=8192),
}


def reduced_context(name, tmp_path, seed=3):
    wl = replace(workloads.WORKLOADS[name], **REDUCED[name])
    ctx = workloads.prepare(wl, ROOT, seed)
    ctx.out_dir = tmp_path
    return ctx


def test_metric_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in doc[key]}
        assert listed == table


def test_every_workload_has_a_reduced_variant():
    assert set(REDUCED) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reduced_traced_pass(name, tmp_path):
    ctx = reduced_context(name, tmp_path)
    metrics, attempted, failed, _ = run.traced_run(workloads, ctx, 1e-3)
    assert (attempted, failed) == (2, 0)
    assert set(metrics) == set(run.PER_LAYER)
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["failed_fraction"] == 0.0
    if name == "degenerate_layer":
        assert metrics["solver.spatial_rhs.calls"] == 0
        assert 0.0 < metrics["layer.orbit_useful_ratio"] < 1.0
    else:
        assert metrics["solver.spatial_rhs.calls"] > 0
        assert metrics["node_steps_per_s"] > 0
    assert (tmp_path / "spans.csv").is_file()


def test_reduced_plain_pass(tmp_path):
    ctx = reduced_context("rhs_scaling", tmp_path)
    metrics, attempted, failed, _ = run.plain_run(workloads, ctx, 1e-3)
    assert (attempted, failed) == (1, 0)
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in metrics.values())


def test_checks_catch_a_bad_state(tmp_path):
    ctx = reduced_context("rhs_scaling", tmp_path)
    state = ctx.sweep[0][1].state0.copy()
    state.theta[5] = -1.0
    state.E[7] = math.nan
    problems = workloads.check_states([(64, state)])
    assert problems == ["n64: non-finite E", "n64: non-positive theta"]


def test_self_times_add_up_to_traced_wall(tmp_path):
    ctx = reduced_context("layer_verdict", tmp_path)
    original = outflow1d.solver.run
    tracer = spans.Tracer()
    t0 = perf_counter()
    with spans.instrument(tracer):
        assert outflow1d.scenarios.run is not original
        workloads.iterate(ctx, tracer)
    wall = perf_counter() - t0
    assert outflow1d.scenarios.run is original
    assert outflow1d.solver.run is original

    summary = spans.summarize(tracer.spans)
    self_total = sum(a["self_s"] for a in summary["by_name"].values())
    metrics = run.per_layer_metrics(tracer, 1, wall, None)
    assert metrics["unattributed_s"] >= 0.0
    assert self_total == pytest.approx(wall - metrics["unattributed_s"],
                                       rel=1e-9, abs=1e-9)
    # the march is nested as scenario -> run -> step -> spatial_rhs
    names = summary["by_name"]
    assert names["scenarios.run_scenario"]["calls"] == 1
    assert names["solver.run"]["calls"] == 2
    assert names["solver.step"]["self_s"] < names["solver.step"]["s"]
