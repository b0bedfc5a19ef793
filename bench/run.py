"""Time-to-verdict benchmark for outflow1d.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
One process, one thread (BLAS pinned to 1), closed loop with one client:
the next timed unit starts when the previous one has finished, until S
seconds have passed.  Every unit's output is checked.

--trace 0 prints the end-to-end metrics.  --trace 1 first repeats the plain
loop for S/2 seconds, then runs as many units again with spans around the
public functions of the traced modules, and prints the per-layer metrics.
The last line of standard output is one JSON object; the environment
fingerprint, the per-unit times and (traced) the spans are written under
.bench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from speed import Timed
with Timed() as timed:
    import numpy, scipy, outflow1d
    from outflow1d.config import load_config
    load_config(sys.argv[2])
print(timed.factor, sum(timed.samples))
"""
SIZES = (500, 2000, 8000, 32000)

# name -> (unit, better); BENCHMARK.json lists the same names
END_TO_END = {
    "setup_s": ("s", "lower"),
    "time_to_verdict_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "solver.spatial_rhs.calls": ("count", "lower"),
    "solver.spatial_rhs.s": ("s", "lower"),
    "solver.spatial_rhs.ns_per_node": ("ns/node", "lower"),
    **{f"solver.spatial_rhs.ns_per_node.n{n}": ("ns/node", "lower")
       for n in SIZES},
    "solver.step.s": ("s", "lower"),
    "solver.step.self_s": ("s", "lower"),
    **{f"solver.step.ns_per_node.n{n}": ("ns/node", "lower") for n in SIZES},
    "solver.spatial_rhs.peak_alloc_B_per_node": ("B/node", "lower"),
    "solver.step.peak_alloc_B_per_node": ("B/node", "lower"),
    "solver.run.calls": ("count", "lower"),
    "solver.run.s": ("s", "lower"),
    "solver.run.self_s": ("s", "lower"),
    "solver.steps": ("count", "lower"),
    "solver.cfl_dt.calls": ("count", "lower"),
    "solver.cfl_dt.s": ("s", "lower"),
    "solver.apply_boundary.calls": ("count", "lower"),
    "solver.apply_boundary.s": ("s", "lower"),
    "node_steps_per_s": ("node_steps/s", "higher"),
    "scenarios.prepare_scenario.calls": ("count", "lower"),
    "scenarios.prepare_scenario.s": ("s", "lower"),
    "scenarios.run_scenario.self_s": ("s", "lower"),
    "diagnostics.record_from_state.calls": ("count", "lower"),
    "diagnostics.record_from_state.s": ("s", "lower"),
    "rarefaction.CompositeProfile.eval.calls": ("count", "lower"),
    "rarefaction.CompositeProfile.eval.s": ("s", "lower"),
    "rarefaction.BurgersWave.eval.calls": ("count", "lower"),
    "rarefaction.BurgersWave.eval.s": ("s", "lower"),
    "rarefaction.BurgersWave.eval.ns_per_point": ("ns/point", "lower"),
    "layer.boundary_data_for_strength.s": ("s", "lower"),
    "layer.construct_layer.s": ("s", "lower"),
    "layer.measure_decay.s": ("s", "lower"),
    "layer.find_M0.s": ("s", "lower"),
    "layer.layer_ode_rhs.calls": ("count", "lower"),
    "layer.orbit_useful_ratio": ("fraction", "higher"),
    "solver.write_snapshot_csv.s": ("s", "lower"),
    "diagnostics.write_diag_csv.s": ("s", "lower"),
    "layer.export_csv.s": ("s", "lower"),
    "config.load_config.s": ("s", "lower"),
    "trace_overhead_frac": ("fraction", "lower"),
    "unattributed_s": ("s", "lower"),
    "failed_fraction": ("fraction", "lower"),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_package(root: Path):
    """Import outflow1d from root/src and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import outflow1d
    where = Path(outflow1d.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"outflow1d resolved to {where}, not under {src}")
    return outflow1d


# --------------------------------------------------------------------------
# environment fingerprint
# --------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of root/.git read as files; 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(root: Path) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"][
            "blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
    }


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

def measure_setup(root: Path, config_path: Path) -> list:
    """Seconds, scaled to a quiet machine, of fresh interpreters that
    import numpy, scipy and outflow1d and validate the config; one untimed
    warm-up first.  The child's CPU time comes from its resource usage; the
    child runs the speed probe over its imports after numpy (which the
    probe needs) and reports the scale factor and the kernel time."""
    import speed
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, "-c", SETUP_CODE, str(Path(speed.__file__).parent),
           str(config_path)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = speed.cpu_seconds()
        out = subprocess.run(cmd, env=env, cwd=root, check=True, timeout=120,
                             stdout=subprocess.PIPE, text=True).stdout
        cpu = speed.cpu_seconds() - t0
        factor, kernel_s = map(float, out.split())
        if i:
            times.append((cpu - kernel_s) * factor)
    return times


def run_loop(workloads, ctx, seconds=None, count=None, tracer=None):
    """Closed loop: run units until `seconds` have passed (at least one) or
    `count` units have run.  Returns (outcomes, failed, walls)."""
    outcomes, walls, failed = [], [], 0
    t_end = perf_counter() + (seconds or 0.0)
    while True:
        t0 = perf_counter()
        try:
            oc = workloads.iterate(ctx, tracer)
        except Exception:               # noqa: BLE001 - a unit failed
            traceback.print_exc(file=sys.stderr)
            wall = perf_counter() - t0
            oc = workloads.Outcome(wall, wall, wall, problems=["raised"])
        walls.append(perf_counter() - t0)
        outcomes.append(oc)
        if oc.problems:
            failed += 1
            print(f"check failed: {'; '.join(oc.problems)}", file=sys.stderr)
        done = (len(outcomes) >= count if count is not None
                else perf_counter() >= t_end)
        if done:
            return outcomes, failed, walls


def median_time(outcomes) -> float:
    good = [oc.time_s for oc in outcomes if not oc.problems] or \
        [oc.time_s for oc in outcomes]
    return statistics.median(good)


def node_steps_per_s(outcomes) -> float:
    rates = [oc.node_steps / oc.march_s for oc in outcomes
             if oc.march_s > 0 and not oc.problems]
    return statistics.median(rates) if rates else 0.0


def peak_alloc_per_node(fn, args) -> float:
    """Peak bytes traced by tracemalloc during one call, per grid node."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / args[3].rho.size


def per_layer_metrics(tracer, units: int, traced_wall: float,
                      alloc) -> dict:
    """Per-unit averages of the traced spans, keyed as in PER_LAYER."""
    import spans as spans_mod
    summary = spans_mod.summarize(tracer.spans)
    names = summary["by_name"]

    def get(name, key):
        return names.get(name, {}).get(key, 0) / units

    def ns_per(name, tag=None):
        if tag is None:
            s, work = names.get(name, {}).get("s", 0.0), \
                names.get(name, {}).get("work", 0)
        else:
            s, work = spans_mod.by_tag(tracer.spans, name).get(tag, (0.0, 0))
        return 1e9 * s / work if work else 0.0

    m = {}
    for name in ("solver.spatial_rhs", "solver.run", "solver.cfl_dt",
                 "solver.apply_boundary", "scenarios.prepare_scenario",
                 "diagnostics.record_from_state",
                 "rarefaction.CompositeProfile.eval",
                 "rarefaction.BurgersWave.eval", "layer.layer_ode_rhs"):
        m[f"{name}.calls"] = get(name, "calls")
    for name in ("solver.spatial_rhs", "solver.step", "solver.run",
                 "solver.cfl_dt", "solver.apply_boundary",
                 "scenarios.prepare_scenario",
                 "diagnostics.record_from_state",
                 "rarefaction.CompositeProfile.eval",
                 "rarefaction.BurgersWave.eval",
                 "layer.boundary_data_for_strength", "layer.construct_layer",
                 "layer.measure_decay", "layer.find_M0",
                 "solver.write_snapshot_csv", "diagnostics.write_diag_csv",
                 "layer.export_csv", "config.load_config"):
        m[f"{name}.s"] = get(name, "s")
    for name in ("solver.step", "solver.run", "scenarios.run_scenario"):
        m[f"{name}.self_s"] = get(name, "self_s")
    m["solver.steps"] = get("solver.step", "calls")
    m["solver.spatial_rhs.ns_per_node"] = ns_per("solver.spatial_rhs")
    m["rarefaction.BurgersWave.eval.ns_per_point"] = ns_per(
        "rarefaction.BurgersWave.eval")
    for n in SIZES:
        for name in ("solver.spatial_rhs", "solver.step"):
            m[f"{name}.ns_per_node.n{n}"] = ns_per(name, f"n{n}")
    ode_calls = names.get("layer.layer_ode_rhs", {}).get("calls", 0)
    useful = spans_mod.calls_under(tracer.spans, "layer.layer_ode_rhs",
                                   "layer.construct_layer")
    m["layer.orbit_useful_ratio"] = useful / ode_calls if ode_calls else 0.0
    rhs_b, step_b = alloc if alloc is not None else (0.0, 0.0)
    m["solver.spatial_rhs.peak_alloc_B_per_node"] = rhs_b
    m["solver.step.peak_alloc_B_per_node"] = step_b
    m["unattributed_s"] = (traced_wall - summary["root_s"]) / units
    return m


def plain_run(workloads, ctx, seconds):
    cfg_path = ctx.root / ctx.workload.config
    setup = measure_setup(ctx.root, cfg_path)
    outcomes, failed, _ = run_loop(workloads, ctx, seconds=seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup),
        "time_to_verdict_s": median_time(outcomes),
        "peak_rss_mb": rss_mb,
    }
    detail = {"setup_s": setup, "unit_s": [oc.time_s for oc in outcomes],
              "unit_cpu_s": [oc.cpu_s for oc in outcomes],
              "unit_wall_s": [oc.wall_s for oc in outcomes]}
    return metrics, len(outcomes), failed, detail


def traced_run(workloads, ctx, seconds):
    import spans as spans_mod
    import outflow1d.solver as solver

    plain, failed_plain, _ = run_loop(workloads, ctx, seconds=seconds / 2.0)
    tracer = spans_mod.Tracer()
    with spans_mod.instrument(tracer):
        traced, failed_traced, walls = run_loop(
            workloads, ctx, count=len(plain), tracer=tracer)
    args = workloads.alloc_args(ctx)
    alloc = None if args is None else (
        peak_alloc_per_node(solver.spatial_rhs, args[0]),
        peak_alloc_per_node(solver.step, args[1]))

    units = len(traced)
    metrics = per_layer_metrics(tracer, units, sum(walls), alloc)
    metrics["node_steps_per_s"] = node_steps_per_s(plain)
    metrics["trace_overhead_frac"] = (median_time(traced)
                                      / median_time(plain) - 1.0)
    attempted = len(plain) + units
    failed = failed_plain + failed_traced
    metrics["failed_fraction"] = failed / attempted
    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    spans_mod.write_csv(tracer.spans, ctx.out_dir / "spans.csv")
    detail = {"plain_unit_s": [oc.time_s for oc in plain],
              "plain_unit_cpu_s": [oc.cpu_s for oc in plain],
              "traced_unit_s": [oc.time_s for oc in traced],
              "traced_unit_cpu_s": [oc.cpu_s for oc in traced],
              "traced_unit_wall_s": walls,
              "spans": len(tracer.spans)}
    return metrics, attempted, failed, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import_package(ROOT)
        import workloads
    except ImportError as exc:
        print(f"cannot import outflow1d from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    fp = fingerprint(ROOT)
    print(json.dumps({"fingerprint": fp}))
    if not wl.seeded:
        print(f"note: {wl.name} has no random input; --seed {args.seed} "
              "does not change it")

    ctx = workloads.prepare(wl, ROOT, args.seed)
    runner = traced_run if args.trace else plain_run
    metrics, attempted, failed, detail = runner(workloads, ctx, args.seconds)
    table = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"{name:45s} {value:16.6g} {table[name][0]}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": table[name][0]}
                    for name in table},
    }
    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=wl.name, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, fingerprint=fp,
                  detail=detail)
    out = ctx.out_dir / f"result_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
