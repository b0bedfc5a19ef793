"""Command-line entry point.

    outflow1d check   --config FILE            validate + echo a config
    outflow1d profile --config FILE [--out D]  build analytic profiles only
    outflow1d run     --config FILE [--out D] [--seed N]
    outflow1d batch   --config F1 F2 ... [--out D] [--workers N] [--seed N]
    outflow1d reduce  [--case N]               reduction table / one case

Exit codes: 0 success (verdict PASS), 1 failed run or FAIL/INCONCLUSIVE
verdict, 2 configuration or usage errors.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, echo_config, load_config
from .gas import GasParams
from .layer import LayerError, construct_layer, export_csv as export_layer_csv
from .rarefaction import BurgersWave, burgers_eval
from .reduced import CASE_NOTES, format_case_table, reduce_case
from .scenarios import ScenarioError, prepare_scenario, run_batch, \
    run_scenario
from .solver import SolverError, write_snapshot_csv
from .table import write_table

_RUN_ERRORS = (ScenarioError, SolverError, LayerError, ValueError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outflow1d",
        description="Boundary layers, expansion fans and a coupled "
                    "fluid-field solver on the half line.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a config and print the "
                                           "materialized echo")
    p_check.add_argument("--config", required=True)

    p_profile = sub.add_parser("profile", help="build the analytic objects "
                                               "without time marching")
    p_profile.add_argument("--config", required=True)
    p_profile.add_argument("--out", default=None)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    p_batch = sub.add_parser("batch", help="run several configs in worker "
                                           "processes")
    p_batch.add_argument("--config", required=True, nargs="+")
    p_batch.add_argument("--out", default="batch_out")
    p_batch.add_argument("--workers", type=int, default=2)
    p_batch.add_argument("--seed", type=int, default=None)

    p_reduce = sub.add_parser("reduce", help="show the transverse-alignment "
                                             "reduction table")
    p_reduce.add_argument("--case", type=int, default=None)
    return parser


def _cmd_check(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(echo_config(cfg))
    return 0


def _cmd_profile(args) -> int:
    import os

    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    out = args.out or f"{cfg.scenario}_profile"
    os.makedirs(out, exist_ok=True)
    try:
        if cfg.scenario in ("layer_stability", "rarefaction_stability",
                            "superposition_stability"):
            prep = prepare_scenario(cfg)
            write_snapshot_csv(os.path.join(out, "initial.csv"), prep.grid,
                               0.0, prep.state0)
            layer = prep.background.layer
            if layer is not None:
                export_layer_csv(layer, os.path.join(out, "layer_profile.csv"))
            print(f"wrote analytic profiles to {out}")
        elif cfg.scenario == "burgers_decay":
            import numpy as np
            wave = BurgersWave(cfg.w_minus, cfg.fan_delta, cfg.alpha)
            x = np.arange(0.0, wave.w_plus * 1.0 + 40.0, 0.02)
            w, wx = burgers_eval(wave, x, 0.0)
            write_table(os.path.join(out, "speed_profile.csv"), "x,w,w_x",
                        (x, w, wx))
            print(f"wrote fan speed profile to {out}")
        else:                                   # layer_decay
            params = GasParams(cfg.R, cfg.gamma, cfg.mu, cfg.kappa, eps=1.0)
            far = (cfg.rho_plus, cfg.u_plus, cfg.theta_plus)
            layer = construct_layer(params, far, cfg.delta, cfg.layer_branch)
            export_layer_csv(layer, os.path.join(out, "layer_profile.csv"))
            print(f"wrote layer profile to {out}")
    except _RUN_ERRORS as exc:
        print(f"profile construction failed: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config, args.seed)
    except (ConfigError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    out = args.out or f"{cfg.scenario}_out"
    try:
        summary = run_scenario(cfg, out)
    except _RUN_ERRORS as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    print(f"scenario {summary['scenario']}: {summary['verdict']} "
          f"(artifacts in {out})")
    for warning in summary.get("warnings", []):
        print(f"warning: {warning}")
    return 0 if summary["verdict"] == "PASS" else 1


def _cmd_batch(args) -> int:
    try:
        rows = run_batch(args.config, args.out, workers=args.workers,
                         seed=args.seed)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    width = max(len(r["config"]) for r in rows)
    for row in rows:
        note = f"  ({row['error']})" if row["error"] else ""
        print(f"{row['config']:<{width}}  {row['verdict']}{note}")
    print(f"summary written to {args.out}/batch_summary.csv")
    return 0 if all(r["verdict"] == "PASS" for r in rows) else 1


def _cmd_reduce(args) -> int:
    if args.case is None:
        print(format_case_table())
        return 0
    try:
        model = reduce_case(args.case)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"case {model.case}: E along {model.e_axis}, B along "
          f"{model.b_axis} -> system {model.system}")
    print(f"  Lorentz force      : {'yes' if model.has_lorentz else 'no'}")
    print(f"  heating            : {model.heating}")
    print(f"  closed form        : {CASE_NOTES[model.case][1]}")
    if model.eb_constrained:
        print("  constraint         : E b = 0")
    if model.b_sign < 0:
        print("  stored b is minus the aligned B component")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"check": _cmd_check, "profile": _cmd_profile,
               "run": _cmd_run, "batch": _cmd_batch,
               "reduce": _cmd_reduce}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
