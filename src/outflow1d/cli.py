"""Command-line entry point.

    outflow1d check   --config FILE            validate + echo a config
    outflow1d profile --config FILE [--out D]  build analytic profiles only
    outflow1d run     --config FILE [--out D] [--seed N]
    outflow1d batch   --config F1 F2 ... [--out D] [--workers N] [--seed N]

Exit codes: 0 success (verdict PASS), 1 failed run or FAIL/INCONCLUSIVE
verdict, 2 configuration or usage errors, an --out that cannot be made
among them: each command makes it before any work.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, echo_config, load_config
from .layer import LayerError
from .scenarios import ScenarioError, profile_scenario, run_batch, \
    run_scenario
from .solver import SolverError

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
    return parser


def _load(path, seed):
    """The config at path, or None after saying on stderr why not."""
    try:
        return load_config(path, seed)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
    return None


def _cmd_check(args) -> int:
    if (cfg := _load(args.config, None)) is None:
        return 2
    sys.stdout.write(echo_config(cfg))
    return 0


def _make(make, cfg, out, failed: str) -> tuple:
    """(make(cfg, out), 0), or (None, exit code) after saying on stderr why
    not: 1 for a failed construction or march, 2 for an out that cannot be
    written."""
    try:
        return make(cfg, out), 0
    except _RUN_ERRORS as exc:
        print(f"{failed} failed: {exc}", file=sys.stderr)
        return None, 1
    except OSError as exc:
        print(f"cannot write to {out}: {exc}", file=sys.stderr)
        return None, 2


def _cmd_profile(args) -> int:
    if (cfg := _load(args.config, None)) is None:
        return 2
    out = args.out or f"{cfg.scenario}_profile"
    _, code = _make(profile_scenario, cfg, out, "profile construction")
    if code == 0:
        print(f"wrote analytic profiles to {out}")
    return code


def _cmd_run(args) -> int:
    if (cfg := _load(args.config, args.seed)) is None:
        return 2
    out = args.out or f"{cfg.scenario}_out"
    summary, code = _make(run_scenario, cfg, out, "run")
    if code:
        return code
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
    except OSError as exc:
        print(f"cannot write to {args.out}: {exc}", file=sys.stderr)
        return 2
    width = max(len(r["config"]) for r in rows)
    for row in rows:
        note = f"  ({row['error']})" if row["error"] else ""
        print(f"{row['config']:<{width}}  {row['verdict']}{note}")
    print(f"summary written to {args.out}/batch_summary.csv")
    return 0 if all(r["verdict"] == "PASS" for r in rows) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"check": _cmd_check, "profile": _cmd_profile,
               "run": _cmd_run, "batch": _cmd_batch}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
