"""Flat key=value experiment configuration.

A config file is plain text: one `key = value` per line, `#` starts a
comment, keys are known in advance, and every violated constraint is
reported (with the offending line number for parse problems) rather than
just the first one.  Optional quantities accept the literal `auto`
(step/record sizes, domain length, dielectric constant) or `none` (seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = ["ScenarioConfig", "ConfigError", "SCENARIOS",
           "load_config", "parse_config_text", "echo_config"]

SCENARIOS = (
    "layer_stability",
    "rarefaction_stability",
    "superposition_stability",
    "burgers_decay",
    "layer_decay",
    "reduced_model_check",
)

LAYER_BRANCHES = ("lower", "upper", "degenerate")
SHAPES = ("cosine", "gaussian")
TARGET_TOKENS = ("rho", "u", "theta", "em")


class ConfigError(ValueError):
    """Carries the full list of problems in .errors."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


@dataclass(frozen=True)
class ScenarioConfig:
    """Materialized experiment description (defaults already applied)."""

    scenario: str
    # gas and field constants
    R: float = 1.0
    gamma: float = 5.0 / 3.0
    mu: float = 1.0
    kappa: float = 1.0
    eps: float | None = None          # None: eps_fraction * dielectric bound
    eps_fraction: float = 0.5
    # far state and wave strengths
    rho_plus: float = 1.0
    u_plus: float = -0.15
    theta_plus: float = 1.0
    delta: float = 0.05               # layer strength |du| + |dtheta|
    layer_branch: str = "lower"
    theta_star: float = 0.94          # intermediate temperature (composite)
    theta_minus: float = 0.9          # fan left temperature (pure fan)
    w_minus: float = 0.5              # analytic fan-speed study only
    fan_delta: float = 3.0            # speed jump of the analytic study
    alpha: float = 0.1                # fan smoothing scale
    q: float = 1.0                    # fan smoothing exponent
    # grid and march
    n_cells: int = 2000
    length: float | None = None       # None: sized from the fastest signal
    t_final: float = 200.0
    cfl_factor: float = 0.9
    dt_max: float | None = None
    record_dt: float | None = None    # None: t_final / 50
    # perturbation
    amplitude: float = 1e-2
    center: float = 5.0
    width: float = 2.0
    shape: str = "cosine"
    targets: str = "u,theta,em"
    seed: int | None = None
    # reduced-model check
    case: int = 3
    branch: str = "decay"
    n_relax: float = 5.0

    def target_list(self) -> tuple:
        return tuple(t.strip() for t in self.targets.split(",") if t.strip())

    def validate(self) -> list:
        """Return every violated constraint as a message (empty if valid)."""
        errs = []
        if self.scenario not in SCENARIOS:
            errs.append(f"scenario must be one of {', '.join(SCENARIOS)}")
        if self.R <= 0:
            errs.append("R must be positive")
        if self.gamma <= 1:
            errs.append("gamma must exceed 1")
        if self.mu <= 0:
            errs.append("mu must be positive")
        if self.kappa <= 0:
            errs.append("kappa must be positive")
        if self.eps is not None and self.eps <= 0:
            errs.append("eps must be positive (or auto)")
        if self.eps_fraction <= 0:
            errs.append("eps_fraction must be positive")
        if self.rho_plus <= 0:
            errs.append("rho_plus must be positive")
        if self.u_plus >= 0:
            errs.append("u_plus must be negative (outflow problem)")
        if self.theta_plus <= 0:
            errs.append("theta_plus must be positive")
        if self.delta < 0:
            errs.append("delta must be nonnegative")
        if self.layer_branch not in LAYER_BRANCHES:
            errs.append(f"layer_branch must be one of {', '.join(LAYER_BRANCHES)}")
        if self.scenario == "superposition_stability" and not (
                0 < self.theta_star < self.theta_plus):
            errs.append("theta_star must lie in (0, theta_plus)")
        if self.scenario == "rarefaction_stability" and not (
                0 < self.theta_minus < self.theta_plus):
            errs.append("theta_minus must lie in (0, theta_plus)")
        if self.w_minus < 0:
            errs.append("w_minus must be nonnegative (fan enters the domain)")
        if self.fan_delta <= 0:
            errs.append("fan_delta must be positive")
        if self.alpha <= 0:
            errs.append("alpha must be positive")
        if self.q < 1:
            errs.append("q must be at least 1")
        if self.n_cells < 16:
            errs.append("n_cells must be at least 16")
        if self.length is not None and self.length <= 0:
            errs.append("length must be positive (or auto)")
        if self.t_final <= 0:
            errs.append("t_final must be positive")
        if not 0 < self.cfl_factor <= 0.9:
            errs.append("cfl_factor must lie in (0, 0.9]")
        if self.dt_max is not None and self.dt_max <= 0:
            errs.append("dt_max must be positive (or auto)")
        if self.record_dt is not None and self.record_dt <= 0:
            errs.append("record_dt must be positive (or auto)")
        if self.amplitude < 0:
            errs.append("amplitude must be nonnegative")
        if self.width <= 0:
            errs.append("width must be positive")
        if self.center <= 0:
            errs.append("center must be positive")
        if self.shape not in SHAPES:
            errs.append(f"shape must be one of {', '.join(SHAPES)}")
        toks = self.target_list()
        if not toks or any(t not in TARGET_TOKENS for t in toks):
            errs.append("targets must be a comma list drawn from "
                        + ", ".join(TARGET_TOKENS))
        if not 1 <= self.case <= 9:
            errs.append("case must be an integer in 1..9")
        elif self.scenario == "reduced_model_check" and self.case in (1, 2):
            errs.append("case must be 3..9 (cases 1 and 2 keep the full "
                        "coupling)")
        if self.branch not in ("decay", "frozen"):
            errs.append("branch must be decay or frozen")
        if self.n_relax <= 0:
            errs.append("n_relax must be positive")
        return errs


# per-scenario default overrides applied between the dataclass defaults and
# the file contents (the analytic decay study needs a stronger, steeper fan
# than the stability runs to push the data-dominated transient out of the
# fit window)
SCENARIO_DEFAULTS = {
    "burgers_decay": {"alpha": math.e, "fan_delta": 3.0, "q": 1.0},
}

_FIELDS = {f.name: f for f in fields(ScenarioConfig)}
_OPTIONAL_FLOATS = ("eps", "length", "dt_max", "record_dt")
_INT_FIELDS = ("n_cells", "case")


def _parse_value(key: str, raw: str, line_no: int, errs: list):
    if key == "seed":
        if raw.lower() == "none":
            return None
        try:
            return int(raw)
        except ValueError:
            errs.append(f"line {line_no}: seed must be an integer or none")
            return None
    if key in _OPTIONAL_FLOATS:
        if raw.lower() == "auto":
            return None
        try:
            return float(raw)
        except ValueError:
            errs.append(f"line {line_no}: {key} must be a number or auto")
            return None
    if key in _INT_FIELDS:
        try:
            return int(raw)
        except ValueError:
            errs.append(f"line {line_no}: {key} must be an integer")
            return None
    if _FIELDS[key].type == "str" or isinstance(_FIELDS[key].default, str):
        return raw
    try:
        return float(raw)
    except ValueError:
        errs.append(f"line {line_no}: {key} must be a number")
        return None


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse config text; raises ConfigError listing every problem."""
    errs = []
    seen = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            errs.append(f"line {line_no}: expected key = value")
            continue
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELDS:
            errs.append(f"line {line_no}: unknown key {key!r}")
            continue
        if key in seen:
            errs.append(f"line {line_no}: duplicate key {key!r}")
            continue
        seen[key] = _parse_value(key, raw, line_no, errs)

    if "scenario" not in seen and not any("scenario" in e for e in errs):
        errs.append("missing required key 'scenario'")
    if errs:
        raise ConfigError(errs)

    values = dict(SCENARIO_DEFAULTS.get(seen["scenario"], {}))
    values.update(seen)
    cfg = ScenarioConfig(**values)
    problems = cfg.validate()
    if problems:
        raise ConfigError(problems)
    return cfg


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        return parse_config_text(fh.read())


def _format_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def echo_config(cfg: ScenarioConfig) -> str:
    """Sorted key=value text with all defaults materialized; parsing the
    echo reproduces cfg exactly."""
    lines = []
    for name in sorted(_FIELDS):
        value = getattr(cfg, name)
        if name == "seed" and value is None:
            lines.append("seed = none")
        else:
            lines.append(f"{name} = {_format_value(value)}")
    return "\n".join(lines) + "\n"
