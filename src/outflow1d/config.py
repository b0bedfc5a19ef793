"""Flat key=value experiment configuration.

A config file is plain text: one `key = value` per line, `#` starts a
comment, keys are known in advance, and every violated constraint is
reported (with the offending line number for parse problems) rather than
just the first one.  A ScenarioConfig runs the same checks when it is
built, whether by the parser, in code or by `dataclasses.replace`, so one
that exists is valid.  Of SCENARIOS, superposition_stability marches a layer
of strength delta (none at 0) and a fan from theta_star to theta_plus (none
at theta_plus); layer_decay ignores theta_star.  Two optional
quantities take a literal that leaves them unset: `length = auto` (sized
from the far state's fastest signal, then grown until the background
reaches the far state at x = L) and `seed = none`.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields, replace

from .layer import LAYER_BRANCHES

__all__ = ["ScenarioConfig", "ConfigError", "SCENARIOS",
           "load_config", "parse_config_text", "echo_config"]

SCENARIOS = ("superposition_stability", "layer_decay")

POSITIVE = ("R", "mu", "kappa", "eps_fraction", "rho_plus", "theta_plus",
            "alpha", "t_final")
# each field annotation (less "| None"): the type it takes, bool excluded,
# and how an error names it
_TYPES = {"str": (str, "a string"), "int": (numbers.Integral, "an integer"),
         "float": (numbers.Real, "a number")}


class ConfigError(ValueError):
    """Carries the full list of problems in .errors."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


@dataclass(frozen=True)
class ScenarioConfig:
    """Materialized experiment description (defaults already applied),
    valid once built: __post_init__ refuses any other."""

    scenario: str
    # gas and field constants
    R: float = 1.0
    gamma: float = 5.0 / 3.0
    mu: float = 1.0
    kappa: float = 1.0
    eps_fraction: float = 0.5         # eps as a fraction of the bound c_bar
    # far state and wave strengths
    rho_plus: float = 1.0
    u_plus: float = -0.15
    theta_plus: float = 1.0
    delta: float = 0.05               # layer strength |du| + |dtheta|; 0: none
    layer_branch: str = "lower"
    theta_star: float = 0.94          # star temperature; theta_plus: no fan
    alpha: float = 0.1                # fan smoothing scale
    # grid and march
    n_cells: int = 2000
    length: float | None = None       # None: auto, sized by the scenario
    t_final: float = 200.0
    # perturbation
    amplitude: float = 1e-2
    seed: int | None = None

    def __post_init__(self) -> None:
        """Raise ConfigError listing every violated constraint, if any.  A
        field of the wrong type is listed in the parser's words, and, as
        when parsing, no range check runs until every field has its type."""
        errs, mistyped = [], False
        for f in fields(self):
            kind, noun = _TYPES[f.type.removesuffix(" | None")]
            value = getattr(self, f.name)
            if value is None and f.type.endswith("None"):
                continue
            if isinstance(value, bool) or not isinstance(value, kind):
                errs.append(f"{f.name} must be {noun}")
                mistyped = True
            elif kind is numbers.Real and not abs(value) <= sys.float_info.max:
                # inf would never end a march; nan and 10**400 fail too
                errs.append(f"{f.name} must be a finite number")
        if mistyped:
            raise ConfigError(errs)
        if self.scenario not in SCENARIOS:
            errs.append(f"scenario must be one of {', '.join(SCENARIOS)}")
        errs += [f"{key} must be positive" for key in POSITIVE
                 if getattr(self, key) <= 0]
        if self.length is not None and self.length <= 0:
            errs.append("length must be positive (or auto)")
        if self.gamma <= 1:
            errs.append("gamma must exceed 1")
        if self.u_plus >= 0:
            errs.append("u_plus must be negative (outflow problem)")
        if self.delta < 0:
            errs.append("delta must be nonnegative")
        elif self.delta == 0 and self.scenario == "layer_decay":
            errs.append("delta must be positive for layer_decay: a "
                        "zero-strength layer has no tail to measure")
        if self.layer_branch not in LAYER_BRANCHES:
            errs.append(f"layer_branch must be one of {', '.join(LAYER_BRANCHES)}")
        if self.scenario == "superposition_stability" and not (
                0 < self.theta_star <= self.theta_plus):
            errs.append("theta_star must lie in (0, theta_plus]")
        if self.n_cells < 16:
            errs.append("n_cells must be at least 16")
        if self.amplitude < 0:
            errs.append("amplitude must be nonnegative")
        if self.seed is not None and self.seed < 0:
            errs.append("seed must be nonnegative (or none)")
        if errs:
            raise ConfigError(errs)


_FIELDS = {f.name: f for f in fields(ScenarioConfig)}
# optional keys and the literal that leaves them unset
_SENTINELS = {"length": "auto", "seed": "none"}


def _parse_value(key: str, raw: str, line_no: int, errs: list):
    sentinel = _SENTINELS.get(key)
    if sentinel is not None and raw.lower() == sentinel:
        return None
    kind = _FIELDS[key].type.removesuffix(" | None")
    if kind == "str":
        return raw
    try:
        value = int(raw) if kind == "int" else float(raw)
    except ValueError:
        alt = f" or {sentinel}" if sentinel else ""
        errs.append(f"line {line_no}: {key} must be {_TYPES[kind][1]}{alt}")
        return None
    if kind == "float" and not math.isfinite(value):  # inf never ends a march
        errs.append(f"line {line_no}: {key} must be a finite number")
        return None
    return value


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

    return ScenarioConfig(**seen)


def load_config(path, seed: int | None = None) -> ScenarioConfig:
    """Parse a config file; a seed, if given, replaces the file's seed (and
    is checked as any field is)."""
    with open(path) as fh:
        cfg = parse_config_text(fh.read())
    return cfg if seed is None else replace(cfg, seed=seed)


def echo_config(cfg: ScenarioConfig) -> str:
    """Sorted key=value text with all defaults materialized; parsing the
    echo reproduces cfg exactly (a float prints as its shortest
    round-tripping repr)."""
    lines = []
    for name in sorted(_FIELDS):
        value = getattr(cfg, name)
        text = _SENTINELS[name] if value is None else value
        lines.append(f"{name} = {text}")
    return "\n".join(lines) + "\n"
