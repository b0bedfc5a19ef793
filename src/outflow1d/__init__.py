"""1-D plasma outflow on the half line: stationary boundary layers,
smoothed expansion fans, their superposition, and an initial-boundary-value
solver for the coupled fluid--field system."""

from .gas import (EndStates, GasParams, classify_regime, dielectric_bound,
                  sound_speed)
from .layer import (LayerError, LayerProfile, construct_layer, find_M0,
                    layer_jacobian, layer_ode_rhs, measure_decay)
from .rarefaction import (BurgersWave, CompositeProfile, R3Curve,
                          rarefaction_decay_check, rarefaction_profile)
from .solver import (FieldState, Grid1D, PositivityError, RunResult,
                     SolverConfig, SolverError, apply_boundary, cfl_dt,
                     record_times, run, spatial_rhs, step, write_snapshot_csv)
from .diagnostics import (DiagRecord, bump_profile, fit_convergence,
                          record_from_state, sup_norm, write_diag_csv)
from .config import (ConfigError, SCENARIOS, ScenarioConfig, echo_config,
                     load_config, parse_config_text)
from .scenarios import (PreparedRun, ScenarioError, default_domain_length,
                        prepare_scenario, profile_scenario, run_batch,
                        run_scenario)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
