"""Agent-based cellular-automata simulator of agricultural land-use change.

Farmers on a grid allocate area across three cropping systems each cycle,
earn table-driven profits under a weather regime, adjust aspiration and
technology levels, and imitate their most profitable neighbor when their
own aspiration is missed. The package also ships goodness-of-fit metrics
for observed-versus-simulated series and a one-at-a-time sensitivity
sweep harness, all behind a deterministic seeded core and a CLI.
"""

from .climate import ClimateRegime
from .config import ScenarioConfig, parse_config, preset, resolve_tables
from .engine import (
    CheckedRun,
    CycleContext,
    RunObserver,
    RunResult,
    climate_adjusted_aspiration,
    compute_profit,
    compute_rl,
    context_for,
    decide_land_use,
    evaluate_goals,
    plan,
    run_cycle,
    run_simulation,
    select_best_neighbor,
    update_aspiration,
    update_technology,
)
from .errors import ConfigurationError, LuccsimError, MetricUndefinedError
from .landscape import CycleRecord, Landscape, Tenure, initialize
from .metrics import DistributionSummary, FitReport, distribution_summary, fit_report
from .rng import SplitMix64
from .sweep import SweepAxis, SweepParameter, SweepResult, run_sweep
from .tables import LandUse, ParameterTables, TechLevel, Wgc, default_tables, validate_tables

# The names README's "Library use" documents, and no others.
__all__ = [
    "CheckedRun", "ClimateRegime", "ConfigurationError", "CycleContext", "CycleRecord",
    "DistributionSummary", "FitReport", "LandUse", "Landscape", "LuccsimError",
    "MetricUndefinedError", "ParameterTables", "RunObserver", "RunResult", "ScenarioConfig",
    "SplitMix64", "SweepAxis", "SweepParameter", "SweepResult", "TechLevel", "Tenure", "Wgc",
    "climate_adjusted_aspiration", "compute_profit", "compute_rl", "context_for",
    "decide_land_use", "default_tables", "distribution_summary", "evaluate_goals",
    "fit_report", "initialize", "parse_config", "plan", "preset", "resolve_tables",
    "run_cycle", "run_simulation", "run_sweep", "select_best_neighbor", "update_aspiration",
    "update_technology", "validate_tables",
]

__version__ = "0.1.0"
