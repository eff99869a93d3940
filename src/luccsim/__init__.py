"""Agent-based cellular-automata simulator of agricultural land-use change.

Farmers on a grid allocate area across three cropping systems each cycle,
earn table-driven profits under a weather regime, adjust aspiration and
technology levels, and imitate their most profitable neighbor when their
own aspiration is missed. The package also ships goodness-of-fit metrics
for observed-versus-simulated series and a one-at-a-time sensitivity
sweep harness, all behind a deterministic seeded core and a CLI.
"""

from .climate import ClimateRegime, RegimeKind, load_wgc_sequence, wgc_for_cycle
from .config import ScenarioConfig, parse_config, preset, resolve_tables
from .engine import (
    CycleContext,
    RunResult,
    climate_adjusted_aspiration,
    compute_profit,
    compute_rl,
    context_for,
    decide_land_use,
    evaluate_goals,
    run_cycle,
    run_simulation,
    select_best_neighbor,
    update_aspiration,
    update_technology,
)
from .errors import ConfigurationError, LuccsimError, MetricUndefinedError
from .landscape import (
    AgentState,
    CycleRecord,
    Landscape,
    Tenure,
    aggregate,
    initialize,
    moore_neighbors,
)
from .metrics import (
    DistributionSummary,
    FitReport,
    distribution_summary,
    fit_report,
    goal_agreement,
    ordinal_fit,
    rmse_and_v,
)
from .rng import SplitMix64
from .sweep import SweepAxis, SweepParameter, SweepResult, run_sweep
from .tables import (
    LandUse,
    ParameterTables,
    TechLevel,
    Wgc,
    default_tables,
    lookup,
    validate_tables,
)

__version__ = "0.1.0"
