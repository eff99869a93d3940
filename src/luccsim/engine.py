"""The per-cycle agent pipeline and run loop.

Each cropping cycle advances through four stages with barriers between
cross-agent reads:

1. outcome computation: profit and renewability from the pre-cycle state;
2. climate adjustment of the aspiration level (CAL);
3. goal evaluation against CAL and the ecological threshold;
4. adaptation for the next cycle: best-neighbor selection, land-use
   imitation, aspiration update, and technology update, all reading a
   frozen snapshot of stage 1-3 results.

Each rule below is an array function that also accepts scalars: one call
applies it to every agent, or to a single agent. `run_cycle` is their
composition over the landscape's arrays: stages 1-3 replace the outcome
arrays, and stage 4 updates the others in place, taking its best neighbors
from shifted views of the landscape's profits on a -inf border.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Optional, Protocol

import numpy as np

from .climate import wgc_for_cycle
from .config import ScenarioConfig, resolve_tables
from .errors import ConfigurationError
from .landscape import TECH_LEVELS, TENURES, CycleRecord, Landscape, aggregate, initialize
from .numeric import sequential_sum
from .rng import SplitMix64
from .tables import LandUse, ParameterTables, TechLevel, Wgc

__all__ = [
    "CycleContext",
    "compute_profit",
    "compute_rl",
    "climate_adjusted_aspiration",
    "evaluate_goals",
    "select_best_neighbor",
    "update_aspiration",
    "update_technology",
    "decide_land_use",
    "context_for",
    "run_cycle",
    "CheckedRun",
    "plan",
    "run_simulation",
    "RunObserver",
    "RunResult",
    "AgentRows",
    "AgentCycle",
]

_INCREMENTAL_OWN = 0.45  # weight on CAL when the aspiration was met
_DETRIMENTAL_OWN = 0.55  # weight on CAL when it was missed


@dataclass(frozen=True)
class CycleContext:
    """Everything exogenous to the agents within one cycle, made by `context_for`.

    `margins` (per-hectare gross income minus cost) and `renewabilities`
    (in percent) are read-only arrays indexed [tech level, land use] at
    weather `wgc`, so runs may share a context.
    """

    wgc: Wgc
    tables: ParameterTables
    margins: np.ndarray
    renewabilities: np.ndarray
    rent_usd_per_ha: float
    et_pct: float


def _weighted(alloc, tl, by_level):
    """(a0/100)*v0 + (a1/100)*v1 + (a2/100)*v2, with vk = by_level[tl, k].

    Each of the three terms reads a column of `alloc` and gathers a column
    of `by_level` by tech level, so no (n, 3) temporary is built.
    """
    a0, a1, a2 = np.asarray(alloc, dtype=np.float64).T
    v0, v1, v2 = (values.take(tl) for values in by_level.T)
    return a0 / 100.0 * v0 + a1 / 100.0 * v1 + a2 / 100.0 * v2


def compute_profit(alloc, tl, tenant, ctx: CycleContext):
    """Allocation-weighted per-hectare margin, minus rent for tenants."""
    p = _weighted(alloc, tl, ctx.margins)
    return np.where(tenant, p - ctx.rent_usd_per_ha, p)


def compute_rl(alloc, tl, ctx: CycleContext):
    """Allocation-weighted renewability share, in percent."""
    return _weighted(alloc, tl, ctx.renewabilities)


def climate_adjusted_aspiration(
    al: float, wgc: Wgc, tables: ParameterTables
) -> float:
    """Aspiration scaled by the weather adjustment factor (the CAL)."""
    return al * (1.0 + tables.alpha_wgc[wgc])


def evaluate_goals(
    p: float, cal: float, rl: float, et: float
) -> tuple[bool, bool]:
    """Economic and environmental goal flags; equality counts as fulfilled."""
    return (p >= cal, rl >= et)


# _LOWEST_SET_BIT[b] is the index of b's lowest set bit (0 for b = 0)
_LOWEST_SET_BIT = np.array([(b & -b).bit_length() - 1 if b else 0 for b in range(256)], np.uint8)


def select_best_neighbor(neighbor_profits):
    """Each agent's most profitable neighbor, as (position, profit) arrays.

    `neighbor_profits` is a sequence of up to eight same-shaped arrays in
    scan order: the k-th gives each agent's profit at neighbor position k,
    or -inf where it has no neighbor there. Ties go to the earliest
    position, a NaN never wins, and the profit is the best one's, with a
    -0.0 returned as 0.0. An agent with no neighbor gets position 0 and -inf.
    """
    best = np.asarray(np.fmax(neighbor_profits[0], neighbor_profits[-1]))
    for p in neighbor_profits[1:-1]:
        np.fmax(best, p, out=best)
    flags = np.zeros(best.shape, np.uint8)  # bit k: position k earns the best
    for p in reversed(neighbor_profits):
        flags <<= 1
        flags |= p == best
    best += 0.0  # fmax may return either zero for a tie of -0.0 and 0.0
    return _LOWEST_SET_BIT.take(flags), best


def decide_land_use(p, cal, bn_profit):
    """Whether to copy the best neighbor's allocation: unsatisfied and out-earned.

    The environmental goal never alters the land-use decision.
    """
    return (p < cal) & (bn_profit > cal)


def update_aspiration(cal, p, bn_cal, bn_profit, tl, bn_tl, tables: ParameterTables):
    """Next-cycle aspiration level.

    Met aspirations move toward the realized profit quickly (55% weight on
    profit); missed ones either adopt the best neighbor's CAL scaled by the
    tech-level adjustment factor, when that neighbor out-earned the agent's
    own CAL, or decay slowly toward the realized profit (45% weight).
    `bn_cal`, `bn_profit` and `bn_tl` are the best neighbor's CAL, profit
    and tech level; with no neighbor, pass a -inf profit.

    The weighted averages are evaluated as cal + w*(p - cal), which equals
    (1-w)*cal + w*p but cannot round past p. The direct form can overshoot
    by an ulp once the aspiration has converged onto the profit, flipping
    satisfied agents to unsatisfied and destabilizing an otherwise
    quiescent landscape. Array steps run in place, so that a cycle holds
    fewer whole-grid temporaries at once.
    """
    next_al = p - cal
    next_al *= np.where(p >= cal, 1.0 - _INCREMENTAL_OWN, 1.0 - _DETRIMENTAL_OWN)
    next_al += cal
    factor = 1.0 + tables.alpha_bn
    copied = tl * factor.shape[1]
    copied += bn_tl
    copied = factor.take(copied)  # factor[tl, bn_tl]
    copied *= bn_cal
    next_al = np.where(decide_land_use(p, cal, bn_profit), copied, next_al)
    return np.where(next_al > 0.0, next_al, 0.0)


def update_technology(p, tables: ParameterTables):
    """Tech level index affordable from this cycle's profit; never forces an exit."""
    wct = tables.wct_usd_per_ha
    return np.where(p >= wct[TechLevel.HIGH], TechLevel.HIGH, np.where(
        p >= wct[TechLevel.AVERAGE], TechLevel.AVERAGE, TechLevel.LOW))


def context_for(
    config: ScenarioConfig, tables: ParameterTables, wgc: Wgc
) -> CycleContext:
    """Build one cycle's context from a validated scenario configuration.

    Combined pricing prices the double crop's total yield at its single
    listed price; split pricing prices the configured wheat and
    second-crop soybean component yields separately. A margin may
    overflow here; `check_scale` refuses it.
    """
    prices = np.array([config.prices[lu] for lu in LandUse])
    with np.errstate(over="ignore", invalid="ignore"):
        income = tables.yield_t_per_ha[:, :, wgc].T * prices
        if config.pricing_mode == "split":
            income[:, LandUse.WHEAT_SOY] = (
                config.split_wheat_yield[:, wgc] * config.wheat_price_usd_per_t
                + config.split_soy2_yield[:, wgc] * prices[LandUse.SOYBEAN])
        margins = income - tables.cost_usd_per_ha[:, :, wgc].T
    margins.setflags(write=False)
    renewabilities = tables.renewability_pct[:, :, wgc].T  # a view of a read-only table
    return CycleContext(wgc, tables, margins, renewabilities, config.rent_usd(), config.et_pct)


def run_cycle(
    landscape: Landscape, ctx: CycleContext, *, cycle_index: int = 0
) -> CycleRecord:
    """Advance the landscape by one cycle.

    Stages 1-3 bind new outcome arrays (profit, rl, cal, econ, env) to the
    landscape, each dropping the last cycle's as it is made. Returns the
    record of outcomes aggregated at the stage-3 barrier, before stage 4
    adapts the alloc, tl and al arrays in place.
    """
    s = landscape
    tables = ctx.tables
    s.profit = profit = compute_profit(s.alloc, s.tl, s.tenant, ctx)
    s.rl = compute_rl(s.alloc, s.tl, ctx)
    s.cal = cal = climate_adjusted_aspiration(s.al, ctx.wgc, tables)
    s.econ, s.env = evaluate_goals(profit, cal, s.rl, ctx.et_pct)
    record = aggregate(s, cycle_index, ctx.wgc)

    s.profit_grid[...] = profit.reshape(s.rows, s.cols)
    position, best_p = (a.reshape(-1) for a in select_best_neighbor(s.neighbor_profits))
    best = np.arange(s.n_agents)
    best += s.neighbor_steps.take(position)  # each agent's best neighbor, as an index
    imitate = decide_land_use(profit, cal, best_p)
    # "clip": a lone agent (1x1) reads itself, unused as its -inf never out-earns a CAL
    bn_cal, bn_tl = cal.take(best, mode="clip"), s.tl.take(best, mode="clip")
    s.al[:] = update_aspiration(cal, profit, bn_cal, best_p, s.tl, bn_tl, tables)
    s.tl[:] = update_technology(profit, tables)
    imitators = np.flatnonzero(imitate)
    s.alloc[imitators] = s.alloc.take(best.take(imitators), axis=0)  # models' pre-cycle rows
    return record


class AgentCycle(NamedTuple):
    """One cycle of the per-agent trace, each array in row-major cell order.

    `alloc` (n, 3), `tl` (TechLevel indices, int8) and `al` are the
    allocation, tech level and aspiration the agents held when the cycle
    began; `cal`, `profit`, `rl`, `econ` and `env` are the cycle's outcomes.
    """

    alloc: np.ndarray
    tl: np.ndarray
    al: np.ndarray
    cal: np.ndarray
    profit: np.ndarray
    rl: np.ndarray
    econ: np.ndarray
    env: np.ndarray


class RunObserver(Protocol):
    """What `run_simulation` tells an observer as a run goes.

    `start` comes once, after initialization. `cycle` comes after each
    cycle: `before` is (alloc copy, tl as int8, al copy) as the cycle
    began, the landscape's outcome arrays hold the cycle's outcomes and
    its alloc, tl and al arrays are already adapted for the next cycle,
    and `record` is the cycle's record. The next cycle replaces the outcome
    arrays and updates the others in place; keep copies. `end` comes once,
    with the finished result.
    """

    def start(self, landscape: Landscape) -> None: ...

    def cycle(self, t: int, before: tuple[np.ndarray, ...], landscape: Landscape,
              record: CycleRecord) -> None: ...

    def end(self, result: "RunResult") -> None: ...


class AgentRows:
    """The per-agent trace of a run, one row per agent and cycle.

    A `RunObserver` that keeps every cycle: `run_simulation(...,
    collect_agents=True)` attaches one. `row` and `col` are each agent's
    grid position and `tenure` its Tenure member, in row-major cell order;
    `cycles` holds one `AgentCycle` of array copies per cycle. Iterating
    yields the rows as (cycle, row, col, tenure, allocation, tl, al, cal,
    profit, rl, econ_ok, env_ok) with Python floats, bools, an allocation
    tuple and Tenure/TechLevel members.
    """

    def start(self, landscape: Landscape) -> None:
        self.row, self.col = np.divmod(np.arange(landscape.n_agents), landscape.cols)
        self.tenure = [TENURES[t] for t in landscape.tenant.tolist()]
        self.cycles: list[AgentCycle] = []

    def cycle(self, t: int, before: tuple[np.ndarray, ...], s: Landscape,
              record: CycleRecord) -> None:
        self.cycles.append(AgentCycle(*before, s.cal.copy(), s.profit.copy(),
                                      s.rl.copy(), s.econ.copy(), s.env.copy()))

    def end(self, result: "RunResult") -> None:
        pass

    def __len__(self) -> int:
        return len(self.cycles) * len(self.tenure)

    def __iter__(self) -> Iterator[tuple]:
        rows, cols = self.row.tolist(), self.col.tolist()
        for t, (alloc, tl, *floats_and_flags) in enumerate(self.cycles):
            yield from zip(
                repeat(t), rows, cols, self.tenure,
                zip(*alloc.T.tolist()), map(TECH_LEVELS.__getitem__, tl.tolist()),
                *(a.tolist() for a in floats_and_flags),
            )


@dataclass
class RunResult:
    """A whole run: per-cycle records plus per-agent summary material.

    The four per-agent summaries are float64 arrays in row-major cell
    order: each agent's mean profit and mean renewability over the cycles,
    and the percentage of cycles in which it met its economic and its
    environmental goal.
    """

    config: ScenarioConfig
    records: list[CycleRecord]
    landscape: Landscape
    mean_profit_per_agent: np.ndarray
    mean_rl_per_agent: np.ndarray
    econ_agreement_pct: np.ndarray
    env_agreement_pct: np.ndarray
    agent_rows: Optional[AgentRows] = field(default=None, repr=False)

    def whole_run_means(self) -> tuple[float, float]:
        """Whole-run (mean profit, mean RL): the cycles' landscape means, summed in order."""
        records = self.records
        profit, rl = sequential_sum([(r.mean_profit_usd_per_ha, r.mean_rl_pct) for r in records])
        return profit / len(records), rl / len(records)


@dataclass(frozen=True)
class CheckedRun:
    """A config checked by `plan`, its tables and its `CycleContext`s indexed by `Wgc`."""

    config: ScenarioConfig
    tables: ParameterTables
    contexts: tuple[CycleContext, ...]


def check_scale(run: CheckedRun) -> None:
    """Refuse margins, rent or initial aspirations too large for a run's outputs.

    Each is refused when its magnitude is not finite or exceeds
    sqrt(max float / (16 * max(agents, cycles))). A profit is a margin
    minus the rent, so it stays within twice that; a difference of two
    profits within four times, whose square summed over the agents (the
    spread in summary.json) stays finite, and so do the sums over the
    agents or the cycles.
    """
    config = run.config
    count = max(config.n_agents, config.cycles)
    limit = math.sqrt(sys.float_info.max / (16.0 * count))

    def check(values, describe) -> None:
        """Refuse the first of `values` beyond the limit, named by `describe(*index)`."""
        values = np.asarray(values)
        beyond = np.flatnonzero(~(np.abs(values) <= limit))
        if beyond.size:
            index = np.unravel_index(beyond[0], values.shape)
            raise ConfigurationError(
                f"{describe(*index)} is {values[index]:.6g} US$/ha; a run of "
                f"{config.n_agents} agents and {config.cycles} cycles needs it within "
                f"+/-{limit:.3g}")

    with np.errstate(over="ignore", invalid="ignore"):
        for ctx in run.contexts:
            check(ctx.margins, lambda tl, lu: (
                f"the margin of {LandUse(lu).code} at tech level {TechLevel(tl).code}, "
                f"weather {ctx.wgc.code} (from the prices and the yield and cost tables)"))
        check(config.rent_usd(), lambda: "the rent from " + (
            "rent_usd_per_ha" if config.rent_usd_per_ha is not None
            else "rent_soy_tons x the soybean price"))
        check(config.initial_al_factor * run.tables.wct_usd_per_ha,
              lambda tl: f"initial_al_factor x wct at tech level {TechLevel(tl).code}")


def plan(config: ScenarioConfig, tables: Optional[ParameterTables] = None) -> CheckedRun:
    """`config.validate()`, `resolve_tables(config)` unless `tables` is given, `check_scale`."""
    config.validate()
    if tables is None:
        tables = resolve_tables(config)
    run = CheckedRun(config, tables, tuple(context_for(config, tables, wgc) for wgc in Wgc))
    check_scale(run)
    return run


def run_simulation(
    run: CheckedRun | ScenarioConfig,
    tables: Optional[ParameterTables] = None,
    *,
    observers: Iterable[RunObserver] = (),
    collect_agents: bool = False,
) -> RunResult:
    """Initialize from the seed and advance the configured number of cycles.

    `run` is a `CheckedRun`, or a configuration that `plan(run, tables)`
    checks first; `tables` is read only then. The seeded stream is consumed
    by initialization first and then, for the random weather regime only,
    by one draw per cycle, so identical configurations replay identically.
    Each of `observers` is told of the run as it goes (see `RunObserver`);
    the pre-cycle copies are made only when there is one.
    `collect_agents=True` adds an `AgentRows`, returned as
    `result.agent_rows`.
    """
    run = run if isinstance(run, CheckedRun) else plan(run, tables)
    config = run.config
    rng = SplitMix64(config.seed)
    scape = initialize(config, run.tables, rng)

    observers = list(observers)
    agent_rows = AgentRows() if collect_agents else None
    if agent_rows is not None:
        observers.append(agent_rows)
    for observer in observers:
        observer.start(scape)

    records: list[CycleRecord] = []
    totals = np.zeros((4, scape.n_agents))  # per-agent sums of profit, rl, econ, env

    for t in range(config.cycles):
        ctx = run.contexts[wgc_for_cycle(config.climate, t, rng)]
        if observers:
            before = (scape.alloc.copy(), scape.tl.astype(np.int8), scape.al.copy())
        record = run_cycle(scape, ctx, cycle_index=t)
        records.append(record)
        for total, outcome in zip(totals, (scape.profit, scape.rl, scape.econ, scape.env)):
            total += outcome
        for observer in observers:
            observer.cycle(t, before, scape, record)

    cycles = float(config.cycles)
    profit, rl, econ, env = totals
    result = RunResult(
        config=config,
        records=records,
        landscape=scape,
        mean_profit_per_agent=profit / cycles,
        mean_rl_per_agent=rl / cycles,
        econ_agreement_pct=100.0 * econ / cycles,
        env_agreement_pct=100.0 * env / cycles,
        agent_rows=agent_rows,
    )
    for observer in observers:
        observer.end(result)
    return result
