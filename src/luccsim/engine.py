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
applies it to every agent, or to a single agent, and `out=` names the
array to write into. `run_cycle` is their composition over the landscape's
arrays, all written in place: stages 1-3 overwrite the outcome arrays, and
stage 4 adapts the others, taking its best neighbors from shifted views of
the landscape's profits on a -inf border.

No array form masks a pass with `where=`: a two-way choice is arithmetic on a
0/1 compare (the rent, the aspiration's weight, the tech level), and imitators
are addressed by index, in contiguous columns of `alloc`.
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

# The weight on p - cal is 1 - the weight on CAL (0.55 if the aspiration was missed, 0.45
# if met), as missed + met * step: the step is exact (Sterbenz), so missed + step is met.
_MISSED_WEIGHT, _MET_WEIGHT = 1.0 - 0.55, 1.0 - 0.45
_MET_STEP = _MET_WEIGHT - _MISSED_WEIGHT


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


def _weighted(alloc, tl, by_level, out=None):
    """(a0/100)*v0 + (a1/100)*v1 + (a2/100)*v2, with vk = by_level[tl, k], into `out`.

    Each term reads a column of `alloc` and gathers a column of `by_level`
    by tech level, so no (n, 3) temporary is built.
    """
    a = np.asarray(alloc, dtype=np.float64)
    out = np.divide(a[..., 0], 100.0, out=out)
    out *= by_level[:, 0].take(tl)
    for k in (1, 2):
        term = a[..., k] / 100.0
        term *= by_level[:, k].take(tl)
        out += term
    return out


def compute_profit(alloc, tl, tenant, ctx: CycleContext, *, out=None):
    """Allocation-weighted per-hectare margin, minus rent for tenants."""
    p = _weighted(alloc, tl, ctx.margins, out)
    p -= np.multiply(tenant, ctx.rent_usd_per_ha)  # an owner's p - 0.0 is p, -0.0 too
    return p


def compute_rl(alloc, tl, ctx: CycleContext, *, out=None):
    """Allocation-weighted renewability share, in percent."""
    return _weighted(alloc, tl, ctx.renewabilities, out)


def climate_adjusted_aspiration(al, wgc: Wgc, tables: ParameterTables, *, out=None):
    """Aspiration scaled by the weather adjustment factor (the CAL)."""
    return np.multiply(al, 1.0 + tables.alpha_wgc[wgc], out=out)


def evaluate_goals(p, cal, rl, et, *, out=(None, None)):
    """Economic and environmental goal flags; equality counts as fulfilled."""
    econ, env = out
    return np.greater_equal(p, cal, out=econ), np.greater_equal(rl, et, out=env)


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
    flags = np.equal(neighbor_profits[-1], best).view(np.uint8)  # bit k: position k earns the best
    earns = np.empty(best.shape, bool)
    earns_bit = earns.view(np.uint8)
    for p in neighbor_profits[-2::-1]:
        flags += flags  # a shift left by one; numpy vectorizes a uint8 add, not a shift
        np.equal(p, best, out=earns)
        flags |= earns_bit
    best += 0.0  # fmax may return either zero for a tie of -0.0 and 0.0
    return _LOWEST_SET_BIT.take(flags), best


def decide_land_use(p, cal, bn_profit):
    """Whether to copy the best neighbor's allocation: unsatisfied and out-earned.

    The environmental goal never alters the land-use decision.
    """
    return (p < cal) & (bn_profit > cal)


def update_aspiration(cal, p, bn_cal, bn_profit, tl, bn_tl, tables: ParameterTables, *, out=None):
    """Next-cycle aspiration level.

    Met aspirations move toward the realized profit quickly (55% weight on
    profit); missed ones either adopt the best neighbor's CAL scaled by the
    tech-level adjustment factor, when that neighbor out-earned the agent's
    own CAL, or decay slowly toward the realized profit (45% weight).
    `bn_cal`, `bn_profit` and `bn_tl` are the best neighbor's CAL, profit
    and tech level; with no neighbor, pass a -inf profit. `bn_cal` and
    `bn_tl` are read only for the agents that imitate (`decide_land_use`),
    so each may be given per agent or, as `run_cycle` gives them, for just
    those agents in order. Returns an array, written into `out` if given.

    The weighted averages are evaluated as cal + w*(p - cal), which equals
    (1-w)*cal + w*p but cannot round past p. The direct form can overshoot
    by an ulp once the aspiration has converged onto the profit, flipping
    satisfied agents to unsatisfied and destabilizing an otherwise
    quiescent landscape.
    """
    imitate = decide_land_use(p, cal, bn_profit)
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(imitate), np.shape(tl)))
    elif not out.flags.c_contiguous:
        raise ValueError("update_aspiration needs a C-contiguous out")
    np.greater_equal(p, cal, out=out)  # met as 1.0, missed as 0.0
    out *= _MET_STEP
    out += _MISSED_WEIGHT  # the weight on p - cal
    out *= np.subtract(p, cal)
    out += cal
    if np.shape(imitate) != out.shape:  # a tl (or out) of more agents than p, cal and bn_profit
        imitate = np.broadcast_to(imitate, out.shape)
    imitators = np.flatnonzero(imitate)
    del imitate
    if np.shape(bn_cal) == out.shape:
        bn_cal = np.take(bn_cal, imitators)
    if np.shape(bn_tl) == out.shape:
        bn_tl = np.take(bn_tl, imitators)
    pair = np.take(tl if np.shape(tl) == out.shape else np.broadcast_to(tl, out.shape), imitators)
    pair *= len(TechLevel)  # [tl, bn_tl] as a flat index
    pair += bn_tl
    copied = (1.0 + tables.alpha_bn).take(pair)
    copied *= bn_cal
    out.reshape(-1)[imitators] = copied
    np.fmax(out, 0.0, out=out)  # a NaN or a negative is 0.0
    out += 0.0  # and so is a -0.0
    return out


def update_technology(p, tables: ParameterTables, *, out=None):
    """Tech level index affordable from this cycle's profit; never forces an exit."""
    wct = tables.wct_usd_per_ha
    if out is None:
        out = np.empty(np.shape(p), np.intp)
    # wct rises strictly with the level, so the level is the count of thresholds met above LOW's
    average, high = (np.greater_equal(p, wct[tl]) for tl in (TechLevel.AVERAGE, TechLevel.HIGH))
    return np.add(average, high, out=out, dtype=np.uint8)


def context_for(
    config: ScenarioConfig, tables: ParameterTables, wgc: Wgc
) -> CycleContext:
    """Build one cycle's context from a validated scenario configuration.

    Combined pricing prices the double crop's total yield at its single
    listed price; split pricing prices the tables' wheat component yield at
    that price and the second-crop soybean yield at the soybean price. A
    margin may overflow here; `check_scale` refuses it.
    """
    split = config.split_yield_files
    wheat, soy2 = tables.wheat_yield_t_per_ha, tables.soy2_yield_t_per_ha
    if split is not None and (wheat is None or soy2 is None):
        raise ConfigurationError("split pricing needs component yield tables (see resolve_tables)")
    prices = np.array([config.prices[lu] for lu in LandUse])
    with np.errstate(over="ignore", invalid="ignore"):
        income = tables.yield_t_per_ha[:, :, wgc].T * prices
        if split is not None:
            income[:, LandUse.WHEAT_SOY] = (wheat[:, wgc] * prices[LandUse.WHEAT_SOY]
                                            + soy2[:, wgc] * prices[LandUse.SOYBEAN])
        margins = income - tables.cost_usd_per_ha[:, :, wgc].T
    margins.setflags(write=False)
    renewabilities = tables.renewability_pct[:, :, wgc].T  # a view of a read-only table
    return CycleContext(wgc, tables, margins, renewabilities, config.rent_usd(), config.et_pct)


def run_cycle(
    landscape: Landscape, ctx: CycleContext, *, cycle_index: int = 0
) -> CycleRecord:
    """Advance the landscape by one cycle.

    Stages 1-3 overwrite the landscape's outcome arrays (profit, rl, cal,
    econ, env) in place with this cycle's outcomes. Returns the record of
    outcomes aggregated at the stage-3 barrier, before stage 4 adapts the
    alloc, tl and al arrays in place.
    """
    s = landscape
    tables = ctx.tables
    profit = compute_profit(s.alloc, s.tl, s.tenant, ctx, out=s.profit)
    compute_rl(s.alloc, s.tl, ctx, out=s.rl)
    cal = climate_adjusted_aspiration(s.al, ctx.wgc, tables, out=s.cal)
    evaluate_goals(profit, cal, s.rl, ctx.et_pct, out=(s.econ, s.env))
    record = aggregate(s, cycle_index, ctx.wgc)

    s.profit_grid[...] = profit.reshape(s.rows, s.cols)
    # each agent's, in cell order: a padded row's last two results are its border's
    position, best_p = (a[:, :s.cols].reshape(-1) for a in select_best_neighbor(s.neighbor_rows))
    imitators = np.flatnonzero(decide_land_use(profit, cal, best_p))
    # each imitator's best neighbor, as an index: an imitator's is on the grid
    models = s.neighbor_steps.take(position.take(imitators))
    models += imitators
    del position
    for column in s.alloc.T:  # models' pre-cycle rows, a column at a time
        column[imitators] = column.take(models)
    bn_cal, bn_tl = cal.take(models), s.tl.take(models).astype(np.int8)
    del imitators, models  # update_aspiration sets the peak: hold what it reads, bn_tl as bytes
    update_aspiration(cal, profit, bn_cal, best_p, s.tl, bn_tl, tables, out=s.al)
    update_technology(profit, tables, out=s.tl)
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
    and `record` is the cycle's record. The next cycle overwrites all of
    these arrays in place; keep copies. `end` comes once, with the finished
    result.
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
            "rent_usd_per_ha" if config.rent[0] == "usd_per_ha"
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
    n = scape.n_agents
    # per-agent sums of profit and rl, and counts of met goals
    profit, rl = np.zeros(n), np.zeros(n)
    econ, env = np.zeros((2, n), np.min_scalar_type(config.cycles))

    for t in range(config.cycles):
        ctx = run.contexts[wgc_for_cycle(config.climate, t, rng)]
        if observers:
            before = (scape.alloc.copy(), scape.tl.astype(np.int8), scape.al.copy())
        record = run_cycle(scape, ctx, cycle_index=t)
        records.append(record)
        profit += scape.profit
        rl += scape.rl
        econ += scape.econ
        env += scape.env
        for observer in observers:
            observer.cycle(t, before, scape, record)

    cycles = float(config.cycles)
    profit /= cycles
    rl /= cycles

    def agreement_pct(count):
        pct = count.astype(np.float64)  # a small count times a float is float16 on numpy 1.x
        pct *= 100.0
        pct /= cycles
        return pct

    result = RunResult(
        config=config,
        records=records,
        landscape=scape,
        mean_profit_per_agent=profit,
        mean_rl_per_agent=rl,
        econ_agreement_pct=agreement_pct(econ),
        env_agreement_pct=agreement_pct(env),
        agent_rows=agent_rows,
    )
    for observer in observers:
        observer.end(result)
    return result
