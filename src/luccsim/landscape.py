"""The agent grid: geometry, stochastic initialization, and aggregation.

Farms are equal-area cells on a non-wrapping rectangular grid; border cells
simply have fewer Moore neighbors. Initialization consumes the run's seeded
stream in a fixed order (tenure shuffle, tech-level shuffle, then one
allocation draw per cell in row-major order) so a seed fully determines the
starting landscape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from itertools import chain
from operator import attrgetter
from typing import NamedTuple, Optional

import numpy as np

from .config import ScenarioConfig
from .errors import ConfigurationError
from .numeric import sequential_sum
from .rng import SplitMix64
from .tables import LandUse, ParameterTables, TechLevel, Wgc

__all__ = [
    "Tenure",
    "AgentState",
    "Landscape",
    "CycleRecord",
    "CycleOutcomes",
    "moore_neighbors",
    "moore_table",
    "initialize",
    "aggregate",
]

# Moore scan order: NW, N, NE, W, E, SW, S, SE. Best-neighbor ties break
# toward the earliest offset, so the order is part of the model contract.
MOORE_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


class Tenure(IntEnum):
    OWNER = 0
    TENANT = 1

    @property
    def code(self) -> str:
        return "O" if self is Tenure.OWNER else "T"


@dataclass(slots=True)
class AgentState:
    """One farmer cell.

    `allocation` is the farm-area percentage per land use in enum order and
    always sums to 100. The `last_*` fields and goal flags hold the most
    recent cycle's realized outcomes; before the first cycle they are the
    zero/false placeholders set here.
    """

    row: int
    col: int
    tenure: Tenure
    allocation: tuple[float, float, float]
    tl: TechLevel
    al_usd_per_ha: float
    last_profit_usd_per_ha: float = 0.0
    last_rl_pct: float = 0.0
    last_cal_usd_per_ha: float = 0.0
    econ_ok: bool = False
    env_ok: bool = False


class CycleOutcomes(NamedTuple):
    """Per-agent stage 1-3 results of one cycle, as arrays in cell order."""

    profit: np.ndarray
    rl: np.ndarray
    econ: np.ndarray
    env: np.ndarray


@dataclass
class Landscape:
    """Dense row-major grid of agents plus the run's landscape constants.

    `outcomes` holds the arrays of the latest `run_cycle`, None before it.
    """

    rows: int
    cols: int
    cells: list[AgentState]
    et_pct: float
    rent_soy_tons: Optional[float]
    rent_usd_per_ha: Optional[float]
    moore_table: np.ndarray = field(init=False, repr=False)
    outcomes: Optional[CycleOutcomes] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.cells) != self.rows * self.cols:
            raise ValueError("cell count does not match grid dimensions")
        self.moore_table = moore_table(self.rows, self.cols)

    @property
    def n_agents(self) -> int:
        return self.rows * self.cols

    def cell_at(self, row: int, col: int) -> AgentState:
        return self.cells[row * self.cols + col]


@dataclass(frozen=True)
class CycleRecord:
    """Landscape aggregates realized within one cycle, before adaptation."""

    cycle: int
    wgc: Wgc
    cover_pct: dict[LandUse, float]
    mean_profit_usd_per_ha: float
    mean_rl_pct: float
    pct_econ_ok: float
    pct_env_ok: float
    tl_counts: dict[TechLevel, int]


def moore_neighbors(
    pos: tuple[int, int], dims: tuple[int, int]
) -> list[tuple[int, int]]:
    """Existing Moore neighbors of `pos`, in the fixed scan order."""
    row, col = pos
    rows, cols = dims
    if not (0 <= row < rows and 0 <= col < cols):
        raise ValueError(f"position {pos} outside grid {dims}")
    out = []
    for dr, dc in MOORE_OFFSETS:
        r, c = row + dr, col + dc
        if 0 <= r < rows and 0 <= c < cols:
            out.append((r, c))
    return out


def moore_table(rows: int, cols: int) -> np.ndarray:
    """Padded (8, n) int32 table of every cell's Moore neighbors.

    Column i lists the row-major indices of cell i's existing neighbors in
    scan order, the same as `moore_neighbors`, followed by the pad index n
    in the rows left over, so row 0 is always the first existing neighbor.
    """
    n = rows * cols
    index = np.arange(n, dtype=np.int32).reshape(rows, cols)
    table = np.full((8, rows, cols), n, dtype=np.int32)
    for k, (dr, dc) in enumerate(MOORE_OFFSETS):
        # cell (r, c) sees (r + dr, c + dc) wherever that is on the grid
        table[k, max(0, -dr):rows - max(0, dr), max(0, -dc):cols - max(0, dc)] = (
            index[max(0, dr):rows - max(0, -dr), max(0, dc):cols - max(0, -dc)]
        )
    table = table.reshape(8, n)
    order = np.argsort(table == n, axis=0, kind="stable")
    return np.take_along_axis(table, order, axis=0)


def _largest_remainder_counts(shares: dict, members: list, total: int) -> dict:
    """Apportion `total` items to shares summing to 100; ties favor lower ordinals."""
    exact = {m: shares[m] * total / 100.0 for m in members}
    counts = {m: int(exact[m]) for m in members}
    leftover = total - sum(counts.values())
    by_remainder = sorted(members, key=lambda m: (-(exact[m] - counts[m]), m))
    for m in by_remainder[:leftover]:
        counts[m] += 1
    return counts


def _simplex_draw(rng: SplitMix64) -> tuple[float, float, float]:
    """Symmetric draw from the 2-simplex via sorted-uniform gaps."""
    u = rng.random()
    v = rng.random()
    if u > v:
        u, v = v, u
    return (u, v - u, 1.0 - v)


def _balance_to_targets(
    shares: np.ndarray, target: list[float], tol: float = 1e-12
) -> np.ndarray:
    """Rescale (n, 3) simplex rows per component so the column means hit `target`.

    One rescale biases the means again once rows are renormalized, so the
    rescale/renormalize pair is iterated to its fixed point (a Sinkhorn-style
    balancing). Rows keep their relative heterogeneity; zero targets zero
    out the corresponding component. Returns the balanced rows.
    """
    n = len(shares)
    for _ in range(500):
        means = [total / n for total in sequential_sum(shares)]
        if all(abs(means[k] - target[k]) <= tol for k in range(3)):
            return shares
        scale = [
            (target[k] / means[k]) if target[k] > 0.0 and means[k] > 0.0 else 0.0
            for k in range(3)
        ]
        scaled = shares * scale
        total = scaled[:, 0] + scaled[:, 1] + scaled[:, 2]
        # a row with mass only in zeroed-out components (needs an exactly-zero
        # draw, so effectively unreachable) restarts at the target
        dead = total <= 0.0
        shares = np.where(dead[:, None], target, scaled / np.where(dead, 1.0, total)[:, None])
    means = [total / n for total in sequential_sum(shares)]
    worst = max(abs(means[k] - target[k]) for k in range(3))
    raise ConfigurationError(
        f"initial cover balancing did not converge (residual {worst:.3e})"
    )


def initialize(
    config: ScenarioConfig, tables: ParameterTables, rng: SplitMix64
) -> Landscape:
    """Build the starting landscape for a scenario.

    Tenure counts are rounded to the nearest agent and assigned to shuffled
    positions; tech levels are apportioned by largest remainder and likewise
    shuffled. Each agent draws a random allocation from the symmetric
    simplex; the draws are then rescaled per land use so the landscape mean
    matches the configured cover shares, and renormalized per agent to sum
    to 100. Initial aspiration is `initial_al_factor` times the
    working-capital threshold of the agent's tech level.
    """
    config.validate()
    n = config.n_agents

    owner_count = int(config.owner_share_pct * n / 100.0 + 0.5)
    order = list(range(n))
    rng.shuffle(order)
    tenure = [Tenure.TENANT] * n
    for i in order[:owner_count]:
        tenure[i] = Tenure.OWNER

    tl_counts = _largest_remainder_counts(
        config.initial_tl_pct, list(TechLevel), n
    )
    tl_pool: list[TechLevel] = []
    for tl in TechLevel:
        tl_pool.extend([tl] * tl_counts[tl])
    rng.shuffle(tl_pool)

    draws = allocation_matrix([_simplex_draw(rng) for _ in range(n)])
    target = [config.initial_cover_pct[lu] / 100.0 for lu in LandUse]
    allocations = (100.0 * _balance_to_targets(draws, target)).tolist()

    cells = []
    for i in range(n):
        allocation = tuple(allocations[i])
        tl = tl_pool[i]
        cells.append(
            AgentState(
                row=i // config.grid_cols,
                col=i % config.grid_cols,
                tenure=tenure[i],
                allocation=allocation,
                tl=tl,
                al_usd_per_ha=config.initial_al_factor
                * tables.wct_usd_per_ha[tl],
            )
        )

    return Landscape(
        rows=config.grid_rows,
        cols=config.grid_cols,
        cells=cells,
        et_pct=config.et_pct,
        rent_soy_tons=config.rent_soy_tons,
        rent_usd_per_ha=config.rent_usd_per_ha,
    )


def gather(cells: list[AgentState], name: str, dtype) -> np.ndarray:
    """One AgentState field of every cell, as an array in cell order."""
    return np.fromiter(map(attrgetter(name), cells), dtype, len(cells))


def allocation_matrix(allocations: list[tuple[float, float, float]]) -> np.ndarray:
    """The (n, 3) array of a list of allocation tuples."""
    flat = np.fromiter(chain.from_iterable(allocations), np.float64, 3 * len(allocations))
    return flat.reshape(-1, 3)


def record_from_arrays(
    cycle: int, wgc: Wgc, alloc: np.ndarray, tl: np.ndarray, outcomes: CycleOutcomes
) -> CycleRecord:
    """Landscape means and shares of one cycle's per-agent arrays.

    All farms are equal area, so cover is the plain mean of allocations and
    the profit/renewability aggregates are unweighted means. Every total is
    a left-to-right sum in cell order.
    """
    n = len(tl)
    cover_sums = sequential_sum(alloc)
    return CycleRecord(
        cycle=cycle,
        wgc=wgc,
        cover_pct={lu: cover_sums[lu] / n for lu in LandUse},
        mean_profit_usd_per_ha=sequential_sum(outcomes.profit) / n,
        mean_rl_pct=sequential_sum(outcomes.rl) / n,
        pct_econ_ok=100.0 * int(np.count_nonzero(outcomes.econ)) / n,
        pct_env_ok=100.0 * int(np.count_nonzero(outcomes.env)) / n,
        tl_counts=dict(zip(TechLevel, np.bincount(tl, minlength=len(TechLevel)).tolist())),
    )


def aggregate(landscape: Landscape, cycle: int, wgc: Wgc) -> CycleRecord:
    """The cycle record of the agents' current-cycle results, read from the cells."""
    cells = landscape.cells
    outcomes = CycleOutcomes(
        profit=gather(cells, "last_profit_usd_per_ha", np.float64),
        rl=gather(cells, "last_rl_pct", np.float64),
        econ=gather(cells, "econ_ok", bool),
        env=gather(cells, "env_ok", bool),
    )
    alloc = allocation_matrix([c.allocation for c in cells])
    return record_from_arrays(cycle, wgc, alloc, gather(cells, "tl", np.intp), outcomes)
