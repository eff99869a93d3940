"""The agent grid: geometry, stochastic initialization, and aggregation.

Farms are equal-area cells on a non-wrapping rectangular grid; border cells
simply have fewer Moore neighbors. The agents' state is a set of numpy
arrays in row-major cell order (struct of arrays); `Landscape.cells` offers
read-only live per-cell views of them. Initialization consumes the run's
seeded stream in a fixed order (tenure shuffle, tech-level shuffle, then
one allocation draw per cell in row-major order) so a seed fully
determines the starting landscape.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import ScenarioConfig
from .errors import ConfigurationError
from .numeric import sequential_sum
from .rng import SplitMix64
from .tables import CodedEnum, LandUse, ParameterTables, TechLevel, Wgc

__all__ = [
    "Tenure",
    "CellView",
    "Landscape",
    "CycleRecord",
    "initialize",
    "aggregate",
]

# Moore scan order: NW, N, NE, W, E, SW, S, SE. Best-neighbor ties break
# toward the earliest offset, so the order is part of the model contract.
MOORE_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


class Tenure(CodedEnum):
    OWNER = 0, "O"
    TENANT = 1, "T"


TENURES, TECH_LEVELS = tuple(Tenure), tuple(TechLevel)  # index -> member


class CellView:
    """Read-only live view of one agent: every read sees the current arrays.

    Reads return Python floats and bools, Tenure and TechLevel members, and
    the allocation as a tuple; the agents' state changes only through the
    landscape's arrays.
    """

    __slots__ = ("landscape", "index")

    def __init__(self, landscape: "Landscape", index: int):
        self.landscape, self.index = landscape, index

    row = property(lambda self: self.index // self.landscape.cols)
    col = property(lambda self: self.index % self.landscape.cols)
    tenure = property(lambda self: TENURES[self.landscape.tenant.item(self.index)])
    allocation = property(lambda self: tuple(self.landscape.alloc[self.index].tolist()))
    tl = property(lambda self: TECH_LEVELS[self.landscape.tl.item(self.index)])
    al_usd_per_ha = property(lambda self: self.landscape.al.item(self.index))
    last_profit_usd_per_ha = property(lambda self: self.landscape.profit.item(self.index))
    last_rl_pct = property(lambda self: self.landscape.rl.item(self.index))
    last_cal_usd_per_ha = property(lambda self: self.landscape.cal.item(self.index))
    econ_ok = property(lambda self: self.landscape.econ.item(self.index))
    env_ok = property(lambda self: self.landscape.env.item(self.index))


class Landscape:
    """Dense row-major grid of agents.

    The agents' state is held in arrays in cell order: `alloc` (n, 3) area
    percentages, `tl` (tech level indices), `tenant` and `al` (aspiration),
    given to the constructor (each is copied and may be broadcast), and the
    latest cycle's `profit`, `rl`, `cal`, `econ` and `env`, which start at
    zero/false and which each `run_cycle` overwrites in place. `cells` is a
    list of read-only live CellViews of the arrays the landscape holds.

    `profit_grid` is the (rows, cols) interior of a grid of profits with a
    -inf border, which `run_cycle` fills from `profit`. `neighbor_profits`
    holds its eight shifted (rows, cols) views in `MOORE_OFFSETS` order:
    view k gives each agent's profit at offset k, -inf where that is off
    the grid. `neighbor_rows` holds the same views as contiguous (rows, cols + 2)
    arrays, each grid row and two border cells: numpy loops once per view, not per row.
    `neighbor_steps[k]` is offset k as a step in cell order.
    """

    def __init__(self, rows: int, cols: int, *, alloc, tl, tenant, al):
        # made first, below the agents' arrays in the heap: made last, at 250x250
        # it let malloc hand a cycle's freed arrays back and fault them in again;
        # two cells past the padded grid end the last row's SE view
        width = cols + 2
        padded = np.full((rows + 2) * width + 2, -np.inf)
        self.profit_grid = padded[:-2].reshape(rows + 2, width)[1:-1, 1:-1]
        self.profit_grid[...] = 0.0
        self.neighbor_rows = tuple(padded[(1 + dr) * width + 1 + dc:][:rows * width]
                                   .reshape(rows, width) for dr, dc in MOORE_OFFSETS)
        self.neighbor_profits = tuple(v[:, :cols] for v in self.neighbor_rows)
        self.neighbor_steps = np.array([dr * cols + dc for dr, dc in MOORE_OFFSETS])
        self.n_agents = n = rows * cols
        self.rows, self.cols = rows, cols
        self.alloc = np.array(np.broadcast_to(alloc, (n, 3)), np.float64, order="F")
        self.tl = np.array(np.broadcast_to(tl, n), np.intp)
        self.tenant = np.array(np.broadcast_to(tenant, n), bool)
        self.al = np.array(np.broadcast_to(al, n), np.float64)
        self.profit, self.rl, self.cal = np.zeros(n), np.zeros(n), np.zeros(n)
        self.econ, self.env = np.zeros(n, bool), np.zeros(n, bool)
        self._cells: Optional[list[CellView]] = None

    @property
    def cells(self) -> list[CellView]:
        """Read-only live views of the agents in cell order, made on first use."""
        if self._cells is None:
            self._cells = [CellView(self, i) for i in range(self.n_agents)]
        return self._cells


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


def _largest_remainder_counts(shares: dict, members: list, total: int) -> dict:
    """Apportion `total` items to shares summing to 100; ties favor lower ordinals."""
    exact = {m: shares[m] * total / 100.0 for m in members}
    counts = {m: int(exact[m]) for m in members}
    leftover = total - sum(counts.values())
    by_remainder = sorted(members, key=lambda m: (-(exact[m] - counts[m]), m))
    for m in by_remainder[:leftover]:
        counts[m] += 1
    return counts


def _balance_to_targets(
    cols: np.ndarray, target: list[float], tol: float = 1e-12
) -> np.ndarray:
    """Rescale n simplex rows, given as (3, n) columns, so each component's mean hits `target`.

    One rescale biases the means again once rows are renormalized, so the
    rescale/renormalize pair is iterated to its fixed point (a Sinkhorn-style
    balancing). Rows keep their relative heterogeneity; zero targets zero
    out the corresponding component. `cols` is rescaled in place; returns
    the balanced rows as its (n, 3) transpose.
    """
    n = cols.shape[1]
    for _ in range(500):
        means = [sequential_sum(col) / n for col in cols]
        if all(abs(means[k] - target[k]) <= tol for k in range(3)):
            return cols.T
        scale = [
            (target[k] / means[k]) if target[k] > 0.0 and means[k] > 0.0 else 0.0
            for k in range(3)
        ]
        cols *= np.array(scale)[:, None]
        total = cols[0] + cols[1] + cols[2]
        # a row with mass only in zeroed-out components (needs an exactly-zero
        # draw, so effectively unreachable) restarts at the target
        dead = total <= 0.0
        total[dead] = 1.0
        cols /= total
        cols[:, dead] = np.array(target)[:, None]
    means = [sequential_sum(col) / n for col in cols]
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
    working-capital threshold of the agent's tech level. `config` must
    already be validated (see `plan`); it is not checked here.
    """
    n = config.n_agents

    owner_count = int(config.owner_share_pct * n / 100.0 + 0.5)
    order = array("q", range(n))  # machine ints, not n int objects (see SplitMix64.shuffle)
    rng.shuffle(order)
    tenant = np.ones(n, dtype=bool)
    tenant[order[:owner_count]] = False
    del order  # whole-grid temporaries go once used: building the Landscape sets the peak

    tl_counts = _largest_remainder_counts(
        config.initial_tl_pct, list(TechLevel), n
    )
    tl_pool = np.repeat(list(TechLevel), [tl_counts[tl] for tl in TechLevel]).tolist()
    rng.shuffle(tl_pool)
    tl = np.array(tl_pool, dtype=np.intp)
    del tl_pool

    # symmetric simplex draws, one (u, v) pair per cell: the gaps of the
    # sorted pair, (lo, hi - lo, 1 - hi)
    u, v = rng.random_array(2 * n).reshape(n, 2).T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    draws = np.stack((lo, hi - lo, 1.0 - hi))
    del u, v, lo, hi
    target = [config.initial_cover_pct[lu] / 100.0 for lu in LandUse]
    alloc = _balance_to_targets(draws, target)
    del draws
    alloc *= 100.0

    return Landscape(
        rows=config.grid_rows,
        cols=config.grid_cols,
        alloc=alloc,
        tl=tl,
        tenant=tenant,
        al=config.initial_al_factor * tables.wct_usd_per_ha[tl],
    )


def aggregate(landscape: Landscape, cycle: int, wgc: Wgc) -> CycleRecord:
    """The cycle record of the landscape's outcome, allocation and tech level arrays.

    All farms are equal area, so cover is the plain mean of allocations and
    the profit/renewability aggregates are unweighted means. Every total is
    a left-to-right sum in cell order.
    """
    s = landscape
    n = s.n_agents
    cover_sums = sequential_sum(s.alloc)
    # a level is its index: the count above LOW is AVERAGE + HIGH, the sum AVERAGE + 2 HIGH
    above_low, level_sum = int(np.count_nonzero(s.tl)), int(s.tl.sum())
    return CycleRecord(
        cycle=cycle,
        wgc=wgc,
        cover_pct={lu: cover_sums[lu] / n for lu in LandUse},
        mean_profit_usd_per_ha=sequential_sum(s.profit) / n,
        mean_rl_pct=sequential_sum(s.rl) / n,
        pct_econ_ok=100.0 * int(np.count_nonzero(s.econ)) / n,
        pct_env_ok=100.0 * int(np.count_nonzero(s.env)) / n,
        tl_counts=dict(zip(TechLevel, (n - above_low, 2 * above_low - level_sum,
                                       level_sum - above_low))),
    )
