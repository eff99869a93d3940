"""The agent grid: geometry, stochastic initialization, and aggregation.

Farms are equal-area cells on a non-wrapping rectangular grid; border cells
simply have fewer Moore neighbors. The agents' state is a set of numpy
arrays in row-major cell order (struct of arrays); `Landscape.cells` offers
live per-cell views of them. Initialization consumes the run's seeded
stream in a fixed order (tenure shuffle, tech-level shuffle, then one
allocation draw per cell in row-major order) so a seed fully determines the
starting landscape.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from .config import ScenarioConfig
from .errors import ConfigurationError
from .numeric import sequential_sum
from .rng import SplitMix64
from .tables import LandUse, ParameterTables, TechLevel, Wgc

__all__ = [
    "Tenure",
    "AgentState",
    "CellView",
    "Landscape",
    "CycleRecord",
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


TENURES, TECH_LEVELS = tuple(Tenure), tuple(TechLevel)  # index -> member


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


class _Field(property):
    """A CellView attribute backed by element `index` of one landscape array."""

    def __init__(self, array: str, dtype, to_python=None):
        get = attrgetter(array)
        if array == "alloc":  # a row of three floats
            fget = lambda v: tuple(get(v.landscape)[v.index].tolist())  # noqa: E731
        elif to_python is None:
            fget = lambda v: get(v.landscape).item(v.index)  # noqa: E731
        else:
            fget = lambda v: to_python(get(v.landscape).item(v.index))  # noqa: E731
        super().__init__(fget, lambda v, value: get(v.landscape).__setitem__(v.index, value))
        self.array, self.dtype = array, dtype


class CellView:
    """Live view of one agent: reads and writes go to the landscape's arrays.

    It has AgentState's fields and returns Python floats and bools, Tenure
    and TechLevel members, and the allocation as a tuple.
    """

    __slots__ = ("landscape", "index")

    def __init__(self, landscape: "Landscape", index: int):
        self.landscape, self.index = landscape, index

    row = property(lambda self: self.index // self.landscape.cols)
    col = property(lambda self: self.index % self.landscape.cols)
    tenure = _Field("tenant", bool, TENURES.__getitem__)
    allocation = _Field("alloc", np.float64)
    tl = _Field("tl", np.intp, TECH_LEVELS.__getitem__)
    al_usd_per_ha = _Field("al", np.float64)
    last_profit_usd_per_ha = _Field("profit", np.float64)
    last_rl_pct = _Field("rl", np.float64)
    last_cal_usd_per_ha = _Field("cal", np.float64)
    econ_ok = _Field("econ", bool)
    env_ok = _Field("env", bool)


_FIELDS = {name: f for name, f in vars(CellView).items() if isinstance(f, _Field)}


class Landscape:
    """Dense row-major grid of agents.

    The agents' state is held in arrays in cell order: `alloc` (n, 3) area
    percentages, `tl` (tech level indices), `tenant` and `al` (aspiration),
    and the latest cycle's `profit`, `rl`, `cal`, `econ` and `env`. Build a
    landscape either from `cells`, a list of objects with AgentState's
    fields whose list index is their position, or from the `alloc`, `tl`,
    `tenant` and `al` arrays, with the outcomes zero/false. `cells` is a
    list of live CellViews of the arrays.
    """

    def __init__(self, rows: int, cols: int, cells: Optional[Sequence] = None, *,
                 alloc=None, tl=None, tenant=None, al=None):
        self.n_agents = n = rows * cols
        self.rows, self.cols = rows, cols
        if cells is not None:
            if len(cells) != n:
                raise ValueError("cell count does not match grid dimensions")
            state = {f.array: [getattr(c, name) for c in cells] for name, f in _FIELDS.items()}
        elif any(a is None for a in (alloc, tl, tenant, al)):
            raise TypeError("Landscape needs cells or the alloc, tl, tenant and al arrays")
        else:
            state = dict(alloc=alloc, tl=tl, tenant=tenant, al=al)
        for f in _FIELDS.values():  # the outcomes start at zero/false
            shape = (n, 3) if f.array == "alloc" else (n,)
            setattr(self, f.array, np.array(np.broadcast_to(state.get(f.array, 0), shape), f.dtype))
        self.moore_table = moore_table(rows, cols)
        self._cells: Optional[list[CellView]] = None

    @property
    def cells(self) -> list[CellView]:
        """Live views of the agents in cell order, made on first use."""
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
    tenant = np.ones(n, dtype=bool)
    tenant[order[:owner_count]] = False

    tl_counts = _largest_remainder_counts(
        config.initial_tl_pct, list(TechLevel), n
    )
    tl_pool = [int(tl) for tl in TechLevel for _ in range(tl_counts[tl])]
    rng.shuffle(tl_pool)
    tl = np.array(tl_pool, dtype=np.intp)

    # symmetric simplex draws, one (u, v) pair per cell: the gaps of the
    # sorted pair, (lo, hi - lo, 1 - hi)
    u, v = rng.random_array(2 * n).reshape(n, 2).T
    swap = u > v
    lo, hi = np.where(swap, v, u), np.where(swap, u, v)
    draws = np.stack((lo, hi - lo, 1.0 - hi), axis=1)
    target = [config.initial_cover_pct[lu] / 100.0 for lu in LandUse]

    return Landscape(
        rows=config.grid_rows,
        cols=config.grid_cols,
        alloc=100.0 * _balance_to_targets(draws, target),
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
    return CycleRecord(
        cycle=cycle,
        wgc=wgc,
        cover_pct={lu: cover_sums[lu] / n for lu in LandUse},
        mean_profit_usd_per_ha=sequential_sum(s.profit) / n,
        mean_rl_pct=sequential_sum(s.rl) / n,
        pct_econ_ok=100.0 * int(np.count_nonzero(s.econ)) / n,
        pct_env_ok=100.0 * int(np.count_nonzero(s.env)) / n,
        tl_counts=dict(zip(TechLevel, np.bincount(s.tl, minlength=len(TechLevel)).tolist())),
    )
