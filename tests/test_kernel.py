"""The array pass of run_cycle against the scalar rule functions."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from luccsim import (
    Landscape,
    NeighborView,
    SplitMix64,
    TechLevel,
    Tenure,
    Wgc,
    climate_adjusted_aspiration,
    compute_profit,
    compute_rl,
    context_for,
    decide_land_use,
    evaluate_goals,
    initialize,
    moore_neighbors,
    preset,
    run_cycle,
    select_best_neighbor,
    update_aspiration,
    update_technology,
)
from luccsim.landscape import AgentState, moore_table
from luccsim.numeric import sequential_sum


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9))
def test_moore_table_lists_neighbors_in_scan_order_then_pads(rows, cols):
    n = rows * cols
    table = moore_table(rows, cols)
    assert table.shape == (8, n) and table.dtype == np.int32
    for i in range(n):
        expected = [r * cols + c for r, c in moore_neighbors((i // cols, i % cols), (rows, cols))]
        assert table[:, i].tolist() == expected + [n] * (8 - len(expected))


def _tie_landscape(rows, cols, target):
    """Every agent but `target` farms full soybean at high tech and is satisfied.

    All of them earn the same profit; each holds its own aspiration, 1 + its
    index, so the aspiration the target adopts names the neighbor copied.
    """
    cells = []
    for i in range(rows * cols):
        if i == target:
            alloc, tl, al = (100.0, 0.0, 0.0), TechLevel.LOW, 400.0
        else:
            alloc, tl, al = (0.0, 100.0, 0.0), TechLevel.HIGH, 1.0 + i
        cells.append(AgentState(row=i // cols, col=i % cols, tenure=Tenure.OWNER,
                                allocation=alloc, tl=tl, al_usd_per_ha=al))
    return Landscape(rows=rows, cols=cols, cells=cells, et_pct=50.0,
                     rent_soy_tons=None, rent_usd_per_ha=0.0)


@pytest.mark.parametrize(
    "rows, cols, target, first",
    [
        (3, 3, 4, 0),  # interior: NW
        (3, 3, 1, 0),  # top edge: W comes before E and the row below
        (3, 3, 3, 0),  # left edge: N comes before NE
        (3, 3, 0, 1),  # corner: E
        (1, 4, 2, 1),  # one row: W before E
        (4, 1, 2, 1),  # one column: N before S
    ],
)
def test_profit_tie_goes_to_first_neighbor_in_scan_order(tables, rows, cols, target, first):
    scape = _tie_landscape(rows, cols, target)
    pre = [c.allocation for c in scape.cells]
    config = replace(preset("longterm"), rent_soy_tons=None, rent_usd_per_ha=0.0)
    run_cycle(scape, context_for(config, tables, Wgc.AVERAGE))
    agent = scape.cells[target]
    assert not agent.econ_ok
    others = [c for i, c in enumerate(scape.cells) if i != target]
    assert len({c.last_profit_usd_per_ha for c in others}) == 1
    assert all(c.econ_ok for c in others)
    # at average weather CAL equals AL, so the copied CAL is 1 + first
    assert agent.al_usd_per_ha == (1.0 + first) * (
        1.0 + tables.alpha_bn[(TechLevel.LOW, TechLevel.HIGH)]
    )
    assert agent.allocation == pre[first]


@pytest.mark.parametrize("wgc", list(Wgc))
def test_cycles_on_a_5x7_grid_are_the_composition_of_the_public_ops(tables, wgc):
    rows, cols = 5, 7
    config = replace(
        preset("longterm", seed=23), grid_rows=rows, grid_cols=cols,
        owner_share_pct=40.0, initial_al_factor=1.1,
    )
    scape = initialize(config, tables, SplitMix64(config.seed))
    ctx = context_for(config, tables, wgc)
    imitations = 0
    for cycle in range(6):
        ghosts = [
            AgentState(row=c.row, col=c.col, tenure=c.tenure, allocation=c.allocation,
                       tl=c.tl, al_usd_per_ha=c.al_usd_per_ha)
            for c in scape.cells
        ]
        _, record = run_cycle(scape, ctx, cycle_index=cycle)
        profits = [compute_profit(g, ctx) for g in ghosts]
        rls = [compute_rl(g, ctx) for g in ghosts]
        cals = [climate_adjusted_aspiration(g.al_usd_per_ha, wgc, tables) for g in ghosts]
        assert record.mean_profit_usd_per_ha == sequential_sum(profits) / len(ghosts)
        for i, cell in enumerate(scape.cells):
            assert type(cell.last_profit_usd_per_ha) is float and type(cell.econ_ok) is bool
            assert cell.last_profit_usd_per_ha == profits[i]
            assert cell.last_rl_pct == rls[i]
            assert cell.last_cal_usd_per_ha == cals[i]
            econ, env = evaluate_goals(profits[i], cals[i], rls[i], ctx.et_pct)
            assert (cell.econ_ok, cell.env_ok) == (econ, env)
            views = [
                NeighborView(profit=profits[j], cal=cals[j],
                             allocation=ghosts[j].allocation, tl=ghosts[j].tl)
                for j in (r * cols + c for r, c in moore_neighbors(divmod(i, cols), (rows, cols)))
            ]
            bn = select_best_neighbor(views)
            expected = decide_land_use(profits[i], cals[i], bn, ghosts[i].allocation)
            assert cell.allocation == expected
            imitations += expected is not ghosts[i].allocation
            bn_args = None if bn is None else (bn.cal, bn.profit, bn.tl)
            assert cell.al_usd_per_ha == update_aspiration(
                cals[i], profits[i], bn_args, ghosts[i].tl, tables
            )
            assert cell.tl is update_technology(profits[i], tables)
    assert imitations > 0


def test_sequential_sum_is_the_running_sum_from_zero():
    values = [1e16, 1.0, -1e16, 3.5, -0.0]
    running = 0.0
    for v in values:
        running += v
    assert sequential_sum(values) == running == 3.5  # fsum would give 4.5
    assert sequential_sum([[1e16, 1.0], [1.0, 2.0], [-1e16, 3.0]]) == [0.0, 6.0]
    assert sequential_sum([]) == 0.0
