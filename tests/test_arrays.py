"""The landscape's arrays are the agents' state; cells and agent rows only read them."""

from dataclasses import replace

import numpy as np
import pytest

from luccsim import (
    ClimateRegime,
    SplitMix64,
    TechLevel,
    Tenure,
    Wgc,
    context_for,
    initialize,
    preset,
    run_cycle,
    run_simulation,
)
from luccsim.climate import wgc_for_cycle

STATE = ("alloc", "tl", "tenant", "al", "profit", "rl", "cal", "econ", "env")
# CellView attribute -> the array it reads, for the float and bool fields
VIEWS = {
    "al_usd_per_ha": "al", "last_profit_usd_per_ha": "profit", "last_rl_pct": "rl",
    "last_cal_usd_per_ha": "cal", "econ_ok": "econ", "env_ok": "env",
}


def _config(**changes):
    return replace(
        preset("longterm", seed=5), grid_rows=4, grid_cols=6, cycles=4,
        owner_share_pct=50.0, climate=ClimateRegime.seesaw(), **changes,
    )


def test_a_view_taken_before_a_cycle_reads_its_results_and_cannot_be_written(tables):
    config = _config()
    scape = initialize(config, tables, SplitMix64(config.seed))
    cells = scape.cells
    before = [(c.allocation, c.al_usd_per_ha, c.last_profit_usd_per_ha) for c in cells]
    run_cycle(scape, context_for(config, tables, Wgc.UNFAVORABLE))
    assert scape.cells is cells
    for i, cell in enumerate(cells):
        assert (cell.row, cell.col) == divmod(i, config.grid_cols)
        assert cell.tenure is Tenure(scape.tenant[i]) and cell.tl is TechLevel(scape.tl[i])
        assert cell.allocation == tuple(scape.alloc[i].tolist())
        for attr, name in VIEWS.items():
            value = getattr(cell, attr)
            assert type(value) is type(getattr(scape, name)[i].item())
            assert value == getattr(scape, name)[i], attr
    assert any(alloc != c.allocation for (alloc, _, _), c in zip(before, cells))
    assert [al for _, al, _ in before] != scape.al.tolist()
    assert all(profit == 0.0 for _, _, profit in before) and scape.profit.all()

    state = {name: getattr(scape, name).copy() for name in STATE}
    for attr in ("row", "col", "tenure", "allocation", "tl", *VIEWS):
        with pytest.raises(AttributeError):
            setattr(cells[7], attr, getattr(cells[7], attr))
    for name in STATE:
        assert np.array_equal(getattr(scape, name), state[name]), name


def test_agent_rows_replay_the_cells_cycle_by_cycle(tables):
    config = _config()
    result = run_simulation(config, tables, collect_agents=True)

    rng = SplitMix64(config.seed)
    scape = initialize(config, tables, rng)
    expected = []
    for t in range(config.cycles):
        ctx = context_for(config, tables, wgc_for_cycle(config.climate, t, rng))
        before = [(c.allocation, c.tl, c.al_usd_per_ha) for c in scape.cells]
        run_cycle(scape, ctx, cycle_index=t)
        expected += [
            (t, c.row, c.col, c.tenure, alloc, tl, al, c.last_cal_usd_per_ha,
             c.last_profit_usd_per_ha, c.last_rl_pct, c.econ_ok, c.env_ok)
            for c, (alloc, tl, al) in zip(scape.cells, before)
        ]

    first, second = list(result.agent_rows), list(result.agent_rows)
    assert len(result.agent_rows) == len(first) == config.cycles * config.n_agents
    assert first == second == expected
    assert len({row[4] for row in first}) > 1
    for row in first:
        assert type(row[3]) is Tenure and type(row[5]) is TechLevel
        assert type(row[4]) is tuple and all(type(v) is float for v in row[4])
        assert all(type(v) is float for v in row[6:10])
        assert type(row[10]) is bool and type(row[11]) is bool
