"""The landscape's arrays are the agents' state; cells and agent rows read them."""

from dataclasses import replace

import numpy as np

from luccsim import (
    ClimateRegime,
    Landscape,
    SplitMix64,
    TechLevel,
    Tenure,
    Wgc,
    compute_profit,
    context_for,
    initialize,
    preset,
    run_cycle,
    run_simulation,
    wgc_for_cycle,
)

STATE = ("alloc", "tl", "tenant", "al", "profit", "rl", "cal", "econ", "env")


def _config(**changes):
    return replace(
        preset("longterm", seed=5), grid_rows=4, grid_cols=6, cycles=4,
        owner_share_pct=50.0, climate=ClimateRegime.seesaw(), **changes,
    )


def test_a_write_through_a_cell_is_seen_by_run_cycle(tables):
    config = _config()
    scape = initialize(config, tables, SplitMix64(config.seed))
    cell = scape.cells[7]
    cell.allocation = (20.0, 30.0, 50.0)
    cell.tl = TechLevel.HIGH
    cell.tenure = Tenure.TENANT
    cell.al_usd_per_ha = 1e6
    assert scape.alloc[7].tolist() == [20.0, 30.0, 50.0]
    assert (scape.tl[7], scape.tenant[7], scape.al[7]) == (TechLevel.HIGH, True, 1e6)

    ctx = context_for(config, tables, Wgc.FAVORABLE)
    run_cycle(scape, ctx)
    assert cell.last_profit_usd_per_ha == compute_profit((20.0, 30.0, 50.0), TechLevel.HIGH, True, ctx)
    assert cell.last_cal_usd_per_ha == 1e6 * (1.0 + tables.alpha_wgc[Wgc.FAVORABLE])
    assert not cell.econ_ok
    assert (cell.row, cell.col) == (1, 1) and cell.tenure is Tenure.TENANT


def test_a_landscape_built_from_cells_has_the_same_arrays_and_records(tables):
    config = _config()
    rng = SplitMix64(config.seed)
    a = initialize(config, tables, rng)
    for t in range(2):
        run_cycle(a, context_for(config, tables, wgc_for_cycle(config.climate, t, rng)))
    b = Landscape(rows=a.rows, cols=a.cols, cells=a.cells, et_pct=a.et_pct,
                  rent_soy_tons=a.rent_soy_tons, rent_usd_per_ha=a.rent_usd_per_ha)
    for name in STATE:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
        assert not np.shares_memory(x, y), name
    for t in range(2, config.cycles):
        ctx = context_for(config, tables, wgc_for_cycle(config.climate, t, rng))
        assert run_cycle(a, ctx, cycle_index=t)[1] == run_cycle(b, ctx, cycle_index=t)[1]
    for name in STATE:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


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
