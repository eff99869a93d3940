"""Cross-check the engine against the straight-line reference implementation.

The reference (oracle_sim) carries its own literal tables, primitive agent
dicts, and explicit loops over the published equations; agreement on every
agent field across a multi-cycle mixed-tenure run pins the engine's staged
pipeline to the equations themselves.
"""

from dataclasses import replace

import pytest

from luccsim import (
    ClimateRegime,
    SplitMix64,
    Tenure,
    context_for,
    initialize,
    preset,
    run_cycle,
)
from luccsim.climate import wgc_for_cycle

import oracle_sim


def _close(a, b):
    return a == pytest.approx(b, rel=1e-9, abs=1e-9)


def _mirror_state(scape):
    return [
        {
            "row": cell.row,
            "col": cell.col,
            "tenant": cell.tenure is Tenure.TENANT,
            "alloc": list(cell.allocation),
            "tl": int(cell.tl),
            "al": cell.al_usd_per_ha,
        }
        for cell in scape.cells
    ]


def test_engine_matches_straight_line_reference(tables):
    config = replace(
        preset("longterm", seed=20240311),
        grid_rows=3,
        grid_cols=3,
        cycles=5,
        owner_share_pct=50.0,
        climate=ClimateRegime.seesaw(),
    )
    rng = SplitMix64(config.seed)
    scape = initialize(config, tables, rng)
    mirror = _mirror_state(scape)
    rent = config.rent_usd()

    for t in range(config.cycles):
        wgc = wgc_for_cycle(config.climate, t, rng)
        ctx = context_for(config, tables, wgc)
        run_cycle(scape, ctx, cycle_index=t)
        outcomes = oracle_sim.advance_cycle(
            mirror, 3, 3, int(wgc), rent, config.et_pct
        )

        for cell, ref_state, ref_out in zip(scape.cells, mirror, outcomes):
            where = f"cycle {t} agent ({cell.row},{cell.col})"
            assert _close(cell.last_profit_usd_per_ha, ref_out["profit"]), where
            assert _close(cell.last_rl_pct, ref_out["rl"]), where
            assert _close(cell.last_cal_usd_per_ha, ref_out["cal"]), where
            assert cell.econ_ok == ref_out["econ"], where
            assert cell.env_ok == ref_out["env"], where
            # adapted state for the next cycle
            assert _close(cell.al_usd_per_ha, ref_state["al"]), where
            assert int(cell.tl) == ref_state["tl"], where
            for lu in range(3):
                assert _close(cell.allocation[lu], ref_state["alloc"][lu]), where


def test_reference_agreement_with_tenant_only_grid(tables):
    config = replace(
        preset("longterm", seed=7),
        grid_rows=3,
        grid_cols=3,
        cycles=5,
        owner_share_pct=0.0,
        climate=ClimateRegime.explicit(
            [wgc for wgc in _explicit_mixed_sequence()]
        ),
    )
    rng = SplitMix64(config.seed)
    scape = initialize(config, tables, rng)
    mirror = _mirror_state(scape)
    rent = config.rent_usd()

    for t in range(config.cycles):
        wgc = wgc_for_cycle(config.climate, t, rng)
        ctx = context_for(config, tables, wgc)
        run_cycle(scape, ctx, cycle_index=t)
        oracle_sim.advance_cycle(mirror, 3, 3, int(wgc), rent, config.et_pct)
        for cell, ref_state in zip(scape.cells, mirror):
            assert _close(cell.al_usd_per_ha, ref_state["al"])
            assert int(cell.tl) == ref_state["tl"]
            for lu in range(3):
                assert _close(cell.allocation[lu], ref_state["alloc"][lu])


def _explicit_mixed_sequence():
    from luccsim import Wgc

    return [
        Wgc.UNFAVORABLE,
        Wgc.VERY_FAVORABLE,
        Wgc.AVERAGE,
        Wgc.VERY_UNFAVORABLE,
        Wgc.FAVORABLE,
    ]
