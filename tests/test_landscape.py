from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from luccsim import (
    LandUse,
    Landscape,
    SplitMix64,
    TechLevel,
    Tenure,
    Wgc,
    initialize,
    preset,
)
from luccsim import landscape
from luccsim.landscape import aggregate
from luccsim.numeric import sequential_sum

from conftest import scalar_shuffle, uniform_config
from oracle_sim import moore_neighbors


def test_interior_cell_has_eight_neighbors_in_scan_order():
    got = moore_neighbors((10, 10), (25, 25))
    assert got == [
        (9, 9), (9, 10), (9, 11),
        (10, 9), (10, 11),
        (11, 9), (11, 10), (11, 11),
    ]


def test_corner_has_three_neighbors():
    assert moore_neighbors((0, 0), (25, 25)) == [(0, 1), (1, 0), (1, 1)]


def test_edge_has_five_neighbors():
    assert moore_neighbors((0, 5), (25, 25)) == [
        (0, 4), (0, 6), (1, 4), (1, 5), (1, 6)
    ]


def test_out_of_range_position_rejected():
    with pytest.raises(ValueError):
        moore_neighbors((25, 0), (25, 25))


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
)
def test_neighbor_relation_is_symmetric(rows, cols):
    for r in range(rows):
        for c in range(cols):
            for pos in moore_neighbors((r, c), (rows, cols)):
                assert (r, c) in moore_neighbors(pos, (rows, cols))


def test_single_agent_initial_aspiration(tables):
    config = uniform_config(lu=LandUse.SOYBEAN, tl=TechLevel.LOW)
    scape = initialize(config, tables, SplitMix64(0))
    cell = scape.cells[0]
    assert cell.al_usd_per_ha == pytest.approx(0.6 * 252, abs=1e-12)
    assert cell.allocation == (0.0, 100.0, 0.0)
    assert cell.tenure is Tenure.OWNER


def test_pergamino_initialization(tables):
    from luccsim import ClimateRegime

    config = replace(
        preset("pergamino-1988"),
        climate=ClimateRegime.explicit([Wgc.AVERAGE] * 27),
    )
    scape = initialize(config, tables, SplitMix64(1))
    assert scape.n_agents == 625
    owners = sum(c.tenure is Tenure.OWNER for c in scape.cells)
    assert owners == round(0.63 * 625)  # 394

    # tech-level counts: largest-remainder apportionment of the
    # normalized shares (32/98, 36/98, 30/98 of 625)
    counts = {tl: 0 for tl in TechLevel}
    for cell in scape.cells:
        counts[cell.tl] += 1
    assert counts == {TechLevel.LOW: 204, TechLevel.AVERAGE: 230, TechLevel.HIGH: 191}

    for cell in scape.cells:
        assert sum(cell.allocation) == pytest.approx(100.0, abs=1e-9)
        assert all(a >= 0.0 for a in cell.allocation)
        expected_al = 0.6 * tables.wct_usd_per_ha[cell.tl]
        assert cell.al_usd_per_ha == pytest.approx(expected_al, abs=1e-12)

    for lu in LandUse:
        mean_cover = sum(c.allocation[lu] for c in scape.cells) / 625
        assert abs(mean_cover - config.initial_cover_pct[lu]) < 1.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_longterm_cover_matches_thirds_within_one_point(tables, seed):
    config = preset("longterm", seed=seed)
    scape = initialize(config, tables, SplitMix64(seed))
    for lu in LandUse:
        mean_cover = sum(c.allocation[lu] for c in scape.cells) / scape.n_agents
        assert abs(mean_cover - 100.0 / 3.0) < 1.0


def test_longterm_tl_counts_tie_break(tables):
    config = preset("longterm")
    scape = initialize(config, tables, SplitMix64(0))
    counts = {tl: 0 for tl in TechLevel}
    for cell in scape.cells:
        counts[cell.tl] += 1
    # 625/3 leaves one leftover agent; equal remainders resolve to the
    # lowest ordinal.
    assert counts == {TechLevel.LOW: 209, TechLevel.AVERAGE: 208, TechLevel.HIGH: 208}


def test_initialization_is_seed_deterministic(tables):
    config = preset("longterm", seed=77)
    a = initialize(config, tables, SplitMix64(77))
    b = initialize(config, tables, SplitMix64(77))
    assert [c.allocation for c in a.cells] == [c.allocation for c in b.cells]
    assert [c.tl for c in a.cells] == [c.tl for c in b.cells]
    assert [c.tenure for c in a.cells] == [c.tenure for c in b.cells]


def rowwise_balance(shares, target, tol=1e-12):
    """Reference cover balancing on (n, 3) rows, renormalizing every row."""
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
        dead = total <= 0.0
        shares = np.where(dead[:, None], target, scaled / np.where(dead, 1.0, total)[:, None])
    raise AssertionError("reference balancing did not converge")


class ScalarShuffle(SplitMix64):
    __slots__ = ()

    def shuffle(self, seq):
        scalar_shuffle(self, seq)


@pytest.mark.parametrize("rows, cols, seed", [(7, 13, 5), (13, 7, 2**64 - 1), (1, 1, 0), (1, 1, 9)])
def test_initialize_matches_the_scalar_reference(tables, monkeypatch, rows, cols, seed):
    config = replace(preset("longterm", seed=seed), grid_rows=rows, grid_cols=cols, owner_share_pct=40.0)
    rng = SplitMix64(seed)
    scape = initialize(config, tables, rng)
    monkeypatch.setattr(landscape, "_balance_to_targets", lambda columns, target: rowwise_balance(columns.T, target))
    reference_rng = ScalarShuffle(seed)
    reference = initialize(config, tables, reference_rng)
    for name in ("tenant", "tl", "alloc"):
        assert getattr(scape, name).tobytes() == getattr(reference, name).tobytes(), name
    assert rng.next_u64() == reference_rng.next_u64()


@pytest.mark.parametrize("target", [[0.2, 0.5, 0.3], [0.0, 1.0, 0.0], [0.6, 0.0, 0.4]])
def test_balance_matches_the_rowwise_reference(target):
    u, v = SplitMix64(3).random_array(2 * 500).reshape(500, 2).T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    draws = np.stack((lo, hi - lo, 1.0 - hi), axis=1)
    # a row with mass only where the target is zero restarts at the target
    draws[[7, 8]] = [[0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]
    columns = np.ascontiguousarray(draws.T)
    balanced = landscape._balance_to_targets(columns, target)
    assert balanced.base is columns  # the balanced columns' transpose, not a copy
    assert balanced.tobytes() == rowwise_balance(draws, target).tobytes()


def test_owner_share_zero_and_hundred(tables):
    for share, tenure in ((0.0, Tenure.TENANT), (100.0, Tenure.OWNER)):
        config = replace(preset("longterm"), owner_share_pct=share)
        scape = initialize(config, tables, SplitMix64(0))
        assert all(c.tenure is tenure for c in scape.cells)


def _landscape(rows, cols, alloc, profit=0.0, rl=0.0, econ=False, env=False):
    """Low-tech owners with zero aspiration and the given allocation and outcomes."""
    scape = Landscape(rows, cols, alloc=alloc, tl=TechLevel.LOW, tenant=False, al=0.0)
    scape.profit[:], scape.rl[:], scape.econ[:], scape.env[:] = profit, rl, econ, env
    return scape


def test_aggregate_uniform_soybean_landscape():
    record = aggregate(_landscape(2, 2, (0.0, 100.0, 0.0)), 0, Wgc.AVERAGE)
    assert record.cover_pct == {
        LandUse.MAIZE: 0.0,
        LandUse.SOYBEAN: 100.0,
        LandUse.WHEAT_SOY: 0.0,
    }


def test_aggregate_mean_profit():
    scape = _landscape(1, 2, (100.0, 0.0, 0.0), profit=[100.0, 300.0])
    record = aggregate(scape, 3, Wgc.FAVORABLE)
    assert record.mean_profit_usd_per_ha == 200.0
    assert record.cycle == 3
    assert record.wgc is Wgc.FAVORABLE


def test_aggregate_env_share():
    scape = _landscape(25, 25, (0.0, 0.0, 100.0), env=np.arange(625) < 200)
    record = aggregate(scape, 0, Wgc.AVERAGE)
    assert record.pct_env_ok == 32.0


def test_aggregate_is_order_independent(tables):
    config = preset("longterm", seed=3)
    scape = initialize(config, tables, SplitMix64(3))
    i = np.arange(scape.n_agents)
    scape.profit[:] = i % 7 - 3.0
    scape.rl[:] = 30.0 + i % 11
    scape.econ[:] = i % 2 == 0
    scape.env[:] = i % 3 == 0
    record = aggregate(scape, 0, Wgc.AVERAGE)

    # permuted row/col identities do not matter to the aggregation
    permuted = Landscape(scape.rows, scape.cols, **{
        name: getattr(scape, name)[::-1] for name in ("alloc", "tl", "tenant", "al")
    })
    for name in ("profit", "rl", "cal", "econ", "env"):
        getattr(permuted, name)[:] = getattr(scape, name)[::-1]
    record2 = aggregate(permuted, 0, Wgc.AVERAGE)
    assert record2.mean_profit_usd_per_ha == pytest.approx(
        record.mean_profit_usd_per_ha, rel=1e-12
    )
    assert record2.pct_econ_ok == record.pct_econ_ok
    assert record2.tl_counts == record.tl_counts
    for lu in LandUse:
        assert record2.cover_pct[lu] == pytest.approx(record.cover_pct[lu], rel=1e-12)


def test_cycle_record_cover_sums_to_100(tables):
    config = preset("longterm", seed=9)
    scape = initialize(config, tables, SplitMix64(9))
    record = aggregate(scape, 0, Wgc.AVERAGE)
    assert sum(record.cover_pct.values()) == pytest.approx(100.0, abs=1e-6)
    assert sum(record.tl_counts.values()) == 625


@pytest.mark.parametrize(
    "share", [0.0, 10.0, 33.3, 50.0, 63.0, 87.5, 100.0]
)
def test_owner_count_is_rounded_share(tables, share):
    config = replace(preset("longterm"), owner_share_pct=share)
    scape = initialize(config, tables, SplitMix64(1))
    owners = sum(c.tenure is Tenure.OWNER for c in scape.cells)
    assert owners == int(share * 625 / 100.0 + 0.5)
