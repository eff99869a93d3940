from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from luccsim import (
    CheckedRun,
    ClimateRegime,
    LandUse,
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
    plan,
    preset,
    run_cycle,
    run_simulation,
    select_best_neighbor,
    update_aspiration,
    update_technology,
)
from luccsim.cli import _summary_dict
from luccsim.config import SplitPricing

from conftest import uniform_config
from oracle_sim import moore_neighbors

M, S, WS = LandUse.MAIZE, LandUse.SOYBEAN, LandUse.WHEAT_SOY
L, A, H = TechLevel.LOW, TechLevel.AVERAGE, TechLevel.HIGH


def _ctx(tables, wgc=Wgc.AVERAGE, rent=443.2, et=50.0, **settings):
    """The longterm preset's context at the default prices, with a US$/ha rent."""
    config = replace(preset("longterm"), rent=("usd_per_ha", rent), et_pct=et, **settings)
    return context_for(config, tables, wgc)


class TestComputeProfit:
    def test_owner_full_soybean_high_average(self, tables):
        assert compute_profit((0.0, 100.0, 0.0), H, False, _ctx(tables)) == pytest.approx(
            609.84, abs=1e-9
        )

    def test_tenant_pays_rent(self, tables):
        assert compute_profit((0.0, 100.0, 0.0), H, True, _ctx(tables)) == pytest.approx(
            166.64, abs=1e-9
        )

    def test_profit_can_be_negative(self, tables):
        ctx = _ctx(tables, wgc=Wgc.VERY_UNFAVORABLE)
        assert compute_profit((0.0, 0.0, 100.0), L, False, ctx) == pytest.approx(-8.82, abs=1e-9)

    def test_profit_bounded_by_extreme_margins(self, tables):
        rng = SplitMix64(5)
        ctx = _ctx(tables, wgc=Wgc.FAVORABLE)
        for _ in range(200):
            u, v = sorted((rng.random(), rng.random()))
            alloc = (100 * u, 100 * (v - u), 100 * (1 - v))
            tl = TechLevel(rng.randrange(3))
            margins = ctx.margins[tl]
            p = compute_profit(alloc, tl, False, ctx)
            assert min(margins) - 1e-9 <= p <= max(margins) + 1e-9


class TestComputeRl:
    def test_full_maize_low_very_favorable(self, tables):
        ctx = _ctx(tables, wgc=Wgc.VERY_FAVORABLE)
        assert compute_rl((100.0, 0.0, 0.0), L, ctx) == pytest.approx(50.2, abs=1e-9)

    def test_half_soy_half_maize(self, tables):
        assert compute_rl((50.0, 50.0, 0.0), L, _ctx(tables)) == pytest.approx(46.05, abs=1e-9)

    def test_full_wheatsoy_high_very_unfavorable(self, tables):
        ctx = _ctx(tables, wgc=Wgc.VERY_UNFAVORABLE)
        assert compute_rl((0.0, 0.0, 100.0), H, ctx) == pytest.approx(21.8, abs=1e-9)

    def test_rl_within_dataset_extremes(self, tables):
        rng = SplitMix64(6)
        for _ in range(200):
            wgc = Wgc(rng.randrange(5))
            u, v = sorted((rng.random(), rng.random()))
            alloc = (100 * u, 100 * (v - u), 100 * (1 - v))
            rl = compute_rl(alloc, TechLevel(rng.randrange(3)), _ctx(tables, wgc=wgc))
            assert 21.8 - 1e-9 <= rl <= 57.6 + 1e-9


class TestClimateAdjustedAspiration:
    def test_average_is_identity(self, tables):
        assert climate_adjusted_aspiration(100.0, Wgc.AVERAGE, tables) == 100.0

    def test_very_favorable_scales_up(self, tables):
        assert climate_adjusted_aspiration(
            100.0, Wgc.VERY_FAVORABLE, tables
        ) == pytest.approx(145.0, abs=1e-9)

    def test_zero_stays_zero(self, tables):
        for wgc in Wgc:
            assert climate_adjusted_aspiration(0.0, wgc, tables) == 0.0

    @given(st.floats(min_value=0.0, max_value=1e6))
    def test_cal_never_negative(self, al):
        from luccsim import default_tables

        tables = default_tables()
        for wgc in Wgc:
            assert climate_adjusted_aspiration(al, wgc, tables) >= 0.0


class TestEvaluateGoals:
    def test_examples(self):
        assert evaluate_goals(200.0, 150.0, 45.0, 50.0) == (True, False)
        assert evaluate_goals(150.0, 150.0, 50.0, 50.0) == (True, True)
        assert evaluate_goals(-10.0, 0.0, 60.0, 50.0) == (False, True)


def _scan(profits):
    """The first strictly greatest of `profits`, scanned in order: (position, profit)."""
    best = 0
    for k, p in enumerate(profits):
        if p > profits[best]:
            best = k
    return best, profits[best]


class TestSelectBestNeighbor:
    def _best(self, profits):
        """The best of one agent whose neighbors, in scan order, earn `profits`."""
        best, best_p = select_best_neighbor([np.array([p], dtype=float) for p in profits])
        return best.item(), best_p.item()

    def test_tie_breaks_to_earliest(self):
        assert self._best([5.0, 9.0, 9.0, 2.0]) == (1, 9.0)

    def test_singleton(self):
        assert self._best([-4.0]) == (0, -4.0)

    def test_max_of_negatives(self):
        assert self._best([-3.0, -1.0]) == (1, -1.0)

    def test_empty_gives_the_pad_index(self):
        # no neighbor: a -inf pad at every position, and the first is chosen
        assert self._best([-np.inf] * 8) == (0, -np.inf)
        assert self._best([-np.inf]) == (0, -np.inf)

    def test_nan_never_wins(self):
        assert self._best([np.nan, 3.0, np.nan]) == (1, 3.0)

    # any agents' neighbors, in scan order: finite profits, -inf pads, zeros of
    # either sign, repeated values for ties, and agents with no neighbor at all
    @given(st.integers(min_value=1, max_value=8).flatmap(lambda k: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from([-np.inf, 0.0, -0.0, 1.5, -1.5]), min_size=k, max_size=k)
        | st.just([-np.inf] * k),
        min_size=1, max_size=80)))
    def test_agrees_with_a_strict_scan(self, columns):
        views = [np.array(row) for row in zip(*columns)]
        best, best_p = select_best_neighbor(views)
        assert best.dtype == np.uint8
        for j, column in enumerate(columns):
            position, profit = _scan(column)
            assert best[j] == position
            assert best_p[j].tobytes() == np.float64(profit + 0.0).tobytes()  # -0.0 as 0.0

    # power-of-two factors scale exactly, so no two distinct profits can
    # collapse into a tie and perturb the argmax; a factor below 1 is exact
    # only above the subnormal range (-5e-324 * 0.25 rounds to -0.0, a tie with
    # 0.0), so lists that a factor does not scale exactly are drawn again
    @given(st.lists(st.floats(min_value=-1e5, max_value=1e5), min_size=1, max_size=8),
           st.sampled_from([0.25, 0.5, 2.0, 8.0, 64.0]))
    def test_scaling_profits_keeps_argmax(self, profits, factor):
        scaled = [p * factor for p in profits]
        assume(all(s / factor == p for s, p in zip(scaled, profits)))
        best, _ = self._best(profits)
        best_scaled, _ = self._best(scaled)
        assert best == best_scaled


# the best neighbor's CAL and profit for an agent with no neighbor
NO_BN = (0.0, -np.inf)


class TestUpdateAspiration:
    def test_incremental_branch(self, tables):
        assert update_aspiration(100.0, 200.0, *NO_BN, L, L, tables) == pytest.approx(
            155.0, abs=1e-9
        )

    def test_imitation_branch(self, tables):
        got = update_aspiration(300.0, 100.0, 200.0, 400.0, L, H, tables)
        assert got == pytest.approx(290.0, abs=1e-9)

    def test_detrimental_branch(self, tables):
        assert update_aspiration(200.0, 100.0, *NO_BN, L, L, tables) == pytest.approx(
            155.0, abs=1e-9
        )

    def test_neighbor_below_cal_does_not_qualify(self, tables):
        got = update_aspiration(200.0, 100.0, 180.0, 150.0, L, H, tables)
        assert got == pytest.approx(0.55 * 200 + 0.45 * 100, abs=1e-9)

    def test_copy_that_overflows_is_inf_without_a_warning(self, tables):
        # run_simulation refuses it as the imitator's next CAL
        assert update_aspiration(300.0, 100.0, 1.7e308, 400.0, L, H, tables) == np.inf

    def test_clamped_at_zero(self, tables):
        assert update_aspiration(10.0, -10_000.0, *NO_BN, L, L, tables) == 0.0

    @given(
        st.floats(min_value=0.0, max_value=1e5),
        st.floats(min_value=0.0, max_value=1e5),
    )
    def test_own_branches_stay_between_cal_and_profit(self, cal, p):
        from luccsim import default_tables

        got = update_aspiration(cal, p, *NO_BN, L, L, default_tables())
        lo, hi = min(cal, p), max(cal, p)
        assert lo - 1e-9 <= got <= hi + 1e-9


class TestUpdateTechnology:
    def test_examples(self, tables):
        assert update_technology(500.0, tables) == H
        assert update_technology(350.0, tables) == A
        assert update_technology(-50.0, tables) == L

    def test_threshold_equality_upgrades(self, tables):
        assert update_technology(413.0, tables) == H
        assert update_technology(333.0, tables) == A
        assert update_technology(252.0, tables) == L  # below the average bar

    @given(st.floats(min_value=-1e4, max_value=1e4),
           st.floats(min_value=0.0, max_value=100.0))
    def test_monotone_in_profit(self, p, delta):
        from luccsim import default_tables

        tables = default_tables()
        assert update_technology(p + delta, tables) >= update_technology(p, tables)


class TestDecideLandUse:
    def test_copies_qualifying_best_neighbor(self):
        assert decide_land_use(100.0, 200.0, 250.0)

    def test_satisfied_agent_keeps_allocation(self):
        assert not decide_land_use(300.0, 200.0, 999.0)

    def test_unqualified_neighbor_keeps_allocation(self):
        assert not decide_land_use(100.0, 200.0, 150.0)

    def test_no_neighbor_keeps_allocation(self):
        assert not decide_land_use(100.0, 200.0, NO_BN[1])


class TestRunCycle:
    def test_single_agent_worked_example(self, tables):
        config = uniform_config()
        scape = initialize(config, tables, SplitMix64(0))
        cell = scape.cells[0]
        scape.al[0] = 151.2
        ctx = context_for(config, tables, Wgc.AVERAGE)
        record = run_cycle(scape, ctx)
        assert record.mean_profit_usd_per_ha == pytest.approx(609.84, abs=1e-9)
        assert cell.last_cal_usd_per_ha == pytest.approx(151.2, abs=1e-9)
        assert cell.econ_ok
        assert cell.al_usd_per_ha == pytest.approx(403.452, abs=1e-9)
        assert cell.tl is H
        assert cell.allocation == (0.0, 100.0, 0.0)

    def test_satisfied_landscape_keeps_cover(self, tables):
        config = replace(
            preset("longterm", seed=4),
            initial_al_factor=0.0,
            owner_share_pct=100.0,
            climate=ClimateRegime.constant(Wgc.FAVORABLE),
            cycles=2,
        )
        result = run_simulation(config, tables)
        first, second = result.records
        assert first.pct_econ_ok == 100.0
        assert second.cover_pct == first.cover_pct

    def test_allocation_conservation_over_run(self, tables):
        config = replace(preset("longterm", seed=8), cycles=20, owner_share_pct=30.0)
        result = run_simulation(config, tables)
        for cell in result.landscape.cells:
            assert sum(cell.allocation) == pytest.approx(100.0, abs=1e-9)

    def test_record_reports_pre_adaptation_state(self, tables):
        # TL counts in the record must reflect the levels used during the
        # cycle, not the post-adaptation levels.
        config = uniform_config(tl=TechLevel.LOW)
        scape = initialize(config, tables, SplitMix64(0))
        ctx = context_for(config, tables, Wgc.AVERAGE)
        record = run_cycle(scape, ctx)
        assert record.tl_counts[TechLevel.LOW] == 1
        # full-soybean low-tech margin at average weather upgrades the agent
        assert scape.cells[0].tl is TechLevel.HIGH

    def test_rl_bounds_over_run(self, tables):
        config = replace(preset("longterm", seed=13), cycles=15)
        result = run_simulation(config, tables)
        for record in result.records:
            assert 21.8 - 1e-9 <= record.mean_rl_pct <= 57.6 + 1e-9


class TestCheckedRun:
    def test_margins_are_read_only(self, tables):
        ctx = context_for(preset("longterm"), tables, Wgc.AVERAGE)
        with pytest.raises(ValueError, match="read-only"):
            ctx.margins[TechLevel.LOW, LandUse.MAIZE] = 0.0

    @pytest.mark.parametrize("rows, cols", [(1, 1), (3, 7)])
    def test_one_checked_run_replays_as_a_fresh_run(self, tables, rows, cols):
        config = replace(preset("longterm", seed=4), grid_rows=rows, grid_cols=cols, cycles=12,
                         climate=ClimateRegime.random_uniform(), owner_share_pct=50.0)
        run = plan(config, tables)
        assert isinstance(run, CheckedRun) and [ctx.wgc for ctx in run.contexts] == list(Wgc)
        fresh = run_simulation(config)
        for result in (run_simulation(run), run_simulation(run)):
            assert result.records == fresh.records
            assert _summary_dict(result) == _summary_dict(fresh)
        assert all(not ctx.margins.flags.writeable for ctx in run.contexts)


class TestSplitPricing:
    @staticmethod
    def _split_ctx(tables):
        # Component tables where wheat + second soy reproduce a chosen total.
        tables = replace(tables, wheat_yield_t_per_ha=np.full((3, 5), 2.0),
                         soy2_yield_t_per_ha=np.full((3, 5), 1.5))
        return _ctx(tables, rent=0.0, split_yield_files=SplitPricing("wheat.csv", "soy2.csv"))

    def test_split_mode_prices_components(self, tables):
        ctx = self._split_ctx(tables)
        expected = 2.0 * 153.0 + 1.5 * 277.0 - 822.0
        assert compute_profit((0.0, 0.0, 100.0), H, False, ctx) == pytest.approx(expected, abs=1e-9)

    def test_split_mode_leaves_other_land_uses_alone(self, tables):
        ctx = self._split_ctx(tables)
        assert compute_profit((0.0, 100.0, 0.0), H, False, ctx) == pytest.approx(609.84, abs=1e-9)


def test_tenant_profit_bounds(tables):
    rng = SplitMix64(21)
    ctx = _ctx(tables, wgc=Wgc.UNFAVORABLE, rent=443.2)
    for _ in range(200):
        u, v = sorted((rng.random(), rng.random()))
        alloc = (100 * u, 100 * (v - u), 100 * (1 - v))
        tl = TechLevel(rng.randrange(3))
        margins = ctx.margins[tl]
        p = compute_profit(alloc, tl, True, ctx)
        assert min(margins) - 443.2 - 1e-9 <= p <= max(margins) + 1e-9


def test_two_agent_imitation_hand_computed(tables):
    # Rich satisfied agent A next to a poor unsatisfied agent B; every
    # number below is worked out from the tables by hand.
    from luccsim import Landscape

    scape = Landscape(
        rows=1, cols=2, alloc=[(0.0, 100.0, 0.0), (100.0, 0.0, 0.0)], tl=[H, L],
        tenant=False, al=[100.0, 400.0],
    )
    ctx = _ctx(tables, wgc=Wgc.AVERAGE, rent=0.0)
    record = run_cycle(scape, ctx)
    a, b = scape.cells

    # A: full soybean at high tech, 3.92*277 - 476 = 609.84, satisfied
    assert a.last_profit_usd_per_ha == pytest.approx(609.84, abs=1e-9)
    assert a.econ_ok
    assert a.allocation == (0.0, 100.0, 0.0)
    assert a.al_usd_per_ha == pytest.approx(0.45 * 100 + 0.55 * 609.84, abs=1e-9)
    assert a.tl is H  # 609.84 >= 413

    # B: full maize at low tech, 7.45*141 - 680 = 370.45 < cal 400;
    # A out-earns the aspiration, so B copies A's allocation and adopts
    # A's climate-adjusted aspiration scaled by the low-vs-high factor.
    assert b.last_profit_usd_per_ha == pytest.approx(370.45, abs=1e-9)
    assert not b.econ_ok
    assert b.allocation == (0.0, 100.0, 0.0)
    assert b.al_usd_per_ha == pytest.approx(100.0 * 1.45, abs=1e-9)
    assert b.tl is A  # 333 <= 370.45 < 413

    # record reflects the pre-adaptation covers
    assert record.cover_pct[LandUse.MAIZE] == pytest.approx(50.0)
    assert record.cover_pct[LandUse.SOYBEAN] == pytest.approx(50.0)
    assert record.pct_econ_ok == 50.0


def test_run_cycle_is_the_composition_of_the_public_ops(tables):
    # Bit-exact equivalence: stepping the grid must equal calling the
    # public per-agent operations over a frozen snapshot by hand.
    config = replace(
        preset("longterm", seed=17),
        grid_rows=4, grid_cols=4, cycles=1, owner_share_pct=40.0,
    )
    rng = SplitMix64(config.seed)
    scape = initialize(config, tables, rng)
    pre = [
        (c.allocation, c.tl, c.al_usd_per_ha, c.tenure) for c in scape.cells
    ]
    ctx = context_for(config, tables, Wgc.FAVORABLE)
    run_cycle(scape, ctx)

    allocs, tls, als, tenures = zip(*pre)
    profits = [compute_profit(alloc, tl, tenure is Tenure.TENANT, ctx)
               for alloc, tl, tenure in zip(allocs, tls, tenures)]
    rls = [compute_rl(alloc, tl, ctx) for alloc, tl in zip(allocs, tls)]
    cals = [climate_adjusted_aspiration(al, ctx.wgc, tables) for al in als]

    for i, cell in enumerate(scape.cells):
        assert cell.last_profit_usd_per_ha == profits[i]
        assert cell.last_rl_pct == rls[i]
        assert cell.last_cal_usd_per_ha == cals[i]
        econ, env = evaluate_goals(profits[i], cals[i], rls[i], ctx.et_pct)
        assert (cell.econ_ok, cell.env_ok) == (econ, env)

        neighbors = [r * 4 + c for r, c in moore_neighbors((i // 4, i % 4), (4, 4))]
        k, bn_profit = select_best_neighbor([profits[j] for j in neighbors])
        bn = neighbors[k]
        imitate = decide_land_use(profits[i], cals[i], bn_profit)
        expected_alloc = allocs[bn] if imitate else allocs[i]
        expected_al = update_aspiration(
            cals[i], profits[i], cals[bn], bn_profit, tls[i], tls[bn], tables
        )
        assert cell.allocation == expected_alloc
        assert cell.al_usd_per_ha == expected_al
        assert cell.tl is TechLevel(update_technology(profits[i], tables))
