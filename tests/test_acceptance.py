"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines stream; under plain pytest they appear in captured output.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from luccsim import (
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
    initialize,
    preset,
    run_cycle,
    run_simulation,
    run_sweep,
    update_aspiration,
    update_technology,
)
from luccsim.cli import main as cli_main
from luccsim.climate import wgc_for_cycle
from luccsim.metrics import ordinal_fit, rmse_and_v
from luccsim.numeric import sequential_sum
from luccsim.sweep import SweepAxis, SweepParameter

import oracle_sim
from conftest import uniform_config


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {number} PASS: {title}")


def test_criterion_1_table_fidelity(tables):
    with criterion(1, "embedded dataset matches the published tables exactly"):
        start = time.perf_counter()
        for lu in LandUse:
            for tl in TechLevel:
                for wgc in Wgc:
                    key, ref_key = (lu, tl, wgc), (int(lu), int(tl))
                    assert tables.yield_t_per_ha[key] == oracle_sim.YIELDS[ref_key][int(wgc)]
                    assert tables.cost_usd_per_ha[key] == oracle_sim.COSTS[ref_key][int(wgc)]
                    assert (
                        tables.renewability_pct[key]
                        == oracle_sim.RENEWABILITY[ref_key][int(wgc)]
                    )
        for lu in LandUse:
            assert tables.price_usd_per_t[lu] == oracle_sim.PRICES[int(lu)]
        for wgc in Wgc:
            assert tables.alpha_wgc[wgc] == oracle_sim.ALPHA_WGC[int(wgc)]
        for a in TechLevel:
            for b in TechLevel:
                assert tables.alpha_bn[(a, b)] == oracle_sim.ALPHA_BN[int(a)][int(b)]
        for tl in TechLevel:
            assert tables.wct_usd_per_ha[tl] == oracle_sim.WCT[int(tl)]

        # named spot checks
        assert tables.yield_t_per_ha[LandUse.SOYBEAN, TechLevel.HIGH, Wgc.VERY_FAVORABLE] == 5.19
        assert tables.cost_usd_per_ha[LandUse.MAIZE, TechLevel.HIGH, Wgc.VERY_UNFAVORABLE] == 717
        assert tables.renewability_pct[LandUse.WHEAT_SOY, TechLevel.LOW, Wgc.AVERAGE] == 29.9
        assert [tables.wct_usd_per_ha[t] for t in TechLevel] == [252, 333, 413]
        assert [tables.alpha_wgc[w] for w in Wgc] == [-0.55, -0.28, 0.00, 0.22, 0.45]
        assert time.perf_counter() - start < 1.0


def test_criterion_2_equation_oracles(tables):
    with criterion(2, "equations reproduce worked examples and the brute-force reference"):
        start = time.perf_counter()
        config = replace(preset("longterm"), rent_soy_tons=None, rent_usd_per_ha=443.2)
        ctx = context_for(config, tables, Wgc.AVERAGE)
        assert compute_profit((0.0, 100.0, 0.0), TechLevel.HIGH, False, ctx) == pytest.approx(609.84, abs=1e-9)
        assert compute_profit(
            (0.0, 100.0, 0.0), TechLevel.HIGH, True, ctx
        ) == pytest.approx(166.64, abs=1e-9)
        ctx_vu = context_for(config, tables, Wgc.VERY_UNFAVORABLE)
        assert compute_profit((0.0, 0.0, 100.0), TechLevel.LOW, False, ctx_vu) == pytest.approx(-8.82, abs=1e-9)
        assert compute_rl((50.0, 50.0, 0.0), TechLevel.LOW, ctx) == pytest.approx(46.05, abs=1e-9)
        assert climate_adjusted_aspiration(100.0, Wgc.VERY_FAVORABLE, tables) == pytest.approx(145.0, abs=1e-9)
        # no neighbor: a -inf best-neighbor profit, whatever its CAL and tech level
        no_bn = (0.0, -math.inf)
        assert update_aspiration(
            100.0, 200.0, *no_bn, TechLevel.LOW, TechLevel.LOW, tables
        ) == pytest.approx(155.0, abs=1e-9)
        assert update_aspiration(
            300.0, 100.0, 200.0, 400.0, TechLevel.LOW, TechLevel.HIGH, tables
        ) == pytest.approx(290.0, abs=1e-9)
        assert update_aspiration(
            200.0, 100.0, *no_bn, TechLevel.LOW, TechLevel.LOW, tables
        ) == pytest.approx(155.0, abs=1e-9)
        assert update_technology(500.0, tables) == TechLevel.HIGH
        assert update_technology(350.0, tables) == TechLevel.AVERAGE
        assert update_technology(-50.0, tables) == TechLevel.LOW

        # engine vs straight-line reference: 3x3 grid, 5 cycles, fixed seed
        config = replace(
            preset("longterm", seed=424242),
            grid_rows=3,
            grid_cols=3,
            cycles=5,
            owner_share_pct=50.0,
            climate=ClimateRegime.seesaw(),
        )
        rng = SplitMix64(config.seed)
        scape = initialize(config, tables, rng)
        mirror = [
            {
                "row": c.row,
                "col": c.col,
                "tenant": c.tenure is Tenure.TENANT,
                "alloc": list(c.allocation),
                "tl": int(c.tl),
                "al": c.al_usd_per_ha,
            }
            for c in scape.cells
        ]
        rent = config.rent_usd()
        for t in range(config.cycles):
            wgc = wgc_for_cycle(config.climate, t, rng)
            run_cycle(scape, context_for(config, tables, wgc), cycle_index=t)
            outcomes = oracle_sim.advance_cycle(mirror, 3, 3, int(wgc), rent, 50.0)
            for cell, ref_state, ref_out in zip(scape.cells, mirror, outcomes):
                assert cell.last_profit_usd_per_ha == pytest.approx(ref_out["profit"], rel=1e-9, abs=1e-9)
                assert cell.last_rl_pct == pytest.approx(ref_out["rl"], rel=1e-9, abs=1e-9)
                assert cell.last_cal_usd_per_ha == pytest.approx(ref_out["cal"], rel=1e-9, abs=1e-9)
                assert cell.econ_ok == ref_out["econ"]
                assert cell.env_ok == ref_out["env"]
                assert cell.al_usd_per_ha == pytest.approx(ref_state["al"], rel=1e-9, abs=1e-9)
                assert int(cell.tl) == ref_state["tl"]
                for lu in range(3):
                    assert cell.allocation[lu] == pytest.approx(ref_state["alloc"][lu], rel=1e-9, abs=1e-9)
        assert time.perf_counter() - start < 1.0


def test_criterion_3_determinism_and_order_independence(tmp_path):
    with criterion(3, "reruns and any parallelism width are byte-identical"):
        outputs = {}
        for name, workers in (("a", "1"), ("b", "1"), ("w3", "3"), ("w8", "8")):
            out = tmp_path / name
            out.mkdir()
            start = time.perf_counter()
            code = cli_main(
                [
                    "run", "--preset", "longterm", "--seed", "11",
                    "--cycles", "50", "--workers", workers,
                    "--out-dir", str(out),
                ]
            )
            elapsed = time.perf_counter() - start
            assert code == 0
            assert elapsed < 5.0
            outputs[name] = (out / "cycles.csv").read_bytes()
        assert outputs["a"] == outputs["b"]
        assert outputs["a"] == outputs["w3"]
        assert outputs["a"] == outputs["w8"]


def test_criterion_4_emergent_convergence(tables):
    with criterion(
        4,
        "constant climates yield soybean-dominant, stabilized landscapes "
        "(combined pricing; variable-climate double-crop dominance excluded)",
    ):
        regimes = (
            ClimateRegime.constant(Wgc.UNFAVORABLE),
            ClimateRegime.constant(Wgc.AVERAGE),
            ClimateRegime.constant(Wgc.FAVORABLE),
        )
        for regime in regimes:
            for owner_share in (10.0, 90.0):
                soy_max_count = 0
                for seed in range(1, 6):
                    config = replace(
                        preset("longterm", seed=seed),
                        climate=regime,
                        owner_share_pct=owner_share,
                    )
                    records = run_simulation(config, tables).records
                    final = records[-1].cover_pct
                    soy = final[LandUse.SOYBEAN]
                    if soy > final[LandUse.MAIZE] and soy > final[LandUse.WHEAT_SOY]:
                        soy_max_count += 1
                    for before, after in zip(records[-20:], records[-19:]):
                        for lu in LandUse:
                            assert (
                                abs(after.cover_pct[lu] - before.cover_pct[lu]) < 1.0
                            ), (regime.describe(), owner_share, seed)
                assert soy_max_count >= 4, (regime.describe(), owner_share)


def test_criterion_5_metric_identities():
    with criterion(5, "metric identities hold over 1000 random series pairs"):
        start = time.perf_counter()
        rng = SplitMix64(5150)
        checked = 0
        for _ in range(1000):
            n = 2 + rng.randrange(9)
            obs = [rng.random() * 200.0 - 60.0 for _ in range(n)]
            sim = [rng.random() * 200.0 - 60.0 for _ in range(n)]
            pm, iof = ordinal_fit(obs, sim)
            assert iof == 2.0 * pm - 1.0
            # power-of-two scalings are exact and strictly monotone
            pm_obs_scaled, _ = ordinal_fit([8.0 * o for o in obs], sim)
            pm_sim_scaled, _ = ordinal_fit(obs, [0.25 * s for s in sim])
            assert pm_obs_scaled == pm
            assert pm_sim_scaled == pm
            rmse, v = rmse_and_v(obs, obs)
            assert rmse == 0.0 and v == 0.0
            checked += 1
        assert checked == 1000
        assert time.perf_counter() - start < 1.0


def test_criterion_6_quiescence(tables):
    with criterion(6, "an economically satisfied landscape keeps its cover exactly"):
        config = replace(
            preset("longterm", seed=6),
            climate=ClimateRegime.constant(Wgc.FAVORABLE),
            owner_share_pct=100.0,
            initial_al_factor=0.0,
            cycles=2,
        )
        records = run_simulation(config, tables).records
        assert records[0].pct_econ_ok == 100.0
        assert records[1].cover_pct == records[0].cover_pct  # exact equality


def test_criterion_7_sweep_protocol(tables):
    with criterion(7, "sweep reference rows, row counts, and rent linearity"):
        base = replace(preset("longterm", seed=2), cycles=6)
        base_records = run_simulation(base, tables).records
        base_mean_profit = sequential_sum(
            [r.mean_profit_usd_per_ha for r in base_records]
        ) / len(base_records)
        base_mean_rl = sequential_sum([r.mean_rl_pct for r in base_records]) / len(base_records)

        axes = {
            SweepParameter.SOYBEAN_PRICE: (141.0, 277.0, 346.4),
            SweepParameter.MAIZE_PRICE: (69.76, 141.0, 185.28),
            SweepParameter.WHEAT_PRICE: (100.28, 153.0, 249.23),
            SweepParameter.OWNER_SHARE: (10.0, 30.0, 50.0, 70.0, 90.0),
            # the reference rent, 1.6 t at 277 US$/t; 443.2 prints alike and is refused
            SweepParameter.RENT_USD: (221.6, 1.6 * 277.0, 775.6),
        }
        from luccsim.sweep import _reference_value

        for parameter, values in axes.items():
            result = run_sweep(base, SweepAxis(parameter, values), tables)
            reference = _reference_value(base, parameter)
            expected_rows = len(set(values) | {reference})
            assert len(result.rows) == expected_rows, parameter
            ref_rows = [r for r in result.rows if r.is_reference]
            assert len(ref_rows) == 1
            assert ref_rows[0].mean_profit == base_mean_profit  # byte-exact
            assert ref_rows[0].mean_rl == base_mean_rl

        mix = run_sweep(
            base, SweepAxis(SweepParameter.WGC_MIX_LEVEL, tuple(Wgc)), tables
        )
        assert len(mix.rows) == 6
        assert mix.rows[0].is_reference
        assert mix.rows[0].mean_profit == base_mean_profit

        # rent linearity on a tenant-only, imitation-suppressed fixture
        fixture = uniform_config(
            lu=LandUse.WHEAT_SOY,
            tl=TechLevel.LOW,
            owner_share=0.0,
            cycles=8,
            grid_rows=5,
            grid_cols=5,
            rent_soy_tons=None,
            rent_usd_per_ha=500.0,
        )
        rents = (250.0, 400.0, 500.0, 650.0, 775.0)
        rows = run_sweep(
            fixture, SweepAxis(SweepParameter.RENT_USD, rents), tables
        ).rows
        profits = {row.value: row.mean_profit for row in rows}
        for (r1, r2) in zip(rents, rents[1:]):
            slope = (profits[r2] - profits[r1]) / (r2 - r1)
            assert slope == pytest.approx(-1.0, abs=1e-9)


def test_criterion_8_non_reproducible_results_statement():
    with criterion(8, "unpublished-input results are documented as out of scope"):
        print(
            "\nThe 1988-2015 case study's quantitative results (series "
            "goodness-of-fit values, agent-distribution statistics such as "
            "the renewability interquartile range, and the sensitivity "
            "analysis reference means of 390.26 US$/ha and 40.47%) depend "
            "on the historical weather and observed land-cover series, "
            "which are not published and not bundled. They are therefore "
            "not acceptance targets; the validate and sweep workflows are "
            "verified on synthetic fixtures instead (criteria 5 and 7)."
        )
        assert True


def test_criterion_9_performance(tables):
    with criterion(9, "625 agents x 50 cycles in under one second, single-threaded"):
        config = preset("longterm", seed=31)
        assert config.n_agents == 625 and config.cycles == 50
        start = time.perf_counter()
        run_simulation(config, tables)
        elapsed = time.perf_counter() - start
        print(f"\n625x50 run took {elapsed*1000:.0f} ms")
        assert elapsed < 1.0
