from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luccsim import (
    ClimateRegime,
    ConfigurationError,
    LandUse,
    TechLevel,
    Wgc,
    preset,
    run_simulation,
    run_sweep,
)
from luccsim.numeric import sequential_sum
from luccsim.sweep import SweepAxis, SweepParameter, write_sweep_csv

from conftest import uniform_config


def _base(seed=1, cycles=6):
    return replace(preset("longterm", seed=seed), cycles=cycles)


def _base_means(config, tables):
    result = run_simulation(config, tables)
    n = len(result.records)
    return (
        sequential_sum([r.mean_profit_usd_per_ha for r in result.records]) / n,
        sequential_sum([r.mean_rl_pct for r in result.records]) / n,
    )


def test_reference_row_reproduces_base_run_exactly(tables):
    base = _base()
    axis = SweepAxis(SweepParameter.SOYBEAN_PRICE, (141.0, 277.0, 346.4))
    result = run_sweep(base, axis, tables)
    assert len(result.rows) == 3
    reference = [r for r in result.rows if r.is_reference]
    assert len(reference) == 1
    assert reference[0].value == 277.0
    mean_profit, mean_rl = _base_means(base, tables)
    assert reference[0].mean_profit == mean_profit  # bit-exact
    assert reference[0].mean_rl == mean_rl


def test_reference_value_inserted_when_absent(tables):
    base = _base()
    axis = SweepAxis(SweepParameter.SOYBEAN_PRICE, (141.0, 346.4))
    result = run_sweep(base, axis, tables)
    assert [r.value for r in result.rows] == [141.0, 277.0, 346.4]
    assert [r.is_reference for r in result.rows] == [False, True, False]


def test_owner_share_axis_row_count(tables):
    base = replace(_base(), owner_share_pct=50.0)
    axis = SweepAxis(SweepParameter.OWNER_SHARE, (10.0, 30.0, 50.0, 70.0, 90.0))
    result = run_sweep(base, axis, tables)
    assert len(result.rows) == 5
    assert [r.value for r in result.rows] == [10.0, 30.0, 50.0, 70.0, 90.0]


def test_wgc_mix_axis_reference_first_then_levels(tables):
    base = _base(cycles=4)
    axis = SweepAxis(SweepParameter.WGC_MIX_LEVEL, tuple(Wgc))
    result = run_sweep(base, axis, tables)
    assert len(result.rows) == 6
    assert result.rows[0].is_reference
    assert result.rows[0].value_label == "reference"
    assert [r.value for r in result.rows[1:]] == list(Wgc)
    mean_profit, _ = _base_means(base, tables)
    assert result.rows[0].mean_profit == mean_profit


@pytest.mark.parametrize("climate", [ClimateRegime.random_uniform(), ClimateRegime.seesaw()])
@pytest.mark.parametrize("parameter, values", [
    (SweepParameter.SOYBEAN_PRICE, (141.0, 346.4)),
    (SweepParameter.MAIZE_PRICE, (100.0,)),
    (SweepParameter.WHEAT_PRICE, (120.0,)),
    (SweepParameter.OWNER_SHARE, (10.0, 90.0)),
    (SweepParameter.RENT_USD, (250.0,)),
    (SweepParameter.WGC_MIX_LEVEL, tuple(Wgc)),
])
@settings(max_examples=8)
@given(seed=st.integers(0, 2**64 - 1), rows=st.integers(1, 4), cols=st.integers(1, 4))
def test_each_row_plays_the_reference_weather_on_every_cycle_the_axis_does_not_move(
        tables, climate, parameter, values, seed, rows, cols):
    import luccsim.sweep as sweep

    played = []  # each run's weather, in run order

    def recording(run):
        result = run_simulation(run)
        played.append([record.wgc for record in result.records])
        return result

    base = replace(_base(seed=seed, cycles=9), grid_rows=rows, grid_cols=cols, climate=climate)
    with mock.patch.object(sweep, "run_simulation", recording):
        result = run_sweep(base, SweepAxis(parameter, values), tables)
    reference = played[[row.is_reference for row in result.rows].index(True)]
    mixed = parameter is SweepParameter.WGC_MIX_LEVEL
    for row, weather in zip(result.rows, played):
        for t, level in enumerate(weather):
            moved = mixed and not row.is_reference and t % 2 == 1
            assert level is (row.value if moved else reference[t])


def test_a_wgc_mix_sweep_initializes_each_run_once(tables, monkeypatch):
    import luccsim.engine as engine
    import luccsim.sweep as sweep

    calls = []
    original = engine.initialize

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (engine, sweep):  # wherever luccsim binds it
        if getattr(module, "initialize", None) is original:
            monkeypatch.setattr(module, "initialize", counting)
    levels = (Wgc.UNFAVORABLE, Wgc.FAVORABLE, Wgc.VERY_FAVORABLE)
    base = replace(_base(cycles=4), climate=ClimateRegime.random_uniform())
    result = run_sweep(base, SweepAxis(SweepParameter.WGC_MIX_LEVEL, levels), tables)
    assert len(result.rows) == len(calls) == len(levels) + 1


def test_rent_axis_is_exactly_linear_on_uniform_tenant_fixture(tables):
    # Tenant-only, single land use and tech level: imitation swaps identical
    # vectors and profits stay below every upgrade threshold, so mean profit
    # is margin minus rent with slope exactly -1.
    base = uniform_config(
        lu=LandUse.WHEAT_SOY,
        tl=TechLevel.LOW,
        owner_share=0.0,
        cycles=8,
        grid_rows=5,
        grid_cols=5,
        rent=("usd_per_ha", 500.0),
    )
    rents = (250.0, 400.0, 500.0, 650.0, 775.0)
    axis = SweepAxis(SweepParameter.RENT_USD, rents)
    result = run_sweep(base, axis, tables)
    assert [r.value for r in result.rows] == list(rents)
    margin = 5.21 * 153.0 - 528.0  # full wheat/soy margin, low tech, average
    for row in result.rows:
        assert row.mean_profit + row.value == pytest.approx(margin, abs=1e-9)
    profits = [r.mean_profit for r in result.rows]
    for (r1, p1), (r2, p2) in zip(
        zip(rents, profits), list(zip(rents, profits))[1:]
    ):
        assert (p2 - p1) / (r2 - r1) == pytest.approx(-1.0, abs=1e-9)


def test_axis_rejects_value_outside_default_range(tables):
    with pytest.raises(ConfigurationError, match="outside the default range"):
        SweepAxis(SweepParameter.SOYBEAN_PRICE, (500.0,))


def test_axis_range_override(tables):
    axis = SweepAxis(
        SweepParameter.SOYBEAN_PRICE, (500.0,), allow_outside_range=True
    )
    assert axis.values == (500.0,)


def test_axis_needs_a_value():
    with pytest.raises(ConfigurationError, match="at least one value"):
        SweepAxis(SweepParameter.RENT_USD, ())


def test_wgc_mix_requires_levels():
    with pytest.raises(ConfigurationError, match="weather levels"):
        SweepAxis(SweepParameter.WGC_MIX_LEVEL, (1.0,))


def test_sweep_csv_schema(tables, tmp_path):
    base = _base(cycles=3)
    axis = SweepAxis(SweepParameter.MAIZE_PRICE, (100.0, 141.0))
    result = run_sweep(base, axis, tables)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == (
        "parameter,value,mean_profit,mean_rl,final_cover_m,final_cover_s,"
        "final_cover_ws,final_tl_l,final_tl_a,final_tl_h"
    )
    assert len(lines) == 1 + len(result.rows)
    assert lines[1].startswith("maize-price,100.000000,")


def test_wheat_price_axis_moves_combined_price(tables):
    base = _base(cycles=3)
    axis = SweepAxis(SweepParameter.WHEAT_PRICE, (120.0, 153.0, 200.0))
    result = run_sweep(base, axis, tables)
    assert len(result.rows) == 3
    assert result.rows[1].is_reference


def test_price_sweep_holds_rent_at_reference(tables):
    # The base uses soybean-equivalent rent; sweeping the soybean price must
    # not drag the rent along with it.
    base = replace(_base(cycles=3), owner_share_pct=0.0)
    axis = SweepAxis(SweepParameter.SOYBEAN_PRICE, (277.0, 346.4))
    result = run_sweep(base, axis, tables)
    high = [r for r in result.rows if r.value == 346.4][0]
    ref = [r for r in result.rows if r.is_reference][0]
    # all-tenant landscape: if rent rode along, the price gain would be
    # partially cancelled; with pinned rent the soybean-heavy margin grows
    assert high.mean_profit > ref.mean_profit


def test_values_printing_alike_are_rejected_before_any_run(tables, monkeypatch):
    import luccsim.sweep as sweep

    monkeypatch.setattr(sweep, "run_simulation", None)  # a run would raise TypeError
    axis = SweepAxis(SweepParameter.SOYBEAN_PRICE, (200.0000001, 200.0000004, 277.0000002))
    with pytest.raises(ConfigurationError,
                       match=r"^sweep values 200\.0000001 and 200\.0000004 both print as 200\.000000$"):
        run_sweep(_base(cycles=3), axis, tables)
    # the reference value (277.0) and a value beside it
    axis = SweepAxis(SweepParameter.SOYBEAN_PRICE, (141.0, 277.0000002))
    with pytest.raises(ConfigurationError,
                       match=r"^sweep values 277\.0 \(the reference\) and 277\.0000002 "):
        run_sweep(_base(cycles=3), axis, tables)
    # the reference rent is 1.6 t x 277 US$/t = 443.20000000000005 US$/ha
    axis = SweepAxis(SweepParameter.RENT_USD, (221.6, 443.2))
    with pytest.raises(ConfigurationError, match=r"^sweep values 443\.2 and "
                       r"443\.20000000000005 \(the reference\) both print as 443\.200000$"):
        run_sweep(_base(cycles=3), axis, tables)


@pytest.mark.parametrize("given_tables", [True, False])
@pytest.mark.parametrize("parameter, values, message", [
    (SweepParameter.SOYBEAN_PRICE, (141.0, 200.0, 1e200), "the margin of S at tech level L"),
    (SweepParameter.SOYBEAN_PRICE, (141.0, float("inf")), r"^prices must be finite \(got inf\)$"),
    (SweepParameter.RENT_USD, (300.0, 1e308), "^the rent from rent_usd_per_ha is 1e"),
    (SweepParameter.MAIZE_PRICE, (-5.0,), "^price for M must be positive$"),
    (SweepParameter.SOYBEAN_PRICE, (0.0, 200.0), "^price for S must be positive$"),
    (SweepParameter.OWNER_SHARE, (50.0, 120.0), r"^owner_share_pct must be within \[0, 100\]$"),
    (SweepParameter.RENT_USD, (-1.0,), "^rent must be non-negative$"),
])
def test_a_run_that_would_be_refused_is_refused_before_any_run(
        tables, monkeypatch, given_tables, parameter, values, message):
    import luccsim.sweep as sweep

    monkeypatch.setattr(sweep, "run_simulation", None)  # a run would raise TypeError
    axis = SweepAxis(parameter, values, allow_outside_range=True)
    with pytest.raises(ConfigurationError, match=message):
        run_sweep(_base(cycles=3), axis, tables if given_tables else None)


def test_cli_sweep_with_values_printing_alike_exits_2_and_writes_nothing(tmp_path, capsys):
    from luccsim.cli import main

    code = main(["sweep", "--preset", "longterm", "--cycles", "3", "--axis", "soy-price",
                 "--values", "200.0000001,200.0000004,277.0000002", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "200.0000001 and 200.0000004" in err
    assert list(tmp_path.iterdir()) == []
