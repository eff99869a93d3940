from dataclasses import replace

import pytest

from luccsim import (
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
        rent_soy_tons=None,
        rent_usd_per_ha=500.0,
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


def test_axis_rejects_physically_impossible_values():
    with pytest.raises(ConfigurationError, match="positive"):
        SweepAxis(
            SweepParameter.MAIZE_PRICE, (-5.0,), allow_outside_range=True
        )
    with pytest.raises(ConfigurationError, match=r"\[0, 100\]"):
        SweepAxis(
            SweepParameter.OWNER_SHARE, (120.0,), allow_outside_range=True
        )
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
