import csv
from dataclasses import fields, replace

import numpy as np
import pytest

from luccsim import (
    ConfigurationError,
    LandUse,
    ParameterTables,
    Tenure,
    TechLevel,
    Wgc,
    preset,
    resolve_tables,
    validate_tables,
)
from luccsim.config import SplitPricing
from luccsim.tables import load_table_overrides

M, S, WS = LandUse.MAIZE, LandUse.SOYBEAN, LandUse.WHEAT_SOY
L, A, H = TechLevel.LOW, TechLevel.AVERAGE, TechLevel.HIGH
VU, U, AV, F, VF = Wgc


def test_spot_values(tables):
    assert tables.yield_t_per_ha[M, L, VU] == 4.05
    assert tables.cost_usd_per_ha[WS, H, VF] == 892
    assert tables.renewability_pct[S, L, VF] == 57.6
    assert tables.yield_t_per_ha[S, H, VF] == 5.19
    assert tables.cost_usd_per_ha[M, H, VU] == 717
    assert tables.renewability_pct[WS, L, AV] == 29.9


def test_scalar_tables(tables):
    assert tables.price_usd_per_t.tolist() == [141, 277, 153]
    assert [tables.alpha_wgc[w] for w in Wgc] == [-0.55, -0.28, 0.00, 0.22, 0.45]
    assert [tables.wct_usd_per_ha[t] for t in TechLevel] == [252, 333, 413]
    assert tables.alpha_bn[(L, H)] == 0.45
    assert tables.alpha_bn[(H, L)] == -0.55
    assert tables.alpha_bn[(A, A)] == 0.0


@pytest.mark.parametrize("enum", [LandUse, TechLevel, Wgc, Tenure])
def test_each_member_is_found_by_its_code(enum):
    for member in enum:
        assert enum.from_code(f" {member.code.lower()} ") is member
    with pytest.raises(ConfigurationError, match=rf"^unknown {enum.__name__} code 'X' \(expected one of "):
        enum.from_code("X")


def test_wrong_shaped_table_is_rejected(tables):
    with pytest.raises(ConfigurationError, match=r"yield_t_per_ha has shape \(3, 3, 4\)"):
        replace(tables, yield_t_per_ha=tables.yield_t_per_ha[:, :, 1:])
    with pytest.raises(ConfigurationError, match="alpha_bn has shape"):
        replace(tables, alpha_bn=tables.alpha_bn.ravel())


def _component_yield_file(tmp_path, name):
    path = tmp_path / name
    rows = "".join(f"{tl.code},{w.code},2.0\n" for tl in TechLevel for w in Wgc)
    path.write_text("tl,wgc,value\n" + rows)
    return str(path)


@pytest.mark.parametrize("field", [f.name for f in fields(ParameterTables)])
def test_tables_are_read_only(tmp_path, tables, field):
    """Every table, the component yields as `resolve_tables` reads them included."""
    split = SplitPricing(_component_yield_file(tmp_path, "wheat.csv"),
                         _component_yield_file(tmp_path, "soy2.csv"))
    loaded = resolve_tables(replace(preset("longterm"), split_yield_files=split))
    sources = [loaded, replace(loaded)]
    if getattr(tables, field) is not None:  # the embedded dataset has no component yields
        sources += [tables, replace(tables)]
    for table in (getattr(source, field) for source in sources):
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 1.0


def test_embedded_dataset_validates_clean(tables):
    assert validate_tables(tables) == []


def test_zero_yield_is_one_violation(tables):
    broken_yields = tables.yield_t_per_ha.copy()
    broken_yields[(M, L, AV)] = 0.0
    report = validate_tables(replace(tables, yield_t_per_ha=broken_yields))
    positivity = [v for v in report if "non-positive yield" in v]
    assert len(positivity) == 1
    assert "yield[M,L,A]" in positivity[0]


def test_bad_alpha_bn_sign_is_one_violation(tables):
    broken = tables.alpha_bn.copy()
    broken[(L, H)] = -0.1
    report = validate_tables(replace(tables, alpha_bn=broken))
    assert len(report) == 1
    assert "alpha_bn sign" in report[0]
    assert "alpha_bn[L,H]" in report[0]


def test_decreasing_cost_in_weather_is_reported(tables):
    broken = tables.cost_usd_per_ha.copy()
    broken[(S, A, VF)] = 1.0
    report = validate_tables(replace(tables, cost_usd_per_ha=broken))
    assert any("decreasing in weather condition" in v for v in report)


def test_non_increasing_wct_is_reported(tables):
    broken = tables.wct_usd_per_ha.copy()
    broken[H] = broken[A]
    report = validate_tables(replace(tables, wct_usd_per_ha=broken))
    assert report == ["wct[H]: not strictly increasing in tech level"]


def test_csv_override_roundtrip(tables, tmp_path):
    path = tmp_path / "yield.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["lu", "tl", "wgc", "value"])
        for lu, tl, wgc in np.ndindex(tables.yield_t_per_ha.shape):
            value = tables.yield_t_per_ha[lu, tl, wgc].item()
            writer.writerow([LandUse(lu).code, TechLevel(tl).code, Wgc(wgc).code, value])
    loaded = load_table_overrides(tables, {"yield": str(path)})
    assert loaded.yield_t_per_ha.tolist() == tables.yield_t_per_ha.tolist()


def test_partial_csv_override_is_rejected(tables, tmp_path):
    path = tmp_path / "yield.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["lu", "tl", "wgc", "value"])
        writer.writerow(["M", "L", "VU", "4.05"])
    with pytest.raises(ConfigurationError, match="missing entry"):
        load_table_overrides(tables, {"yield": str(path)})


def test_csv_override_bad_header(tables, tmp_path):
    path = tmp_path / "wct.csv"
    path.write_text("landuse,value\nM,141\n")
    with pytest.raises(ConfigurationError, match="expected header"):
        load_table_overrides(tables, {"wct": str(path)})


def test_unknown_override_name(tables):
    with pytest.raises(ConfigurationError, match="unknown table override"):
        load_table_overrides(tables, {"yields": "x.csv"})
