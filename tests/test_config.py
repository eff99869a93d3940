import json
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luccsim import (
    ClimateRegime,
    ConfigurationError,
    LandUse,
    ScenarioConfig,
    TechLevel,
    Wgc,
    default_tables,
    parse_config,
    plan,
    preset,
)
from luccsim.config import _PRESETS, _SETTINGS, PRESET_NAMES, SplitPricing, _blank, with_settings


def test_pergamino_preset_matches_initialization_conditions():
    config = preset("pergamino-1988")
    assert (config.grid_rows, config.grid_cols) == (25, 25)
    assert config.n_agents == 625
    assert config.cycles == 27
    assert config.owner_share_pct == 63.0
    assert config.et_pct == 50.0
    assert config.rent == ("soy_tons", 1.6)
    assert config.rent_usd() == pytest.approx(443.2)
    assert config.prices[LandUse.SOYBEAN] == 277.0
    # Census shares (20 / 36.2 / 35.8 and L32 / A36 / H30) are published
    # against total area; stored shares are normalized to cropped area.
    cover = config.initial_cover_pct
    assert sum(cover.values()) == pytest.approx(100.0)
    assert cover[LandUse.MAIZE] == pytest.approx(20.0 * 100.0 / 92.0)
    assert cover[LandUse.SOYBEAN] / cover[LandUse.MAIZE] == pytest.approx(36.2 / 20.0)
    tl = config.initial_tl_pct
    assert sum(tl.values()) == pytest.approx(100.0)
    assert tl[TechLevel.HIGH] / tl[TechLevel.LOW] == pytest.approx(30.0 / 32.0)
    # The historical weather series is not bundled.
    with pytest.raises(ConfigurationError, match="weather sequence"):
        config.validate()


def test_longterm_preset_equal_thirds():
    config = preset("longterm", seed=5)
    config.validate()
    assert config.cycles == 50
    assert config.seed == 5
    for lu in LandUse:
        assert config.initial_cover_pct[lu] == pytest.approx(100.0 / 3.0)
    for tl in TechLevel:
        assert config.initial_tl_pct[tl] == pytest.approx(100.0 / 3.0)


def test_unknown_preset():
    with pytest.raises(ConfigurationError, match="unknown preset"):
        preset("permagino")


def test_cover_share_sum_violation():
    config = preset("longterm")
    bad = replace(
        config,
        initial_cover_pct={
            LandUse.MAIZE: 33.0,
            LandUse.SOYBEAN: 33.0,
            LandUse.WHEAT_SOY: 33.0,
        },
    )
    with pytest.raises(ConfigurationError, match="sum to 100"):
        bad.validate()


def test_rent_unit_must_be_known():
    config = preset("longterm")
    replace(config, rent=("usd_per_ha", 443.2)).validate()
    with pytest.raises(ConfigurationError, match="rent unit must be soy_tons or usd_per_ha"):
        replace(config, rent=("usd", 443.2)).validate()


def test_sequence_shorter_than_horizon_rejected():
    config = replace(
        preset("longterm"),
        climate=ClimateRegime.explicit([Wgc.AVERAGE] * 10),
    )
    with pytest.raises(ConfigurationError, match="10 entries"):
        config.validate()


def test_the_config_fields_are_the_scenario_keys():
    assert {field.name for field in fields(ScenarioConfig)} == set(_SETTINGS)


def _write(tmp_path, payload):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def test_parse_config_from_preset_with_overrides(tmp_path):
    path = _write(
        tmp_path,
        {
            "preset": "longterm",
            "seed": 9,
            "cycles": 12,
            "owner_share_pct": 10.0,
            "climate": "seesaw",
            "rent": {"usd_per_ha": 500.0},
            "prices": {"M": 150, "S": 300, "WS": 160},
        },
    )
    config = parse_config(path)
    config.validate()
    assert config.seed == 9
    assert config.cycles == 12
    assert config.owner_share_pct == 10.0
    assert config.climate == ClimateRegime.seesaw()
    assert config.rent_usd() == 500.0
    assert config.prices[LandUse.SOYBEAN] == 300.0


def test_parse_config_full_file(tmp_path):
    path = _write(
        tmp_path,
        {
            "grid_rows": 3,
            "grid_cols": 4,
            "cycles": 5,
            "seed": 1,
            "owner_share_pct": 50.0,
            "initial_cover_pct": {"M": 20, "S": 50, "WS": 30},
            "initial_tl_pct": {"L": 40, "A": 30, "H": 30},
            "climate": {"sequence": ["VU", "U", "A", "F", "VF"]},
            "et_pct": 45.0,
        },
    )
    config = parse_config(path)
    config.validate()
    assert config.n_agents == 12
    assert config.climate == ClimateRegime.explicit([
        Wgc.VERY_UNFAVORABLE, Wgc.UNFAVORABLE, Wgc.AVERAGE, Wgc.FAVORABLE, Wgc.VERY_FAVORABLE,
    ])
    assert config.et_pct == 45.0


def test_parse_config_share_sum_error(tmp_path):
    path = _write(
        tmp_path,
        {
            "preset": "longterm",
            "initial_cover_pct": {"M": 33, "S": 33, "WS": 33},
        },
    )
    with pytest.raises(ConfigurationError, match="sum to 100"):
        parse_config(path)


def test_parse_config_unknown_key_reports_line(tmp_path):
    path = _write(tmp_path, {"preset": "longterm", "cycels": 10})
    with pytest.raises(ConfigurationError, match=r"scenario\.json:3: unknown key 'cycels'"):
        parse_config(path)


@pytest.mark.parametrize("text, key, line", [
    ('{\n  "preset": "longterm",\n  "prices": {"M": 141, "S": 300, "WS": 160},\n'
     '  "cycles": 5,\n  "M": 5\n}\n', "M", 5),
    ('{\n  "preset": "longterm",\n  "climate": "random",\n  "cycles": 5,\n'
     '  "random": 1\n}\n', "random", 5),
])
def test_parse_config_unknown_key_reports_the_top_level_keys_line(tmp_path, text, key, line):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match=rf"scenario\.json:{line}: unknown key '{key}'$"):
        parse_config(str(path))


def test_parse_config_bad_json_reports_line(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text('{\n  "preset": "longterm",\n}\n')
    with pytest.raises(ConfigurationError, match=r"scenario\.json:3"):
        parse_config(str(path))


def test_parse_config_mix_climate(tmp_path):
    path = _write(
        tmp_path,
        {
            "preset": "longterm",
            "cycles": 4,
            "climate": {"mix": {"fixed": "VF", "historical": ["A", "A", "U", "U"]}},
        },
    )
    config = parse_config(path)
    config.validate()
    assert config.climate == ClimateRegime.alternating_mix(
        [Wgc.AVERAGE, Wgc.AVERAGE, Wgc.UNFAVORABLE, Wgc.UNFAVORABLE], Wgc.VERY_FAVORABLE
    )


def test_parse_config_sequence_file(tmp_path):
    wgc_path = tmp_path / "w.txt"
    wgc_path.write_text("A\nF\nVF\n")
    path = _write(
        tmp_path,
        {
            "preset": "longterm",
            "cycles": 3,
            "climate": {"sequence_file": str(wgc_path)},
        },
    )
    config = parse_config(path)
    config.validate()
    assert config.climate == ClimateRegime.explicit(
        [Wgc.AVERAGE, Wgc.FAVORABLE, Wgc.VERY_FAVORABLE]
    )


def test_parse_config_with_table_overrides_end_to_end(tmp_path, capsys):
    import csv as _csv

    from luccsim.cli import main

    price_path = tmp_path / "price.csv"
    with open(price_path, "w", newline="") as handle:
        writer = _csv.writer(handle)
        writer.writerow(["lu", "value"])
        writer.writerow(["M", "200"])
        writer.writerow(["S", "300"])
        writer.writerow(["WS", "160"])
    path = _write(
        tmp_path,
        {
            "preset": "longterm",
            "table_overrides": {"price": str(price_path)},
        },
    )
    out = tmp_path / "out"
    out.mkdir()
    # output prices are the scenario's "prices", so a price table is not an override
    assert main(["run", "--config", path, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "unknown table override 'price'" in err and "\"prices\" setting" in err
    assert list(out.iterdir()) == []


def test_parse_config_split_mode_end_to_end(tmp_path):
    import csv as _csv

    from luccsim import Wgc as _Wgc
    from luccsim import context_for, resolve_tables
    from luccsim import compute_profit

    def component(path, value):
        with open(path, "w", newline="") as handle:
            writer = _csv.writer(handle)
            writer.writerow(["tl", "wgc", "value"])
            for tl in ("L", "A", "H"):
                for wgc in ("VU", "U", "A", "F", "VF"):
                    writer.writerow([tl, wgc, value])

    wheat_path = tmp_path / "wheat.csv"
    soy2_path = tmp_path / "soy2.csv"
    component(wheat_path, 3.0)
    component(soy2_path, 2.0)
    path = _write(
        tmp_path,
        {
            "preset": "longterm",
            "prices": {"M": 141.0, "S": 277.0, "WS": 150.0},
            "split_yield_files": {"wheat": str(wheat_path), "soy2": str(soy2_path)},
        },
    )
    config = parse_config(path)
    config.validate()
    ctx = context_for(config, resolve_tables(config), _Wgc.AVERAGE)
    expected = 3.0 * 150.0 + 2.0 * 277.0 - 822.0
    assert compute_profit((0.0, 0.0, 100.0), TechLevel.HIGH, False, ctx) == pytest.approx(
        expected, abs=1e-9
    )


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_equals_the_scenario_file_of_its_settings(tmp_path, name):
    config = preset(name, seed=11)
    settings = {**_PRESETS[name], "seed": 11}
    if config.climate is None:  # a file must name a climate to pass validation
        settings["climate"] = {"sequence": ["A"] * settings["cycles"]}
    parsed = parse_config(_write(tmp_path, settings))
    if config.climate is None:
        parsed = replace(parsed, climate=None)
    assert parsed == config


def test_with_settings_applies_scenario_file_values():
    config = with_settings(preset("longterm"), {
        "seed": 4, "rent": {"usd_per_ha": 300}, "prices": {"m": 150, "S": 300, "WS": 160},
    })
    assert config.seed == 4
    assert config.rent == ("usd_per_ha", 300.0)
    assert config.prices == {LandUse.MAIZE: 150.0, LandUse.SOYBEAN: 300.0, LandUse.WHEAT_SOY: 160.0}
    with pytest.raises(ConfigurationError, match="unknown key 'cycels'"):
        with_settings(preset("longterm"), {"cycels": 3})
    with pytest.raises(ConfigurationError, match="seed must be a number written as an integer"):
        with_settings(preset("longterm"), {"seed": 2.5})


def _split_scenario(tmp_path):
    """A split-pricing scenario file naming wheat.csv and soy2.csv, which it does not write."""
    return _write(tmp_path, {"preset": "longterm",
                             "split_yield_files": {"wheat": str(tmp_path / "wheat.csv"),
                                                   "soy2": str(tmp_path / "soy2.csv")}})


def test_split_pricing_configs_compare_and_hash(tmp_path):
    """A split config holds its two file paths, so it compares equal and hashes."""
    path = _split_scenario(tmp_path)
    first, second = parse_config(path), parse_config(path)
    assert first == second
    files = SplitPricing(str(tmp_path / "wheat.csv"), str(tmp_path / "soy2.csv"))
    assert first.split_yield_files == files
    assert hash(first.split_yield_files) == hash(second.split_yield_files)


def test_split_yield_files_are_read_by_plan_not_by_parse_config(tmp_path):
    config = parse_config(_split_scenario(tmp_path))
    with pytest.raises(ConfigurationError, match=r"cannot read table file .*wheat\.csv"):
        plan(config)


def test_split_pricing_with_tables_lacking_component_yields_is_refused():
    config = replace(preset("longterm"), split_yield_files=SplitPricing("w.csv", "s.csv"))
    with pytest.raises(ConfigurationError, match="component yield"):
        plan(config, default_tables())


def _keyed(members):
    return st.fixed_dictionaries({m.code: st.floats(0, 1e6) for m in members})


_VALID_SETTINGS = st.fixed_dictionaries({}, optional={
    "grid_rows": st.integers(1, 500),
    "cycles": st.integers(1, 500),
    "seed": st.integers(0, 2**64 - 1),
    "owner_share_pct": st.floats(0, 100),
    "et_pct": st.floats(0, 100),
    "initial_cover_pct": _keyed(LandUse),
    "initial_tl_pct": _keyed(TechLevel),
    "prices": _keyed(LandUse),
    "rent": st.sampled_from(["soy_tons", "usd_per_ha"]).map(lambda unit: {unit: 1.5}),
    "climate": st.one_of(st.sampled_from(["seesaw", "random", "constant-average"]),
                         st.lists(st.sampled_from([w.code for w in Wgc]), min_size=1)
                         .map(lambda codes: {"sequence": codes})),
    "split_yield_files": st.fixed_dictionaries({"wheat": st.text(max_size=5),
                                                "soy2": st.text(max_size=5)}),
    "table_overrides": st.dictionaries(st.sampled_from(["yield", "wct"]), st.text(max_size=5)),
})


@settings(derandomize=True, max_examples=100)
@given(_VALID_SETTINGS)
def test_a_config_built_twice_from_the_same_settings_compares_equal(settings_):
    assert with_settings(_blank(), settings_) == with_settings(_blank(), settings_)
