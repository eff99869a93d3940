"""Bad numbers exit with code 2 and a one-line message, and write nothing."""

import json
from dataclasses import replace

import numpy as np
import pytest

from luccsim import ConfigurationError, LandUse, TechLevel, Wgc, preset, run_simulation
from luccsim.cli import main

# A refusal writes one stderr line, so a numpy warning on the way to it is a failure.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _run_config(tmp_path, capsys, text, *options):
    config = tmp_path / "scenario.json"
    config.write_text(text)
    out = tmp_path / "out"
    out.mkdir()
    code = main(["run", "--config", str(config), "--out-dir", str(out), *options])
    return code, capsys.readouterr().err, list(out.iterdir())


@pytest.mark.parametrize(
    "body, field",
    [
        ('"initial_al_factor": NaN', "initial_al_factor"),
        ('"et_pct": NaN', "et_pct"),
        ('"owner_share_pct": Infinity', "owner_share_pct"),
        ('"rent": {"usd_per_ha": NaN}', "rent_usd_per_ha"),
        ('"rent": {"soy_tons": Infinity}', "rent_soy_tons"),
        ('"prices": {"M": 141, "S": -Infinity, "WS": 153}', "prices"),
        ('"initial_cover_pct": {"M": NaN, "S": 50, "WS": 50}', "initial_cover_pct"),
        ('"initial_tl_pct": {"L": Infinity, "A": 50, "H": 50}', "initial_tl_pct"),
    ],
)
def test_non_finite_scenario_number_is_rejected(tmp_path, capsys, body, field):
    code, err, written = _run_config(tmp_path, capsys, '{"preset": "longterm", %s}' % body)
    assert code == 2
    assert err.count("\n") == 1 and field in err and "finite" in err
    assert written == []


@pytest.mark.parametrize(
    "body, field",
    [
        ('"owner_share_pct": "abc"', "owner_share_pct"),
        ('"grid_rows": "ten"', "grid_rows"),
        ('"cycles": [5]', "cycles"),
        ('"seed": NaN', "seed"),
        ('"grid_rows": 2.5', "grid_rows"),
        ('"grid_rows": true', "grid_rows"),
        ('"grid_cols": "7"', "grid_cols"),
        ('"cycles": 3.7', "cycles"),
        ('"seed": 2.9', "seed"),
        ('"rent": {"usd_per_ha": {}}', "rent.usd_per_ha"),
        ('"prices": {"M": "cheap", "S": 277, "WS": 153}', "prices.M"),
        ('"et_pct": true', "et_pct"),
        ('"owner_share_pct": "50"', "owner_share_pct"),
        ('"initial_al_factor": false', "initial_al_factor"),
        ('"rent": {"soy_tons": "1.2"}', "rent.soy_tons"),
        ('"rent": {"usd_per_ha": true}', "rent.usd_per_ha"),
        ('"prices": {"M": 141, "S": true, "WS": 153}', "prices.S"),
        ('"initial_cover_pct": {"M": "34", "S": 33, "WS": 33}', "initial_cover_pct.M"),
        ('"initial_tl_pct": {"L": 50, "A": false, "H": 50}', "initial_tl_pct.A"),
    ],
)
def test_non_numeric_scenario_value_is_rejected(tmp_path, capsys, body, field):
    code, err, written = _run_config(tmp_path, capsys, '{"preset": "longterm", %s}' % body)
    assert code == 2
    assert err.count("\n") == 1 and field in err and "must be a number" in err
    assert written == []


# The double crop has one price, prices.WS, under either pricing mode, and
# split_yield_files alone selects split pricing.
@pytest.mark.parametrize("key, value", [("wheat_price_usd_per_t", "139"), ("pricing_mode", '"split"')],
                         ids=["wheat_price_usd_per_t", "pricing_mode"])
def test_separate_wheat_price_key_is_unknown(tmp_path, capsys, key, value):
    code, err, written = _run_config(tmp_path, capsys, '{"preset": "longterm",\n "%s": %s}' % (key, value))
    assert code == 2
    assert err == f"configuration error: {tmp_path / 'scenario.json'}:2: unknown key {key!r}\n"
    assert written == []


@pytest.mark.parametrize("width", ["0", "-3"])
@pytest.mark.parametrize(
    "command", [["run"], ["sweep", "--axis", "soy-price", "--values", "200"]]
)
def test_workers_below_one_is_rejected(tmp_path, capsys, command, width):
    args = [*command, "--preset", "longterm", "--cycles", "2", "--workers", width]
    assert main([*args, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "workers" in err
    assert list(tmp_path.iterdir()) == []


# Inputs with two faults: the first check in the command's order names its fault.
@pytest.mark.parametrize("command, message", [
    (["run", "--config", "{scenario}", "--workers", "0"], "margin of M"),
    (["sweep", "--preset", "longterm", "--owner-share", "150", "--axis", "soy-price",
      "--values", "200.0000001,200.0000002"], "owner_share_pct must be within [0, 100]"),
    (["sweep", "--preset", "longterm", "--axis", "soy-price", "--allow-outside-range",
      "--values", "200.0000001,200.0000002,1e308"], "both print as 200.000000"),
    # the axis is built before run_sweep checks the base
    (["sweep", "--preset", "longterm", "--owner-share", "150", "--axis", "nope", "--values", "1"],
     "unknown axis 'nope'"),
])
def test_the_first_of_two_faults_is_reported(tmp_path, capsys, command, message):
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"preset": "longterm", "cycles": 2, "prices": {"M": 1e308, "S": 277, "WS": 153}}')
    out = tmp_path / "out"
    out.mkdir()
    args = [arg.format(scenario=scenario) for arg in command]
    assert main([*args, "--cycles", "2", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert list(out.iterdir()) == []


def test_library_rejects_nan_setting(tables):
    config = replace(preset("longterm"), cycles=2, initial_al_factor=float("nan"))
    with pytest.raises(ConfigurationError, match="initial_al_factor"):
        run_simulation(config, tables)


def _table_file(tmp_path, name, header, rows):
    path = tmp_path / name
    path.write_text("\n".join([header, *(",".join(map(str, r)) for r in rows)]) + "\n")
    return str(path)


# table override name -> (ParameterTables field, CSV header)
_TABLE_FILES = {
    "yield": ("yield_t_per_ha", "lu,tl,wgc,value"),
    "cost": ("cost_usd_per_ha", "lu,tl,wgc,value"),
    "renewability": ("renewability_pct", "lu,tl,wgc,value"),
    "alpha_wgc": ("alpha_wgc", "wgc,value"),
    "alpha_bn": ("alpha_bn", "tl,bn_tl,value"),
    "wct": ("wct_usd_per_ha", "tl,value"),
}
_KEY_ENUMS = {"lu": LandUse, "tl": TechLevel, "bn_tl": TechLevel, "wgc": Wgc}


def _tables_case(tmp_path, tables, case, edit):
    """(scenario body, table file): a complete table file, its rows passed through `edit`."""
    if case == "split_yield":
        rows = [(tl.code, w.code, 2.0) for tl in TechLevel for w in Wgc]
        path = _table_file(tmp_path, "wheat.csv", "tl,wgc,value", edit(rows))
        soy2 = _table_file(tmp_path, "soy2.csv", "tl,wgc,value", [(tl.code, w.code, 1.5) for tl in TechLevel for w in Wgc])
        return '"split_yield_files": {"wheat": "%s", "soy2": "%s"}' % (path, soy2), path
    field, header = _TABLE_FILES[case]
    table = getattr(tables, field)
    enums = [_KEY_ENUMS[column] for column in header.split(",")[:-1]]
    rows = [(*(e(i).code for e, i in zip(enums, index)), table[index].item())
            for index in np.ndindex(table.shape)]
    path = _table_file(tmp_path, f"{case}.csv", header, edit(rows))
    return '"table_overrides": {"%s": "%s"}' % (case, path), path


def _non_finite_on_line_3(case):
    value = "-inf" if case == "split_yield" else "nan"
    return lambda rows: [rows[0], (*rows[1][:-1], value), *rows[2:]]


@pytest.mark.parametrize("case", ["yield", "alpha_wgc", "wct", "split_yield"])
def test_non_finite_table_value_is_rejected_with_its_line(tmp_path, capsys, tables, case):
    body, path = _tables_case(tmp_path, tables, case, _non_finite_on_line_3(case))
    code, err, written = _run_config(tmp_path, capsys, '{"preset": "longterm", "cycles": 2, %s}' % body)
    assert code == 2
    assert err.count("\n") == 1 and f"{path}:3:" in err and "not finite" in err
    assert written == []


@pytest.mark.parametrize("case", [*_TABLE_FILES, "split_yield"])
def test_table_file_missing_an_entry_is_rejected(tmp_path, capsys, tables, case):
    body, path = _tables_case(tmp_path, tables, case, lambda rows: rows[:-1])
    code, err, written = _run_config(tmp_path, capsys, '{"preset": "longterm", "cycles": 2, %s}' % body)
    assert code == 2
    assert err.count("\n") == 1 and path in err and "missing entry" in err
    assert written == []


@pytest.mark.parametrize("row", ["L", "L,X,0.2"])
def test_table_row_with_a_bad_key_is_rejected_with_its_line(tmp_path, capsys, row):
    path = _table_file(tmp_path, "alpha_bn.csv", "tl,bn_tl,value", [("L", "L", 0.0), (row,)])
    body = '"table_overrides": {"alpha_bn": "%s"}' % path
    code, err, written = _run_config(tmp_path, capsys, '{"preset": "longterm", "cycles": 2, %s}' % body)
    assert code == 2
    # "L" lacks the bn_tl and value fields: it is a short row before it is a bad key
    problem = "fewer fields than the header" if row == "L" else "unknown TechLevel code"
    assert err.count("\n") == 1 and f"{path}:3: {problem}" in err
    assert written == []


@pytest.mark.parametrize("case", [*_TABLE_FILES, "split_yield"])
def test_table_row_shorter_than_its_header_is_rejected_with_its_line(tmp_path, capsys, tables, case):
    body, path = _tables_case(tmp_path, tables, case, lambda rows: [rows[0], rows[1][:-1], *rows[2:]])
    code, err, written = _run_config(tmp_path, capsys, '{"preset": "longterm", "cycles": 2, %s}' % body)
    assert code == 2
    assert err.count("\n") == 1 and f"{path}:3: fewer fields than the header" in err
    assert written == []


@pytest.mark.parametrize(
    "climate",
    ['{"sequence": 5}', '{"sequence": "AF"}', '{"mix": {"fixed": "A", "historical": 7}}',
     '{"mix": {"fixed": "A", "historical": "AU"}}'],
)
def test_weather_sequence_that_is_not_an_array_is_rejected(tmp_path, capsys, climate):
    code, err, written = _run_config(
        tmp_path, capsys, '{"preset": "longterm", "cycles": 2, "climate": %s}' % climate)
    assert code == 2
    assert err.count("\n") == 1 and "must be a JSON array" in err
    assert written == []


_MIX_FORMS = '{"fixed": code, "historical": [codes]} or {"fixed": code, "historical_file": path}'


@pytest.mark.parametrize(
    "climate, message",
    [
        ('{"constant": "VF", "level": "A"}', "cannot parse climate spec"),
        ('{"constnt": "VF"}', "cannot parse climate spec"),
        ('{"sequence": ["A", "U"], "cycles": 2}', "cannot parse climate spec"),
        ('{"sequense": ["A", "U"]}', "cannot parse climate spec"),
        ('{"sequence_file": "w.txt", "fixed": "A"}', "cannot parse climate spec"),
        ('{"sequence_fle": "w.txt"}', "cannot parse climate spec"),
        ('{"mix": {"fixed": "VF", "historical": ["A", "A"], "fixd": "U"}}', _MIX_FORMS),
        ('{"mix": {"fixed": "VF", "historical": ["A", "A"], "historical_file": "w.txt"}}', _MIX_FORMS),
        ('{"mix": {"fixed": "VF", "historicl": ["A", "A"]}}', _MIX_FORMS),
        ('{"mix": {"historical": ["A", "A"]}}', _MIX_FORMS),
    ],
)
def test_climate_object_with_a_key_it_does_not_read_is_rejected(tmp_path, capsys, climate, message):
    code, err, written = _run_config(
        tmp_path, capsys, '{"preset": "longterm", "cycles": 2, "climate": %s}' % climate)
    assert code == 2
    assert err.count("\n") == 1 and message in err
    assert written == []


NOT_UTF8 = b"\xff"


def _not_utf8(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode() + NOT_UTF8 + b"\n")
    return str(path)


def _assert_rejected(capsys, code, path):
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and path in err and "UTF-8" in err


def test_config_file_that_is_not_utf8_is_rejected(tmp_path, capsys):
    path = _not_utf8(tmp_path, "scenario.json", '{"preset": "longterm"}')
    code = main(["run", "--config", path, "--out-dir", str(tmp_path)])
    _assert_rejected(capsys, code, path)
    assert list(tmp_path.iterdir()) == [tmp_path / "scenario.json"]


def test_weather_file_that_is_not_utf8_is_rejected(tmp_path, capsys):
    path = _not_utf8(tmp_path, "wgc.txt", "A\nU\n")
    code = main(["run", "--preset", "longterm", "--cycles", "2", "--wgc-file", path,
                 "--out-dir", str(tmp_path)])
    _assert_rejected(capsys, code, path)
    assert list(tmp_path.iterdir()) == [tmp_path / "wgc.txt"]


@pytest.mark.parametrize("bad", ["run_csv", "observed_csv"])
def test_validate_csv_that_is_not_utf8_is_rejected(tmp_path, capsys, bad):
    good = tmp_path / "good.csv"
    good.write_text("cycle,cover_s\n0,50.0\n")
    path = _not_utf8(tmp_path, "bad.csv", "cycle,cover_s\n0,50.0\n")
    files = [path, str(good)] if bad == "run_csv" else [str(good), path]
    code = main(["validate", *files, "--series", "cover_s", "--out-dir", str(tmp_path)])
    _assert_rejected(capsys, code, path)
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("value, reason", [
    ("nan", "not finite"), ("inf", "not finite"), ("-inf", "not finite"), ("abc", "not numeric"),
])
@pytest.mark.parametrize("bad", ["run_csv", "observed_csv"])
def test_validate_bad_series_value_is_rejected_with_its_row(tmp_path, capsys, bad, value, reason):
    good = tmp_path / "good.csv"
    good.write_text("cycle,cover_m\n0,1.0\n1,2.0\n2,3.0\n")
    path = tmp_path / "bad.csv"
    path.write_text(f"cycle,cover_m\n0,1.0\n1,{value}\n2,3.0\n")
    files = [str(path), str(good)] if bad == "run_csv" else [str(good), str(path)]
    code = main(["validate", *files, "--series", "cover_m", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{path}:3: column 'cover_m': {value!r} is {reason}" in err
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("case", ["yield", "split_yield"])
def test_table_file_that_is_not_utf8_is_rejected(tmp_path, capsys, tables, case):
    body, path = _tables_case(tmp_path, tables, case, _non_finite_on_line_3(case))
    with open(path, "ab") as handle:
        handle.write(NOT_UTF8)
    code, err, written = _run_config(tmp_path, capsys, '{"preset": "longterm", "cycles": 2, %s}' % body)
    assert code == 2
    assert err.count("\n") == 1 and path in err and "UTF-8" in err
    assert written == []


@pytest.mark.parametrize("case, key", [("wct", "L"), ("split_yield", "L,VU")])
def test_table_file_repeating_an_entry_is_rejected_with_its_line(tmp_path, capsys, tables, case, key):
    body, path = _tables_case(tmp_path, tables, case, lambda rows: [rows[0], *rows])
    code, err, written = _run_config(tmp_path, capsys, '{"preset": "longterm", "cycles": 2, %s}' % body)
    assert code == 2
    assert err.count("\n") == 1 and f"{path}:3: repeated entry ({key})" in err
    assert written == []


@pytest.mark.parametrize("body, key", [
    ('"seed": 1, "seed": 2', "seed"),
    ('"prices": {"M": 141, "S": 277, "S": 300, "WS": 153}', "S"),
    ('"rent": {"usd_per_ha": 400, "usd_per_ha": 300}', "usd_per_ha"),
    ('"climate": {"sequence": ["A"], "sequence": ["U"]}', "sequence"),
    ('"table_overrides": {"wct": "a.csv", "wct": "b.csv"}', "wct"),
])
def test_scenario_key_given_twice_is_rejected(tmp_path, capsys, body, key):
    code, err, written = _run_config(tmp_path, capsys, '{"preset": "longterm", %s}' % body)
    assert code == 2
    assert err.count("\n") == 1 and "scenario.json" in err and f"repeated key {key!r}" in err
    assert written == []


@pytest.mark.parametrize("body, message", [
    ('"prices": {"M": 141, "m": 999, "S": 277, "WS": 153}', "prices: M given twice ('M' and 'm')"),
    ('"initial_cover_pct": {"M": 50, " m": 20, "S": 30, "WS": 20}',
     "initial_cover_pct: M given twice ('M' and ' m')"),
    ('"initial_tl_pct": {"L": 40, "A": 30, "H": 30, "h ": 0}',
     "initial_tl_pct: H given twice ('H' and 'h ')"),
])
def test_scenario_code_given_twice_under_two_spellings_is_rejected(tmp_path, capsys, body, message):
    code, err, written = _run_config(tmp_path, capsys, '{"preset": "longterm", %s}' % body)
    assert code == 2
    assert err.count("\n") == 1 and f"scenario.json: {message}" in err
    assert written == []


@pytest.mark.parametrize(
    "command", [["run"], ["sweep", "--axis", "soy-price", "--values", "200"]]
)
def test_climate_and_weather_file_together_are_rejected(tmp_path, capsys, command):
    weather = tmp_path / "wgc.txt"
    weather.write_text("A\nU\n")
    out = tmp_path / "out"
    out.mkdir()
    code = main([*command, "--preset", "longterm", "--cycles", "2", "--climate",
                 "constant-favorable", "--wgc-file", str(weather), "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "either --climate or --wgc-file" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("names", ["mean_p,mean_p", "cover_m, mean_p ,mean_p"])
def test_validate_series_named_twice_is_rejected(tmp_path, capsys, names):
    run = tmp_path / "cycles.csv"
    run.write_text("cycle,cover_m,mean_p\n0,1.0,2.0\n1,2.0,3.0\n")
    code = main(["validate", str(run), str(run), "--series", names, "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr() == ("", "configuration error: --series names series 'mean_p' twice\n")
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("first, second", [("cover_soy", "cover_soybean"), ("Cover_M", "cover_m")])
@pytest.mark.parametrize("bad", ["run_csv", "observed_csv"])
def test_validate_headers_naming_one_series_are_rejected(tmp_path, capsys, bad, first, second):
    good = tmp_path / "good.csv"
    good.write_text("cycle,cover_m,cover_s\n0,1.0,2.0\n1,2.0,3.0\n")
    path = tmp_path / "bad.csv"
    path.write_text(f"cycle,{first},{second}\n0,1.0,2.0\n1,2.0,3.0\n")
    files = [str(path), str(good)] if bad == "run_csv" else [str(good), str(path)]
    code = main(["validate", *files, "--series", "cover_m,cover_s", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(path) in err and repr(first) in err and repr(second) in err
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("case", ["wct", "split_yield"])
def test_table_row_longer_than_its_header_is_rejected_with_its_line(tmp_path, capsys, tables, case):
    body, path = _tables_case(tmp_path, tables, case, lambda rows: [rows[0], (*rows[1], 99), *rows[2:]])
    code, err, written = _run_config(tmp_path, capsys, '{"preset": "longterm", "cycles": 2, %s}' % body)
    assert code == 2
    assert err.count("\n") == 1 and f"{path}:3: more fields than the header" in err
    assert written == []


@pytest.mark.parametrize("case", ["wct", "split_yield"])
def test_table_message_after_a_blank_line_names_the_physical_line(tmp_path, capsys, tables, case):
    non_finite_on_line_3 = _non_finite_on_line_3(case)
    body, path = _tables_case(tmp_path, tables, case, lambda rows: [rows[0], ("",), *non_finite_on_line_3(rows)[1:]])
    code, err, written = _run_config(tmp_path, capsys, '{"preset": "longterm", "cycles": 2, %s}' % body)
    assert code == 2
    assert err.count("\n") == 1 and f"{path}:4:" in err and "not finite" in err
    assert written == []


@pytest.mark.parametrize("bad", ["run_csv", "observed_csv"])
def test_validate_row_shorter_than_its_header_is_rejected(tmp_path, capsys, bad):
    good = tmp_path / "good.csv"
    good.write_text("cycle,cover_m\n0,1.0\n1,2.0\n")
    path = tmp_path / "bad.csv"
    path.write_text("cycle,cover_m\n0,1.0\n1\n")
    files = [str(path), str(good)] if bad == "run_csv" else [str(good), str(path)]
    code = main(["validate", *files, "--series", "cover_m", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{path}:3: fewer fields than the header" in err
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("bad", ["run_csv", "observed_csv"])
def test_validate_row_longer_than_its_header_is_rejected(tmp_path, capsys, bad):
    good = tmp_path / "good.csv"
    good.write_text("cycle,cover_m\n0,1.0\n1,2.0\n")
    path = tmp_path / "bad.csv"
    path.write_text("cycle,cover_m\n0,1.0\n1,2.0,9\n")
    files = [str(path), str(good)] if bad == "run_csv" else [str(good), str(path)]
    code = main(["validate", *files, "--series", "cover_m", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{path}:3: more fields than the header" in err
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("body, message", [
    ('"split_yield_files": {"wheat": "w.csv"}',
     'split_yield_files must be {"wheat": path, "soy2": path}'),
    ('"rent": {"soy_tons": 1, "usd_per_ha": 2}', 'rent must be {"soy_tons": x} or {"usd_per_ha": x}'),
    ('"rent": {}', 'rent must be {"soy_tons": x} or {"usd_per_ha": x}'),
])
def test_pricing_or_rent_setting_of_the_wrong_form_is_rejected(tmp_path, capsys, body, message):
    code, err, written = _run_config(tmp_path, capsys, '{"preset": "longterm", "cycles": 2, %s}' % body)
    assert code == 2
    assert err.count("\n") == 1 and "scenario.json" in err and message in err
    assert written == []


# Finite settings whose margins, rent or initial aspirations are too large
# for a run's sums: before the check, each wrote inf or NaN with exit 0.
_HUGE_SETTINGS = [
    ('"prices": {"M": 1e308, "S": 277, "WS": 153}', "margin of M"),
    ('"prices": {"M": 141, "S": 1e200, "WS": 153}, "rent": {"usd_per_ha": 300}', "margin of S"),
    ('"rent": {"usd_per_ha": 1e308}', "rent_usd_per_ha"),
    ('"rent": {"soy_tons": 1e308}', "rent_soy_tons"),
    ('"initial_al_factor": 1e308', "initial_al_factor"),
]


@pytest.mark.parametrize("body, setting", _HUGE_SETTINGS)
def test_setting_too_large_for_the_run_is_rejected(tmp_path, capsys, body, setting):
    code, err, written = _run_config(
        tmp_path, capsys, '{"preset": "longterm", "cycles": 2, %s}' % body, "--emit-agents")
    assert code == 2
    assert err.count("\n") == 1 and setting in err and "needs it within" in err
    assert written == []


def test_table_giving_a_margin_too_large_for_the_run_is_rejected(tmp_path, capsys, tables):
    def huge_costs(rows):  # scaled alike, so the dataset's invariants still hold
        return [(*row[:-1], row[-1] * 1e298) for row in rows]

    body, _ = _tables_case(tmp_path, tables, "cost", huge_costs)
    code, err, written = _run_config(tmp_path, capsys, '{"preset": "longterm", "cycles": 2, %s}' % body)
    assert code == 2
    assert err.count("\n") == 1 and "margin of M" in err and "cost tables" in err
    assert written == []


# An aspiration factor 1 + alpha must lie in (0, 2). Before this rule an
# alpha of 1e300 overflowed cycle 1's aspirations to inf, with exit 0.
@pytest.mark.parametrize("case, key, value", [
    ("alpha_wgc", "A", 1e300), ("alpha_wgc", "VF", 1.0), ("alpha_wgc", "VU", -1.0),
    ("alpha_bn", "L,H", 1e300), ("alpha_bn", "H,L", -1.0),
])
def test_aspiration_factor_outside_its_range_is_rejected(tmp_path, capsys, tables, case, key, value):
    def set_entry(rows):
        return [(*row[:-1], value if ",".join(row[:-1]) == key else row[-1]) for row in rows]

    body, path = _tables_case(tmp_path, tables, case, set_entry)
    code, err, written = _run_config(
        tmp_path, capsys,
        '{"preset": "longterm", "grid_rows": 3, "grid_cols": 3, "cycles": 3, %s}' % body, "--emit-agents")
    assert code == 2
    assert err.count("\n") == 1 and f"{case}[{key}]: alpha outside (-1, 1)" in err
    assert written == []


@pytest.mark.parametrize("axis, setting", [("soy-price", "margin of S"), ("rent", "rent_usd_per_ha")])
def test_sweep_value_too_large_for_the_run_is_rejected(tmp_path, capsys, axis, setting):
    code = main(["sweep", "--preset", "longterm", "--cycles", "2", "--axis", axis,
                 "--values", "1e308", "--allow-outside-range", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and setting in err
    assert list(tmp_path.iterdir()) == []


def test_library_rejects_a_rent_too_large_for_the_run(tables):
    config = replace(preset("longterm"), cycles=2, rent=("usd_per_ha", 1e308))
    with pytest.raises(ConfigurationError, match="rent_usd_per_ha"):
        run_simulation(config, tables)


@pytest.mark.parametrize("rows, cols, cycles", [(1, 1, 1), (2, 3, 4), (25, 25, 50)])
def test_settings_just_within_the_bound_give_finite_outputs(tmp_path, capsys, tables, rows, cols, cycles):
    """At 99% of the bound the check reports, every output is finite."""
    grid = '"grid_rows": %d, "grid_cols": %d, "cycles": %d' % (rows, cols, cycles)
    probe = tmp_path / "probe"
    probe.mkdir()
    code, err, _ = _run_config(probe, capsys, '{"preset": "longterm", %s, "rent": {"usd_per_ha": 1e308}}' % grid)
    assert code == 2
    limit = 0.99 * float(err.rsplit("+/-", 1)[1])
    price = limit / float(np.max(tables.yield_t_per_ha))
    body = ('%s, "climate": "random", "owner_share_pct": 50, "rent": {"usd_per_ha": %r}, '
            '"initial_al_factor": %r, "prices": {"M": %r, "S": %r, "WS": %r}'
            % (grid, limit, limit / float(np.max(tables.wct_usd_per_ha)), price, price, price))
    run = tmp_path / "run"
    run.mkdir()
    with np.errstate(all="raise"):
        code, err, written = _run_config(run, capsys, '{"preset": "longterm", %s}' % body, "--emit-agents")
    assert code == 0, err
    assert sorted(p.name for p in written) == ["agents.csv", "cycles.csv", "summary.json"]
    for path in written:
        text = path.read_text()
        assert "inf" not in text and "nan" not in text.lower(), path.name
    json.loads((run / "out" / "summary.json").read_text(), parse_constant=_refuse)


def _refuse(token):
    raise ValueError(f"non-finite JSON token {token}")


def _never_run(*args, **kwargs):
    raise AssertionError("a refused configuration reached the run")


@pytest.mark.parametrize("rows, cols", [(50000, 50000), (1, 2**31), (46341, 46341)])
def test_grid_beyond_the_int32_neighbor_table_is_rejected(tmp_path, capsys, monkeypatch, rows, cols):
    """validate refuses the grid before anything per agent is allocated."""
    config = replace(preset("longterm"), grid_rows=rows, grid_cols=cols)
    with pytest.raises(ConfigurationError, match=f"grid {rows} x {cols} "):
        config.validate()
    monkeypatch.setattr("luccsim.cli.run_simulation", _never_run)
    code, err, written = _run_config(
        tmp_path, capsys, '{"preset": "longterm", "grid_rows": %d, "grid_cols": %d}' % (rows, cols))
    assert code == 2
    assert err.count("\n") == 1 and f"grid {rows} x {cols} " in err and "int32" in err
    assert written == []


@pytest.mark.parametrize("rows, cols", [(1, 2**31 - 1), (46340, 46341)])
def test_grid_that_just_fits_the_int32_neighbor_table_validates(rows, cols):
    replace(preset("longterm"), grid_rows=rows, grid_cols=cols).validate()  # validate only: never run


def _out_of_memory(*args, **kwargs):
    raise MemoryError()


@pytest.mark.parametrize("command, target", [
    (["run"], "luccsim.cli.run_simulation"),
    (["sweep", "--axis", "soy-price", "--values", "200"], "luccsim.cli.run_sweep"),
])
def test_running_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch, command, target):
    monkeypatch.setattr(target, _out_of_memory)
    code = main([*command, "--preset", "longterm", "--cycles", "2", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: luccsim {command[0]} needs more memory than is available\n"
    assert list(tmp_path.iterdir()) == []


def _split_scenario_missing_an_entry(tmp_path, settings):
    """both.json with `settings` under split pricing, its soy2.csv missing the (H,VF) entry."""
    wheat = _table_file(tmp_path, "wheat.csv", "tl,wgc,value", [(tl.code, w.code, 2.0) for tl in TechLevel for w in Wgc])
    soy2 = _table_file(tmp_path, "soy2.csv", "tl,wgc,value", [(tl.code, w.code, 1.5) for tl in TechLevel for w in Wgc][:-1])
    scenario = tmp_path / "both.json"
    scenario.write_text('{"preset": "longterm", '
                        '"split_yield_files": {"wheat": "%s", "soy2": "%s"}, %s}' % (wheat, soy2, settings))
    return str(scenario), soy2


# The split-yield files are read by `plan`, after the scenario file is parsed
# and validated: a fault in the scenario file comes first, and a split-yield
# file's fault is named by the table file alone, as a table override's is.
@pytest.mark.parametrize("settings, message", [
    ('"cycles": 2', "{soy2}: missing entry (H,VF)"),
    ('"cycles": 0', "{scenario}: cycles must be at least 1"),
    ('"cycles": 2, "table_overrides": {"wct": "absent.csv"}', "{soy2}: missing entry (H,VF)"),
])
def test_split_yield_file_fault_is_reported_after_the_scenario_file_is_checked(tmp_path, capsys, settings, message):
    scenario, soy2 = _split_scenario_missing_an_entry(tmp_path, settings)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", "--config", scenario, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: {message.format(scenario=scenario, soy2=soy2)}\n"
    assert list(out.iterdir()) == []


# A component yield keeps the combined yield's rules: positive, and not
# decreasing as the weather improves.
@pytest.mark.parametrize("component", ["wheat", "soy2"])
@pytest.mark.parametrize("by_wgc, problem", [
    ({w: -3.0 for w in Wgc}, "yield[L,VU]: non-positive yield"),
    ({**{w: 2.0 for w in Wgc}, Wgc.FAVORABLE: 1.0}, "yield[L,F]: decreasing in weather condition"),
], ids=["negative", "decreasing"])
def test_split_yield_file_breaking_the_yield_rules_is_rejected(tmp_path, capsys, component, by_wgc, problem):
    files = {name: _table_file(tmp_path, f"{name}.csv", "tl,wgc,value", [
        (tl.code, w.code, by_wgc[w] if name == component else 1.5) for tl in TechLevel for w in Wgc])
        for name in ("wheat", "soy2")}
    body = '"split_yield_files": {"wheat": "%(wheat)s", "soy2": "%(soy2)s"}' % files
    code, err, written = _run_config(
        tmp_path, capsys, '{"preset": "longterm", "grid_rows": 5, "grid_cols": 5, "cycles": 3, %s}' % body)
    assert code == 2
    assert err.count("\n") == 1 and f"{files[component]}: {problem}" in err
    assert written == []


_OVER_THE_FIELD_LIMIT = "9" * 200_000  # csv's default field_size_limit is 131,072


def test_table_field_over_the_csv_field_limit_is_rejected_with_its_line(tmp_path, capsys, tables):
    body, path = _tables_case(tmp_path, tables, "wct", lambda rows: [rows[0], (rows[1][0], _OVER_THE_FIELD_LIMIT), *rows[2:]])
    code, err, written = _run_config(tmp_path, capsys, '{"preset": "longterm", "cycles": 2, %s}' % body)
    assert code == 2
    assert err.count("\n") == 1 and f"{path}:3: field larger than field limit" in err
    assert written == []


@pytest.mark.parametrize("text, where", [
    (f"cycle,cover_m\n0,1.0\n\n1,{_OVER_THE_FIELD_LIMIT}\n", 4),  # the blank line counts
    (f"cycle,cover_{_OVER_THE_FIELD_LIMIT}\n0,1.0\n1,2.0\n", 1),
], ids=["data-row", "header"])
@pytest.mark.parametrize("bad", ["run_csv", "observed_csv"])
def test_validate_field_over_the_csv_field_limit_is_rejected_with_its_row(tmp_path, capsys, bad, text, where):
    good = tmp_path / "good.csv"
    good.write_text("cycle,cover_m\n0,1.0\n1,2.0\n")
    path = tmp_path / "bad.csv"
    path.write_text(text)
    files = [str(path), str(good)] if bad == "run_csv" else [str(good), str(path)]
    code = main(["validate", *files, "--series", "cover_m", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{path}:{where}: field larger than field limit" in err
    assert not (tmp_path / "fit.json").exists()


def test_scenario_nested_too_deeply_is_rejected(tmp_path, capsys):
    depth = 100_000
    code, err, written = _run_config(tmp_path, capsys, '{"seed": %s%s}' % ("[" * depth, "]" * depth))
    assert code == 2
    assert err == f"configuration error: {tmp_path / 'scenario.json'}: invalid JSON (nested too deeply)\n"
    assert written == []


# Found by tests/test_fuzz_input.py: an unclosed quote in the header makes the
# whole file one header field, which the message listed on many lines.
@pytest.mark.parametrize("bad", ["run_csv", "observed_csv"])
def test_validate_header_with_an_unclosed_quote_is_rejected_in_one_line(tmp_path, capsys, bad):
    good = tmp_path / "good.csv"
    good.write_text("cycle,cover_m\n0,1.0\n1,2.0\n")
    path = tmp_path / "bad.csv"
    path.write_text('"cycle,cover_m\n0,1.0\n1,2.0\n')
    files = [str(path), str(good)] if bad == "run_csv" else [str(good), str(path)]
    code = main(["validate", *files, "--series", "cover_m", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{path}: no column 'cover_m'" in err
    assert not (tmp_path / "fit.json").exists()


# Found by tests/test_fuzz_input.py: each wrote Infinity to fit.json and
# exited 0, the second after numpy's two-line overflow warning.
@pytest.mark.parametrize("observed", ["1e-310,2e-310,3e-310", "1e308,-1e308,1e308"])
def test_validate_fit_statistic_that_overflows_exits_4(tmp_path, capsys, observed):
    run = tmp_path / "cycles.csv"
    run.write_text("cycle,cover_m\n0,1\n1,2\n2,3\n")
    path = tmp_path / "observed.csv"
    path.write_text("cover_m\n" + observed.replace(",", "\n") + "\n")
    code = main(["validate", str(run), str(path), "--series", "cover_m", "--out-dir", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("metric undefined: series 'cover_m': rmse or v overflows")
    assert not (tmp_path / "fit.json").exists()


def test_validate_names_the_series_whose_metric_is_undefined(tmp_path, capsys):
    run = tmp_path / "cycles.csv"
    run.write_text("cycle,cover_m,mean_p\n0,1,10\n1,2,20\n2,3,30\n")
    path = tmp_path / "observed.csv"
    path.write_text("cover_m,mean_p\n1,0\n3,0\n2,0\n")
    code = main(["validate", str(run), str(path), "--series", "cover_m,mean_p",
                 "--out-dir", str(tmp_path)])
    assert code == 4
    out, err = capsys.readouterr()
    assert out.startswith("cover_m: ") and out.count("\n") == 1
    assert err == "metric undefined: series 'mean_p': v is undefined: observed mean is zero\n"
    assert not (tmp_path / "fit.json").exists()


# Each wrote "rmse": 0.0, "v": 0.0 to fit.json and exited 0.
def test_validate_rmse_whose_squares_underflow_exits_4(tmp_path, capsys):
    run = tmp_path / "cycles.csv"
    run.write_text("cycle,cover_m\n0,2e-170\n1,3e-170\n2,4e-170\n")
    path = tmp_path / "observed.csv"
    path.write_text("cover_m\n1e-170\n2e-170\n3e-170\n")
    code = main(["validate", str(run), str(path), "--series", "cover_m", "--out-dir", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("metric undefined: series 'cover_m': rmse underflows")
    assert not (tmp_path / "fit.json").exists()


def test_sweep_without_a_weather_regime_is_refused_as_run_is(tmp_path, capsys):
    scenario = ["--preset", "pergamino-1988", "--cycles", "2", "--out-dir", str(tmp_path)]
    assert main(["run", *scenario]) == 2
    refusal = capsys.readouterr().err
    assert refusal.count("\n") == 1 and "a climate regime is required" in refusal
    assert main(["sweep", *scenario, "--axis", "owner-share", "--values", "50"]) == 2
    assert capsys.readouterr() == ("", refusal)
    assert list(tmp_path.iterdir()) == []
