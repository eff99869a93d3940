"""Bad numbers exit with code 2 and a one-line message, and write nothing."""

from dataclasses import replace

import pytest

from luccsim import ConfigurationError, TechLevel, Wgc, preset, run_simulation, run_sweep
from luccsim.cli import main
from luccsim.sweep import SweepAxis, SweepParameter


def _run_config(tmp_path, capsys, text):
    config = tmp_path / "scenario.json"
    config.write_text(text)
    out = tmp_path / "out"
    out.mkdir()
    code = main(["run", "--config", str(config), "--out-dir", str(out)])
    return code, capsys.readouterr().err, list(out.iterdir())


@pytest.mark.parametrize(
    "body, field",
    [
        ('"initial_al_factor": NaN', "initial_al_factor"),
        ('"et_pct": NaN', "et_pct"),
        ('"owner_share_pct": Infinity', "owner_share_pct"),
        ('"wheat_price_usd_per_t": NaN', "wheat_price_usd_per_t"),
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
        ('"wheat_price_usd_per_t": "139"', "wheat_price_usd_per_t"),
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


@pytest.mark.parametrize("width", [0, -3])
def test_library_rejects_workers_below_one(tables, width):
    config = replace(preset("longterm"), cycles=2)
    with pytest.raises(ConfigurationError, match="workers"):
        run_simulation(config, tables, workers=width)
    axis = SweepAxis(SweepParameter.SOYBEAN_PRICE, (200.0,))
    with pytest.raises(ConfigurationError, match="workers"):
        run_sweep(config, axis, tables, workers=width)


def test_library_rejects_nan_setting(tables):
    config = replace(preset("longterm"), cycles=2, initial_al_factor=float("nan"))
    with pytest.raises(ConfigurationError, match="initial_al_factor"):
        run_simulation(config, tables)


def _table_file(tmp_path, name, header, rows):
    path = tmp_path / name
    path.write_text("\n".join([header, *(",".join(map(str, r)) for r in rows)]) + "\n")
    return str(path)


def _tables_case(tmp_path, tables, case):
    """(scenario body, table file) with one non-finite value on line 3 of the file."""
    if case == "yield":
        rows = [(lu.code, tl.code, wgc.code, v) for (lu, tl, wgc), v in tables.yield_t_per_ha.items()]
        rows[1] = (*rows[1][:3], "nan")
        path = _table_file(tmp_path, "yield.csv", "lu,tl,wgc,value", rows)
        return '"table_overrides": {"yield": "%s"}' % path, path
    if case == "alpha_wgc":
        rows = [(w.code, "nan" if w is Wgc.UNFAVORABLE else v) for w, v in tables.alpha_wgc.items()]
        path = _table_file(tmp_path, "alpha_wgc.csv", "wgc,value", rows)
        return '"climate": "constant-unfavorable", "table_overrides": {"alpha_wgc": "%s"}' % path, path
    if case == "wct":
        rows = [(t.code, "nan" if t is TechLevel.AVERAGE else v) for t, v in tables.wct_usd_per_ha.items()]
        path = _table_file(tmp_path, "wct.csv", "tl,value", rows)
        return '"table_overrides": {"wct": "%s"}' % path, path
    rows = [(tl.code, w.code, 2.0) for tl in TechLevel for w in Wgc]
    rows[1] = (*rows[1][:2], "-inf")
    path = _table_file(tmp_path, "wheat.csv", "tl,wgc,value", rows)
    soy2 = _table_file(tmp_path, "soy2.csv", "tl,wgc,value", [(tl.code, w.code, 1.5) for tl in TechLevel for w in Wgc])
    return ('"pricing_mode": "split", "split_yield_files": {"wheat": "%s", "soy2": "%s"}'
            % (path, soy2)), path


@pytest.mark.parametrize("case", ["yield", "alpha_wgc", "wct", "split_yield"])
def test_non_finite_table_value_is_rejected_with_its_line(tmp_path, capsys, tables, case):
    body, path = _tables_case(tmp_path, tables, case)
    code, err, written = _run_config(tmp_path, capsys, '{"preset": "longterm", "cycles": 2, %s}' % body)
    assert code == 2
    assert err.count("\n") == 1 and f"{path}:3:" in err and "not finite" in err
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
    assert str(path) in err and "'cover_m'" in err and "data row 2" in err and reason in err
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("case", ["yield", "split_yield"])
def test_table_file_that_is_not_utf8_is_rejected(tmp_path, capsys, tables, case):
    body, path = _tables_case(tmp_path, tables, case)
    with open(path, "ab") as handle:
        handle.write(NOT_UTF8)
    code, err, written = _run_config(tmp_path, capsys, '{"preset": "longterm", "cycles": 2, %s}' % body)
    assert code == 2
    assert err.count("\n") == 1 and path in err and "UTF-8" in err
    assert written == []
