"""Bad numbers exit with code 2 and a one-line message, and write nothing."""

from dataclasses import replace

import pytest

from luccsim import ConfigurationError, preset, run_simulation, run_sweep
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
        ('"rent": {"usd_per_ha": {}}', "rent.usd_per_ha"),
        ('"prices": {"M": "cheap", "S": 277, "WS": 153}', "prices.M"),
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
