"""Whole runs checked against each other, through scenario files and `luccsim run`.

Money scale: multiplying every US$ input (the prices, the cost table and
the working-capital thresholds `wct`) by 2**k scales every US$ quantity
of the run by exactly 2**k and leaves every decision unchanged. A power of
two is exact in IEEE arithmetic, so the relation holds bit for bit while
no value overflows or underflows.

Tenure without rent: when no owner pays rent and no tenant pays any, the
owner share moves nothing, since no draw depends on it. A landscape of
owners under any rent runs as one of any owner share under a rent of 0.

Weather replay: random weather is drawn after the landscape is initialized,
so a random-weather run equals the run of the weather sequence it played.
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from luccsim import LandUse, TechLevel, Wgc, default_tables
from luccsim.cli import main

from test_golden import _write_split_yields

_PRICES = {"M": 141.0, "S": 277.0, "WS": 153.0}


def _run(directory: Path, scenario: dict) -> tuple[list[dict], dict]:
    """`luccsim run` of `scenario` on the longterm preset: cycles.csv rows and summary.json."""
    directory.mkdir()
    scenario = {"preset": "longterm", **scenario}
    if "split_yield_files" in scenario:  # None: write the component yield files here
        scenario["split_yield_files"] = _write_split_yields(directory)
    config = directory / "scenario.json"
    config.write_text(json.dumps(scenario))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(config), "--out-dir", str(directory)]) == 0
    rows = list(csv.DictReader((directory / "cycles.csv").read_text().splitlines()))
    return rows, json.loads((directory / "summary.json").read_text())


def _money_tables(directory: Path, scale: float) -> dict:
    """The cost and wct table override files of the embedded dataset times `scale`."""
    tables = default_tables()
    cost = directory / f"cost-{scale!r}.csv"
    cost.write_text("lu,tl,wgc,value\n" + "".join(
        f"{lu.code},{tl.code},{w.code},{tables.cost_usd_per_ha[lu, tl, w].item() * scale!r}\n"
        for lu in LandUse for tl in TechLevel for w in Wgc))
    wct = directory / f"wct-{scale!r}.csv"
    wct.write_text("tl,value\n" + "".join(
        f"{tl.code},{tables.wct_usd_per_ha[tl].item() * scale!r}\n" for tl in TechLevel))
    return {"cost": str(cost), "wct": str(wct)}


_MONEY_SUMMARY = ("min", "q25", "median", "q75", "max", "mean")


@settings(derandomize=True, max_examples=20)
@given(rows=st.integers(1, 6), cols=st.integers(1, 6), seed=st.integers(0, 2**64 - 1),
       k=st.sampled_from([-3, -2, -1, 1, 2, 3]), owner_share=st.floats(0, 100),
       pricing=st.sampled_from([{}, {"split_yield_files": None}]))
def test_money_scale_by_a_power_of_two_scales_only_the_money(rows, cols, seed, k, owner_share,
                                                             pricing):
    scenario = {"grid_rows": rows, "grid_cols": cols, "cycles": 12, "seed": seed,
                "owner_share_pct": owner_share, "climate": "random", **pricing}
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for name, scale in (("base", 1.0), ("scaled", 2.0**k)):
            files = _money_tables(Path(tmp), scale)
            prices = {code: price * scale for code, price in _PRICES.items()}
            runs.append(_run(Path(tmp) / name, {**scenario, "prices": prices,
                                                "table_overrides": files}))
    (base_rows, base), (scaled_rows, scaled) = runs

    def without_mean_p(cycles):
        return [{column: value for column, value in row.items() if column != "mean_p"}
                for row in cycles]

    assert without_mean_p(scaled_rows) == without_mean_p(base_rows)
    expected = {**base, "mean_profit_usd_per_ha": base["mean_profit_usd_per_ha"] * 2.0**k,
                "per_agent_mean_profit": {**base["per_agent_mean_profit"], **{
                    q: base["per_agent_mean_profit"][q] * 2.0**k for q in _MONEY_SUMMARY}}}
    assert scaled == expected


def test_split_pricing_prices_the_wheat_at_the_double_crops_price(tmp_path):
    scenario = {"grid_rows": 4, "grid_cols": 5, "cycles": 6, "seed": 3, "climate": "random",
                "split_yield_files": None}
    cheap, _ = _run(tmp_path / "cheap", {**scenario, "prices": _PRICES})
    dear, _ = _run(tmp_path / "dear", {**scenario, "prices": {**_PRICES, "WS": 999.0}})
    assert float(dear[0]["mean_p"]) > float(cheap[0]["mean_p"])  # the same first allocation


def _outputs(directory: Path) -> dict[str, bytes]:
    return {name: (directory / name).read_bytes() for name in ("cycles.csv", "summary.json")}


_RENTS = (st.floats(0, 5).map(lambda tons: {"soy_tons": tons})
          | st.floats(0, 1000).map(lambda usd: {"usd_per_ha": usd}))


@settings(derandomize=True, max_examples=10)
@given(rows=st.integers(1, 5), cols=st.integers(1, 5), seed=st.integers(0, 2**64 - 1),
       owner_share=st.floats(0, 100), rent=_RENTS)
def test_owners_under_any_rent_run_as_any_tenure_without_rent(rows, cols, seed, owner_share, rent):
    scenario = {"grid_rows": rows, "grid_cols": cols, "cycles": 12, "seed": seed,
                "climate": "random"}
    with tempfile.TemporaryDirectory() as tmp:
        owners, free = Path(tmp) / "owners", Path(tmp) / "free"
        _run(owners, {**scenario, "owner_share_pct": 100.0, "rent": rent})
        _run(free, {**scenario, "owner_share_pct": owner_share, "rent": {"usd_per_ha": 0}})
        assert _outputs(owners) == _outputs(free)


@settings(derandomize=True, max_examples=10)
@given(rows=st.integers(1, 5), cols=st.integers(1, 5), seed=st.integers(0, 2**64 - 1),
       owner_share=st.floats(0, 100))
def test_random_weather_runs_as_the_sequence_it_played(rows, cols, seed, owner_share):
    scenario = {"grid_rows": rows, "grid_cols": cols, "cycles": 12, "seed": seed,
                "owner_share_pct": owner_share}
    with tempfile.TemporaryDirectory() as tmp:
        drawn, replayed = Path(tmp) / "drawn", Path(tmp) / "replayed"
        cycles, summary = _run(drawn, {**scenario, "climate": "random"})
        played = {"sequence": [row["wgc"] for row in cycles]}
        _, replay_summary = _run(replayed, {**scenario, "climate": played})
        assert (replayed / "cycles.csv").read_bytes() == (drawn / "cycles.csv").read_bytes()
    assert {**replay_summary, "climate": summary["climate"]} == summary
