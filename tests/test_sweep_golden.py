"""Full-precision golden digests for every sweep axis.

`tests/test_golden.py` pins three axes through `sweep.csv`, whose means
carry six decimals. Here every axis is pinned, including split pricing,
a US$/ha-rent base and a random-weather mix. Each scenario pins two
digests: the SHA-256 of the `sweep.csv` that `luccsim sweep` writes, and
the SHA-256 of each row's label with its `mean_profit` and `mean_rl` as
`float.hex()`, from `run_sweep` on the same scenario. A change in the
last bit of any row's means changes the second digest.

To print the digests of whatever luccsim is on PYTHONPATH:

    PYTHONPATH=src python tests/test_sweep_golden.py
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from luccsim.cli import main
from luccsim.config import parse_config
from luccsim.sweep import SweepAxis, SweepParameter, run_sweep
from luccsim.tables import Wgc

from test_golden import _write_split_yields

# name -> (scenario overrides on the longterm preset, axis, comma list of values)
SCENARIOS = {
    "maize-price": ({"grid_rows": 5, "grid_cols": 5, "seed": 2, "climate": "seesaw"},
                    "maize-price", "80,185.28"),
    "wheat-price-combined": ({"grid_rows": 5, "grid_cols": 6, "seed": 3, "climate": "random"},
                             "wheat-price", "110,249.23"),
    "wheat-price-split": ({"grid_rows": 6, "grid_cols": 5, "seed": 4, "climate": "random",
                           "pricing_mode": "split", "wheat_price_usd_per_t": 140.0},
                          "wheat-price", "110,200"),
    "soy-price-split": ({"grid_rows": 5, "grid_cols": 5, "seed": 5, "climate": "seesaw",
                         "pricing_mode": "split"}, "soy-price", "200,346.4"),
    "rent": ({"grid_rows": 5, "grid_cols": 5, "seed": 6, "owner_share_pct": 20.0,
              "climate": "random"}, "rent", "250,700"),
    "soy-price-usd-rent": ({"grid_rows": 5, "grid_cols": 6, "seed": 7, "owner_share_pct": 10.0,
                            "climate": "seesaw", "rent": {"usd_per_ha": 400.0}},
                           "soy-price", "150,300"),
    "owner-share": ({"grid_rows": 6, "grid_cols": 6, "seed": 8, "climate": "seesaw"},
                    "owner-share", "10,30,90"),
    "wgc-mix-random": ({"grid_rows": 5, "grid_cols": 5, "seed": 9, "climate": "random"},
                       "wgc-mix", "VU,A,VF"),
}

GOLDEN = {
    "maize-price": {
        "means": "3e7a1838abedb00c52034b429fcbccc6f1bb909a9cc2a9ea349b28751c9ec3ea",
        "sweep.csv": "d3af735d3a7642901a721c52655fc526f987d7fd3f46baf039a0a5bfa32dad4d"
    },
    "owner-share": {
        "means": "ad01fc55dd270b3598a1d369303eb325cd001d2b5a93d8eafadc5736187cf257",
        "sweep.csv": "91745573b2c74d72379d1a168eeb7d3f4009ff923fc42e99264e7cebf5a11e49"
    },
    "rent": {
        "means": "cc27b644e7ba24b9291010c8486c222543bee6dbe9b07762d6b7a467b6e8d1e5",
        "sweep.csv": "fc9ebb4e870647eadc52df687b1b2aecc321cc7731c78726eb6871309f791b0a"
    },
    "soy-price-split": {
        "means": "f4d94021d05e4dd0751776deaadff7205f497211a16c1b0dccd80941174f0e1d",
        "sweep.csv": "3b750aa0becd7fa44df631c5d3414d13f47a43b9146eff1f5bce1fcce47ccd5d"
    },
    "soy-price-usd-rent": {
        "means": "f01ba794cdc7e0511dbf16b1c502d01fa3d20c15074f3fcc4a57e6f70ba0db13",
        "sweep.csv": "698e4c328df53f9d6fb6afec7895329dbb795b0e9936ba4ebf8330d20bfaae46"
    },
    "wgc-mix-random": {
        "means": "679ea652227a24e4bd39384670f3d1fc5289baa29fd49efd161d6fab659f50ec",
        "sweep.csv": "40d789499e0619650f91e76a9cfa31748a4500b049275a88a96ce9fed248f046"
    },
    "wheat-price-combined": {
        "means": "aa97eb400c0c46a3076dc58f7a7f4f193ebf30678073905f0a19e5434cc20206",
        "sweep.csv": "720c10561916d461de47dbe7f0c2a71da5e3418703d7b687e4444d98a8793a06"
    },
    "wheat-price-split": {
        "means": "5d5454b07ff53c0dc91585c5e8152856c44de1fbe5d3fd67e04634874471d21e",
        "sweep.csv": "30c2fcbf25bb514a5b01ec54ee2940d9c6b2096f621c51f61a1d148bd733f1df"
    }
}


def _axis(name: str, values: str) -> SweepAxis:
    parameter = SweepParameter(name)
    if parameter is SweepParameter.WGC_MIX_LEVEL:
        return SweepAxis(parameter, tuple(Wgc.from_code(v) for v in values.split(",")))
    return SweepAxis(parameter, tuple(float(v) for v in values.split(",")))


def digests(name: str, directory: Path) -> dict:
    """Sweep one scenario into `directory`; hash sweep.csv and the rows' exact means."""
    overrides, axis, values = SCENARIOS[name]
    scenario = {"preset": "longterm", "cycles": 12, **overrides}
    if scenario.get("pricing_mode") == "split":
        scenario["split_yield_files"] = _write_split_yields(directory)
    config = directory / "scenario.json"
    config.write_text(json.dumps(scenario))
    out = directory / "out"
    out.mkdir()
    args = ["sweep", "--config", str(config), "--axis", axis, "--values", values,
            "--out-dir", str(out)]
    assert main(args) == 0
    result = run_sweep(parse_config(str(config)), _axis(axis, values))
    means = "".join(
        f"{row.value_label},{row.mean_profit.hex()},{row.mean_rl.hex()}\n" for row in result.rows
    )
    return {
        "sweep.csv": hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest(),
        "means": hashlib.sha256(means.encode()).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_sweep_matches_full_precision_digests(name, tmp_path):
    assert digests(name, tmp_path) == GOLDEN[name]


def test_every_axis_has_a_scenario():
    assert {axis for _, axis, _ in SCENARIOS.values()} == {p.value for p in SweepParameter}
    assert sorted(GOLDEN) == sorted(SCENARIOS)


if __name__ == "__main__":
    table = {}
    for scenario in sorted(SCENARIOS):
        with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(sys.stderr):
            table[scenario] = digests(scenario, Path(scratch))
    json.dump(table, sys.stdout, indent=4, sort_keys=True)
    sys.stdout.write("\n")
