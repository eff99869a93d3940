import csv
import json
from dataclasses import replace

import pytest

from luccsim import LandUse, TechLevel, Wgc, preset, run_simulation
from luccsim.cli import main, read_series_csv, write_cycles_csv

def _run(args):
    return main(args)


def _write_wgc(tmp_path, codes):
    path = tmp_path / "wgc.txt"
    path.write_text("\n".join(codes) + "\n")
    return str(path)


class TestRunCommand:
    def test_deterministic_rerun_is_byte_identical(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        out1.mkdir()
        out2.mkdir()
        for out in (out1, out2):
            code = _run(
                [
                    "run",
                    "--preset",
                    "longterm",
                    "--seed",
                    "1",
                    "--cycles",
                    "12",
                    "--out-dir",
                    str(out),
                ]
            )
            assert code == 0
        assert (out1 / "cycles.csv").read_bytes() == (out2 / "cycles.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (
            out2 / "summary.json"
        ).read_bytes()

    def test_single_agent_run_matches_engine_example(self, tmp_path, tables):
        config_path = tmp_path / "one.json"
        config_path.write_text(
            json.dumps(
                {
                    "preset": "longterm",
                    "grid_rows": 1,
                    "grid_cols": 1,
                    "cycles": 1,
                    "seed": 0,
                    "owner_share_pct": 100.0,
                    "initial_cover_pct": {"M": 0, "S": 100, "WS": 0},
                    "initial_tl_pct": {"L": 0, "A": 0, "H": 100},
                }
            )
        )
        code = _run(
            ["run", "--config", str(config_path), "--out-dir", str(tmp_path)]
        )
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "cycles.csv").read_text().splitlines()))
        assert len(rows) == 1
        assert rows[0]["wgc"] == "A"
        assert rows[0]["mean_p"] == "609.840000"
        assert rows[0]["cover_s"] == "100.000000"
        assert rows[0]["pct_econ_ok"] == "100.000000"

    def test_seesaw_wgc_column(self, tmp_path):
        code = _run(
            [
                "run",
                "--preset",
                "longterm",
                "--climate",
                "seesaw",
                "--cycles",
                "6",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "cycles.csv").read_text().splitlines()))
        assert [r["wgc"] for r in rows] == ["VU", "A", "VF", "VU", "A", "VF"]

    def test_emit_agents_schema(self, tmp_path):
        code = _run(
            [
                "run",
                "--preset",
                "longterm",
                "--cycles",
                "2",
                "--out-dir",
                str(tmp_path),
                "--emit-agents",
            ]
        )
        assert code == 0
        with open(tmp_path / "agents.csv") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            rows = list(reader)
        assert header == [
            "cycle", "row", "col", "tenure", "alloc_m", "alloc_s", "alloc_ws",
            "tl", "al", "cal", "profit", "rl", "econ_ok", "env_ok",
        ]
        assert len(rows) == 2 * 625
        assert rows[0][3] in ("O", "T")
        assert rows[0][7] in ("L", "A", "H")

    def test_pergamino_requires_wgc_sequence(self, tmp_path):
        code = _run(
            ["run", "--preset", "pergamino-1988", "--out-dir", str(tmp_path)]
        )
        assert code == 2

    def test_pergamino_runs_with_sequence(self, tmp_path):
        wgc = _write_wgc(tmp_path, ["A", "F", "VU"] * 9)  # 27 entries
        code = _run(
            [
                "run",
                "--preset",
                "pergamino-1988",
                "--wgc-file",
                wgc,
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "cycles.csv").read_text().splitlines()))
        assert len(rows) == 27

    def test_missing_out_dir_is_io_error(self, tmp_path):
        code = _run(
            [
                "run",
                "--preset",
                "longterm",
                "--cycles",
                "1",
                "--out-dir",
                str(tmp_path / "nope"),
            ]
        )
        assert code == 3

    def test_config_and_preset_conflict(self):
        assert _run(["run", "--config", "x.json", "--preset", "longterm"]) == 2

    def test_random_climate_is_seed_deterministic(self, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            out.mkdir()
            code = _run(
                [
                    "run", "--preset", "longterm", "--seed", "8",
                    "--cycles", "20", "--climate", "random",
                    "--out-dir", str(out),
                ]
            )
            assert code == 0
            outs.append((out / "cycles.csv").read_bytes())
        assert outs[0] == outs[1]
        rows = list(csv.DictReader((tmp_path / "r1" / "cycles.csv").read_text().splitlines()))
        assert len({r["wgc"] for r in rows}) > 1

    def test_workers_flag_keeps_output_identical(self, tmp_path):
        outs = []
        for name, workers in (("w1", "1"), ("w4", "4")):
            out = tmp_path / name
            out.mkdir()
            code = _run(
                [
                    "run", "--preset", "longterm", "--seed", "3",
                    "--cycles", "10", "--workers", workers,
                    "--out-dir", str(out),
                ]
            )
            assert code == 0
            outs.append((out / "cycles.csv").read_bytes())
        assert outs[0] == outs[1]


class TestRoundTrip:
    def test_cycles_csv_roundtrip_at_emitted_precision(self, tmp_path, tables):
        config = replace(preset("longterm", seed=5), cycles=4)
        result = run_simulation(config, tables)
        path = tmp_path / "cycles.csv"
        write_cycles_csv(result.records, str(path))
        rows = list(csv.DictReader(path.read_text().splitlines()))
        for row, record in zip(rows, result.records):
            assert int(row["cycle"]) == record.cycle
            assert row["wgc"] == record.wgc.code
            assert float(row["cover_m"]) == round(
                record.cover_pct[LandUse.MAIZE], 6
            )
            assert float(row["mean_p"]) == round(
                record.mean_profit_usd_per_ha, 6
            )
            assert int(row["tl_l"]) == record.tl_counts[TechLevel.LOW]


class TestValidateCommand:
    def _fixture_files(self, tmp_path, obs, sim):
        run_path = tmp_path / "cycles.csv"
        obs_path = tmp_path / "observed.csv"
        with open(run_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["cycle", "cover_s"])
            for i, v in enumerate(sim):
                writer.writerow([i, f"{v:.6f}"])
        with open(obs_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["year", "cover_s"])
            for i, v in enumerate(obs):
                writer.writerow([1988 + i, f"{v:.6f}"])
        return str(run_path), str(obs_path)

    def test_self_comparison_is_perfect(self, tmp_path):
        run_path, obs_path = self._fixture_files(
            tmp_path, [10.0, 20.0, 30.0], [10.0, 20.0, 30.0]
        )
        code = _run(
            [
                "validate", run_path, obs_path,
                "--series", "cover_s", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["cover_s"] == {"rmse": 0.0, "v": 0.0, "pm": 1.0, "iof": 1.0}

    def test_reversed_series_iof(self, tmp_path):
        run_path, obs_path = self._fixture_files(
            tmp_path, [10.0, 20.0, 30.0], [30.0, 20.0, 10.0]
        )
        code = _run(
            [
                "validate", run_path, obs_path,
                "--series", "cover_s", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["cover_s"]["iof"] == -1.0

    def test_three_point_mixed_example(self, tmp_path):
        run_path, obs_path = self._fixture_files(
            tmp_path, [1.0, 2.0, 3.0], [2.0, 1.0, 3.0]
        )
        code = _run(
            [
                "validate", run_path, obs_path,
                "--series", "cover_s", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["cover_s"]["pm"] == pytest.approx(2.0 / 3.0)

    def test_alias_headers_accepted(self, tmp_path):
        run_path = tmp_path / "cycles.csv"
        run_path.write_text("cycle,cover_s\n0,10.0\n1,20.0\n")
        obs_path = tmp_path / "observed.csv"
        obs_path.write_text("year,cover_soy\n1988,10.0\n1989,20.0\n")
        code = _run(
            [
                "validate", str(run_path), str(obs_path),
                "--series", "cover_s", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0

    def test_length_mismatch_is_config_error(self, tmp_path):
        run_path, obs_path = self._fixture_files(
            tmp_path, [1.0, 2.0], [1.0, 2.0]
        )
        with open(run_path, "a") as handle:
            handle.write("2,99.0\n")
        code = _run(
            [
                "validate", run_path, obs_path,
                "--series", "cover_s", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2

    def test_constant_observed_series_is_metric_error(self, tmp_path):
        run_path, obs_path = self._fixture_files(
            tmp_path, [5.0, 5.0, 5.0], [1.0, 2.0, 3.0]
        )
        code = _run(
            [
                "validate", run_path, obs_path,
                "--series", "cover_s", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 4

    def test_unknown_series_rejected(self, tmp_path):
        run_path, obs_path = self._fixture_files(tmp_path, [1.0, 2.0], [1.0, 2.0])
        code = _run(
            [
                "validate", run_path, obs_path,
                "--series", "cover_x", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2


class TestSweepCommand:
    def test_soy_price_axis(self, tmp_path):
        code = _run(
            [
                "sweep", "--preset", "longterm", "--seed", "1",
                "--cycles", "3",
                "--axis", "soy-price", "--values", "141,277,346.4",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "sweep.csv").read_text().splitlines()))
        assert len(rows) == 3
        assert [r["value"] for r in rows] == [
            "141.000000", "277.000000", "346.400000",
        ]

    def test_owner_share_axis(self, tmp_path):
        code = _run(
            [
                "sweep", "--preset", "longterm", "--seed", "1",
                "--cycles", "3", "--owner-share", "50",
                "--axis", "owner-share", "--values", "10,30,50,70,90",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "sweep.csv").read_text().splitlines()))
        assert len(rows) == 5

    def test_wgc_mix_axis(self, tmp_path):
        code = _run(
            [
                "sweep", "--preset", "longterm", "--seed", "1",
                "--cycles", "4",
                "--axis", "wgc-mix", "--values", "VU,VF",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "sweep.csv").read_text().splitlines()))
        assert [r["value"] for r in rows] == ["reference", "VU", "VF"]

    def test_out_of_range_value_rejected(self, tmp_path):
        code = _run(
            [
                "sweep", "--preset", "longterm", "--cycles", "2",
                "--axis", "rent", "--values", "100",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2

    def test_unknown_axis_rejected(self, tmp_path):
        code = _run(
            [
                "sweep", "--preset", "longterm", "--cycles", "2",
                "--axis", "soy", "--values", "1",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2


def _count_checks(monkeypatch):
    """Count the calls of `validate`, `check_scale` and `resolve_tables`, wherever luccsim binds them."""
    from luccsim import cli, config, engine, sweep

    counts = dict.fromkeys(("validate", "check_scale", "resolve_tables"), 0)

    def counting(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(config.ScenarioConfig, "validate",
                        counting("validate", config.ScenarioConfig.validate))
    for name in ("check_scale", "resolve_tables"):
        original = getattr(engine, name)
        for module in (config, engine, sweep, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    return counts


@pytest.mark.parametrize("options", [[], ["--emit-agents", "--workers", "3"]])
def test_run_checks_its_config_once(tmp_path, monkeypatch, options):
    counts = _count_checks(monkeypatch)
    assert main(["run", "--preset", "longterm", "--cycles", "3", *options,
                 "--out-dir", str(tmp_path)]) == 0
    assert counts == {"validate": 1, "check_scale": 1, "resolve_tables": 1}


@pytest.mark.parametrize("axis, values", [("soy-price", "200,250,300"), ("wgc-mix", "VU,F")])
def test_sweep_checks_each_run_once(tmp_path, monkeypatch, axis, values):
    counts = _count_checks(monkeypatch)
    assert main(["sweep", "--preset", "longterm", "--cycles", "3", "--axis", axis,
                 "--values", values, "--out-dir", str(tmp_path)]) == 0
    runs = len((tmp_path / "sweep.csv").read_text().splitlines()) - 1
    assert runs == len(values.split(",")) + 1  # the reference row included
    assert counts["validate"] == runs + 1  # the base in run_sweep, then each run
    assert counts["check_scale"] == runs and counts["resolve_tables"] == 1


@pytest.mark.parametrize("existing", ["nothing", "a file"])
@pytest.mark.parametrize(
    "command", [["run"], ["sweep", "--axis", "soy-price", "--values", "200,250"]]
)
def test_out_dir_that_is_not_a_directory_is_refused_before_any_run(
        tmp_path, capsys, monkeypatch, command, existing):
    import luccsim.cli as cli

    monkeypatch.setattr(cli, "run_simulation", None)  # a run would raise TypeError
    monkeypatch.setattr(cli, "run_sweep", None)
    out = tmp_path / "out"
    if existing == "a file":
        out.write_text("")
    code = main([*command, "--preset", "longterm", "--climate", "random", "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("i/o error:")
    assert str(out) in captured.err


@pytest.mark.parametrize("existing", ["nothing", "a file"])
def test_validate_refuses_an_out_dir_that_is_not_a_directory_before_reading(
        tmp_path, capsys, monkeypatch, existing):
    import luccsim.cli as cli

    series = tmp_path / "series.csv"
    series.write_text("cover_s\n10\n20\n")
    monkeypatch.setattr(cli, "read_series_csv", None)  # a read would raise TypeError
    out = tmp_path / "out"
    if existing == "a file":
        out.write_text("")
    code = main(["validate", str(series), str(series), "--series", "cover_s",
                 "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("i/o error:")
    assert str(out) in captured.err


def test_read_series_csv_normalizes_aliases(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("Year,cover_maize,cover_soy,cover_ws\n1,2,3,4\n")
    columns = read_series_csv(str(path))
    assert set(columns) == {"year", "cover_m", "cover_s", "cover_ws"}


@pytest.mark.parametrize("kind", ["scenario", "wct", "wheat", "weather", "observed"])
def test_input_file_starting_with_a_byte_order_mark_reads_as_without_one(tmp_path, capsys, kind):
    def table(name, header, rows):
        path = tmp_path / name
        path.write_text("\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n")
        return path

    files = {
        "scenario": tmp_path / "scenario.json",
        "wct": table("wct.csv", "tl,value", [("L", 250), ("A", 330), ("H", 410)]),
        "wheat": table("wheat.csv", "tl,wgc,value", [(tl.code, w.code, 2.0 + w) for tl in TechLevel for w in Wgc]),
        "weather": tmp_path / "wgc.txt",
        "observed": tmp_path / "observed.csv",  # its first column compared
    }
    soy2 = table("soy2.csv", "tl,wgc,value", [(tl.code, w.code, 1.5) for tl in TechLevel for w in Wgc])
    files["weather"].write_text("VU\nA\nF\n")
    files["observed"].write_text("cover_m,year\n30,1\n35,2\n32,3\n")
    files["scenario"].write_text(json.dumps({
        "preset": "longterm", "grid_rows": 3, "grid_cols": 3, "cycles": 3,
        "table_overrides": {"wct": str(files["wct"])},
        "split_yield_files": {"wheat": str(files["wheat"]), "soy2": str(soy2)},
        "climate": {"sequence_file": str(files["weather"])},
    }))
    out = tmp_path / "out"
    out.mkdir()

    def outputs():
        assert main(["run", "--config", str(files["scenario"]), "--out-dir", str(out)]) == 0
        assert main(["validate", str(out / "cycles.csv"), str(files["observed"]),
                     "--series", "cover_m", "--out-dir", str(out)]) == 0
        assert capsys.readouterr().err == ""
        return {path.name: path.read_bytes() for path in out.iterdir()}

    plain = outputs()
    path = files[kind]
    path.write_text("\ufeff" + path.read_text())
    assert outputs() == plain


class TestSummaryJson:
    def test_single_agent_summary_values(self, tmp_path):
        config_path = tmp_path / "one.json"
        config_path.write_text(
            json.dumps(
                {
                    "preset": "longterm",
                    "grid_rows": 1,
                    "grid_cols": 1,
                    "cycles": 2,
                    "seed": 0,
                    "owner_share_pct": 100.0,
                    "initial_cover_pct": {"M": 0, "S": 100, "WS": 0},
                    "initial_tl_pct": {"L": 0, "A": 0, "H": 100},
                }
            )
        )
        code = _run(
            ["run", "--config", str(config_path), "--out-dir", str(tmp_path)]
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["agents"] == 1
        assert summary["cycles"] == 2
        assert summary["final_cover_pct"] == {"M": 0.0, "S": 100.0, "WS": 0.0}
        assert summary["final_tl_counts"] == {"L": 0, "A": 0, "H": 1}
        # constant conditions: profit 609.84 every cycle, goals always met
        assert summary["mean_profit_usd_per_ha"] == pytest.approx(609.84)
        assert summary["per_agent_mean_profit"]["min"] == pytest.approx(609.84)
        assert summary["per_agent_mean_profit"]["cv"] == pytest.approx(0.0)
        assert summary["econ_goal_agreement_pct"]["mean"] == 100.0
        assert summary["env_goal_agreement_pct"]["mean"] == 0.0  # rl 47.3 < 50
        assert summary["env_goal_agreement_pct"]["cv"] is None  # undefined at a zero mean

    def test_agents_csv_roundtrip_at_emitted_precision(self, tmp_path):
        code = _run(
            [
                "run", "--preset", "longterm", "--seed", "4",
                "--cycles", "2", "--emit-agents", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        from luccsim import preset as _preset

        config = replace(_preset("longterm", seed=4), cycles=2)
        result = run_simulation(config, collect_agents=True)
        rows = list(csv.DictReader((tmp_path / "agents.csv").read_text().splitlines()))
        assert len(rows) == len(result.agent_rows)
        for row, rec in zip(rows, result.agent_rows):
            cycle, r, c, tenure, alloc, tl, al, cal, profit, rl, econ, env = rec
            assert int(row["cycle"]) == cycle
            assert (int(row["row"]), int(row["col"])) == (r, c)
            assert row["tenure"] == tenure.code
            assert float(row["alloc_s"]) == round(alloc[1], 6)
            assert row["tl"] == tl.code
            assert float(row["al"]) == round(al, 6)
            assert float(row["cal"]) == round(cal, 6)
            assert float(row["profit"]) == round(profit, 6)
            assert float(row["rl"]) == round(rl, 6)
            assert row["econ_ok"] == str(int(econ))
            assert row["env_ok"] == str(int(env))


class TestValidateOnRealRun:
    def test_mean_series_self_comparison(self, tmp_path):
        code = _run(
            [
                "run", "--preset", "longterm", "--seed", "2",
                "--cycles", "8", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "cycles.csv").read_text().splitlines()))
        obs_path = tmp_path / "observed.csv"
        with open(obs_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["year", "cover_m", "cover_s", "cover_ws", "mean_p", "mean_rl"])
            for i, row in enumerate(rows):
                writer.writerow(
                    [1988 + i, row["cover_m"], row["cover_s"],
                     row["cover_ws"], row["mean_p"], row["mean_rl"]]
                )
        code = _run(
            [
                "validate", str(tmp_path / "cycles.csv"), str(obs_path),
                "--series", "cover_m,cover_s,cover_ws,mean_p,mean_rl",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "fit.json").read_text())
        assert set(report) == {"cover_m", "cover_s", "cover_ws", "mean_p", "mean_rl"}
        for series in report.values():
            assert series["rmse"] == 0.0
            assert series["pm"] == 1.0


_WEATHER = ["VU", "F", "A", "U", "VF"] * 10


@pytest.mark.parametrize("flags, setting", [
    (["--seed", "9"], {"seed": 9}),
    (["--cycles", "7"], {"cycles": 7}),
    (["--owner-share", "12.5"], {"owner_share_pct": 12.5}),
    (["--climate", "seesaw"], {"climate": "seesaw"}),
    (["--wgc-file", "wgc.txt"], {"climate": {"sequence_file": "wgc.txt"}}),
])
def test_override_flag_gives_the_outputs_of_its_scenario_key(tmp_path, monkeypatch, flags, setting):
    monkeypatch.chdir(tmp_path)
    _write_wgc(tmp_path, _WEATHER)
    (tmp_path / "scenario.json").write_text(json.dumps({"preset": "longterm", **setting}))
    outputs = []
    for source in (["--preset", "longterm", *flags], ["--config", "scenario.json"]):
        out = tmp_path / f"out{len(outputs)}"
        out.mkdir()
        assert _run(["run", *source, "--out-dir", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("cycles.csv", "summary.json")])
    assert outputs[0] == outputs[1]
