"""The benchmark's own checks, on tiny scenarios.

An altered output file and a non-zero exit must each count as a failed
invocation, and the traced run must write the same bytes as the CLI.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run as bench
from check import OutputGate

TINY = bench.Workload("run", 4, 5, "random", 50.0, emit_agents=True, cycles=3)
TINY_SWEEP = bench.Workload("sweep", 3, 3, "seesaw", 50.0, cycles=3)
SEED = 7  # no golden digests, so the invariants and repeat checks apply


def _run(tmp_path, workload=TINY):
    work = tmp_path / "work"
    work.mkdir()
    return bench.Run("tiny", workload, SEED, 60.0, work)


def _cli_outputs(run, out):
    out.mkdir()
    argv = [sys.executable, "-c", bench.CLI] + run.workload.cli_args(run.scenario, out)
    assert bench.spawn(argv, run.work / "manual.log", run.started + 60).returncode == 0
    return out


def test_correct_invocations_pass(tmp_path):
    run = _run(tmp_path)
    for k in range(2):
        assert run.invoke_cli(k).returncode == 0
    assert (run.attempted, run.failed) == (2, 0)


def test_altered_output_counts_as_failed(tmp_path):
    run = _run(tmp_path)
    good = _cli_outputs(run, tmp_path / "good")
    assert run.outputs_ok(good, "good")

    altered = tmp_path / "altered"
    shutil.copytree(good, altered)
    cycles = altered / "cycles.csv"
    text = cycles.read_text()
    last_digit = text.rstrip()[-1]
    cycles.write_text(text.rstrip()[:-1] + str((int(last_digit) + 1) % 10) + "\n")
    assert not run.outputs_ok(altered, "altered")
    assert run.failed == 1


def test_invariant_breach_counts_as_failed(tmp_path):
    run = _run(tmp_path)
    out = _cli_outputs(run, tmp_path / "out")
    agents = out / "agents.csv"
    lines = agents.read_text().splitlines()
    fields = lines[1].split(",")
    fields[10] = "nan"  # profit
    agents.write_text("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    reason = OutputGate(TINY.files, TINY.agents, TINY.cycles, TINY.runs).reject_reason(out)
    assert reason is not None and "not finite" in reason


def test_golden_mismatch_counts_as_failed(tmp_path):
    run = _run(tmp_path)
    out = _cli_outputs(run, tmp_path / "out")
    golden = {name: "0" * 64 for name in TINY.files}
    gate = OutputGate(TINY.files, TINY.agents, TINY.cycles, TINY.runs, golden)
    assert "golden" in gate.reject_reason(out)


def test_nonzero_exit_counts_as_failed(tmp_path):
    broken = bench.Workload("run", 4, 5, "random", 150.0, cycles=3)  # share > 100
    run = _run(tmp_path, broken)
    assert run.invoke_cli(0).returncode == 2
    assert (run.attempted, run.failed) == (1, 1)


@pytest.mark.parametrize("workload", [TINY, TINY_SWEEP], ids=["run", "sweep"])
def test_traced_run_matches_cli_and_reports_every_layer(tmp_path, workload):
    run = _run(tmp_path, workload)
    run.invoke_cli(0)
    traced, trace, agents_bytes = run.invoke_traced(0)
    assert run.failed == 0, run.reasons  # traced outputs are byte-identical
    metrics = bench.layer_metrics(trace, traced, agents_bytes)
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) | {"trace_overhead_pct"} == {m["name"] for m in spec["per_layer"]}
    assert metrics["engine.agent_updates_per_s"] > 0
    assert metrics["sweep.runs"] == (workload.runs if workload.command == "sweep" else 0)
    assert (metrics["cli.agents_bytes"] > 0) == workload.emit_agents


def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / bench.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{bench.HERE.name}/run.py", "--workload", "sweep-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_lists_every_workload():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
