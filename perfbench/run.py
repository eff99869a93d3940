#!/usr/bin/env python3
"""luccsim benchmark: whole CLI invocations, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is the
checkout's ``src/luccsim``, which every child process gets on PYTHONPATH.
With ``--trace 0`` each invocation is a fresh ``luccsim`` CLI process and
the end-to-end metrics are printed. With ``--trace 1`` untraced CLI
invocations alternate with traced runs (``child.py trace``) and the
per-layer metrics are printed. Either way the last line of standard output
is one JSON object: correct, attempted, failed and metrics. Invocations
with a non-zero exit or wrong outputs (see check.py) count as failed.

See README.md for why each workload exists and which end-to-end metric
each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from check import OutputGate, load_golden

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Every run ends well inside the 180 s a run may take.
HARD_LIMIT_S = 170.0

# The soybean-price axis over its default range, 11 evenly spaced values;
# the sweep adds the reference price (277), so it makes 12 runs.
SOY_PRICES = (
    "141", "161.54", "182.08", "202.62", "223.16", "243.7",
    "264.24", "284.78", "305.32", "325.86", "346.4",
)


@dataclass(frozen=True)
class Workload:
    command: str  # "run" or "sweep"
    rows: int
    cols: int
    climate: str
    owner_share_pct: float
    emit_agents: bool = False
    cycles: int = 50

    @property
    def agents(self) -> int:
        return self.rows * self.cols

    @property
    def runs(self) -> int:
        return len(SOY_PRICES) + 1 if self.command == "sweep" else 1

    @property
    def files(self) -> tuple[str, ...]:
        if self.command == "sweep":
            return ("sweep.csv",)
        if self.emit_agents:
            return ("cycles.csv", "agents.csv", "summary.json")
        return ("cycles.csv", "summary.json")

    def scenario(self, seed: int) -> dict:
        return {
            "preset": "longterm",
            "grid_rows": self.rows,
            "grid_cols": self.cols,
            "cycles": self.cycles,
            "climate": self.climate,
            "owner_share_pct": self.owner_share_pct,
            "seed": seed,
        }

    def cli_args(self, scenario: Path, out_dir: Path) -> list[str]:
        args = [self.command, "--config", str(scenario), "--out-dir", str(out_dir)]
        if self.command == "sweep":
            args += ["--axis", "soy-price", "--values", ",".join(SOY_PRICES)]
        if self.emit_agents:
            args.append("--emit-agents")
        return args


WORKLOADS = {
    # Largest grid, churning landscape: the engine's per-agent loops
    # dominate wall time and initialize dominates set-up.
    "run-churn": Workload("run", 250, 250, "random", 10.0),
    # Quiescent landscape with the per-agent trace: writing agents.csv
    # dominates wall time and the buffered rows set peak memory.
    "trace-quiet": Workload("run", 100, 100, "constant-average", 50.0, emit_agents=True),
    # The paper's scale swept over the soybean price: per-call overhead
    # and the sweep layer dominate. No --workers: at width 2 the threads
    # contend for the GIL, and on a shared 2-core host that handoff, not
    # the program's work, sets the wall time and its spread.
    "sweep-paper": Workload("sweep", 25, 25, "seesaw", 50.0),
}

CLI = "import sys; from luccsim.cli import main; sys.exit(main(sys.argv[1:]))"


@dataclass
class Child:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    spawned_at: float


def spawn(argv: list[str], log: Path, deadline: float) -> Child:
    """Run one child to its end; its own rusage gives its peak RSS.

    The child is killed at `deadline` (a perf_counter time). Waiting on a
    pidfd wakes at the child's exit, so the wall time carries no polling
    delay, and the kill cannot reach a recycled pid.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as out:
        spawned_at = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(deadline - time.perf_counter(), 0.0))
        if not ready:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        ended_at = time.perf_counter()
    except BaseException:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return Child(proc.returncode, ended_at - spawned_at, usage.ru_maxrss * 1024 / 1e6, spawned_at)


@dataclass
class Run:
    """State of one benchmark run: its budget, its files and its tally."""

    name: str
    workload: Workload
    seed: int
    seconds: float
    work: Path
    started: float = field(default_factory=time.perf_counter)
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        w = self.workload
        self.gate = OutputGate(w.files, w.agents, w.cycles, w.runs, load_golden(self.name, self.seed))
        self.scenario = self.work / "scenario.json"
        self.scenario.write_text(json.dumps(w.scenario(self.seed), indent=2) + "\n")

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def fits(self, seconds: float) -> bool:
        """True if `seconds` more work stays inside the measuring budget."""
        return self.elapsed + seconds <= self.seconds

    def child(self, argv: list[str], label: str) -> Child:
        self.attempted += 1
        result = spawn(argv, self.work / f"{label}.log", self.started + HARD_LIMIT_S)
        if result.returncode != 0:
            self.fail(f"{label}: exit code {result.returncode}")
        return result

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons.append(reason)

    def outputs_ok(self, out_dir: Path, label: str) -> bool:
        reason = self.gate.reject_reason(out_dir)
        if reason is not None:
            self.fail(f"{label}: {reason}")
        return reason is None

    def invoke_cli(self, k: int) -> Child:
        out = self.work / f"cli{k}"
        out.mkdir()
        argv = [sys.executable, "-c", CLI] + self.workload.cli_args(self.scenario, out)
        result = self.child(argv, f"cli{k}")
        if result.returncode == 0:
            self.outputs_ok(out, f"cli{k}")
        shutil.rmtree(out)
        return result

    def invoke_traced(self, k: int) -> tuple[Child, Optional[dict], int]:
        """One traced run; returns it, its trace, and agents.csv's size."""
        out = self.work / f"traced{k}"
        out.mkdir()
        spans = self.work / f"spans{k}.json"
        spec = self.work / f"spec{k}.json"
        w = self.workload
        spec.write_text(json.dumps({
            "command": w.command, "scenario": str(self.scenario), "out_dir": str(out),
            "emit_agents": w.emit_agents,
            "values": SOY_PRICES, "spans": str(spans),
        }))
        result = self.child([sys.executable, str(HERE / "child.py"), "trace", str(spec)], f"traced{k}")
        trace = None
        agents_bytes = 0
        if result.returncode == 0 and self.outputs_ok(out, f"traced{k}"):
            trace = json.loads(spans.read_text())
            if w.emit_agents:
                agents_bytes = (out / "agents.csv").stat().st_size
        shutil.rmtree(out)
        return result, trace, agents_bytes


def warm_up(run: Run) -> None:
    """Compile the checkout's bytecode and make sure it is what gets imported."""
    log = run.work / "import.log"
    code = "import luccsim.cli; print(luccsim.cli.__file__)"
    if spawn([sys.executable, "-c", code], log, run.started + HARD_LIMIT_S).returncode == 0:
        imported = Path(log.read_text().strip()).resolve()
        if imported != (SRC / "luccsim" / "cli.py").resolve():
            sys.exit(f"luccsim resolves to {imported}, not to {SRC}")


def measure_end_to_end(run: Run) -> dict[str, float]:
    w = run.workload
    # A fresh set-up process precedes each invocation, so both medians
    # sample the same stretch of the run. At least one invocation, then more
    # while one more like the last (with its set-up and output check) fits
    # in the budget; at least 3 set-ups in all.
    setups: list[float] = []
    setup_argv = [sys.executable, str(HERE / "child.py"), "setup", str(run.scenario)]
    invocations: list[Child] = []
    last = 0.0
    while not invocations or run.fits(last):
        begun = run.elapsed
        setups.append(run.child(setup_argv, f"setup{len(setups)}").wall_s)
        invocations.append(run.invoke_cli(len(invocations)))
        last = run.elapsed - begun
    while len(setups) < 3:
        setups.append(run.child(setup_argv, f"setup{len(setups)}").wall_s)

    wall = statistics.median(c.wall_s for c in invocations)
    agent_cycles = w.agents * w.cycles * w.runs
    report_samples("wall_s", [c.wall_s for c in invocations], "s")
    report_samples("setup_s", setups, "s")
    return {
        "wall_s": wall,
        "agent_cycles_per_s": agent_cycles / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in invocations),
    }


def _sum(trace: dict, name: str) -> float:
    return sum(end - start for n, start, end, _ in trace["spans"] if n == name)


def layer_metrics(trace: dict, traced: Child, agents_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    Layers the workload does not run (agents.csv outside trace-quiet, the
    sweep outside sweep-paper) read 0.
    """
    spans = trace["spans"]
    counts = trace["counts"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    cycle_ms = [(e - s) * 1e3 for n, s, e, _ in spans if n == "engine.run_cycle"]
    deciles = statistics.quantiles(cycle_ms, n=10, method="inclusive")
    run_cycle_s = _sum(trace, "engine.run_cycle")
    run_sweep_s = _sum(trace, "sweep.run_sweep")
    sweep_runs = sum(
        1 for n, _, _, parent in spans
        if n == "engine.run_simulation" and parent is not None and spans[parent][0] == "sweep.run_sweep"
    )
    write_agents_s = _sum(trace, "cli.write_agents")
    process_start = trace["t0"] - traced.spawned_at
    roots = sum(e - s for n, s, e, parent in spans if parent is None)
    return {
        "engine.run_cycle_s": run_cycle_s,
        "engine.cycle_ms_p50": deciles[4],
        "engine.cycle_ms_p90": deciles[8],
        "engine.agent_updates_per_s": counts["engine.agent_cycles"] / run_cycle_s,
        "engine.imitations": counts["engine.imitations"],
        "engine.unsatisfied": counts["engine.unsatisfied"],
        "engine.imitation_ratio": counts["engine.imitations"] / max(counts["engine.unsatisfied"], 1),
        "engine.quiescent_cycles": counts["engine.quiescent_cycles"],
        "engine.tl_changes": counts["engine.tl_changes"],
        "engine.run_simulation_self_s": sum(
            e - s - child_time[i] for i, (n, s, e, _) in enumerate(spans) if n == "engine.run_simulation"
        ),
        "landscape.initialize_s": _sum(trace, "landscape.initialize"),
        "rng.draws": counts["rng.draws"],
        "landscape.aggregate_s": _sum(trace, "landscape.aggregate"),
        "cli.write_agents_s": write_agents_s,
        "cli.agents_bytes": agents_bytes,
        "cli.agents_rows_per_s": counts.get("cli.agents_rows", 0) / write_agents_s if write_agents_s else 0.0,
        "cli.write_cycles_s": _sum(trace, "cli.write_cycles"),
        "metrics.summary_s": _sum(trace, "metrics.summary"),
        "cli.import_s": _sum(trace, "cli.import"),
        "config.build_s": _sum(trace, "config.build"),
        "sweep.run_sweep_s": run_sweep_s,
        "sweep.runs": sweep_runs,
        "sweep.s_per_run": run_sweep_s / sweep_runs if sweep_runs else 0.0,
        "trace.process_start_s": process_start,
        "trace.span_coverage_pct": 100.0 * roots / (traced.wall_s - process_start),
    }


def measure_layers(run: Run) -> dict[str, float]:
    # Pairs of one untraced and one traced invocation, alternating which
    # goes first, while one more pair like the last fits in the budget.
    untraced: list[Child] = []
    traced: list[Child] = []
    samples: list[dict[str, float]] = []
    last = 0.0
    while not untraced or run.fits(last):
        begun = run.elapsed
        k = len(untraced)
        if k % 2:
            result, trace, agents_bytes = run.invoke_traced(k)
            untraced.append(run.invoke_cli(k))
        else:
            untraced.append(run.invoke_cli(k))
            result, trace, agents_bytes = run.invoke_traced(k)
        traced.append(result)
        if trace is not None:
            samples.append(layer_metrics(trace, result, agents_bytes))
        last = run.elapsed - begun
    if not samples:
        return {}
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    wall = statistics.median(c.wall_s for c in untraced)
    traced_wall = statistics.median(c.wall_s for c in traced)
    metrics["trace_overhead_pct"] = 100.0 * (traced_wall - wall) / wall
    report_samples("untraced wall_s", [c.wall_s for c in untraced], "s")
    report_samples("traced wall_s", [c.wall_s for c in traced], "s")
    return metrics


def report_samples(name: str, values: list[float], unit: str) -> None:
    print(
        f"  {name}: median {statistics.median(values):.4f} {unit}, n={len(values)}: "
        + " ".join(f"{v:.4f}" for v in values)
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated harness still stops its child (see spawn) and cleans up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "luccsim" / "cli.py").is_file():
        print(f"no luccsim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, work)
        warm_up(run)
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        metrics = measure_layers(run) if args.trace else measure_end_to_end(run)
        if args.trace and (work / "spans0.json").is_file():
            (WORK / f"{args.workload}-spans.json").write_bytes((work / "spans0.json").read_bytes())
    finally:
        shutil.rmtree(work)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for reason in run.reasons:
        print(f"  FAILED {reason}")
    for name, unit in units.items():
        print(f"  {name} = {metrics.get(name, float('nan')):.6g} {unit}")
    print(f"  failed_frac = {run.failed / run.attempted:.6g} ({run.failed} of {run.attempted} invocations)")
    print(json.dumps({
        "correct": run.failed == 0 and set(metrics) == set(units),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
