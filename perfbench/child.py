"""Child processes of the luccsim benchmark.

    python3 child.py setup SCENARIO.json
        Import luccsim as the CLI does, build the scenario's config, call
        resolve_tables and initialize, and exit: the set-up a user pays
        before the first cycle. The parent times the whole process.

    python3 child.py trace SPEC.json
        Do what one CLI invocation does, by calling the modules' public
        functions from here, and record a span around each call into a
        layer. Inside run_simulation the spans come from wrapping the names
        it looks up in luccsim.engine (initialize, wgc_for_cycle,
        context_for, run_cycle, SplitMix64); the program is not edited.
        Writes the spans and counters to the spec's "spans" path.

Both expect luccsim on PYTHONPATH.
"""

import time

T0 = time.perf_counter()  # process start ends here; perf_counter is system-wide

import json  # noqa: E402
import sys  # noqa: E402


def setup(scenario: str) -> None:
    import luccsim.cli  # noqa: F401  (the CLI process imports all of luccsim)
    from luccsim import SplitMix64, initialize, parse_config, resolve_tables

    config = parse_config(scenario)
    config.validate()
    tables = resolve_tables(config)
    initialize(config, tables, SplitMix64(config.seed))


class Tracer:
    """Spans (name, start, end, parent index) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def wrap(self, name: str, fn):
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def _instrument_engine(tracer: Tracer) -> None:
    """Wrap the calls run_simulation makes into the engine's layers."""
    from luccsim import engine, landscape

    class CountingSplitMix64(engine.SplitMix64):
        __slots__ = ()

        def next_u64(self):
            tracer.counts["rng.draws"] += 1
            return super().next_u64()

    tracer.counts["rng.draws"] = 0
    for name in (
        "engine.imitations", "engine.unsatisfied", "engine.quiescent_cycles",
        "engine.tl_changes", "engine.agent_cycles",
    ):
        tracer.counts[name] = 0

    run_cycle = engine.run_cycle
    aggregate = landscape.aggregate

    def traced_run_cycle(scape, ctx, **kwargs):
        cells = scape.cells
        index = tracer.begin("trace.snapshot")
        alloc_before = [c.allocation for c in cells]
        tl_before = [c.tl for c in cells]
        tracer.end(index)

        result = tracer.call("engine.run_cycle", run_cycle, scape, ctx, **kwargs)
        # aggregate is pure; one extra call times the aggregation that
        # run_cycle does inside its own span.
        tracer.call(
            "landscape.aggregate", aggregate, scape, kwargs.get("cycle_index", 0),
            ctx.wgc,
        )

        index = tracer.begin("trace.compare")
        changed = sum(a != c.allocation for a, c in zip(alloc_before, cells))
        tracer.add("engine.imitations", changed)
        tracer.add("engine.quiescent_cycles", changed == 0)
        tracer.add("engine.unsatisfied", sum(not c.econ_ok for c in cells))
        tracer.add("engine.tl_changes", sum(t is not c.tl for t, c in zip(tl_before, cells)))
        tracer.add("engine.agent_cycles", len(cells))
        tracer.end(index)
        return result

    engine.SplitMix64 = CountingSplitMix64
    engine.initialize = tracer.wrap("landscape.initialize", engine.initialize)
    engine.wgc_for_cycle = tracer.wrap("climate.wgc_for_cycle", engine.wgc_for_cycle)
    engine.context_for = tracer.wrap("engine.context_for", engine.context_for)
    engine.run_cycle = traced_run_cycle


def _run_command(tracer: Tracer, spec: dict) -> None:
    """What `luccsim run` does after argument parsing."""
    from luccsim import cli
    from luccsim.config import parse_config, resolve_tables
    from luccsim.engine import run_simulation

    def build():
        config = parse_config(spec["scenario"])
        config.validate()
        return config, resolve_tables(config)

    config, tables = tracer.call("config.build", build)
    emit = spec["emit_agents"]
    result = tracer.call("engine.run_simulation", run_simulation, config, tables, collect_agents=emit)
    out = spec["out_dir"]
    tracer.call("cli.write_cycles", cli.write_cycles_csv, result.records, f"{out}/cycles.csv")
    if emit:
        tracer.call("cli.write_agents", cli.write_agents_csv, result.agent_rows, f"{out}/agents.csv")
        tracer.add("cli.agents_rows", len(result.agent_rows))

    def summary():
        with open(f"{out}/summary.json", "w", encoding="utf-8") as handle:
            json.dump(cli._summary_dict(result), handle, indent=2, sort_keys=True)
            handle.write("\n")

    tracer.call("metrics.summary", summary)


def _sweep_command(tracer: Tracer, spec: dict) -> None:
    """What `luccsim sweep --axis soy-price` does after argument parsing."""
    from luccsim import sweep
    from luccsim.config import parse_config, resolve_tables

    def build():
        config = parse_config(spec["scenario"])
        config.validate()
        axis = sweep.SweepAxis(
            sweep.SweepParameter.SOYBEAN_PRICE,
            tuple(float(v) for v in spec["values"]),
        )
        return config, axis, resolve_tables(config)

    config, axis, tables = tracer.call("config.build", build)
    sweep.run_simulation = tracer.wrap("engine.run_simulation", sweep.run_simulation)
    result = tracer.call("sweep.run_sweep", sweep.run_sweep, config, axis, tables)
    tracer.call(
        "cli.write_sweep", sweep.write_sweep_csv, result, f"{spec['out_dir']}/sweep.csv"
    )


def trace(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    tracer = Tracer()
    index = tracer.begin("cli.import")
    import luccsim.cli  # noqa: F401

    tracer.end(index)
    _instrument_engine(tracer)
    command = _sweep_command if spec["command"] == "sweep" else _run_command
    # The command's result is released inside its span, as in the CLI.
    tracer.call("cli.command", command, tracer, spec)
    with open(spec["spans"], "w", encoding="utf-8") as handle:
        json.dump({"t0": T0, "spans": tracer.spans, "counts": tracer.counts}, handle)


if __name__ == "__main__":
    mode, path = sys.argv[1:3]
    if mode == "setup":
        setup(path)
    elif mode == "trace":
        trace(path)
    else:
        sys.exit(f"unknown mode {mode!r}")
