"""run_simulation's observer hook, and agents.csv written through it as the run goes."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from luccsim import parse_config, preset, run_simulation
from luccsim.cli import _summary_dict, main, write_agents_csv
from luccsim.config import parse_climate_spec


class Recorder:
    """Keeps every call, with copies of what the run would overwrite."""

    def __init__(self):
        self.calls = []

    def start(self, landscape):
        self.calls.append(("start", landscape, _state(landscape)))

    def cycle(self, t, before, landscape, record):
        self.calls.append(("cycle", t, tuple(a.copy() for a in before), _state(landscape), record))

    def end(self, result):
        self.calls.append(("end", result))


def _state(s):
    return s.alloc.copy(), s.tl.astype(np.int8), s.al.copy()


def _config(**changes):
    return replace(preset("longterm", seed=7), grid_rows=6, grid_cols=9, **changes)


def test_calls_come_in_order_with_the_run_records():
    config = _config(cycles=4)
    recorder = Recorder()
    result = run_simulation(config, observers=[recorder])
    kinds = [call[0] for call in recorder.calls]
    assert kinds == ["start"] + ["cycle"] * config.cycles + ["end"]
    assert recorder.calls[0][1] is result.landscape
    cycles = recorder.calls[1:-1]
    assert [call[1] for call in cycles] == list(range(config.cycles))
    assert [call[4] for call in cycles] == result.records
    assert recorder.calls[-1][1] is result


def test_before_is_the_state_each_cycle_began_with():
    config = _config(cycles=4)
    recorder = Recorder()
    run_simulation(config, observers=[recorder])
    agent_rows = run_simulation(config, collect_agents=True).agent_rows
    states = [recorder.calls[0][2]] + [call[3] for call in recorder.calls[1:-1]]
    for t, (_, _, before, _, _) in enumerate(recorder.calls[1:-1]):
        kept = agent_rows.cycles[t]
        for got, want, state in zip(before, (kept.alloc, kept.tl, kept.al), states[t]):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got, state)


def test_an_observer_does_not_change_the_run():
    config = _config(cycles=5, climate=parse_climate_spec("random"))
    plain = run_simulation(config)
    observed = run_simulation(config, observers=[Recorder()], collect_agents=True)
    assert observed.records == plain.records
    assert _summary_dict(observed) == _summary_dict(plain)
    assert plain.agent_rows is None and len(observed.agent_rows) == 5 * 54


def _scenario(tmp_path, rows, cols, climate, cycles):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"preset": "longterm", "seed": 5, "grid_rows": rows,
                                "grid_cols": cols, "cycles": cycles, "climate": climate}))
    return path


# one agent; 1025 agents, across the 1024-agent block boundary; random weather
@pytest.mark.parametrize("rows, cols, climate", [
    (1, 1, "constant-average"), (25, 41, "seesaw"), (25, 41, "random"),
])
def test_streamed_agents_csv_matches_the_kept_trace(tmp_path, capsys, rows, cols, climate):
    scenario = _scenario(tmp_path, rows, cols, climate, cycles=3)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", "--config", str(scenario), "--emit-agents", "--out-dir", str(out)]) == 0
    assert f"agents.csv ({3 * rows * cols} rows)" in capsys.readouterr().out

    result = run_simulation(parse_config(str(scenario)), collect_agents=True)
    write_agents_csv(result.agent_rows, tmp_path / "kept.csv")
    assert (out / "agents.csv").read_bytes() == (tmp_path / "kept.csv").read_bytes()


def test_missing_out_dir_with_emit_agents_is_io_error(tmp_path, capsys):
    args = ["run", "--preset", "longterm", "--cycles", "1", "--emit-agents",
            "--out-dir", str(tmp_path / "nope")]
    assert main(args) == 3
    assert capsys.readouterr().err.count("\n") == 1


def test_workers_below_one_with_emit_agents_writes_nothing(tmp_path, capsys):
    args = ["run", "--preset", "longterm", "--cycles", "1", "--emit-agents",
            "--workers", "0", "--out-dir", str(tmp_path)]
    assert main(args) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def _peak_bytes(tmp_path, cycles):
    scenario = _scenario(tmp_path, 40, 40, "random", cycles)
    tracemalloc.start()
    try:
        assert main(["run", "--config", str(scenario), "--emit-agents",
                     "--out-dir", str(tmp_path)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_emit_agents_memory_does_not_grow_with_cycles(tmp_path, capsys):
    _peak_bytes(tmp_path, 2)  # first-use caches and imports are not the run's
    short, long = _peak_bytes(tmp_path, 5), _peak_bytes(tmp_path, 40)
    assert long <= 1.1 * short, (short, long)
