"""agents.csv is byte for byte what a csv.writer of the f-string rows writes."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from luccsim import preset
from luccsim.cli import AgentsCsv, write_agents_csv
from luccsim.climate import ClimateRegime
from luccsim.engine import run_simulation
from luccsim.landscape import Tenure
from luccsim.tables import Wgc

HEADER = ["cycle", "row", "col", "tenure", "alloc_m", "alloc_s", "alloc_ws",
          "tl", "al", "cal", "profit", "rl", "econ_ok", "env_ok"]


def reference_agents_csv(agent_rows, path):
    """The row-at-a-time writer: one csv.writer row of f"{x:.6f}" strings per agent."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(HEADER)
        for cycle, row, col, tenure, alloc, tl, al, cal, profit, rl, econ_ok, env_ok in agent_rows:
            writer.writerow([
                cycle, row, col, tenure.code,
                f"{alloc[0]:.6f}", f"{alloc[1]:.6f}", f"{alloc[2]:.6f}", tl.code,
                f"{al:.6f}", f"{cal:.6f}", f"{profit:.6f}", f"{rl:.6f}",
                int(econ_ok), int(env_ok),
            ])


# Signed zeros, exact binary ties and values a digit away from a tie, each
# with the text a correctly rounded, half-to-even conversion gives.
HARD = {
    -0.0: "-0.000000",
    -4e-7: "-0.000000",
    0.0078125: "0.007812",
    2.5e-7: "0.000000",
    99.9999995: "100.000000",
    1e9 + 0.5: "1000000000.500000",
    2.5e-6: "0.000003",
    3.5e-6: "0.000003",
}


# 1, 1023, 1024 and 1025 agents: one agent, and either side of a block boundary
@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 341), (32, 32), (5, 205)])
def test_block_writer_matches_the_row_writer(tmp_path, rows, cols):
    config = replace(preset("longterm", seed=3), grid_rows=rows, grid_cols=cols, cycles=2)
    agent_rows = run_simulation(config, collect_agents=True).agent_rows
    n = rows * cols
    values = np.resize(list(HARD), n)
    index = np.arange(n)
    agent_rows.tenure = [Tenure(i % 2) for i in range(n)]
    for t, cycle in enumerate(agent_rows.cycles):
        columns = (cycle.al, cycle.cal, cycle.profit, cycle.rl, *cycle.alloc.T)
        for j, column in enumerate(columns):
            column[:] = np.roll(values, j + t)
        cycle.tl[:] = index % 3
        cycle.econ[:] = index % 2 == 0
        cycle.env[:] = index % 3 == 0

    reference_agents_csv(agent_rows, tmp_path / "reference.csv")
    write_agents_csv(agent_rows, tmp_path / "agents.csv")
    written = (tmp_path / "agents.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert written.count(b"\r\n") == 1 + 2 * n

    lines = written.decode().splitlines()[1:]
    al = [line.split(",")[8] for line in lines[: min(n, len(HARD))]]
    assert al == list(HARD.values())[: len(al)]


class Forcing:
    """An observer that rewrites a cycle's observed arrays before the observers after it see them.

    `before[0]` is a fresh copy of the allocations and the outcome arrays are
    rewritten by the next cycle, so the run itself goes on unchanged.
    """

    def __init__(self, changes):
        self.changes = changes  # cycle -> f(alloc, landscape)

    def start(self, landscape):
        pass

    def cycle(self, t, before, landscape, record):
        if t in self.changes:
            self.changes[t](before[0], landscape)

    def end(self, result):
        pass


def _changed(previous, current):
    """Agents whose allocation bits, and whose profit or rl bits, differ between two cycles."""
    def bits(a):
        return a.view(np.uint64)
    alloc = (bits(previous.alloc) != bits(current.alloc)).any(axis=1)
    profit_rl = (bits(previous.profit) != bits(current.profit)) | (bits(previous.rl) != bits(current.rl))
    return alloc, profit_rl


# Constant weather (quiet cycles) with changes of level: each change moves
# every profit.
_STRETCHES = ["A"] * 5 + ["F", "U", "F", "U"] + ["A"] * 3


# 1, 1023, 1024 and 1025 agents: one agent, and either side of a block boundary
@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 341), (32, 32), (5, 205)])
def test_the_writer_keeping_texts_matches_the_row_writer(tmp_path, rows, cols):
    n = rows * cols
    # a few agents, on both sides of each block boundary
    few = sorted({0, n // 2, min(1023, n - 1), min(1024, n - 1), n - 1})
    flip = few[len(few) // 2]

    def signed_zero(sign):
        def force(alloc, s):
            alloc[flip, 0] = s.profit[flip] = sign * 0.0
        return force

    def few_rows(alloc, s):
        alloc[few] = alloc[few, ::-1]
        s.profit[few] += 1.0
        s.rl[few[-1]] -= 0.5

    def most_rows(alloc, s):
        most = slice(n // 4, None)
        alloc[most] = np.roll(alloc[most], 1, axis=1) + 0.25
        s.rl[most] *= 0.5

    changes = {2: signed_zero(1.0), 3: signed_zero(-1.0), 4: signed_zero(1.0),
               7: most_rows, 11: few_rows}
    config = replace(preset("longterm", seed=9), grid_rows=rows, grid_cols=cols,
                     cycles=len(_STRETCHES), climate=ClimateRegime.explicit(
                         [Wgc.from_code(code) for code in _STRETCHES]))
    with open(tmp_path / "agents.csv", "w", newline="", encoding="utf-8") as handle:
        result = run_simulation(config, observers=[Forcing(changes), AgentsCsv(handle)],
                                collect_agents=True)
    reference_agents_csv(result.agent_rows, tmp_path / "reference.csv")
    written = (tmp_path / "agents.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert b",-0.000000," in written

    # the run reaches both ways of bringing the texts up to date, in both groups
    cycles = result.agent_rows.cycles
    shares = {t: [group.mean() for group in _changed(cycles[t - 1], cycles[t])]
              for t in range(1, len(cycles))}
    assert shares[7][0] > 0.5 and max(share[1] for share in shares.values()) > 0.5
    if n > 1:
        for t in (3, 4, 11):  # the signed-zero flips and the few rows
            assert all(0 < share <= 0.5 for share in shares[t])
