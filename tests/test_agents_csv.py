"""agents.csv is byte for byte what a csv.writer of the f-string rows writes."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from luccsim import preset
from luccsim.cli import write_agents_csv
from luccsim.engine import run_simulation
from luccsim.landscape import Tenure

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
