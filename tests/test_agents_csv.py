"""agents.csv is byte for byte what a csv.writer of the f-string rows writes."""

import csv
import io
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from luccsim import preset
from luccsim.cli import AgentsCsv, write_agents_csv
from luccsim.climate import ClimateRegime
from luccsim.engine import AgentCycle, run_simulation
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


def _bits_to_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_TOP = 2.0**32  # the largest magnitude the kernel formats by itself is just below it
# every float64 bit pattern: subnormals, NaNs with any payload and sign, infinities
_ANY_BITS = st.integers(0, 2**64 - 1).map(_bits_to_float)
_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324,
                            -5e-324, 2.2250738585072014e-308, math.nextafter(_TOP, 0.0), _TOP,
                            math.nextafter(_TOP, math.inf), -math.nextafter(_TOP, 0.0), -_TOP])
# x·10**6 = k + 0.5 exactly means x = (2k + 1) / (2**7·5**6); a double's denominator has
# no factor 5, so 5**6 divides 2k + 1 and x is an odd multiple of 1/128
_EXACT_TIES = st.builds(lambda odd, sign: sign * (2 * odd + 1) / 128.0,
                        st.integers(0, 2**38), st.sampled_from([1.0, -1.0]))
# the doubles nearest (k + 0.5)·1e-6 and their neighbours, from 1e-6 to near 2**32
_NEAR_TIES = st.builds(lambda k, toward: math.nextafter((k + 0.5) * 1e-6, toward),
                       st.one_of(st.integers(0, 10**4), st.integers(0, 2**32 * 10**6)),
                       st.sampled_from([0.0, math.inf]))
_NEAR_TIES |= st.integers(0, 2**32 * 10**6).map(lambda k: (k + 0.5) * 1e-6)


@given(st.lists(st.one_of(_ANY_BITS, _SPECIAL, _EXACT_TIES, _NEAR_TIES), min_size=1, max_size=40))
def test_every_float_column_is_written_as_percent_f(values):
    n = len(values)
    x = np.array(values)
    writer = AgentsCsv(io.StringIO())
    writer.begin(np.zeros(n, int), np.arange(n), [Tenure.OWNER] * n)
    columns = (x, np.roll(x, 1), -x, x[::-1], -np.roll(x, 1), np.roll(x, 2), x)
    cycle = AgentCycle(np.stack(columns[:3], axis=1), np.zeros(n, np.int8), *columns[3:],
                       np.zeros(n, bool), np.ones(n, bool))
    for t in (10, 7):  # the second cycle's label is narrower than its band
        writer.write_cycle(t, cycle)
    rows = [row.split(",") for row in writer.handle.getvalue().split("\r\n")[1:-1]]
    assert [row[0] for row in rows] == ["10"] * n + ["7"] * n
    fields = [row[4:7] + row[8:12] for row in rows]
    assert fields == [["%.6f" % column[i] for column in columns] for i in range(n)] * 2


class ForcingBefore(Forcing):
    """`Forcing` that hands its changes the whole `before` tuple (alloc, tl, al) copies."""

    def cycle(self, t, before, landscape, record):
        if t in self.changes:
            self.changes[t](before, landscape)


class Widths:
    """An observer, after an `AgentsCsv`, that records the width of its rows' byte matrix."""

    def __init__(self, writer):
        self.writer, self.widths = writer, []

    def start(self, landscape):
        pass

    def cycle(self, t, before, landscape, record):
        self.widths.append(self.writer.m.shape[1])

    def end(self, result):
        pass


def test_bands_that_widen_mid_run_match_the_row_writer(tmp_path):
    rows, cols = 5, 205  # 1025 agents: either side of a block boundary
    agent, forced = 1024, 6

    def no_negative_profit(before, s):
        s.profit[:] = np.abs(s.profit)

    def widen(before, s):
        no_negative_profit(before, s)
        before[2][agent] = 1e20  # al: beyond the kernel, formatted by '%.6f' itself
        s.profit[agent] = -abs(s.profit[agent]) - 1.0  # the run's first negative profit
        s.rl[agent] = 12345.678  # five digits: a second digit group

    changes = {t: no_negative_profit for t in range(len(_STRETCHES))}
    changes[forced] = widen
    config = replace(preset("longterm", seed=5), grid_rows=rows, grid_cols=cols,
                     cycles=len(_STRETCHES), climate=ClimateRegime.explicit(
                         [Wgc.from_code(code) for code in _STRETCHES]))
    with open(tmp_path / "agents.csv", "w", newline="", encoding="utf-8") as handle:
        writer = AgentsCsv(handle)
        widths = Widths(writer)
        result = run_simulation(config, observers=[ForcingBefore(changes), writer, widths],
                                collect_agents=True)
    reference_agents_csv(result.agent_rows, tmp_path / "reference.csv")
    written = (tmp_path / "agents.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()

    lines = written.decode().splitlines()
    row = lines[1 + forced * rows * cols + agent].split(",")
    assert row[8] == "100000000000000000000.000000" and row[11] == "12345.678000"
    assert row[10].startswith("-")
    assert sum(line.split(",")[10].startswith("-") for line in lines[1:]) == 1
    # the forced cycle laid the matrix out wider; bands only widen, so the
    # cycles after it pad their narrower texts with 0 bytes
    assert widths.widths[forced] > widths.widths[forced - 1]
    assert widths.widths == sorted(widths.widths)
