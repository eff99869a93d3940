"""The agents.csv writer, which `luccsim run --emit-agents` imports on first use.

`luccsim.cli` re-exports `AgentsCsv` and `write_agents_csv` lazily, so a
run without `--emit-agents` never loads this module.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .engine import AgentCycle, AgentRows, RunResult
from .landscape import TENURES, CycleRecord, Landscape
from .tables import TechLevel

__all__ = ["AgentsCsv", "write_agents_csv"]

_AGENTS_HEADER = ("cycle", "row", "col", "tenure", "alloc_m", "alloc_s", "alloc_ws",
                 "tl", "al", "cal", "profit", "rl", "econ_ok", "env_ok")

# Agents per `tobytes`: bounds the transient text of a block well under 1 MB.
_AGENT_BLOCK = 1024


def _texts(texts: Sequence[bytes], width: int = 0) -> np.ndarray:
    """`texts` right-aligned with 0 bytes into the rows of a byte matrix at least `width` wide."""
    width = max([width, *map(len, texts)])
    return np.frombuffer(b"".join(s.rjust(width, b"\0") for s in texts), "u1").reshape(-1, width)


class _Band:
    """A float column's ",%.6f" texts as 4-byte words, each at a byte offset of every row.

    A row is ",", a sign byte if any value is negative, the whole part in 4-digit groups
    (leading zeros blanked), ".ddd" and "dddd"; 0 bytes pad, and the next word overwrites a
    word's stray bytes. Halves below 2**52 are doubles, so y = fl(|x|·1e6) is on the same
    side of each as |x|·1e6 and rint(y) rounds as '%.6f' does unless y is a half: such a
    value, |x| >= 2**32 and a non-finite value go to '%.6f' itself.
    """

    def __init__(self, x: np.ndarray):
        """Round the column into int64 (numpy's index type) and measure the band."""
        y = np.fmin(np.abs(x), 2.0**32)  # a NaN too: it and larger values are measured so
        exact = y < 2.0**32
        y *= 1e6
        self.q = np.rint(y, out=np.empty(len(x), np.int64), casting="unsafe")
        exact &= np.abs(np.subtract(y, self.q, out=y), out=y) < 0.5
        self.slow, self.sign = np.flatnonzero(~exact), np.signbit(x)
        self.start = 1 + bool(self.sign.any())  # the first digit's offset
        self.point = self.start + len(str(self.q.max() // 10**6))  # the "."'s offset
        self.texts = [b",%.6f" % v for v in x[self.slow].tolist()]
        self.width = max([self.point + 7, *map(len, self.texts)])

    def fill(self, m: np.ndarray, at: slice, digits: Sequence[np.ndarray]) -> None:
        """Write the band into the columns `at` of `m`, right-aligned, with `AgentsCsv.digits`."""
        start, point, lead = self.start, self.point, at.stop - self.point - 7
        above, group, word = np.empty_like(self.q), np.empty_like(self.q), np.empty(len(m), "<u4")

        def words(power):  # q // 10**power's last 4 digits, blanked below 10**4 in the whole part
            top = np.floor_divide(self.q, 10**power, out=above) if power else self.q
            np.floor_divide(top, 10**4, out=group)
            np.multiply(group, -10**4, out=group)
            np.add(group, top, out=group)  # the last 4 digits
            np.add(group, 10**4, out=group)  # the index of their zero-padded word
            if power >= 6:
                np.minimum(top, group, out=group)
            return digits[power > 6].take(group, out=word, mode="clip")

        def put(offset, word):  # each row's little-endian word at that byte, unaligned
            np.ndarray(len(m), "<u4", m, lead + offset, (m.shape[1],))[:] = word

        m[:, at.start : lead] = 0
        put(0, np.add(np.multiply(self.sign, np.uint32(0x2D00), out=word), 0x2C, out=word))
        for k in reversed(range(-(-(point - start) // 4))):  # after ",-" or ",", the groups
            at_k = point - 4 * (k + 1)  # the first drops its unused leading bytes
            put(max(at_k, start), np.right_shift(words(6 + 4 * k), 8 * max(start - at_k, 0), word))
        put(point, np.add(np.left_shift(words(2), 8, out=word), 46, out=word))  # ".ddd"
        put(point + 3, words(0))
        if len(self.slow):
            m[self.slow, at] = _texts(self.texts, at.stop - at.start)


class AgentsCsv:
    """A `RunObserver` that writes agents.csv to an open text handle as the run goes.

    The bytes are what a csv.writer writes for an `AgentRows` with floats
    as f"{x:.6f}" and flags as int(flag). The rows are one (agents, bytes)
    matrix, a band of columns per field, 0 bytes as padding. al and cal, which
    change every cycle, are refilled every cycle, another float band only when
    its column's bits change (-0.0 and 0.0 print differently). A band only widens;
    the matrix is then laid out anew, keeping only the widths. Memory grows
    with the agents, not with the cycles.
    """

    def __init__(self, handle):
        self.handle = handle

    def start(self, landscape: Landscape) -> None:
        row, col = np.divmod(np.arange(landscape.n_agents), landscape.cols)
        self.begin(row, col, [TENURES[t] for t in landscape.tenant.tolist()])

    def begin(self, row, col, tenure) -> None:
        """Write the header and make the prefix bytes and the digit tables."""
        self.prefix = _texts([b",%d,%d,%s" % (r, c, t.code.encode())
                              for r, c, t in zip(row, col, tenure)])
        # the last bits of each float column but al and cal
        self.bits = dict(zip((0, 1, 2, 5, 6), np.empty((5, len(self.prefix)), np.uint64)))
        self.widths = None  # the cycle label's and the seven float bands' widths
        # made per writer, not at import: the words of 0 to 9999 blanked, then zero-padded
        digits = "".join(f"{k:4d}" for k in range(10**4)).encode()
        pad = digits.replace(b" ", b"0")
        self.digits = [np.frombuffer((zero + digits[4:]).replace(b" ", b"\0") + pad, "<u4")
                       for zero in (b"   0", b"    ")]  # the second blanks 0 too
        self.tl_codes = np.frombuffer("".join(tl.code for tl in TechLevel).encode(), np.uint8)
        self.handle.write(",".join(_AGENTS_HEADER) + "\r\n")

    def cycle(self, t: int, before, s: Landscape, record: CycleRecord) -> None:
        self.write_cycle(t, AgentCycle(*before, s.cal, s.profit, s.rl, s.econ, s.env))

    def write_cycle(self, t: int, cycle: AgentCycle) -> None:
        """Refill al, cal and the bands whose bits changed, then write the rows in blocks."""
        floats = (*cycle.alloc.T, cycle.al, cycle.cal, cycle.profit, cycle.rl)
        label, widths = b"%d" % t, self.widths or [0] * 8
        wide = [max(len(label), widths[0]), *widths[1:]]  # the layout this cycle needs
        for j, x in enumerate(floats):
            if (bits := self.bits.get(j)) is not None:
                if self.widths and np.array_equal(bits, x.view(np.uint64)):
                    continue
                bits[:] = x.view(np.uint64)
            band = _Band(x)
            wide[j + 1] = max(wide[j + 1], band.width)
            if wide == widths:  # else only the width is kept, until the rows are laid out anew
                band.fill(self.m, self.float_spans[j], self.digits)
            del band
        if wide != widths:  # bands only widen, each time laying the rows out anew
            widths = self.widths = wide
            sizes = [widths[0], self.prefix.shape[1], *widths[1:4], 2, *widths[4:], 6]
            ends = np.cumsum(sizes).tolist()
            self.spans = [slice(end - size, end) for end, size in zip(ends, sizes)]
            self.float_spans = self.spans[2:5] + self.spans[6:10]
            self.m = None  # the old matrix goes before the new one is made
            self.m = np.empty((len(self.prefix), ends[-1]), np.uint8)
            self.m[:, self.spans[1]] = self.prefix
            self.m[:, self.spans[5]] = np.frombuffer(b",?", np.uint8)
            self.m[:, self.spans[10]] = np.frombuffer(b",?,?\r\n", np.uint8)
            for j, x in enumerate(floats):  # each band made as it is written, then dropped
                _Band(x).fill(self.m, self.float_spans[j], self.digits)
        for i, byte in enumerate(label.rjust(widths[0], b"\0")):  # one strided copy a byte
            self.m[:, i] = byte
        self.m[:, self.spans[5].start + 1] = self.tl_codes.take(cycle.tl)
        self.m[:, self.spans[10].start + 1] = 48 + cycle.econ  # "0" or "1"
        self.m[:, self.spans[10].start + 3] = 48 + cycle.env
        for lo in range(0, len(self.m), _AGENT_BLOCK):
            self.handle.write(self.m[lo : lo + _AGENT_BLOCK].tobytes().translate(None, b"\0")
                              .decode("ascii"))

    def end(self, result: RunResult) -> None:
        self.m = self.bits = None  # the matrix is not held through the run's summary


def write_agents_csv(agent_rows: AgentRows, path: str) -> None:
    """Write a kept per-agent trace as agents.csv, with the bytes `AgentsCsv` writes."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = AgentsCsv(handle)
        writer.begin(agent_rows.row, agent_rows.col, agent_rows.tenure)
        for t, cycle in enumerate(agent_rows.cycles):
            writer.write_cycle(t, cycle)
