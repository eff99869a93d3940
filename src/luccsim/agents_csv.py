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
# uint64 operands throughout, so numpy 1.x's value-based casting never mixes
# uint64 with a Python int (which it would promote to float64).
_MILLION, _GROUP = np.uint64(10**6), np.uint64(10**4)


def _texts(texts: Sequence[bytes], width: int = 0) -> np.ndarray:
    """`texts` right-aligned with 0 bytes into the rows of a byte matrix at least `width` wide."""
    width = max([width, *map(len, texts)])
    return np.frombuffer(b"".join(s.rjust(width, b"\0") for s in texts), "u1").reshape(-1, width)


class _Band:
    """A float column's ",%.6f" texts as 4-byte words, each at a byte offset of every row.

    A row is ",", a sign byte if any value is negative, the whole part in
    4-digit groups from `pad` and `blank` (leading zeros blanked), ".dd" and
    "dddd"; 0 bytes pad, and the next word overwrites a word's stray bytes.
    Halves below 2**52 are doubles, so y = fl(|x|·1e6) is on the same side of
    each as |x|·1e6 and rint(y) rounds as '%.6f' does unless y is a half:
    such a value, |x| >= 2**32 and a non-finite value go to '%.6f' itself.
    """

    def __init__(self, x: np.ndarray):
        """Round the column and measure the band; the words are made as `fill` writes them."""
        exact = np.abs(x) < 2.0**32  # False for NaN
        y = np.where(exact, np.abs(x), 0.0) * 1e6
        q = np.rint(y)
        exact &= np.abs(y - q) < 0.5
        self.slow = np.flatnonzero(~exact)
        self.q, self.sign = q.astype(np.uint64), np.signbit(x)
        self.start = 1 + bool(self.sign.any())  # the first digit's offset
        self.point = self.start + len(str(self.q.max() // _MILLION))  # the "."'s offset
        self.texts = [b",%.6f" % v for v in x[self.slow].tolist()]
        self.width = max([self.point + 7, *map(len, self.texts)])

    def fill(self, m: np.ndarray, at: slice, pad: np.ndarray, blank: np.ndarray) -> None:
        """Write the band into the columns `at` of `m`, right-aligned."""
        start, point, lead = self.start, self.point, at.stop - self.point - 7
        m[:, at.start : lead] = 0

        def put(offset, word):  # each row's little-endian word at that byte, unaligned
            np.ndarray(len(m), "<u4", m, lead + offset, (m.shape[1],))[:] = word

        put(0, np.where(self.sign, np.uint32(0x2D2C), np.uint32(0x2C)))  # ",-" or ","
        whole = self.q // _MILLION
        for k in reversed(range(-(-(point - start) // 4))):
            at_k, above = point - 4 * (k + 1), whole // np.uint64(10 ** (4 * k))  # digits to k
            if at_k <= start:  # the first group, its unused leading bytes dropped
                word = blank.take(above) >> np.uint32(8 * (start - at_k))
            else:
                group = above - above // _GROUP * _GROUP
                word = np.where(above < _GROUP, blank.take(group), pad.take(group))
            if k:
                word[above == 0] = 0
            put(max(at_k, start), word)
        frac = self.q - whole * _MILLION
        head = frac // _GROUP  # the first two decimals
        put(point, (pad.take(head) >> np.uint32(8)) - np.uint32(2))  # "00dd" -> ".dd"
        put(point + 3, pad.take(frac - head * _GROUP))
        if len(self.slow):
            m[self.slow, at] = _texts(self.texts, at.stop - at.start)


class AgentsCsv:
    """A `RunObserver` that writes agents.csv to an open text handle as the run goes.

    The bytes are what a csv.writer writes for an `AgentRows` with floats
    as f"{x:.6f}" and flags as int(flag). The rows are one (agents, bytes)
    matrix, a band of columns per field, 0 bytes as padding. A float band
    is refilled only when its column's bits change (-0.0 and 0.0 print
    differently), so a quiet cycle formats little more than al and cal. A
    band only widens, and the matrix is laid out again when one does. Memory
    grows with the agents, not with the cycles.
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
        self.bits = np.empty((7, len(self.prefix)), np.uint64)
        self.widths = None  # the cycle label's and the seven float bands' widths
        # made per writer, not at import: a run without --emit-agents builds no table
        digits = "".join(f"{k:4d}" for k in range(10**4)).encode()  # zero-padded, then blanked
        self.digits = [np.frombuffer(digits.replace(b" ", fill), "<u4") for fill in (b"0", b"\0")]
        self.tl_codes = np.frombuffer("".join(tl.code for tl in TechLevel).encode(), np.uint8)
        self.handle.write(",".join(_AGENTS_HEADER) + "\r\n")

    def cycle(self, t: int, before, s: Landscape, record: CycleRecord) -> None:
        self.write_cycle(t, AgentCycle(*before, s.cal, s.profit, s.rl, s.econ, s.env))

    def write_cycle(self, t: int, cycle: AgentCycle) -> None:
        """Refill the bands whose bits changed, then write the rows a block of agents at a time."""
        floats = (*cycle.alloc.T, cycle.al, cycle.cal, cycle.profit, cycle.rl)
        label, widths = b"%d" % t, self.widths or [0] * 8
        held = {}  # the bands made once a wider layout is due, kept until it is made
        for j, x in enumerate(floats):
            if not self.widths or not np.array_equal(self.bits[j], x.view(np.uint64)):
                self.bits[j] = x.view(np.uint64)
                band = _Band(x)
                if held or len(label) > widths[0] or band.width > widths[j + 1]:
                    held[j] = band
                else:
                    band.fill(self.m, self.float_spans[j], *self.digits)
        if held or len(label) > widths[0]:  # bands only widen, each time laying the rows out anew
            widths = self.widths = np.maximum(widths, [len(label), *(
                held[j].width if j in held else 0 for j in range(7))]).tolist()
            sizes = [widths[0], self.prefix.shape[1], *widths[1:4], 2, *widths[4:], 6]
            ends = np.cumsum(sizes).tolist()
            self.spans = [slice(end - size, end) for end, size in zip(ends, sizes)]
            self.float_spans = self.spans[2:5] + self.spans[6:10]
            self.m = None  # the old matrix goes before the new one is made
            self.m = np.empty((len(self.prefix), ends[-1]), np.uint8)
            self.m[:, self.spans[1]] = self.prefix
            self.m[:, self.spans[5]] = np.frombuffer(b",?", np.uint8)
            self.m[:, self.spans[10]] = np.frombuffer(b",?,?\r\n", np.uint8)
            for j, x in enumerate(floats):  # a band at a time, each dropped once written
                (held.pop(j, None) or _Band(x)).fill(self.m, self.float_spans[j], *self.digits)
        for i, byte in enumerate(label.rjust(widths[0], b"\0")):  # one strided copy a byte
            self.m[:, i] = byte
        self.m[:, self.spans[5].start + 1] = self.tl_codes.take(cycle.tl)
        self.m[:, self.spans[10].start + 1] = 48 + cycle.econ  # "0" or "1"
        self.m[:, self.spans[10].start + 3] = 48 + cycle.env
        for lo in range(0, len(self.m), _AGENT_BLOCK):
            self.handle.write(self.m[lo : lo + _AGENT_BLOCK].tobytes().translate(None, b"\0")
                              .decode("ascii"))

    def end(self, result: RunResult) -> None:
        pass


def write_agents_csv(agent_rows: AgentRows, path: str) -> None:
    """Write a kept per-agent trace as agents.csv, with the bytes `AgentsCsv` writes."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = AgentsCsv(handle)
        writer.begin(agent_rows.row, agent_rows.col, agent_rows.tenure)
        for t, cycle in enumerate(agent_rows.cycles):
            writer.write_cycle(t, cycle)
