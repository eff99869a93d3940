"""Command-line entry points: `run`, `validate`, and `sweep`.

`run` executes one scenario and writes per-cycle aggregates (cycles.csv),
an optional per-agent trace (agents.csv), and a run summary (summary.json).
`validate` scores a run's series against an observed series file.
`sweep` executes a one-at-a-time sensitivity axis and writes sweep.csv.

Exit codes: 0 success, 2 configuration error (a run that needs more memory
than is available included), 3 I/O error, 4 metric undefined. All numeric
CSV output carries exactly six decimals so repeated runs are byte-comparable.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .climate import REGIME_NAMES
from .config import PRESET_NAMES, ScenarioConfig, parse_config, preset, with_settings
from .engine import AgentCycle, AgentRows, RunResult, plan, run_simulation
from .errors import ConfigurationError, MetricUndefinedError, read_text
from .landscape import TENURES, CycleRecord, Landscape
from .metrics import distribution_summary, fit_report
from .sweep import SweepAxis, SweepParameter, run_sweep, write_sweep_csv
from .tables import LandUse, TechLevel, Wgc

__all__ = ["main", "entry", "write_cycles_csv", "AgentsCsv", "write_agents_csv",
           "read_series_csv"]

SERIES_NAMES = ("cover_m", "cover_s", "cover_ws", "mean_p", "mean_rl")

# Accepted spellings for observed-series columns.
_COLUMN_ALIASES = {
    "cover_maize": "cover_m",
    "cover_soy": "cover_s",
    "cover_soybean": "cover_s",
    "cover_wheatsoy": "cover_ws",
}


_CYCLES_HEADER = ("cycle", "wgc", "cover_m", "cover_s", "cover_ws", "mean_p", "mean_rl",
                  "pct_econ_ok", "pct_env_ok", "tl_l", "tl_a", "tl_h")


def write_cycles_csv(records: Sequence[CycleRecord], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CYCLES_HEADER)
        for r in records:
            means = (r.mean_profit_usd_per_ha, r.mean_rl_pct, r.pct_econ_ok, r.pct_env_ok)
            writer.writerow([r.cycle, r.wgc.code, *(f"{r.cover_pct[lu]:.6f}" for lu in LandUse),
                             *(f"{v:.6f}" for v in means), *(r.tl_counts[tl] for tl in TechLevel)])


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

def _summary_dict(result: RunResult) -> dict:
    def dist(values):
        return asdict(distribution_summary(values))

    records = result.records
    final = records[-1]
    mean_profit, mean_rl = result.whole_run_means()
    return {
        "agents": result.landscape.n_agents,
        "cycles": len(records),
        "seed": result.config.seed,
        "climate": result.config.climate.describe(),
        "mean_profit_usd_per_ha": mean_profit,
        "mean_rl_pct": mean_rl,
        "per_agent_mean_profit": dist(result.mean_profit_per_agent),
        "per_agent_mean_rl": dist(result.mean_rl_per_agent),
        "econ_goal_agreement_pct": dist(result.econ_agreement_pct),
        "env_goal_agreement_pct": dist(result.env_agreement_pct),
        "final_cover_pct": {lu.code: final.cover_pct[lu] for lu in LandUse},
        "final_tl_counts": {tl.code: final.tl_counts[tl] for tl in TechLevel},
    }


def read_series_csv(path: str) -> dict[str, list[str]]:
    """Read a CSV into columns keyed by normalized header names."""
    reader = csv.DictReader(io.StringIO(read_text(path, "series file", newline=""), newline=""))
    if not reader.fieldnames:
        raise ConfigurationError(f"{path}: empty file")
    columns: dict[str, list[str]] = {}
    names = [
        _COLUMN_ALIASES.get(h.strip().lower(), h.strip().lower())
        for h in reader.fieldnames
    ]
    for header, name in zip(reader.fieldnames, names):
        if name in columns:
            first = reader.fieldnames[names.index(name)]
            raise ConfigurationError(
                f"{path}: headers {first!r} and {header!r} both name series {name!r}"
            )
        columns[name] = []
    for number, row in enumerate(reader, start=1):
        if None in row:  # DictReader files fields beyond the header under None
            raise ConfigurationError(f"{path}: data row {number}: more fields than the header")
        if None in row.values():  # and fills the columns a short row lacks with None
            raise ConfigurationError(f"{path}: data row {number}: fewer fields than the header")
        for raw_name, name in zip(reader.fieldnames, names):
            columns[name].append(row[raw_name])
    return columns


def _numeric_series(columns: dict, name: str, path: str) -> list[float]:
    if name not in columns:
        raise ConfigurationError(
            f"{path}: no column {name!r} (have {', '.join(sorted(columns))})"
        )
    values = []
    for row, text in enumerate(columns[name], start=1):
        where = f"{path}: column {name!r}, data row {row}: {text!r}"
        try:
            value = float(text)
        except (TypeError, ValueError):
            raise ConfigurationError(f"{where} is not numeric") from None
        if not math.isfinite(value):
            raise ConfigurationError(f"{where} is not finite")
        values.append(value)
    return values


# Override flags whose dest is the scenario-file key they set; --wgc-file
# sets "climate" to {"sequence_file": path}.
_FLAG_KEYS = ("seed", "cycles", "owner_share_pct", "climate")


def _build_config(args: argparse.Namespace) -> ScenarioConfig:
    if args.config and args.preset:
        raise ConfigurationError("give either --config or --preset, not both")
    if args.config:
        config = parse_config(args.config)
    elif args.preset:
        config = preset(args.preset)
    else:
        raise ConfigurationError("one of --config or --preset is required")
    if args.climate is not None and args.wgc_file is not None:
        raise ConfigurationError("give either --climate or --wgc-file, not both")
    settings = {key: getattr(args, key) for key in _FLAG_KEYS if getattr(args, key) is not None}
    if args.wgc_file is not None:
        settings["climate"] = {"sequence_file": args.wgc_file}
    return with_settings(config, settings)


def _out_dir(args: argparse.Namespace) -> str:
    """`--out-dir` without trailing slashes; refused first unless it is an existing directory."""
    if not os.path.isdir(args.out_dir):
        raise NotADirectoryError(f"--out-dir {args.out_dir!r} is not an existing directory")
    return args.out_dir.rstrip("/")


def _check_workers(workers: int) -> None:
    """Refuse a `--workers` width below 1; the flag has no other effect."""
    if workers < 1:
        raise ConfigurationError(f"workers must be at least 1 (got {workers})")


def _cmd_run(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    run = plan(_build_config(args))  # before agents.csv is opened
    _check_workers(args.workers)
    observers = []
    with contextlib.ExitStack() as stack:
        if args.emit_agents:
            observers.append(AgentsCsv(stack.enter_context(
                open(f"{out}/agents.csv", "w", newline="", encoding="utf-8"))))
        result = run_simulation(run, observers=observers)
    write_cycles_csv(result.records, f"{out}/cycles.csv")
    print(f"wrote {out}/cycles.csv ({len(result.records)} cycles)")
    if args.emit_agents:
        rows = len(result.records) * result.landscape.n_agents
        print(f"wrote {out}/agents.csv ({rows} rows)")
    with open(f"{out}/summary.json", "w", encoding="utf-8") as handle:
        json.dump(_summary_dict(result), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}/summary.json")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    simulated = read_series_csv(args.run_csv)
    observed = read_series_csv(args.observed_csv)
    series = [s.strip() for s in args.series.split(",") if s.strip()]
    if not series:
        raise ConfigurationError("--series must name at least one series")
    for name in series:
        if name not in SERIES_NAMES:
            raise ConfigurationError(
                f"unknown series {name!r} (expected one of {', '.join(SERIES_NAMES)})"
            )
    reports = {}
    for name in series:
        sim = _numeric_series(simulated, name, args.run_csv)
        obs = _numeric_series(observed, name, args.observed_csv)
        if len(sim) != len(obs):
            raise ConfigurationError(
                f"series {name!r}: {len(obs)} observed vs {len(sim)} simulated rows"
            )
        report = fit_report(obs, sim)
        reports[name] = asdict(report)
        print(
            f"{name}: rmse={report.rmse:.6f} v={report.v:.6f} "
            f"pm={report.pm:.6f} iof={report.iof:.6f}"
        )
    with open(f"{out}/fit.json", "w", encoding="utf-8") as handle:
        json.dump(reports, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}/fit.json")
    return 0


_AXES = {p.value: p for p in SweepParameter}


def _cmd_sweep(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    config = _build_config(args)
    if config.climate is None:
        # No historical series available: fall back for the sweep base.
        config = with_settings(config, {"climate": "constant-average"})
        print("note: no weather sequence given; sweep base uses constant-average")
    if args.axis not in _AXES:
        raise ConfigurationError(
            f"unknown axis {args.axis!r} (expected one of {', '.join(_AXES)})"
        )
    parameter = _AXES[args.axis]
    raw_values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not raw_values:
        raise ConfigurationError("--values must list at least one value")
    if parameter is SweepParameter.WGC_MIX_LEVEL:
        values: tuple = tuple(Wgc.from_code(v) for v in raw_values)
    else:
        try:
            values = tuple(float(v) for v in raw_values)
        except ValueError:
            raise ConfigurationError(
                f"--values for {args.axis} must be numeric"
            ) from None
    axis = SweepAxis(
        parameter, values, allow_outside_range=args.allow_outside_range
    )
    _check_workers(args.workers)
    result = run_sweep(config, axis)
    print(f"base climate: {config.climate.describe()}")
    write_sweep_csv(result, f"{out}/sweep.csv")
    print(f"wrote {out}/sweep.csv ({len(result.rows)} rows)")
    return 0


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="scenario JSON file")
    parser.add_argument(
        "--preset", choices=PRESET_NAMES, help="named scenario preset"
    )
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument("--cycles", type=int, help="override the cycle count")
    parser.add_argument(
        "--owner-share", type=float, dest="owner_share_pct",
        help="override the owner share (percent)",
    )
    parser.add_argument(
        "--climate",
        help=f"override the weather regime ({', '.join(REGIME_NAMES)})",
    )
    parser.add_argument(
        "--wgc-file",
        help="explicit weather sequence file (one VU/U/A/F/VF code per line)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="kept for compatibility: must be at least 1 and has no effect "
        "(output is identical at any width)",
    )
    parser.add_argument("--out-dir", default=".", help="output directory")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="luccsim",
        description="Agent-based land-use change simulator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    _add_scenario_arguments(p_run)
    p_run.add_argument(
        "--emit-agents",
        action="store_true",
        help="also write the per-agent trace (agents.csv)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser(
        "validate", help="score simulated series against observations"
    )
    p_val.add_argument("run_csv", help="cycles.csv from a run")
    p_val.add_argument(
        "observed_csv", help="observed series (year,cover_m,cover_s,cover_ws)"
    )
    p_val.add_argument(
        "--series",
        required=True,
        help=f"comma list from: {', '.join(SERIES_NAMES)}",
    )
    p_val.add_argument("--out-dir", default=".", help="output directory")
    p_val.set_defaults(func=_cmd_validate)

    p_sweep = sub.add_parser("sweep", help="one-at-a-time sensitivity axis")
    _add_scenario_arguments(p_sweep)
    p_sweep.add_argument(
        "--axis", required=True, help=f"one of: {', '.join(_AXES)}"
    )
    p_sweep.add_argument(
        "--values", required=True, help="comma list of axis values"
    )
    p_sweep.add_argument(
        "--allow-outside-range",
        action="store_true",
        help="permit values outside the default sensitivity ranges",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"configuration error: luccsim {args.command} needs more memory than is available",
              file=sys.stderr)
        return 2
    except MetricUndefinedError as exc:
        print(f"metric undefined: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
