"""Command-line entry points: `run`, `validate`, and `sweep`.

`run` executes one scenario and writes per-cycle aggregates (cycles.csv),
an optional per-agent trace (agents.csv), and a run summary (summary.json).
`validate` scores a run's series against an observed series file.
`sweep` executes a one-at-a-time sensitivity axis and writes sweep.csv.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 metric
undefined. All numeric CSV output carries exactly six decimals so repeated
runs are byte-comparable.
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
from .config import (PRESET_NAMES, ScenarioConfig, parse_config, preset, resolve_tables,
                     with_settings)
from .engine import (AgentCycle, AgentRows, RunResult, check_scale, check_workers,
                     run_simulation)
from .errors import ConfigurationError, MetricUndefinedError, read_text
from .landscape import TENURES, CycleRecord, Landscape
from .metrics import distribution_summary, fit_report
from .numeric import sequential_sum
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


def write_cycles_csv(records: Sequence[CycleRecord], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "cycle",
                "wgc",
                "cover_m",
                "cover_s",
                "cover_ws",
                "mean_p",
                "mean_rl",
                "pct_econ_ok",
                "pct_env_ok",
                "tl_l",
                "tl_a",
                "tl_h",
            ]
        )
        for r in records:
            writer.writerow(
                [
                    r.cycle,
                    r.wgc.code,
                    f"{r.cover_pct[LandUse.MAIZE]:.6f}",
                    f"{r.cover_pct[LandUse.SOYBEAN]:.6f}",
                    f"{r.cover_pct[LandUse.WHEAT_SOY]:.6f}",
                    f"{r.mean_profit_usd_per_ha:.6f}",
                    f"{r.mean_rl_pct:.6f}",
                    f"{r.pct_econ_ok:.6f}",
                    f"{r.pct_env_ok:.6f}",
                    r.tl_counts[TechLevel.LOW],
                    r.tl_counts[TechLevel.AVERAGE],
                    r.tl_counts[TechLevel.HIGH],
                ]
            )


_AGENTS_HEADER = ("cycle", "row", "col", "tenure", "alloc_m", "alloc_s", "alloc_ws",
                 "tl", "al", "cal", "profit", "rl", "econ_ok", "env_ok")

# Agents formatted per `%` call: large enough to amortise the call, small
# enough that the boxed cells and the block's text stay well under 1 MB.
_AGENT_BLOCK = 1024
# After "cycle,": the agent's "row,col,tenure,alloc_m,alloc_s,alloc_ws"
# prefix, the tech level code, al, cal, its "profit,rl" pair and
# "econ_ok,env_ok". '%.6f' and f"{x:.6f}" are the same correctly rounded
# conversion, so rows match a csv.writer of those strings. The flags are
# one "%s" of a prebuilt string: a '%s' of a str costs about a third of a
# '%d' of a bool.
_AGENT_ROW = "%s,%s,%.6f,%.6f,%s,%s\r\n"
_PREFIX = "%d,%d,%s,%.6f,%.6f,%.6f"
_PROFIT_RL = "%.6f,%.6f"


def _format_block(form: str, cells: np.ndarray, columns: Sequence) -> str:
    """`form` once per row of `columns`, at most a block of rows, in one `%`."""
    block = cells[: len(columns[0])]
    for j, column in enumerate(columns):
        block[:, j] = column
    return form * len(block) % tuple(block.ravel().tolist())


class _Texts:
    """Each agent's text for a group of columns, kept with the bits of its float columns.

    `update` compares the bits, not the values (-0.0 and 0.0 print
    differently), and reformats only the agents whose bits changed; when
    more than half of them did, it reformats the whole group.
    """

    def __init__(self, form: str, n: int, fixed: Sequence[np.ndarray], floats: int):
        self.form = form + "\n"
        self.fixed = fixed
        self.text = np.empty(n, dtype=object)
        self.bits = np.empty((floats, n), np.uint64)
        self.cells = np.empty((min(n, _AGENT_BLOCK), len(fixed) + floats), dtype=object)
        self.fresh = False

    def update(self, floats: Sequence[np.ndarray]) -> None:
        n = len(self.text)
        changed = np.zeros(n, bool)
        for kept, column in zip(self.bits, floats):
            bits = column.view(np.uint64)
            changed |= kept != bits
            kept[:] = bits
        index = np.flatnonzero(changed)
        if self.fresh and 2 * len(index) <= n:
            spans = [index[lo : lo + _AGENT_BLOCK] for lo in range(0, len(index), _AGENT_BLOCK)]
        else:
            spans = [slice(lo, lo + _AGENT_BLOCK) for lo in range(0, n, _AGENT_BLOCK)]
        self.fresh = True
        for at in spans:
            columns = [column[at] for column in (*self.fixed, *floats)]
            self.text[at] = _format_block(self.form, self.cells, columns).split("\n")[:-1]


class AgentsCsv:
    """A `RunObserver` that writes agents.csv to an open text handle as the run goes.

    One row per agent and cycle; booleans are written as 0/1. The bytes
    are what a csv.writer writes for the rows of an `AgentRows` with every
    float as f"{x:.6f}" and every flag as int(flag). Each agent's
    "row,col,tenure,allocation" prefix and "profit,rl" pair are kept as
    text and reformatted only when their bits change, so a quiet cycle
    formats little more than al and cal. Memory grows with the agents,
    not with the cycles: each cycle is formatted as it ends.
    """

    def __init__(self, handle):
        self.handle = handle

    def start(self, landscape: Landscape) -> None:
        row, col = np.divmod(np.arange(landscape.n_agents), landscape.cols)
        self.begin(row, col, [TENURES[t] for t in landscape.tenant.tolist()])

    def begin(self, row, col, tenure) -> None:
        """Write the header and keep what each agent's prefix is formatted from."""
        n = len(row)
        tenure = np.array([t.code for t in tenure], dtype=object)
        self.prefix = _Texts(_PREFIX, n, (row, col, tenure), 3)
        self.profit_rl = _Texts(_PROFIT_RL, n, (), 2)
        # made per writer, not at import: a run without --emit-agents makes no object array
        self.tl_codes = np.array([tl.code for tl in TechLevel], dtype=object)
        self.flag_codes = np.array(["0,0", "0,1", "1,0", "1,1"], dtype=object)  # 2*econ + env
        self.cells = np.empty((min(n, _AGENT_BLOCK), 6), dtype=object)
        self.handle.write(",".join(_AGENTS_HEADER) + "\r\n")

    def cycle(self, t: int, before, s: Landscape, record: CycleRecord) -> None:
        self.write_cycle(t, AgentCycle(*before, s.cal, s.profit, s.rl, s.econ, s.env))

    def write_cycle(self, t: int, cycle: AgentCycle) -> None:
        """Bring the kept texts up to date, then format the rows a block of agents per `%`."""
        self.prefix.update(cycle.alloc.T)
        self.profit_rl.update((cycle.profit, cycle.rl))
        prefix, profit_rl = self.prefix.text, self.profit_rl.text
        row = f"{t}," + _AGENT_ROW
        for lo in range(0, len(prefix), _AGENT_BLOCK):
            at = slice(lo, lo + _AGENT_BLOCK)
            self.handle.write(_format_block(row, self.cells, (
                prefix[at], self.tl_codes[cycle.tl[at]], cycle.al[at], cycle.cal[at],
                profit_rl[at], self.flag_codes[2 * cycle.econ[at] + cycle.env[at]])))

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
        try:
            return asdict(distribution_summary(values))
        except MetricUndefinedError:
            # cv is undefined at zero mean; quartiles are shift-equivariant,
            # so recover them from a shifted copy and null out cv.
            shift = 1.0 - sequential_sum(values) / len(values)
            shifted = asdict(distribution_summary(values + shift))
            return {
                k: (None if k == "cv" else v - shift) for k, v in shifted.items()
            }

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
        "final_cover_pct": {
            lu.code: final.cover_pct[lu] for lu in LandUse
        },
        "final_tl_counts": {
            tl.code: final.tl_counts[tl] for tl in TechLevel
        },
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
    """`--out-dir` without trailing slashes; refused, before any run, unless it is a directory."""
    if not os.path.isdir(args.out_dir):
        raise NotADirectoryError(f"--out-dir {args.out_dir!r} is not an existing directory")
    return args.out_dir.rstrip("/")


def _cmd_run(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    config = _build_config(args)
    config.validate()
    tables = resolve_tables(config)
    check_scale(config, tables)  # both before agents.csv is opened
    check_workers(args.workers)
    observers = []
    with contextlib.ExitStack() as stack:
        if args.emit_agents:
            observers.append(AgentsCsv(stack.enter_context(
                open(f"{out}/agents.csv", "w", newline="", encoding="utf-8"))))
        result = run_simulation(config, tables, workers=args.workers, observers=observers)
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
    out = args.out_dir.rstrip("/")
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
    config.validate()
    tables = resolve_tables(config)
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
    check_workers(args.workers)
    result = run_sweep(config, axis, tables)
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
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
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
