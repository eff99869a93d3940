"""Command-line entry points: `run`, `validate`, and `sweep`.

`run` executes one scenario and writes per-cycle aggregates (cycles.csv),
an optional per-agent trace (agents.csv), and a run summary (summary.json).
`validate` scores a run's series against an observed series file.
`sweep` executes a one-at-a-time sensitivity axis and writes sweep.csv.

Exit codes: 0 success, 2 configuration error (a run that needs more memory
than is available, or whose aspirations overflow, included), 3 I/O error,
4 metric undefined. A run that fails leaves no agents.csv. All numeric
CSV output carries exactly six decimals so repeated runs are byte-comparable.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import asdict
from typing import Optional, Sequence

from . import __version__
from .climate import REGIME_NAMES
from .config import PRESET_NAMES, ScenarioConfig, parse_config, preset, with_settings
from .engine import RunResult, plan, run_simulation
from .errors import ConfigurationError, MetricUndefinedError, read_csv, read_number
from .landscape import CycleRecord
from .metrics import distribution_summary, fit_report
from .sweep import SweepAxis, SweepParameter, run_sweep, write_sweep_csv
from .tables import LandUse, TechLevel, Wgc

__all__ = ["main", "entry", "write_cycles_csv", "AgentsCsv", "write_agents_csv",
           "read_series_csv"]


def __getattr__(name: str):
    """`AgentsCsv` and `write_agents_csv`, from `luccsim.agents_csv` on first use."""
    if name in ("AgentsCsv", "write_agents_csv"):
        from . import agents_csv
        return getattr(agents_csv, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The cycles.csv columns `validate` compares with observed series.
SERIES_NAMES = (*(f"cover_{lu.code.lower()}" for lu in LandUse), "mean_p", "mean_rl")

# Accepted spellings for observed-series columns.
_COLUMN_ALIASES = {
    "cover_maize": "cover_m",
    "cover_soy": "cover_s",
    "cover_soybean": "cover_s",
    "cover_wheatsoy": "cover_ws",
}


_CYCLES_HEADER = ("cycle", "wgc", *SERIES_NAMES, "pct_econ_ok", "pct_env_ok",
                  *(f"tl_{tl.code.lower()}" for tl in TechLevel))


def write_cycles_csv(records: Sequence[CycleRecord], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CYCLES_HEADER)
        for r in records:
            means = (r.mean_profit_usd_per_ha, r.mean_rl_pct, r.pct_econ_ok, r.pct_env_ok)
            writer.writerow([r.cycle, r.wgc.code, *(f"{r.cover_pct[lu]:.6f}" for lu in LandUse),
                             *(f"{v:.6f}" for v in means), *(r.tl_counts[tl] for tl in TechLevel)])


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


def read_series_csv(path: str) -> dict[str, list[tuple[str, str]]]:
    """A CSV's columns, keyed by normalized header name, as ("path:line", text) cells."""
    rows = read_csv(path, "series file")
    _, header = next(rows)
    if not header:
        raise ConfigurationError(f"{path}: empty file")
    names = [_COLUMN_ALIASES.get(h.strip().lower(), h.strip().lower()) for h in header]
    columns: dict[str, list[tuple[str, str]]] = {}
    for raw_name, name in zip(header, names):
        if name in columns:
            raise ConfigurationError(f"{path}: headers {header[names.index(name)]!r} and "
                                     f"{raw_name!r} both name series {name!r}")
        columns[name] = []
    for where, fields in rows:
        for name, text in zip(names, fields):
            columns[name].append((where, text))
    return columns


def _numeric_series(columns: dict, name: str, path: str) -> list[float]:
    if name not in columns:
        raise ConfigurationError(
            f"{path}: no column {name!r} (have {', '.join(map(repr, sorted(columns)))})"
        )
    return [read_number(text, f"{where}: column {name!r}") for where, text in columns[name]]


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
            from .agents_csv import AgentsCsv
            agents = f"{out}/agents.csv"
            handle = open(agents, "w", newline="", encoding="utf-8")
            # once closed, a failed run's file goes; None lets the error propagate
            stack.push(lambda failed, *_: failed and os.remove(agents))
            observers.append(AgentsCsv(stack.enter_context(handle)))
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
    for at, name in enumerate(series):
        if name not in SERIES_NAMES:
            raise ConfigurationError(
                f"unknown series {name!r} (expected one of {', '.join(SERIES_NAMES)})"
            )
        if name in series[:at]:
            raise ConfigurationError(f"--series names series {name!r} twice")
    reports = {}
    for name in series:
        sim = _numeric_series(simulated, name, args.run_csv)
        obs = _numeric_series(observed, name, args.observed_csv)
        if len(sim) != len(obs):
            raise ConfigurationError(
                f"series {name!r}: {len(obs)} observed vs {len(sim)} simulated rows"
            )
        try:
            report = fit_report(obs, sim)
        except MetricUndefinedError as exc:
            raise MetricUndefinedError(f"series {name!r}: {exc}") from None
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
