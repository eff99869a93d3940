"""Correctness gate for the benchmark's luccsim invocations.

An invocation counts as correct when it exits with code 0 and its output
files are right. At the golden seed the files must match the SHA-256
digests in ``golden.json``. At any other seed every invocation of a run
must be byte-identical to the first verified one, and that one must pass
the model's invariants:

- crop covers sum to 100 (within 1e-6 at full precision; CSV fields carry
  six decimals, so three rounded fields may add another 1.5e-6);
- technology counts sum to the number of agents;
- every number is finite;
- ``agents.csv`` has agents x cycles rows and ``cycles.csv`` one row per
  cycle; ``sweep.csv`` one row per sweep run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Optional

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

COVER_TOL = 1e-6
CSV_COVER_TOL = COVER_TOL + 3 * 0.5e-6

CYCLES_HEADER = [
    "cycle", "wgc", "cover_m", "cover_s", "cover_ws", "mean_p", "mean_rl",
    "pct_econ_ok", "pct_env_ok", "tl_l", "tl_a", "tl_h",
]
AGENTS_HEADER = [
    "cycle", "row", "col", "tenure", "alloc_m", "alloc_s", "alloc_ws", "tl",
    "al", "cal", "profit", "rl", "econ_ok", "env_ok",
]
SWEEP_HEADER = [
    "parameter", "value", "mean_profit", "mean_rl", "final_cover_m",
    "final_cover_s", "final_cover_ws", "final_tl_l", "final_tl_a", "final_tl_h",
]


class Invalid(Exception):
    """An output file breaks an invariant."""


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def load_golden(workload: str, seed: int) -> Optional[dict[str, str]]:
    """The workload's recorded digests if `seed` is the golden seed, else None."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    return golden["digests"][workload] if seed == golden["seed"] else None


def _finite(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise Invalid(f"{where}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise Invalid(f"{where}: {text!r} is not finite")
    return value


def _count(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise Invalid(f"{where}: {text!r} is not a count") from None


def _rows(path: Path, header: list[str]):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        if next(reader, None) != header:
            raise Invalid(f"{path.name}: unexpected header")
        yield from reader


def _check_cover(values: list[float], tol: float, where: str) -> None:
    if abs(math.fsum(values) - 100.0) > tol:
        raise Invalid(f"{where}: covers sum to {math.fsum(values)!r}, not 100")


def check_cycles_csv(path: Path, agents: int, cycles: int) -> None:
    count = 0
    for lineno, row in enumerate(_rows(path, CYCLES_HEADER), start=2):
        where = f"{path.name}:{lineno}"
        if len(row) != len(CYCLES_HEADER) or _count(row[0], where) != count:
            raise Invalid(f"{where}: malformed row")
        numbers = [_finite(v, where) for v in row[2:9]]
        _check_cover(numbers[0:3], CSV_COVER_TOL, where)
        if sum(_count(v, where) for v in row[9:12]) != agents:
            raise Invalid(f"{where}: technology counts do not sum to {agents}")
        count += 1
    if count != cycles:
        raise Invalid(f"{path.name}: {count} rows, expected {cycles}")


def check_agents_csv(path: Path, agents: int, cycles: int) -> None:
    count = 0
    for lineno, row in enumerate(_rows(path, AGENTS_HEADER), start=2):
        where = f"{path.name}:{lineno}"
        if len(row) != len(AGENTS_HEADER):
            raise Invalid(f"{where}: malformed row")
        _check_cover([_finite(v, where) for v in row[4:7]], CSV_COVER_TOL, where)
        for v in row[8:12]:
            _finite(v, where)
        count += 1
    if count != agents * cycles:
        raise Invalid(f"{path.name}: {count} rows, expected {agents * cycles}")


def _check_json_numbers(value, where: str) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _check_json_numbers(item, f"{where}.{key}")
    elif isinstance(value, list):
        for item in value:
            _check_json_numbers(item, where)
    elif isinstance(value, float) and not math.isfinite(value):
        raise Invalid(f"{where}: {value!r} is not finite")


def check_summary_json(path: Path, agents: int, cycles: int) -> None:
    with open(path, encoding="utf-8") as handle:
        try:
            summary = json.load(handle)
        except ValueError as exc:
            raise Invalid(f"{path.name}: {exc}") from None
    _check_json_numbers(summary, path.name)
    if summary.get("agents") != agents or summary.get("cycles") != cycles:
        raise Invalid(f"{path.name}: wrong agent or cycle count")
    _check_cover(list(summary["final_cover_pct"].values()), COVER_TOL, path.name)
    if sum(summary["final_tl_counts"].values()) != agents:
        raise Invalid(f"{path.name}: technology counts do not sum to {agents}")


def check_sweep_csv(path: Path, agents: int, runs: int) -> None:
    count = 0
    for lineno, row in enumerate(_rows(path, SWEEP_HEADER), start=2):
        where = f"{path.name}:{lineno}"
        if len(row) != len(SWEEP_HEADER):
            raise Invalid(f"{where}: malformed row")
        numbers = [_finite(v, where) for v in row[2:7]]
        _check_cover(numbers[2:5], CSV_COVER_TOL, where)
        if sum(_count(v, where) for v in row[7:10]) != agents:
            raise Invalid(f"{where}: technology counts do not sum to {agents}")
        count += 1
    if count != runs:
        raise Invalid(f"{path.name}: {count} rows, expected {runs}")


class OutputGate:
    """Accepts or rejects the output directories of one benchmark run.

    `files` names the outputs an invocation must write; `golden` holds
    their expected digests, or is None when the seed has no recorded ones.
    """

    def __init__(
        self,
        files: tuple[str, ...],
        agents: int,
        cycles: int,
        runs: int,
        golden: Optional[dict[str, str]] = None,
    ):
        self.files = files
        self.agents = agents
        self.cycles = cycles
        self.runs = runs
        self.golden = golden
        self.verified: Optional[dict[str, str]] = None

    def reject_reason(self, out_dir: Path) -> Optional[str]:
        """None if the outputs in `out_dir` are correct, else why not."""
        missing = [name for name in self.files if not (out_dir / name).is_file()]
        if missing:
            return f"missing {', '.join(missing)}"
        digests = {name: sha256(out_dir / name) for name in self.files}
        if self.verified is not None:
            if digests != self.verified:
                return "outputs differ from an earlier invocation of this run"
            return None
        if self.golden is not None and digests != self.golden:
            wrong = [n for n in self.files if digests[n] != self.golden.get(n)]
            return f"digest mismatch against golden.json: {', '.join(wrong)}"
        try:
            self._check_invariants(out_dir)
        except Invalid as exc:
            return str(exc)
        except (LookupError, TypeError, AttributeError, ValueError, csv.Error) as exc:
            return f"malformed output: {exc!r}"
        self.verified = digests
        return None

    def _check_invariants(self, out_dir: Path) -> None:
        checks = {
            "cycles.csv": lambda p: check_cycles_csv(p, self.agents, self.cycles),
            "agents.csv": lambda p: check_agents_csv(p, self.agents, self.cycles),
            "summary.json": lambda p: check_summary_json(p, self.agents, self.cycles),
            "sweep.csv": lambda p: check_sweep_csv(p, self.agents, self.runs),
        }
        for name in self.files:
            checks[name](out_dir / name)
