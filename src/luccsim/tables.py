"""Core enumerations, the embedded parameter dataset, and its validation.

All per-cycle economics and energy accounting are table-driven: crop yield,
production cost, and energy-renewability share are looked up by the
(land use, technology level, weather condition) triple; output prices,
aspiration adjustment factors, and working-capital thresholds are smaller
tables. Every table is a read-only float64 array indexed by the enum
members. The embedded dataset describes the Rolling Pampas cropping
systems; every table but the prices can be overridden from CSV to model
another region.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigurationError, read_text

__all__ = [
    "CodedEnum",
    "LandUse",
    "TechLevel",
    "Wgc",
    "ParameterTables",
    "default_tables",
    "validate_tables",
    "load_table_overrides",
    "load_tl_wgc_table_csv",
]


class CodedEnum(IntEnum):
    """An IntEnum whose members carry a short code: declared `NAME = value, "code"`."""

    def __new__(cls, value: int, code: str):
        member = int.__new__(cls, value)
        member._value_, member.code = value, code
        return member

    @classmethod
    def from_code(cls, code: str):
        """The member whose code is `code`, ignoring case and surrounding blanks."""
        wanted = code.strip().upper()
        for member in cls:
            if member.code == wanted:
                return member
        raise ConfigurationError(
            f"unknown {cls.__name__} code {code!r} (expected one of "
            f"{', '.join(member.code for member in cls)})"
        )


class LandUse(CodedEnum):
    """The three cropping systems competing for farm area."""

    MAIZE = 0, "M"
    SOYBEAN = 1, "S"
    WHEAT_SOY = 2, "WS"  # wheat/soybean double cropping


class TechLevel(CodedEnum):
    """Input-intensity management package, ordered low to high."""

    LOW = 0, "L"
    AVERAGE = 1, "A"
    HIGH = 2, "H"


class Wgc(CodedEnum):
    """Weather growing condition of a cropping cycle, worst to best."""

    VERY_UNFAVORABLE = 0, "VU"
    UNFAVORABLE = 1, "U"
    AVERAGE = 2, "A"
    FAVORABLE = 3, "F"
    VERY_FAVORABLE = 4, "VF"


# Each table's axes, named by the CSV key column that indexes them.
_KEY_ENUMS = {"lu": LandUse, "tl": TechLevel, "bn_tl": TechLevel, "wgc": Wgc}
_AXES = {
    "yield_t_per_ha": ("lu", "tl", "wgc"),
    "cost_usd_per_ha": ("lu", "tl", "wgc"),
    "renewability_pct": ("lu", "tl", "wgc"),
    "price_usd_per_t": ("lu",),
    "alpha_wgc": ("wgc",),
    "alpha_bn": ("tl", "bn_tl"),
    "wct_usd_per_ha": ("tl",),
}


def _shape(axes: tuple[str, ...]) -> tuple[int, ...]:
    return tuple(len(_KEY_ENUMS[axis]) for axis in axes)


def _codes(axes: tuple[str, ...], index: tuple[int, ...]) -> str:
    return ",".join(_KEY_ENUMS[axis](i).code for axis, i in zip(axes, index))


@dataclass(frozen=True, eq=False)
class ParameterTables:
    """The full parameter dataset; immutable and safe for concurrent reads.

    Each table is a read-only float64 array indexed by the enum members,
    so `yield_t_per_ha[lu, tl, wgc]` and `alpha_bn[(a, b)]` both work.
    yield_t_per_ha, cost_usd_per_ha, renewability_pct: [LandUse, TechLevel,
    Wgc], shape (3, 3, 5). price_usd_per_t: median output price, [LandUse].
    alpha_wgc: aspiration adjustment factor, [Wgc]. alpha_bn: aspiration
    adjustment factor, [agent TechLevel, best neighbor TechLevel]; positive
    when the neighbor's level is higher. wct_usd_per_ha: working-capital
    threshold, [TechLevel]. The constructor takes any array-like of the
    right shape and keeps a read-only copy.
    """

    yield_t_per_ha: np.ndarray
    cost_usd_per_ha: np.ndarray
    renewability_pct: np.ndarray
    price_usd_per_t: np.ndarray
    alpha_wgc: np.ndarray
    alpha_bn: np.ndarray
    wct_usd_per_ha: np.ndarray

    def __post_init__(self) -> None:
        for name, axes in _AXES.items():
            table = np.array(getattr(self, name), dtype=np.float64)
            if table.shape != _shape(axes):
                raise ConfigurationError(
                    f"table {name} has shape {table.shape}, expected {_shape(axes)}"
                )
            table.flags.writeable = False
            object.__setattr__(self, name, table)


# Embedded dataset. Each row holds one (land use, tech level) pair's values
# per weather condition in VU, U, A, F, VF order; within each land use
# (M, S, WS) the rows run L, A, H.
_DEFAULT = ParameterTables(
    yield_t_per_ha=(
        ((4.05, 6.27, 7.45, 8.37, 9.25),
         (4.88, 7.78, 9.02, 10.45, 11.59),
         (5.40, 8.80, 10.22, 11.94, 13.18)),
        ((1.89, 2.67, 3.13, 3.72, 4.15),
         (2.13, 3.00, 3.53, 4.18, 4.67),
         (2.37, 3.34, 3.92, 4.65, 5.19)),
        ((3.06, 4.34, 5.21, 5.73, 7.11),
         (3.53, 4.89, 6.01, 6.55, 8.16),
         (4.25, 5.85, 7.30, 7.90, 9.83)),
    ),
    cost_usd_per_ha=(
        ((504, 619, 680, 727, 773),
         (618, 768, 832, 906, 965),
         (717, 892, 966, 1055, 1119)),
        ((262, 302, 326, 356, 378),
         (329, 374, 401, 435, 460),
         (395, 446, 476, 514, 541)),
        ((477, 511, 528, 541, 584),
         (618, 656, 675, 690, 738),
         (759, 801, 822, 838, 892)),
    ),
    renewability_pct=(
        ((35.5, 40.2, 42.0, 45.8, 50.2),
         (33.1, 37.8, 39.6, 43.4, 47.8),
         (31.0, 35.6, 37.3, 41.2, 45.6)),
        ((43.7, 48.4, 50.1, 53.6, 57.6),
         (42.2, 46.9, 48.7, 52.3, 56.3),
         (40.8, 45.5, 47.3, 50.9, 55.1)),
        ((24.3, 28.3, 29.9, 33.4, 37.5),
         (23.0, 26.9, 28.5, 31.9, 36.0),
         (21.8, 25.7, 27.2, 30.5, 34.7)),
    ),
    price_usd_per_t=(141.0, 277.0, 153.0),
    alpha_wgc=(-0.55, -0.28, 0.00, 0.22, 0.45),
    # rows: the agent's tech level; columns: its best neighbor's
    alpha_bn=(
        (0.00, 0.20, 0.45),
        (-0.25, 0.00, 0.20),
        (-0.55, -0.25, 0.00),
    ),
    wct_usd_per_ha=(252.0, 333.0, 413.0),
)


def default_tables() -> ParameterTables:
    """The embedded Rolling Pampas dataset."""
    return _DEFAULT


# Table names of CSV overrides -> ParameterTables field. Output prices come
# from the scenario's `prices`, so they are not a table override.
_OVERRIDES = {
    "yield": "yield_t_per_ha",
    "cost": "cost_usd_per_ha",
    "renewability": "renewability_pct",
    "alpha_wgc": "alpha_wgc",
    "alpha_bn": "alpha_bn",
    "wct": "wct_usd_per_ha",
}


_SIGN_RULES = {
    1: "must be positive when the neighbor's level is higher",
    0: "must be zero for equal levels",
    -1: "must be negative when the neighbor's level is lower",
}


def validate_tables(tables: ParameterTables) -> list[str]:
    """Check every dataset invariant; returns one message per violation.

    An empty list means the dataset is internally consistent. Messages name
    the table, the offending key, and the violated rule.
    """
    report: list[str] = []

    def check(name: str, bad: np.ndarray, problem: str) -> None:
        axes = _AXES[_OVERRIDES[name]]
        for index in zip(*np.nonzero(bad)):
            report.append(f"{name}[{_codes(axes, index)}]: {problem}")

    check("yield", ~(tables.yield_t_per_ha > 0), "non-positive yield")
    check("cost", ~(tables.cost_usd_per_ha > 0), "non-positive cost")
    renewability = tables.renewability_pct
    check("renewability", ~((0 < renewability) & (renewability < 100)),
          "renewability outside (0, 100)")

    # Yield and cost may not decrease as the weather condition improves.
    for name in ("yield", "cost"):
        table = getattr(tables, _OVERRIDES[name])
        bad = np.zeros(table.shape, dtype=bool)
        bad[..., 1:] = table[..., 1:] < table[..., :-1]
        check(name, bad, "decreasing in weather condition")

    levels = np.arange(len(TechLevel))
    direction = np.sign(levels[None, :] - levels[:, None])  # [agent, neighbor]
    for index in zip(*np.nonzero(np.sign(tables.alpha_bn) != direction)):
        report.append(
            f"alpha_bn[{_codes(_AXES['alpha_bn'], index)}]: alpha_bn sign "
            f"({_SIGN_RULES[direction[index]]})"
        )

    wct = tables.wct_usd_per_ha
    bad = np.zeros(wct.shape, dtype=bool)
    bad[1:] = wct[1:] <= wct[:-1]
    check("wct", bad, "not strictly increasing in tech level")

    return report


# CSV overrides. One file per table; land use, tech level, and weather
# condition are given as codes (M/S/WS, L/A/H, VU/U/A/F/VF).

def _read_rows(path: str, expected_header: list[str]) -> Iterable[dict]:
    text = read_text(path, "table file", newline="")
    reader = csv.DictReader(io.StringIO(text, newline=""))
    header = reader.fieldnames or []
    if [h.strip().lower() for h in header] != expected_header:
        raise ConfigurationError(
            f"{path}: expected header {','.join(expected_header)!r}, "
            f"found {','.join(header)!r}"
        )
    for row in reader:  # DictReader skips blank lines; line_num counts them
        if None in row:  # DictReader files fields beyond the header under None
            raise ConfigurationError(f"{path}:{reader.line_num}: more fields than the header")
        if None in row.values():  # and fills the columns a short row lacks with None
            raise ConfigurationError(f"{path}:{reader.line_num}: fewer fields than the header")
        row["_line"] = reader.line_num
        yield row


def _parse_value(row: dict, path: str) -> float:
    raw = row["value"].strip()
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{path}:{row['_line']}: bad numeric value {raw!r}"
        ) from None
    if not math.isfinite(value):
        raise ConfigurationError(f"{path}:{row['_line']}: value {raw!r} is not finite")
    return value


def _load_keyed_csv(path: str, key_columns: tuple[str, ...]) -> np.ndarray:
    """A `key_columns...,value` CSV as a read-only array indexed by the keys.

    Every key combination must be given exactly once.
    """
    table = np.full(_shape(key_columns), np.nan)
    for row in _read_rows(path, [*key_columns, "value"]):
        try:
            index = tuple(_KEY_ENUMS[c].from_code(row[c]) for c in key_columns)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}:{row['_line']}: {exc}") from None
        if not np.isnan(table[index]):
            raise ConfigurationError(
                f"{path}:{row['_line']}: repeated entry ({_codes(key_columns, index)})"
            )
        table[index] = _parse_value(row, path)
    missing = list(zip(*np.nonzero(np.isnan(table))))  # values are finite once set
    if missing:
        more = f" and {len(missing) - 1} more" if len(missing) > 1 else ""
        raise ConfigurationError(
            f"{path}: missing entry ({_codes(key_columns, missing[0])}){more}"
        )
    table.flags.writeable = False
    return table


def load_tl_wgc_table_csv(path: str) -> np.ndarray:
    """Load a (tech level, weather condition) table, e.g. component yields.

    Returns a read-only (3, 5) array indexed [TechLevel, Wgc].
    """
    return _load_keyed_csv(path, ("tl", "wgc"))


def load_table_overrides(
    base: ParameterTables, overrides: Mapping[str, str]
) -> ParameterTables:
    """Replace whole tables from CSV files and re-validate the dataset.

    `overrides` maps table names (yield, cost, renewability, alpha_wgc,
    alpha_bn, wct) to file paths. A replaced table must be complete.
    """
    loaded = {}
    for name, path in overrides.items():
        if name not in _OVERRIDES:
            raise ConfigurationError(
                f"unknown table override {name!r} (expected one of "
                f"{', '.join(sorted(_OVERRIDES))}; output prices are the "
                "scenario's \"prices\" setting)"
            )
        field = _OVERRIDES[name]
        loaded[field] = _load_keyed_csv(path, _AXES[field])
    tables = replace(base, **loaded)
    violations = validate_tables(tables)
    if violations:
        raise ConfigurationError(
            "table overrides violate dataset invariants: "
            + "; ".join(violations[:10])
            + ("; ..." if len(violations) > 10 else "")
        )
    return tables
