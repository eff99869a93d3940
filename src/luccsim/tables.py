"""Core enumerations, the embedded parameter dataset, and validated lookups.

All per-cycle economics and energy accounting are table-driven: crop yield,
production cost, and energy-renewability share are looked up by the
(land use, technology level, weather condition) triple; output prices,
aspiration adjustment factors, and working-capital thresholds are smaller
keyed tables. The embedded dataset describes the Rolling Pampas cropping
systems; every table can be overridden from CSV to model another region.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import IntEnum
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import ConfigurationError

__all__ = [
    "LandUse",
    "TechLevel",
    "Wgc",
    "ParameterTables",
    "default_tables",
    "lookup",
    "validate_tables",
    "load_table_overrides",
    "load_tl_wgc_table_csv",
]


class LandUse(IntEnum):
    """The three cropping systems competing for farm area."""

    MAIZE = 0
    SOYBEAN = 1
    WHEAT_SOY = 2  # wheat/soybean double cropping

    @property
    def code(self) -> str:
        return _LU_CODES[self]

    @classmethod
    def from_code(cls, code: str) -> "LandUse":
        return _parse_code(cls, _LU_CODES, code)


class TechLevel(IntEnum):
    """Input-intensity management package, ordered low to high."""

    LOW = 0
    AVERAGE = 1
    HIGH = 2

    @property
    def code(self) -> str:
        return _TL_CODES[self]

    @classmethod
    def from_code(cls, code: str) -> "TechLevel":
        return _parse_code(cls, _TL_CODES, code)


class Wgc(IntEnum):
    """Weather growing condition of a cropping cycle, worst to best."""

    VERY_UNFAVORABLE = 0
    UNFAVORABLE = 1
    AVERAGE = 2
    FAVORABLE = 3
    VERY_FAVORABLE = 4

    @property
    def code(self) -> str:
        return _WGC_CODES[self]

    @classmethod
    def from_code(cls, code: str) -> "Wgc":
        return _parse_code(cls, _WGC_CODES, code)


_LU_CODES = {LandUse.MAIZE: "M", LandUse.SOYBEAN: "S", LandUse.WHEAT_SOY: "WS"}
_TL_CODES = {TechLevel.LOW: "L", TechLevel.AVERAGE: "A", TechLevel.HIGH: "H"}
_WGC_CODES = {
    Wgc.VERY_UNFAVORABLE: "VU",
    Wgc.UNFAVORABLE: "U",
    Wgc.AVERAGE: "A",
    Wgc.FAVORABLE: "F",
    Wgc.VERY_FAVORABLE: "VF",
}


def _parse_code(cls, codes, code: str):
    wanted = code.strip().upper()
    for member, c in codes.items():
        if c == wanted:
            return member
    raise ConfigurationError(
        f"unknown {cls.__name__} code {code!r} (expected one of "
        f"{', '.join(codes.values())})"
    )


TripleKey = tuple[LandUse, TechLevel, Wgc]


@dataclass(frozen=True)
class ParameterTables:
    """The full parameter dataset; immutable and safe for concurrent reads.

    yield_t_per_ha, cost_usd_per_ha, renewability_pct: keyed by
    (LandUse, TechLevel, Wgc), 45 entries each. price_usd_per_t: median
    output price per land use. alpha_wgc: aspiration adjustment factor per
    weather condition. alpha_bn: aspiration adjustment factor keyed by
    (agent tech level, best neighbor tech level); positive when the
    neighbor's level is higher. wct_usd_per_ha: working-capital threshold
    per tech level.
    """

    yield_t_per_ha: Mapping[TripleKey, float]
    cost_usd_per_ha: Mapping[TripleKey, float]
    renewability_pct: Mapping[TripleKey, float]
    price_usd_per_t: Mapping[LandUse, float]
    alpha_wgc: Mapping[Wgc, float]
    alpha_bn: Mapping[tuple[TechLevel, TechLevel], float]
    wct_usd_per_ha: Mapping[TechLevel, float]

    @staticmethod
    def from_dicts(
        yield_t_per_ha: dict,
        cost_usd_per_ha: dict,
        renewability_pct: dict,
        price_usd_per_t: dict,
        alpha_wgc: dict,
        alpha_bn: dict,
        wct_usd_per_ha: dict,
    ) -> "ParameterTables":
        """Build with read-only views so instances stay immutable."""
        return ParameterTables(
            yield_t_per_ha=MappingProxyType(dict(yield_t_per_ha)),
            cost_usd_per_ha=MappingProxyType(dict(cost_usd_per_ha)),
            renewability_pct=MappingProxyType(dict(renewability_pct)),
            price_usd_per_t=MappingProxyType(dict(price_usd_per_t)),
            alpha_wgc=MappingProxyType(dict(alpha_wgc)),
            alpha_bn=MappingProxyType(dict(alpha_bn)),
            wct_usd_per_ha=MappingProxyType(dict(wct_usd_per_ha)),
        )


# Embedded dataset. Rows are (land use, tech level) -> values per weather
# condition in VU, U, A, F, VF order.

_M, _S, _WS = LandUse.MAIZE, LandUse.SOYBEAN, LandUse.WHEAT_SOY
_L, _A, _H = TechLevel.LOW, TechLevel.AVERAGE, TechLevel.HIGH

_YIELD_ROWS: dict[tuple[LandUse, TechLevel], tuple[float, ...]] = {
    (_M, _L): (4.05, 6.27, 7.45, 8.37, 9.25),
    (_M, _A): (4.88, 7.78, 9.02, 10.45, 11.59),
    (_M, _H): (5.40, 8.80, 10.22, 11.94, 13.18),
    (_S, _L): (1.89, 2.67, 3.13, 3.72, 4.15),
    (_S, _A): (2.13, 3.00, 3.53, 4.18, 4.67),
    (_S, _H): (2.37, 3.34, 3.92, 4.65, 5.19),
    (_WS, _L): (3.06, 4.34, 5.21, 5.73, 7.11),
    (_WS, _A): (3.53, 4.89, 6.01, 6.55, 8.16),
    (_WS, _H): (4.25, 5.85, 7.30, 7.90, 9.83),
}

_COST_ROWS: dict[tuple[LandUse, TechLevel], tuple[float, ...]] = {
    (_M, _L): (504, 619, 680, 727, 773),
    (_M, _A): (618, 768, 832, 906, 965),
    (_M, _H): (717, 892, 966, 1055, 1119),
    (_S, _L): (262, 302, 326, 356, 378),
    (_S, _A): (329, 374, 401, 435, 460),
    (_S, _H): (395, 446, 476, 514, 541),
    (_WS, _L): (477, 511, 528, 541, 584),
    (_WS, _A): (618, 656, 675, 690, 738),
    (_WS, _H): (759, 801, 822, 838, 892),
}

_RENEWABILITY_ROWS: dict[tuple[LandUse, TechLevel], tuple[float, ...]] = {
    (_M, _L): (35.5, 40.2, 42.0, 45.8, 50.2),
    (_M, _A): (33.1, 37.8, 39.6, 43.4, 47.8),
    (_M, _H): (31.0, 35.6, 37.3, 41.2, 45.6),
    (_S, _L): (43.7, 48.4, 50.1, 53.6, 57.6),
    (_S, _A): (42.2, 46.9, 48.7, 52.3, 56.3),
    (_S, _H): (40.8, 45.5, 47.3, 50.9, 55.1),
    (_WS, _L): (24.3, 28.3, 29.9, 33.4, 37.5),
    (_WS, _A): (23.0, 26.9, 28.5, 31.9, 36.0),
    (_WS, _H): (21.8, 25.7, 27.2, 30.5, 34.7),
}

_PRICES = {_M: 141.0, _S: 277.0, _WS: 153.0}

_ALPHA_WGC = {
    Wgc.VERY_UNFAVORABLE: -0.55,
    Wgc.UNFAVORABLE: -0.28,
    Wgc.AVERAGE: 0.00,
    Wgc.FAVORABLE: 0.22,
    Wgc.VERY_FAVORABLE: 0.45,
}

# (agent tech level, best neighbor tech level) -> adjustment factor.
_ALPHA_BN = {
    (_L, _L): 0.00, (_L, _A): 0.20, (_L, _H): 0.45,
    (_A, _L): -0.25, (_A, _A): 0.00, (_A, _H): 0.20,
    (_H, _L): -0.55, (_H, _A): -0.25, (_H, _H): 0.00,
}

_WCT = {_L: 252.0, _A: 333.0, _H: 413.0}


def _expand(rows: dict[tuple[LandUse, TechLevel], tuple[float, ...]]):
    out: dict[TripleKey, float] = {}
    for (lu, tl), values in rows.items():
        for wgc, value in zip(Wgc, values):
            out[(lu, tl, wgc)] = float(value)
    return out


_DEFAULT = ParameterTables.from_dicts(
    yield_t_per_ha=_expand(_YIELD_ROWS),
    cost_usd_per_ha=_expand(_COST_ROWS),
    renewability_pct=_expand(_RENEWABILITY_ROWS),
    price_usd_per_t=_PRICES,
    alpha_wgc=_ALPHA_WGC,
    alpha_bn=_ALPHA_BN,
    wct_usd_per_ha=_WCT,
)


def default_tables() -> ParameterTables:
    """The embedded Rolling Pampas dataset."""
    return _DEFAULT


_KIND_FIELDS = {
    "yield": "yield_t_per_ha",
    "cost": "cost_usd_per_ha",
    "renewability": "renewability_pct",
}


def lookup(
    tables: ParameterTables, kind: str, lu: LandUse, tl: TechLevel, wgc: Wgc
) -> float:
    """Fetch one cell of the yield, cost, or renewability table."""
    try:
        field = _KIND_FIELDS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown table kind {kind!r} (expected yield, cost, or renewability)"
        ) from None
    table: Mapping[TripleKey, float] = getattr(tables, field)
    try:
        return table[(lu, tl, wgc)]
    except KeyError:
        raise ConfigurationError(
            f"table {kind!r} has no entry for "
            f"({lu.code}, {tl.code}, {wgc.code})"
        ) from None


def validate_tables(tables: ParameterTables) -> list[str]:
    """Check every dataset invariant; returns one message per violation.

    An empty list means the dataset is internally consistent. Messages name
    the table, the offending key, and the violated rule.
    """
    report: list[str] = []

    def check_triple(name: str, table: Mapping[TripleKey, float], rule):
        for lu in LandUse:
            for tl in TechLevel:
                for wgc in Wgc:
                    key = (lu, tl, wgc)
                    if key not in table:
                        report.append(
                            f"{name}[{lu.code},{tl.code},{wgc.code}]: missing entry"
                        )
                        continue
                    problem = rule(table[key])
                    if problem:
                        report.append(
                            f"{name}[{lu.code},{tl.code},{wgc.code}]: {problem}"
                        )

    check_triple(
        "yield",
        tables.yield_t_per_ha,
        lambda v: None if v > 0 else "non-positive yield",
    )
    check_triple(
        "cost",
        tables.cost_usd_per_ha,
        lambda v: None if v > 0 else "non-positive cost",
    )
    check_triple(
        "renewability",
        tables.renewability_pct,
        lambda v: None if 0 < v < 100 else "renewability outside (0, 100)",
    )

    # Yield and cost may not decrease as the weather condition improves.
    for name, table in (
        ("yield", tables.yield_t_per_ha),
        ("cost", tables.cost_usd_per_ha),
    ):
        for lu in LandUse:
            for tl in TechLevel:
                values = [
                    table.get((lu, tl, wgc)) for wgc in Wgc
                ]
                if any(v is None for v in values):
                    continue  # already reported as missing
                for a, b, wgc in zip(values, values[1:], list(Wgc)[1:]):
                    if b < a:
                        report.append(
                            f"{name}[{lu.code},{tl.code},{wgc.code}]: "
                            "decreasing in weather condition"
                        )

    for lu in LandUse:
        if lu not in tables.price_usd_per_t:
            report.append(f"price[{lu.code}]: missing entry")

    for wgc in Wgc:
        if wgc not in tables.alpha_wgc:
            report.append(f"alpha_wgc[{wgc.code}]: missing entry")

    for agent_tl in TechLevel:
        for bn_tl in TechLevel:
            key = (agent_tl, bn_tl)
            if key not in tables.alpha_bn:
                report.append(
                    f"alpha_bn[{agent_tl.code},{bn_tl.code}]: missing entry"
                )
                continue
            value = tables.alpha_bn[key]
            if bn_tl > agent_tl and not value > 0:
                report.append(
                    f"alpha_bn[{agent_tl.code},{bn_tl.code}]: alpha_bn sign "
                    "(must be positive when the neighbor's level is higher)"
                )
            elif bn_tl == agent_tl and value != 0:
                report.append(
                    f"alpha_bn[{agent_tl.code},{bn_tl.code}]: alpha_bn sign "
                    "(must be zero for equal levels)"
                )
            elif bn_tl < agent_tl and not value < 0:
                report.append(
                    f"alpha_bn[{agent_tl.code},{bn_tl.code}]: alpha_bn sign "
                    "(must be negative when the neighbor's level is lower)"
                )

    previous = None
    for tl in TechLevel:
        if tl not in tables.wct_usd_per_ha:
            report.append(f"wct[{tl.code}]: missing entry")
            previous = None
            continue
        value = tables.wct_usd_per_ha[tl]
        if previous is not None and value <= previous:
            report.append(
                f"wct[{tl.code}]: not strictly increasing in tech level"
            )
        previous = value

    return report


# CSV overrides. One file per table; land use, tech level, and weather
# condition are given as codes (M/S/WS, L/A/H, VU/U/A/F/VF).

def _read_rows(path: str, expected_header: list[str]) -> Iterable[dict]:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read table file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"cannot read table file {path}: not UTF-8 ({exc.reason})") from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
    header = reader.fieldnames or []
    if [h.strip().lower() for h in header] != expected_header:
        raise ConfigurationError(
            f"{path}: expected header {','.join(expected_header)!r}, "
            f"found {','.join(header)!r}"
        )
    for lineno, row in enumerate(reader, start=2):
        row["_line"] = lineno
        yield row


def _parse_value(row: dict, path: str) -> float:
    raw = (row.get("value") or "").strip()
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{path}:{row['_line']}: bad numeric value {raw!r}"
        ) from None
    if not math.isfinite(value):
        raise ConfigurationError(f"{path}:{row['_line']}: value {raw!r} is not finite")
    return value


def _load_triple_csv(path: str) -> dict[TripleKey, float]:
    out: dict[TripleKey, float] = {}
    for row in _read_rows(path, ["lu", "tl", "wgc", "value"]):
        key = (
            LandUse.from_code(row["lu"]),
            TechLevel.from_code(row["tl"]),
            Wgc.from_code(row["wgc"]),
        )
        out[key] = _parse_value(row, path)
    return out


def _load_price_csv(path: str) -> dict[LandUse, float]:
    return {
        LandUse.from_code(row["lu"]): _parse_value(row, path)
        for row in _read_rows(path, ["lu", "value"])
    }


def _load_alpha_wgc_csv(path: str) -> dict[Wgc, float]:
    return {
        Wgc.from_code(row["wgc"]): _parse_value(row, path)
        for row in _read_rows(path, ["wgc", "value"])
    }


def _load_alpha_bn_csv(path: str) -> dict[tuple[TechLevel, TechLevel], float]:
    return {
        (TechLevel.from_code(row["tl"]), TechLevel.from_code(row["bn_tl"])):
            _parse_value(row, path)
        for row in _read_rows(path, ["tl", "bn_tl", "value"])
    }


def _load_wct_csv(path: str) -> dict[TechLevel, float]:
    return {
        TechLevel.from_code(row["tl"]): _parse_value(row, path)
        for row in _read_rows(path, ["tl", "value"])
    }


def load_tl_wgc_table_csv(path: str) -> dict[tuple[TechLevel, Wgc], float]:
    """Load a (tech level, weather condition) table, e.g. component yields."""
    out: dict[tuple[TechLevel, Wgc], float] = {}
    for row in _read_rows(path, ["tl", "wgc", "value"]):
        key = (TechLevel.from_code(row["tl"]), Wgc.from_code(row["wgc"]))
        out[key] = _parse_value(row, path)
    missing = [
        f"({tl.code},{wgc.code})"
        for tl in TechLevel
        for wgc in Wgc
        if (tl, wgc) not in out
    ]
    if missing:
        raise ConfigurationError(f"{path}: missing entries {', '.join(missing)}")
    return out


_OVERRIDE_LOADERS = {
    "yield": ("yield_t_per_ha", _load_triple_csv),
    "cost": ("cost_usd_per_ha", _load_triple_csv),
    "renewability": ("renewability_pct", _load_triple_csv),
    "price": ("price_usd_per_t", _load_price_csv),
    "alpha_wgc": ("alpha_wgc", _load_alpha_wgc_csv),
    "alpha_bn": ("alpha_bn", _load_alpha_bn_csv),
    "wct": ("wct_usd_per_ha", _load_wct_csv),
}


def load_table_overrides(
    base: ParameterTables, overrides: Mapping[str, str]
) -> ParameterTables:
    """Replace whole tables from CSV files and re-validate the dataset.

    `overrides` maps table names (yield, cost, renewability, price,
    alpha_wgc, alpha_bn, wct) to file paths. A replaced table must be
    complete; partial overrides are rejected by validation.
    """
    fields = {
        "yield_t_per_ha": dict(base.yield_t_per_ha),
        "cost_usd_per_ha": dict(base.cost_usd_per_ha),
        "renewability_pct": dict(base.renewability_pct),
        "price_usd_per_t": dict(base.price_usd_per_t),
        "alpha_wgc": dict(base.alpha_wgc),
        "alpha_bn": dict(base.alpha_bn),
        "wct_usd_per_ha": dict(base.wct_usd_per_ha),
    }
    for name, path in overrides.items():
        if name not in _OVERRIDE_LOADERS:
            raise ConfigurationError(
                f"unknown table override {name!r} (expected one of "
                f"{', '.join(sorted(_OVERRIDE_LOADERS))})"
            )
        field, loader = _OVERRIDE_LOADERS[name]
        fields[field] = loader(path)
    tables = ParameterTables.from_dicts(**fields)
    violations = validate_tables(tables)
    if violations:
        raise ConfigurationError(
            "table overrides violate dataset invariants: "
            + "; ".join(violations[:10])
            + ("; ..." if len(violations) > 10 else "")
        )
    return tables
