"""One-at-a-time sensitivity analysis.

Each axis varies a single parameter over a list of values while every other
parameter stays at its reference (base-configuration) value, re-running the
full scenario with the same seed so differences are attributable to the
parameter alone. The reference value's row is always present: for numeric
axes it is inserted if missing; for the weather-mix axis the unmixed base
run itself is the reference row.

Every numeric axis runs with the base rent resolved to US$/ha, since rent
is its own swept parameter and soybean-equivalent rent would otherwise
ride along with the soybean price.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Union

from .climate import ClimateRegime
from .config import ScenarioConfig, resolve_tables
from .engine import RunResult, plan, run_simulation
from .errors import ConfigurationError
from .tables import LandUse, ParameterTables, TechLevel, Wgc

__all__ = [
    "SweepParameter",
    "SweepAxis",
    "SweepRow",
    "SweepResult",
    "run_sweep",
    "write_sweep_csv",
]


class SweepParameter(Enum):
    SOYBEAN_PRICE = "soy-price"
    MAIZE_PRICE = "maize-price"
    WHEAT_PRICE = "wheat-price"
    WGC_MIX_LEVEL = "wgc-mix"
    OWNER_SHARE = "owner-share"
    RENT_USD = "rent"


# Default admissible ranges per axis; chosen to match the published
# sensitivity protocol for this dataset. Overridable per axis.
_DEFAULT_RANGES = {
    SweepParameter.SOYBEAN_PRICE: (141.0, 346.4),
    SweepParameter.MAIZE_PRICE: (69.76, 185.28),
    SweepParameter.WHEAT_PRICE: (100.28, 249.23),
    SweepParameter.OWNER_SHARE: (10.0, 90.0),
    SweepParameter.RENT_USD: (221.6, 775.6),
}


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter and its values.

    Values are floats for the numeric axes and Wgc levels for the
    weather-mix axis. Values outside the default range are rejected unless
    `allow_outside_range` is set; `run_sweep` refuses a value that gives a
    run `plan` refuses (a non-positive price, a share outside [0, 100], a
    negative rent).
    """

    parameter: SweepParameter
    values: tuple[Union[float, Wgc], ...]
    allow_outside_range: bool = False

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigurationError("sweep axis needs at least one value")
        if self.parameter is SweepParameter.WGC_MIX_LEVEL:
            for v in self.values:
                if not isinstance(v, Wgc):
                    raise ConfigurationError(
                        f"wgc-mix axis values must be weather levels, got {v!r}"
                    )
            return
        lo, hi = _DEFAULT_RANGES[self.parameter]
        for v in self.values:
            value = float(v)
            if not self.allow_outside_range and not lo <= value <= hi:
                raise ConfigurationError(
                    f"{self.parameter.value} value {value} outside the default "
                    f"range [{lo}, {hi}] (pass allow_outside_range to permit)"
                )


@dataclass(frozen=True)
class SweepRow:
    """Whole-run means and final state for one axis value."""

    value_label: str
    value: Optional[Union[float, Wgc]]
    is_reference: bool
    mean_profit: float
    mean_rl: float
    final_cover_pct: dict[LandUse, float]
    final_tl_counts: dict[TechLevel, int]


@dataclass(frozen=True)
class SweepResult:
    parameter: SweepParameter
    rows: tuple[SweepRow, ...]


def _price(land_use: LandUse) -> tuple:
    """The getter and setter of one land use's price."""
    return (lambda config: config.prices[land_use],
            lambda config, value: replace(config, prices={**config.prices, land_use: value}))


# The getter and the setter of the setting each numeric axis moves.
_AXES = {
    SweepParameter.SOYBEAN_PRICE: _price(LandUse.SOYBEAN),
    SweepParameter.MAIZE_PRICE: _price(LandUse.MAIZE),
    SweepParameter.WHEAT_PRICE: _price(LandUse.WHEAT_SOY),
    SweepParameter.OWNER_SHARE: (lambda config: config.owner_share_pct,
                                 lambda config, value: replace(config, owner_share_pct=value)),
    SweepParameter.RENT_USD: (ScenarioConfig.rent_usd,
                              lambda config, value: replace(config, rent=("usd_per_ha", value))),
}


def _reference_value(base: ScenarioConfig, parameter: SweepParameter) -> float:
    return _AXES[parameter][0](base)


def _numeric_rows(base: ScenarioConfig, axis: SweepAxis, tables: ParameterTables) -> list:
    """One row per value, the reference value's included, every run planned before the first."""
    reference = _reference_value(base, axis.parameter)
    start = replace(base, rent=("usd_per_ha", base.rent_usd()))  # see the module docstring
    runs = [(f"{value:.6f}", value, value == reference, _AXES[axis.parameter][1](start, value))
            for value in sorted({float(v) for v in axis.values} | {reference})]
    _check_labels(runs)
    runs = [(*row, plan(config, tables)) for *row, config in runs]
    return [_row(*row, run_simulation(run)) for *row, run in runs]


def _mix_rows(base: ScenarioConfig, axis: SweepAxis, tables: ParameterTables) -> list:
    """The unmixed base run, then one run per level that plays it on the odd cycles.

    The even cycles play the weather the base run played, random weather
    included. Once `plan` accepts the base it accepts every mix row: a
    row differs from the base only in a climate of exactly `cycles`
    levels, and no `CycleContext` depends on the climate.
    """
    reference = run_simulation(plan(base, tables))
    history = [record.wgc for record in reference.records]
    rows = [_row("reference", None, True, reference)]
    del reference  # a sweep holds one run's landscape at a time
    for level in sorted(set(axis.values)):
        mixed = replace(base, climate=ClimateRegime.alternating_mix(history, level))
        rows.append(_row(level.code, level, False, run_simulation(plan(mixed, tables))))
    return rows


def _row(label: str, value, is_reference: bool, result: RunResult) -> SweepRow:
    mean_profit, mean_rl = result.whole_run_means()
    final = result.records[-1]
    return SweepRow(label, value, is_reference, mean_profit, mean_rl,
                    dict(final.cover_pct), dict(final.tl_counts))


def run_sweep(
    base: ScenarioConfig,
    axis: SweepAxis,
    tables: Optional[ParameterTables] = None,
) -> SweepResult:
    """Run the scenario once per axis value, all with the base seed.

    Numeric axes return rows in ascending value order, with the reference
    value's row inserted when not among the requested values. The
    weather-mix axis returns the unmixed base run first (the reference),
    then one row per mixed-in level in level order. Two values whose
    six-decimal labels match, and a run that `plan` refuses, are refused
    before any run.
    """
    base.validate()
    if tables is None:
        tables = resolve_tables(base)  # every run shares the base's table files
    make_rows = _mix_rows if axis.parameter is SweepParameter.WGC_MIX_LEVEL else _numeric_rows
    return SweepResult(axis.parameter, tuple(make_rows(base, axis, tables)))


def _check_labels(runs: list) -> None:
    """Refuse two runs whose sweep.csv rows would carry the same value label."""
    values = {}
    for label, value, is_reference, _ in runs:
        named = f"{value!r} (the reference)" if is_reference else repr(value)
        if label in values:
            raise ConfigurationError(
                f"sweep values {values[label]} and {named} both print as {label}"
            )
        values[label] = named


def write_sweep_csv(result: SweepResult, path: str) -> None:
    """Write one row per axis value; floats carry six decimals."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["parameter", "value", "mean_profit", "mean_rl",
                         *(f"final_cover_{lu.code.lower()}" for lu in LandUse),
                         *(f"final_tl_{tl.code.lower()}" for tl in TechLevel)])
        for row in result.rows:
            writer.writerow([result.parameter.value, row.value_label,
                             f"{row.mean_profit:.6f}", f"{row.mean_rl:.6f}",
                             *(f"{row.final_cover_pct[lu]:.6f}" for lu in LandUse),
                             *(row.final_tl_counts[tl] for tl in TechLevel)])
