"""One-at-a-time sensitivity analysis.

Each axis varies a single parameter over a list of values while every other
parameter stays at its reference (base-configuration) value, re-running the
full scenario with the same seed so differences are attributable to the
parameter alone. The reference value's row is always present: for numeric
axes it is inserted if missing; for the weather-mix axis the unmixed base
run itself is the reference row.

Crop-price axes hold tenant rent at the base run's resolved US$/ha value,
since rent is its own swept parameter and soybean-equivalent rent would
otherwise ride along with the soybean price.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Union

from .climate import ClimateRegime, wgc_for_cycle
from .config import ScenarioConfig
from .engine import run_simulation
from .errors import ConfigurationError
from .numeric import sequential_sum
from .rng import SplitMix64
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
    `allow_outside_range` is set; physically impossible values (negative
    prices or rent, shares outside [0, 100]) are always rejected.
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
            if self.parameter in (
                SweepParameter.SOYBEAN_PRICE,
                SweepParameter.MAIZE_PRICE,
                SweepParameter.WHEAT_PRICE,
            ) and value <= 0:
                raise ConfigurationError(
                    f"{self.parameter.value} must be positive, got {value}"
                )
            if self.parameter is SweepParameter.OWNER_SHARE and not (
                0.0 <= value <= 100.0
            ):
                raise ConfigurationError(
                    f"owner-share must be within [0, 100], got {value}"
                )
            if self.parameter is SweepParameter.RENT_USD and value < 0:
                raise ConfigurationError(
                    f"rent must be non-negative, got {value}"
                )
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
    climate_note: str


def _materialize_sequence(config: ScenarioConfig) -> tuple[Wgc, ...]:
    """The base regime's cycle-by-cycle levels, for use as mix history.

    A random base regime is materialized from a fresh stream seeded with the
    scenario seed, so the mix history is deterministic.
    """
    rng = SplitMix64(config.seed)
    return tuple(
        wgc_for_cycle(config.climate, t, rng) for t in range(config.cycles)
    )


def _config_for_value(
    base: ScenarioConfig, parameter: SweepParameter, value
) -> ScenarioConfig:
    pin_rent = {
        "rent_usd_per_ha": base.rent_usd(),
        "rent_soy_tons": None,
    }
    if parameter is SweepParameter.SOYBEAN_PRICE:
        prices = dict(base.prices)
        prices[LandUse.SOYBEAN] = float(value)
        return replace(base, prices=prices, **pin_rent)
    if parameter is SweepParameter.MAIZE_PRICE:
        prices = dict(base.prices)
        prices[LandUse.MAIZE] = float(value)
        return replace(base, prices=prices, **pin_rent)
    if parameter is SweepParameter.WHEAT_PRICE:
        if base.pricing_mode == "split":
            return replace(
                base, wheat_price_usd_per_t=float(value), **pin_rent
            )
        prices = dict(base.prices)
        prices[LandUse.WHEAT_SOY] = float(value)
        return replace(base, prices=prices, **pin_rent)
    if parameter is SweepParameter.OWNER_SHARE:
        return replace(base, owner_share_pct=float(value))
    if parameter is SweepParameter.RENT_USD:
        return replace(
            base, rent_usd_per_ha=float(value), rent_soy_tons=None
        )
    if parameter is SweepParameter.WGC_MIX_LEVEL:
        history = _materialize_sequence(base)
        return replace(
            base, climate=ClimateRegime.alternating_mix(history, value)
        )
    raise ValueError(f"unhandled sweep parameter {parameter}")


def _reference_value(
    base: ScenarioConfig, parameter: SweepParameter
) -> Optional[float]:
    if parameter is SweepParameter.SOYBEAN_PRICE:
        return base.prices[LandUse.SOYBEAN]
    if parameter is SweepParameter.MAIZE_PRICE:
        return base.prices[LandUse.MAIZE]
    if parameter is SweepParameter.WHEAT_PRICE:
        if base.pricing_mode == "split":
            return base.wheat_price_usd_per_t
        return base.prices[LandUse.WHEAT_SOY]
    if parameter is SweepParameter.OWNER_SHARE:
        return base.owner_share_pct
    if parameter is SweepParameter.RENT_USD:
        return base.rent_usd()
    return None  # weather mix: the unmixed base run is the reference


def _row_from_run(
    config: ScenarioConfig,
    tables: Optional[ParameterTables],
    label: str,
    value,
    is_reference: bool,
    workers: int,
) -> SweepRow:
    result = run_simulation(config, tables, workers=workers)
    records = result.records
    n = len(records)
    return SweepRow(
        value_label=label,
        value=value,
        is_reference=is_reference,
        mean_profit=sequential_sum([r.mean_profit_usd_per_ha for r in records]) / n,
        mean_rl=sequential_sum([r.mean_rl_pct for r in records]) / n,
        final_cover_pct=dict(records[-1].cover_pct),
        final_tl_counts=dict(records[-1].tl_counts),
    )


def run_sweep(
    base: ScenarioConfig,
    axis: SweepAxis,
    tables: Optional[ParameterTables] = None,
    *,
    workers: int = 1,
) -> SweepResult:
    """Run the scenario once per axis value, all with the base seed.

    Numeric axes return rows in ascending value order, with the reference
    value's row inserted when not among the requested values. The
    weather-mix axis returns the unmixed base run first (the reference),
    then one row per mixed-in level in level order.
    """
    base.validate()
    note = f"base climate: {base.climate.describe()}"
    parameter = axis.parameter

    if parameter is SweepParameter.WGC_MIX_LEVEL:
        rows = [
            _row_from_run(base, tables, "reference", None, True, workers)
        ]
        for level in sorted(set(axis.values)):
            config = _config_for_value(base, parameter, level)
            rows.append(
                _row_from_run(
                    config, tables, level.code, level, False, workers
                )
            )
        return SweepResult(parameter, tuple(rows), note)

    reference = _reference_value(base, parameter)
    values = sorted({float(v) for v in axis.values} | {reference})
    rows = []
    for value in values:
        config = _config_for_value(base, parameter, value)
        rows.append(
            _row_from_run(
                config,
                tables,
                f"{value:.6f}",
                value,
                value == reference,
                workers,
            )
        )
    return SweepResult(parameter, tuple(rows), note)


def write_sweep_csv(result: SweepResult, path: str) -> None:
    """Write one row per axis value; floats carry six decimals."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "parameter",
                "value",
                "mean_profit",
                "mean_rl",
                "final_cover_m",
                "final_cover_s",
                "final_cover_ws",
                "final_tl_l",
                "final_tl_a",
                "final_tl_h",
            ]
        )
        for row in result.rows:
            writer.writerow(
                [
                    result.parameter.value,
                    row.value_label,
                    f"{row.mean_profit:.6f}",
                    f"{row.mean_rl:.6f}",
                    f"{row.final_cover_pct[LandUse.MAIZE]:.6f}",
                    f"{row.final_cover_pct[LandUse.SOYBEAN]:.6f}",
                    f"{row.final_cover_pct[LandUse.WHEAT_SOY]:.6f}",
                    row.final_tl_counts[TechLevel.LOW],
                    row.final_tl_counts[TechLevel.AVERAGE],
                    row.final_tl_counts[TechLevel.HIGH],
                ]
            )
