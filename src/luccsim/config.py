"""Scenario configuration: presets, JSON config files, and validation.

A scenario fixes everything a run needs: grid size, horizon, seed, tenure
mix, weather regime, initial distributions, prices, rent, and optional
table overrides. Two presets are built in:

``pergamino-1988``
    The Rolling Pampas case study initialization (625 agents, 63% owners,
    27 cycles). The historical weather series is not bundled, so this
    preset requires an explicit weather sequence. Census cover and tech
    shares are published against total area and do not sum to 100; they
    are normalized here to shares of cropped area.

``longterm``
    The 50-cycle scenario family: everything starts at equal thirds and
    the tenure mix and weather regime are chosen per experiment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional

import numpy as np

from .climate import ClimateRegime, RegimeKind, load_wgc_sequence
from .errors import ConfigurationError, read_text
from .numeric import sequential_sum
from .tables import (
    LandUse,
    ParameterTables,
    TechLevel,
    Wgc,
    default_tables,
    load_table_overrides,
    load_tl_wgc_table_csv,
)

__all__ = ["ScenarioConfig", "preset", "parse_config", "resolve_tables", "PRESET_NAMES"]

_SHARE_TOLERANCE = 1e-6

_DEFAULT_WHEAT_PRICE = 153.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved run configuration. Validate before use."""

    grid_rows: int
    grid_cols: int
    cycles: int
    seed: int
    owner_share_pct: float
    climate: Optional[ClimateRegime]
    initial_cover_pct: Mapping[LandUse, float]
    initial_tl_pct: Mapping[TechLevel, float]
    initial_al_factor: float = 0.6
    et_pct: float = 50.0
    rent_soy_tons: Optional[float] = 1.6
    rent_usd_per_ha: Optional[float] = None
    prices: Mapping[LandUse, float] = field(
        default_factory=lambda: dict(zip(LandUse, default_tables().price_usd_per_t.tolist()))
    )
    pricing_mode: str = "combined"
    wheat_price_usd_per_t: float = _DEFAULT_WHEAT_PRICE
    split_wheat_yield: Optional[np.ndarray] = None  # [TechLevel, Wgc]
    split_soy2_yield: Optional[np.ndarray] = None
    table_overrides: Mapping[str, str] = field(default_factory=dict)

    @property
    def n_agents(self) -> int:
        return self.grid_rows * self.grid_cols

    def rent_usd(self) -> float:
        """Tenant rent in US$/ha; soybean-equivalent rent uses the current price."""
        if self.rent_usd_per_ha is not None:
            return self.rent_usd_per_ha
        return self.rent_soy_tons * self.prices[LandUse.SOYBEAN]

    def validate(self) -> None:
        """Raise ConfigurationError on the first inconsistency found."""
        for name, value in self._float_fields():
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite (got {value!r})")
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ConfigurationError("grid dimensions must be positive")
        if self.cycles < 1:
            raise ConfigurationError("cycles must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError("seed must fit in an unsigned 64-bit integer")
        if not 0.0 <= self.owner_share_pct <= 100.0:
            raise ConfigurationError("owner_share_pct must be within [0, 100]")
        _check_shares("initial_cover_pct", self.initial_cover_pct, list(LandUse))
        _check_shares("initial_tl_pct", self.initial_tl_pct, list(TechLevel))
        if self.initial_al_factor < 0:
            raise ConfigurationError("initial_al_factor must be non-negative")
        if not 0.0 <= self.et_pct <= 100.0:
            raise ConfigurationError("et_pct must be within [0, 100]")
        if (self.rent_soy_tons is None) == (self.rent_usd_per_ha is None):
            raise ConfigurationError(
                "rent must set exactly one of soy_tons or usd_per_ha"
            )
        rent = self.rent_soy_tons if self.rent_usd_per_ha is None else self.rent_usd_per_ha
        if rent < 0:
            raise ConfigurationError("rent must be non-negative")
        for lu in LandUse:
            if lu not in self.prices:
                raise ConfigurationError(f"prices missing land use {lu.code}")
            if not self.prices[lu] > 0:
                raise ConfigurationError(f"price for {lu.code} must be positive")
        if self.pricing_mode not in ("combined", "split"):
            raise ConfigurationError(
                f"pricing_mode must be 'combined' or 'split', got {self.pricing_mode!r}"
            )
        if self.pricing_mode == "combined" and (
            self.split_wheat_yield is not None or self.split_soy2_yield is not None
        ):
            raise ConfigurationError(
                'split yield tables (split_yield_files) need "pricing_mode": "split"'
            )
        if self.pricing_mode == "split":
            if self.split_wheat_yield is None or self.split_soy2_yield is None:
                raise ConfigurationError(
                    "split pricing needs wheat and second-soybean component "
                    "yield tables (split_yield_files)"
                )
            if not self.wheat_price_usd_per_t > 0:
                raise ConfigurationError("wheat price must be positive")
        if self.climate is None:
            raise ConfigurationError(
                "a climate regime is required (the pergamino-1988 preset needs "
                "an explicit weather sequence; see --wgc-file)"
            )
        if self.climate.kind is RegimeKind.SEQUENCE:
            if len(self.climate.sequence) < self.cycles:
                raise ConfigurationError(
                    f"weather sequence has {len(self.climate.sequence)} entries "
                    f"but the scenario runs {self.cycles} cycles"
                )
        if self.climate.kind is RegimeKind.MIX:
            if len(self.climate.sequence) < self.cycles:
                raise ConfigurationError(
                    f"mix regime's historical sequence has "
                    f"{len(self.climate.sequence)} entries but the scenario "
                    f"runs {self.cycles} cycles"
                )

    def _float_fields(self):
        """(name, value) of every float setting, table entries included."""
        yield "owner_share_pct", self.owner_share_pct
        yield "initial_al_factor", self.initial_al_factor
        yield "et_pct", self.et_pct
        yield "wheat_price_usd_per_t", self.wheat_price_usd_per_t
        for name in ("rent_soy_tons", "rent_usd_per_ha"):
            if getattr(self, name) is not None:
                yield name, getattr(self, name)
        for name in ("initial_cover_pct", "initial_tl_pct", "prices"):
            for value in getattr(self, name).values():
                yield name, value
        for name in ("split_wheat_yield", "split_soy2_yield"):
            if getattr(self, name) is not None:
                for value in np.ravel(getattr(self, name)).tolist():
                    yield name, value


def _check_shares(name: str, shares: Mapping, members: list) -> None:
    for member in members:
        if member not in shares:
            raise ConfigurationError(f"{name} missing {member.code}")
        if shares[member] < 0:
            raise ConfigurationError(f"{name}[{member.code}] must be non-negative")
    total = sequential_sum([shares[m] for m in members])
    if abs(total - 100.0) > _SHARE_TOLERANCE:
        raise ConfigurationError(
            f"{name} entries must sum to 100 (got {total:.6f})"
        )


def _normalized(shares: dict) -> dict:
    total = sequential_sum(list(shares.values()))
    return {k: v * 100.0 / total for k, v in shares.items()}


def preset(name: str, seed: int = 0) -> ScenarioConfig:
    """Build one of the named presets; override fields with dataclasses.replace."""
    if name == "pergamino-1988":
        return ScenarioConfig(
            grid_rows=25,
            grid_cols=25,
            cycles=27,
            seed=seed,
            owner_share_pct=63.0,
            climate=None,  # the historical series must be supplied
            initial_cover_pct=_normalized(
                {LandUse.MAIZE: 20.0, LandUse.SOYBEAN: 36.2, LandUse.WHEAT_SOY: 35.8}
            ),
            initial_tl_pct=_normalized(
                {TechLevel.LOW: 32.0, TechLevel.AVERAGE: 36.0, TechLevel.HIGH: 30.0}
            ),
        )
    if name == "longterm":
        third = 100.0 / 3.0
        return ScenarioConfig(
            grid_rows=25,
            grid_cols=25,
            cycles=50,
            seed=seed,
            owner_share_pct=50.0,
            climate=ClimateRegime.constant_average(),
            initial_cover_pct={lu: third for lu in LandUse},
            initial_tl_pct={tl: third for tl in TechLevel},
        )
    raise ConfigurationError(
        f"unknown preset {name!r} (expected one of {', '.join(PRESET_NAMES)})"
    )


PRESET_NAMES = ("pergamino-1988", "longterm")


_KNOWN_KEYS = {
    "preset",
    "grid_rows",
    "grid_cols",
    "cycles",
    "seed",
    "owner_share_pct",
    "climate",
    "initial_cover_pct",
    "initial_tl_pct",
    "initial_al_factor",
    "et_pct",
    "rent",
    "prices",
    "pricing_mode",
    "wheat_price_usd_per_t",
    "split_yield_files",
    "table_overrides",
}


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object as a dict, refusing a key given twice."""
    data: dict[str, Any] = {}
    for key, value in pairs:
        if key in data:
            raise ConfigurationError(f"repeated key {key!r}")
        data[key] = value
    return data


def parse_config(path: str) -> ScenarioConfig:
    """Load and validate a JSON scenario file.

    The file may start from a preset (``"preset": "longterm"``) and override
    any field. See the README for the full key reference.
    """
    text = read_text(path, "config")
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}:{exc.lineno}: invalid JSON ({exc.msg})"
        ) from None
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: top-level value must be an object")

    for key in data:
        if key not in _KNOWN_KEYS:
            raise ConfigurationError(
                f"{path}:{_line_of_key(text, key)}: unknown key {key!r}"
            )

    try:
        config = _build_config(data)
        config.validate()
        if "wheat_price_usd_per_t" in data and config.pricing_mode != "split":
            raise ConfigurationError('wheat_price_usd_per_t needs "pricing_mode": "split"')
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    return config


def _line_of_key(text: str, key: str) -> int:
    needle = f'"{key}"'
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return lineno
    return 1


_NUMBER_KEYS = (
    ("grid_rows", int),
    ("grid_cols", int),
    ("cycles", int),
    ("seed", int),
    ("owner_share_pct", float),
    ("initial_al_factor", float),
    ("et_pct", float),
    ("wheat_price_usd_per_t", float),
)


def _build_config(data: dict) -> ScenarioConfig:
    if "preset" in data:
        config = preset(str(data["preset"]))
    else:
        required = ("grid_rows", "grid_cols", "cycles", "seed", "owner_share_pct",
                    "initial_cover_pct", "initial_tl_pct")
        missing = [k for k in required if k not in data]
        if missing:
            raise ConfigurationError(
                f"missing required keys: {', '.join(missing)} "
                "(or start from a preset)"
            )
        config = ScenarioConfig(
            grid_rows=1, grid_cols=1, cycles=1, seed=0, owner_share_pct=0.0,
            climate=None,
            initial_cover_pct={lu: 0.0 for lu in LandUse},
            initial_tl_pct={tl: 0.0 for tl in TechLevel},
        )

    updates: dict = {}
    for key, convert in _NUMBER_KEYS:
        if key in data:
            updates[key] = _number(data[key], convert, key)
    if "pricing_mode" in data:
        updates["pricing_mode"] = str(data["pricing_mode"])
    if "initial_cover_pct" in data:
        updates["initial_cover_pct"] = _parse_keyed(
            data["initial_cover_pct"], LandUse, "initial_cover_pct"
        )
    if "initial_tl_pct" in data:
        updates["initial_tl_pct"] = _parse_keyed(
            data["initial_tl_pct"], TechLevel, "initial_tl_pct"
        )
    if "prices" in data:
        updates["prices"] = _parse_keyed(data["prices"], LandUse, "prices")
    if "rent" in data:
        rent = data["rent"]
        if not isinstance(rent, dict) or len(rent) != 1 or not (
            "soy_tons" in rent or "usd_per_ha" in rent
        ):
            raise ConfigurationError(
                'rent must be {"soy_tons": x} or {"usd_per_ha": x}'
            )
        if "soy_tons" in rent:
            updates["rent_soy_tons"] = _number(rent["soy_tons"], float, "rent.soy_tons")
            updates["rent_usd_per_ha"] = None
        else:
            updates["rent_soy_tons"] = None
            updates["rent_usd_per_ha"] = _number(rent["usd_per_ha"], float, "rent.usd_per_ha")
    if "climate" in data:
        updates["climate"] = parse_climate_spec(data["climate"])
    if "split_yield_files" in data:
        files = data["split_yield_files"]
        if not isinstance(files, dict) or set(files) != {"wheat", "soy2"}:
            raise ConfigurationError(
                'split_yield_files must be {"wheat": path, "soy2": path}'
            )
        updates["split_wheat_yield"] = load_tl_wgc_table_csv(str(files["wheat"]))
        updates["split_soy2_yield"] = load_tl_wgc_table_csv(str(files["soy2"]))
    if "table_overrides" in data:
        overrides = data["table_overrides"]
        if not isinstance(overrides, dict):
            raise ConfigurationError("table_overrides must be an object")
        updates["table_overrides"] = {str(k): str(v) for k, v in overrides.items()}

    return replace(config, **updates)


def _parse_keyed(raw, enum_cls, name: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{name} must be an object of code -> value")
    out = {}
    for code, value in raw.items():
        out[enum_cls.from_code(str(code))] = _number(value, float, f"{name}.{code}")
    return out


def _number(value, convert, name: str):
    """`convert(value)`, or a ConfigurationError naming the setting.

    A setting takes only a JSON number, and an integer setting only a JSON
    integer: float() would read "50" and true, and int() would also
    truncate a fraction.
    """
    if convert is int and type(value) is not int:
        raise ConfigurationError(f"{name} must be a number written as an integer (got {value!r})")
    if type(value) not in (int, float):
        raise ConfigurationError(f"{name} must be a number (got {value!r})")
    try:
        return convert(value)
    except OverflowError:
        raise ConfigurationError(f"{name} must be a number (got {value!r})") from None


_NAMED_REGIMES = {
    "constant-unfavorable": ClimateRegime.constant_unfavorable,
    "constant-average": ClimateRegime.constant_average,
    "constant-favorable": ClimateRegime.constant_favorable,
    "seesaw": ClimateRegime.seesaw,
    "random": ClimateRegime.random_uniform,
}


def parse_climate_spec(spec) -> ClimateRegime:
    """Parse the climate value of a config file or CLI flag."""
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name in _NAMED_REGIMES:
            return _NAMED_REGIMES[name]()
        raise ConfigurationError(
            f"unknown climate regime {spec!r} (expected one of "
            f"{', '.join(sorted(_NAMED_REGIMES))}, or an object)"
        )
    if isinstance(spec, dict) and len(spec) == 1:
        if "constant" in spec:
            return ClimateRegime.constant(Wgc.from_code(str(spec["constant"])))
        if "sequence" in spec:
            return ClimateRegime.explicit(_wgc_list(spec["sequence"], "sequence"))
        if "sequence_file" in spec:
            return ClimateRegime.explicit(load_wgc_sequence(str(spec["sequence_file"])))
        if "mix" in spec:
            mix = spec["mix"]
            if not isinstance(mix, dict) or "fixed" not in mix:
                raise ConfigurationError('mix requires {"fixed": code, "historical"[_file]: ...}')
            fixed = Wgc.from_code(str(mix["fixed"]))
            if "historical" in mix:
                historical = _wgc_list(mix["historical"], "mix historical")
            elif "historical_file" in mix:
                historical = load_wgc_sequence(str(mix["historical_file"]))
            else:
                raise ConfigurationError(
                    "mix requires a historical sequence (historical or historical_file)"
                )
            return ClimateRegime.alternating_mix(historical, fixed)
    raise ConfigurationError(f"cannot parse climate spec {spec!r}")


def _wgc_list(raw, name: str) -> list[Wgc]:
    if not isinstance(raw, list):
        raise ConfigurationError(
            f"climate {name} must be a JSON array of weather codes (got {raw!r})"
        )
    return [Wgc.from_code(str(c)) for c in raw]


def resolve_tables(config: ScenarioConfig) -> ParameterTables:
    """The embedded dataset with any configured per-table CSV overrides."""
    if not config.table_overrides:
        return default_tables()
    return load_table_overrides(default_tables(), config.table_overrides)
