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

A preset, a scenario file and the CLI's override flags are all settings
keyed as in a scenario file, and `with_settings` is the one path from
settings to a config.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional

import numpy as np

from .climate import ClimateRegime, parse_climate_spec
from .errors import ConfigurationError, read_text
from .numeric import sequential_sum
from .tables import (
    LandUse,
    ParameterTables,
    TechLevel,
    default_tables,
    load_table_overrides,
    load_tl_wgc_table_csv,
)

__all__ = ["ScenarioConfig", "preset", "parse_config", "with_settings", "resolve_tables",
           "PRESET_NAMES"]

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
        self.climate.check_cycles(self.cycles)

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


_THIRD = 100.0 / 3.0

# Each preset as the settings a scenario file gives: `preset(name, seed)` is
# the file holding these settings and "seed".
_PRESETS = {
    "pergamino-1988": {
        "grid_rows": 25,
        "grid_cols": 25,
        "cycles": 27,
        "owner_share_pct": 63.0,
        # no "climate": the historical series must be supplied
        "initial_cover_pct": _normalized({"M": 20.0, "S": 36.2, "WS": 35.8}),
        "initial_tl_pct": _normalized({"L": 32.0, "A": 36.0, "H": 30.0}),
    },
    "longterm": {
        "grid_rows": 25,
        "grid_cols": 25,
        "cycles": 50,
        "owner_share_pct": 50.0,
        "climate": "constant-average",
        "initial_cover_pct": {"M": _THIRD, "S": _THIRD, "WS": _THIRD},
        "initial_tl_pct": {"L": _THIRD, "A": _THIRD, "H": _THIRD},
    },
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str, seed: int = 0) -> ScenarioConfig:
    """Build one of the named presets; override fields with `with_settings`."""
    if name not in _PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r} (expected one of {', '.join(PRESET_NAMES)})"
        )
    return with_settings(_blank(), {**_PRESETS[name], "seed": seed})


def _blank() -> ScenarioConfig:
    """The config that a scenario file without a preset fills in."""
    return ScenarioConfig(
        grid_rows=1, grid_cols=1, cycles=1, seed=0, owner_share_pct=0.0,
        climate=None,
        initial_cover_pct={lu: 0.0 for lu in LandUse},
        initial_tl_pct={tl: 0.0 for tl in TechLevel},
    )


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

    settings = {key: value for key, value in data.items() if key != "preset"}
    for key in settings:
        if key not in _SETTINGS:
            raise ConfigurationError(
                f"{path}:{_line_of_key(text, key)}: unknown key {key!r}"
            )

    try:
        config = with_settings(_start(data), settings)
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


_REQUIRED_KEYS = ("grid_rows", "grid_cols", "cycles", "seed", "owner_share_pct",
                  "initial_cover_pct", "initial_tl_pct")


def _start(data: dict) -> ScenarioConfig:
    """The config a scenario file's settings apply to: its preset, or a blank one."""
    if "preset" in data:
        return preset(str(data["preset"]))
    missing = [k for k in _REQUIRED_KEYS if k not in data]
    if missing:
        raise ConfigurationError(
            f"missing required keys: {', '.join(missing)} "
            "(or start from a preset)"
        )
    return _blank()


def _integer(value, key: str) -> dict:
    return {key: _number(value, int, key)}


def _real(value, key: str) -> dict:
    return {key: _number(value, float, key)}


def _text(value, key: str) -> dict:
    return {key: str(value)}


def _land_use_values(value, key: str) -> dict:
    return {key: _parse_keyed(value, LandUse, key)}


def _tech_level_values(value, key: str) -> dict:
    return {key: _parse_keyed(value, TechLevel, key)}


def _rent(value, key: str) -> dict:
    if not isinstance(value, dict) or len(value) != 1 or not (
        "soy_tons" in value or "usd_per_ha" in value
    ):
        raise ConfigurationError('rent must be {"soy_tons": x} or {"usd_per_ha": x}')
    if "soy_tons" in value:
        return {"rent_soy_tons": _number(value["soy_tons"], float, "rent.soy_tons"),
                "rent_usd_per_ha": None}
    return {"rent_soy_tons": None,
            "rent_usd_per_ha": _number(value["usd_per_ha"], float, "rent.usd_per_ha")}


def _climate(value, key: str) -> dict:
    return {key: parse_climate_spec(value)}


def _split_yields(value, key: str) -> dict:
    if not isinstance(value, dict) or set(value) != {"wheat", "soy2"}:
        raise ConfigurationError('split_yield_files must be {"wheat": path, "soy2": path}')
    return {"split_wheat_yield": load_tl_wgc_table_csv(str(value["wheat"])),
            "split_soy2_yield": load_tl_wgc_table_csv(str(value["soy2"]))}


def _table_files(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError("table_overrides must be an object")
    return {key: {str(k): str(v) for k, v in value.items()}}


# Each scenario-file key and the parser that turns its JSON value into the
# ScenarioConfig fields the key sets. Settings are parsed in this order, so
# of two bad settings the one listed first is reported.
_SETTINGS = {
    "grid_rows": _integer,
    "grid_cols": _integer,
    "cycles": _integer,
    "seed": _integer,
    "owner_share_pct": _real,
    "initial_al_factor": _real,
    "et_pct": _real,
    "wheat_price_usd_per_t": _real,
    "pricing_mode": _text,
    "initial_cover_pct": _land_use_values,
    "initial_tl_pct": _tech_level_values,
    "prices": _land_use_values,
    "rent": _rent,
    "climate": _climate,
    "split_yield_files": _split_yields,
    "table_overrides": _table_files,
}


def with_settings(config: ScenarioConfig, settings: Mapping[str, Any]) -> ScenarioConfig:
    """`config` with scenario-file settings applied, in one `replace`.

    `settings` maps scenario-file keys (every key but "preset") to values as
    JSON gives them. An unknown key is an error; the result is not validated.
    """
    for key in settings:
        if key not in _SETTINGS:
            raise ConfigurationError(f"unknown key {key!r}")
    fields: dict = {}
    for key, parse in _SETTINGS.items():
        if key in settings:
            fields.update(parse(settings[key], key))
    return replace(config, **fields)


def _parse_keyed(raw, enum_cls, name: str) -> dict:
    """code -> value as member -> float, refusing a member given under two spellings."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{name} must be an object of code -> value")
    out = {}
    spelling = {}
    for code, value in raw.items():
        member = enum_cls.from_code(str(code))
        if member in spelling:
            raise ConfigurationError(
                f"{name}: {member.code} given twice ({spelling[member]!r} and {code!r})"
            )
        spelling[member] = code
        out[member] = _number(value, float, f"{name}.{code}")
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


def resolve_tables(config: ScenarioConfig) -> ParameterTables:
    """The embedded dataset with any configured per-table CSV overrides."""
    if not config.table_overrides:
        return default_tables()
    return load_table_overrides(default_tables(), config.table_overrides)
