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
from functools import partial
from typing import Any, Mapping, Optional

from .climate import ClimateRegime, parse_climate_spec
from .errors import ConfigurationError, read_text, shown
from .numeric import sequential_sum
from .tables import (
    LandUse,
    ParameterTables,
    TechLevel,
    default_tables,
    load_component_yield_csv,
    load_table_overrides,
)

__all__ = ["ScenarioConfig", "SplitPricing", "preset", "parse_config", "with_settings",
           "resolve_tables", "PRESET_NAMES"]

_SHARE_TOLERANCE = 1e-6

_RENT_UNITS = ("soy_tons", "usd_per_ha")


@dataclass(frozen=True)
class SplitPricing:
    """Split pricing of the double crop: its component-yield CSV files.

    `resolve_tables` reads the two files into the tables' component yields;
    the wheat is priced at the double crop's price, the second soybean at soybean's.
    """

    wheat_yield_file: str
    soy2_yield_file: str


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
    rent: tuple[str, float] = ("soy_tons", 1.6)  # (unit, amount), unit one of _RENT_UNITS
    prices: Mapping[LandUse, float] = field(
        default_factory=lambda: dict(zip(LandUse, default_tables().price_usd_per_t.tolist()))
    )
    split_yield_files: Optional[SplitPricing] = None  # None prices the double crop combined
    table_overrides: Mapping[str, str] = field(default_factory=dict)

    @property
    def n_agents(self) -> int:
        return self.grid_rows * self.grid_cols

    def rent_usd(self) -> float:
        """Tenant rent in US$/ha; soybean-equivalent rent uses the current price."""
        unit, amount = self.rent
        return amount if unit == "usd_per_ha" else amount * self.prices[LandUse.SOYBEAN]

    def validate(self) -> None:
        """Raise ConfigurationError on the first inconsistency found."""
        if self.rent[0] not in _RENT_UNITS:
            raise ConfigurationError(
                f"rent unit must be soy_tons or usd_per_ha (got {self.rent[0]!r})")
        for name, value in self._float_fields():
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite (got {value!r})")
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ConfigurationError("grid dimensions must be positive")
        if self.n_agents > 2**31 - 1:  # agent indices are np.intp, int32 on 32-bit builds
            raise ConfigurationError(f"grid {self.grid_rows} x {self.grid_cols} has more agents "
                                     f"than int32 agent indices allow ({2**31 - 1})")
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
        if self.rent[1] < 0:
            raise ConfigurationError("rent must be non-negative")
        for lu in LandUse:
            if lu not in self.prices:
                raise ConfigurationError(f"prices missing land use {lu.code}")
            if not self.prices[lu] > 0:
                raise ConfigurationError(f"price for {lu.code} must be positive")
        if self.climate is None:
            raise ConfigurationError(
                "a climate regime is required (the pergamino-1988 preset needs "
                "an explicit weather sequence; see --wgc-file)"
            )
        self.climate.check_cycles(self.cycles)

    def _float_fields(self):
        """(name, value) of every float setting."""
        yield "owner_share_pct", self.owner_share_pct
        yield "initial_al_factor", self.initial_al_factor
        yield "et_pct", self.et_pct
        yield f"rent_{self.rent[0]}", self.rent[1]
        for name in ("initial_cover_pct", "initial_tl_pct", "prices"):
            for value in getattr(self, name).values():
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
            f"unknown preset {shown(name)} (expected one of {', '.join(PRESET_NAMES)})"
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
            raise ConfigurationError(f"repeated key {shown(key)}")
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
    except RecursionError:
        raise ConfigurationError(f"{path}: invalid JSON (nested too deeply)") from None
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: top-level value must be an object")

    settings = {key: value for key, value in data.items() if key != "preset"}
    for key in settings:
        if key not in _SETTINGS:
            raise ConfigurationError(
                f"{path}:{_line_of_key(text, key)}: unknown key {shown(key)}"
            )

    try:
        config = with_settings(_start(data), settings)
        config.validate()
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    return config


def _line_of_key(text: str, key: str) -> int:
    """The line on which the top-level object of the JSON `text` names `key`.

    Values are skipped whole, so a nested key or a string value that reads
    like `key` is never taken for it.
    """
    decoder, skip_blanks = json.JSONDecoder(), json.decoder.WHITESPACE.match
    at = text.index("{") + 1
    while True:
        at = text.index('"', at)
        name, end = json.decoder.scanstring(text, at + 1)
        if name == key:
            return text.count("\n", 0, at) + 1
        _, at = decoder.raw_decode(text, skip_blanks(text, text.index(":", end) + 1).end())


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


def _parse_keyed(raw, name: str, members) -> dict:
    """code -> value as member -> float, refusing a member given under two spellings."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{name} must be an object of code -> value")
    out = {}
    spelling = {}
    for code, value in raw.items():
        member = members.from_code(str(code))
        if member in spelling:
            raise ConfigurationError(
                f"{name}: {member.code} given twice ({spelling[member]!r} and {code!r})"
            )
        spelling[member] = code
        out[member] = _number(value, f"{name}.{code}", float)
    return out


def _number(value, name: str, convert):
    """`convert(value)`, or a ConfigurationError naming the setting.

    A setting takes only a JSON number, and an integer setting only a JSON
    integer: float() would read "50" and true, and int() would also
    truncate a fraction.
    """
    if convert is int and type(value) is not int:
        raise ConfigurationError(
            f"{name} must be a number written as an integer (got {shown(value)})")
    if type(value) not in (int, float):
        raise ConfigurationError(f"{name} must be a number (got {shown(value)})")
    try:
        return convert(value)
    except OverflowError:
        raise ConfigurationError(f"{name} must be a number (got {shown(value)})") from None


_integer, _real = partial(_number, convert=int), partial(_number, convert=float)


def _rent(value, key: str) -> tuple[str, float]:
    if not isinstance(value, dict) or len(value) != 1 or not set(value) <= set(_RENT_UNITS):
        raise ConfigurationError('rent must be {"soy_tons": x} or {"usd_per_ha": x}')
    [(unit, amount)] = value.items()
    return unit, _number(amount, f"rent.{unit}", float)


def _split_yields(value, key: str) -> SplitPricing:
    if not isinstance(value, dict) or set(value) != {"wheat", "soy2"}:
        raise ConfigurationError('split_yield_files must be {"wheat": path, "soy2": path}')
    return SplitPricing(str(value["wheat"]), str(value["soy2"]))


def _table_files(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError("table_overrides must be an object")
    return {str(k): str(v) for k, v in value.items()}


# Each scenario-file key and its parser, which turns the key's JSON value
# into the value of the ScenarioConfig field of the same name. Settings are
# parsed in this order, so of two bad settings the one listed first is reported.
_SETTINGS = {
    "grid_rows": _integer,
    "grid_cols": _integer,
    "cycles": _integer,
    "seed": _integer,
    "owner_share_pct": _real,
    "initial_al_factor": _real,
    "et_pct": _real,
    "initial_cover_pct": partial(_parse_keyed, members=LandUse),
    "initial_tl_pct": partial(_parse_keyed, members=TechLevel),
    "prices": partial(_parse_keyed, members=LandUse),
    "rent": _rent,
    "climate": lambda value, key: parse_climate_spec(value),
    "split_yield_files": _split_yields,
    "table_overrides": _table_files,
}


def with_settings(config: ScenarioConfig, settings: Mapping[str, Any]) -> ScenarioConfig:
    """`config` with scenario-file settings applied, in one `replace`.

    `settings` maps scenario-file keys (every key but "preset") to values as
    JSON gives them; each key sets the config field of its name. An unknown
    key is an error; the result is not validated.
    """
    for key in settings:
        if key not in _SETTINGS:
            raise ConfigurationError(f"unknown key {shown(key)}")
    return replace(config, **{key: parse(settings[key], key)
                              for key, parse in _SETTINGS.items() if key in settings})


def resolve_tables(config: ScenarioConfig) -> ParameterTables:
    """The embedded dataset with the config's table files read in: component yields first."""
    tables = default_tables()
    split = config.split_yield_files
    if split is not None:
        wheat, soy2 = map(load_component_yield_csv, (split.wheat_yield_file, split.soy2_yield_file))
        tables = replace(tables, wheat_yield_t_per_ha=wheat, soy2_yield_t_per_ha=soy2)
    if config.table_overrides:
        tables = load_table_overrides(tables, config.table_overrides)
    return tables
