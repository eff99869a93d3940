"""Per-cycle weather growing condition (WGC) sequences.

A regime maps a cycle index to one of the five WGC levels. Constant,
see-saw, and explicit-sequence regimes are deterministic; the random
regime draws iid uniform levels from the run's seeded stream. A mix
regime alternates a historical sequence (even cycle indices) with one
fixed level (odd indices), which is how weather sensitivity scenarios
are built.

The regime's names and parser (`parse_climate_spec`) live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .errors import ConfigurationError, read_text
from .rng import SplitMix64
from .tables import Wgc

__all__ = ["RegimeKind", "ClimateRegime", "wgc_for_cycle", "load_wgc_sequence",
           "parse_climate_spec", "REGIME_NAMES"]


class RegimeKind(Enum):
    CONSTANT = "constant"
    SEESAW = "seesaw"
    RANDOM_UNIFORM = "random"
    SEQUENCE = "sequence"
    MIX = "mix"


_SEESAW_PATTERN = (Wgc.VERY_UNFAVORABLE, Wgc.AVERAGE, Wgc.VERY_FAVORABLE)

# What messages call the series of each regime that plays a weather series.
_SERIES_NAMES = {
    RegimeKind.SEQUENCE: "weather sequence",
    RegimeKind.MIX: "mix regime's historical sequence",
}


@dataclass(frozen=True)
class ClimateRegime:
    """Tagged union over the supported weather regimes.

    `level` holds the constant level (CONSTANT) or the fixed mixed-in level
    (MIX). `sequence` holds the explicit series (SEQUENCE) or the historical
    series occupying even cycle indices (MIX).
    """

    kind: RegimeKind
    level: Optional[Wgc] = None
    sequence: tuple[Wgc, ...] = ()

    @staticmethod
    def constant(level: Wgc) -> "ClimateRegime":
        return ClimateRegime(RegimeKind.CONSTANT, level=level)

    @staticmethod
    def seesaw() -> "ClimateRegime":
        return ClimateRegime(RegimeKind.SEESAW)

    @staticmethod
    def random_uniform() -> "ClimateRegime":
        return ClimateRegime(RegimeKind.RANDOM_UNIFORM)

    @staticmethod
    def explicit(sequence: Sequence[Wgc]) -> "ClimateRegime":
        if not sequence:
            raise ConfigurationError("explicit weather sequence is empty")
        return ClimateRegime(RegimeKind.SEQUENCE, sequence=tuple(sequence))

    @staticmethod
    def alternating_mix(
        historical: Sequence[Wgc], fixed: Wgc
    ) -> "ClimateRegime":
        if not historical:
            raise ConfigurationError("mix regime needs a historical sequence")
        return ClimateRegime(
            RegimeKind.MIX, level=fixed, sequence=tuple(historical)
        )

    def describe(self) -> str:
        if self.kind is RegimeKind.CONSTANT:
            return f"constant-{self.level.code}"
        if self.kind is RegimeKind.SEQUENCE:
            return f"sequence[{len(self.sequence)}]"
        if self.kind is RegimeKind.MIX:
            return f"mix[{len(self.sequence)} historical / {self.level.code}]"
        return self.kind.value

    def check_cycles(self, cycles: int) -> None:
        """Refuse a weather series shorter than a run of `cycles` cycles."""
        series = _SERIES_NAMES.get(self.kind)
        if series and len(self.sequence) < cycles:
            raise ConfigurationError(
                f"{series} has {len(self.sequence)} entries "
                f"but the scenario runs {cycles} cycles"
            )


def wgc_for_cycle(
    regime: ClimateRegime, cycle_index: int, rng: Optional[SplitMix64] = None
) -> Wgc:
    """Weather level for one cycle; consumes `rng` only for the random regime."""
    if cycle_index < 0:
        raise ValueError("cycle_index must be non-negative")
    if regime.kind is RegimeKind.CONSTANT:
        return regime.level
    if regime.kind is RegimeKind.SEESAW:
        return _SEESAW_PATTERN[cycle_index % 3]
    if regime.kind is RegimeKind.RANDOM_UNIFORM:
        if rng is None:
            raise ValueError("random regime needs a seeded stream")
        return Wgc(rng.randrange(len(Wgc)))
    if regime.kind is RegimeKind.MIX and cycle_index % 2 == 1:
        return regime.level
    if regime.kind in _SERIES_NAMES:
        if cycle_index >= len(regime.sequence):
            raise ConfigurationError(
                f"{_SERIES_NAMES[regime.kind]} has {len(regime.sequence)} entries but "
                f"cycle {cycle_index} was requested"
            )
        return regime.sequence[cycle_index]
    raise ValueError(f"unhandled regime kind {regime.kind}")


def load_wgc_sequence(path: str) -> tuple[Wgc, ...]:
    """Read a weather sequence file: one VU/U/A/F/VF code per line."""
    sequence = []
    for lineno, line in enumerate(read_text(path, "weather file").split("\n"), start=1):
        code = line.strip()
        if not code:
            continue
        try:
            sequence.append(Wgc.from_code(code))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}:{lineno}: {exc}") from None
    if not sequence:
        raise ConfigurationError(f"{path}: no weather codes found")
    return tuple(sequence)


_NAMED_REGIMES = {
    "constant-unfavorable": ClimateRegime.constant(Wgc.UNFAVORABLE),
    "constant-average": ClimateRegime.constant(Wgc.AVERAGE),
    "constant-favorable": ClimateRegime.constant(Wgc.FAVORABLE),
    "seesaw": ClimateRegime.seesaw(),
    "random": ClimateRegime.random_uniform(),
}

REGIME_NAMES = tuple(_NAMED_REGIMES)

_MIX_FORMS = ({"fixed", "historical"}, {"fixed", "historical_file"})


def parse_climate_spec(spec) -> ClimateRegime:
    """Parse the climate value of a config file or CLI flag."""
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name in _NAMED_REGIMES:
            return _NAMED_REGIMES[name]
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
            if not isinstance(mix, dict) or set(mix) not in _MIX_FORMS:
                raise ConfigurationError(
                    'mix must be {"fixed": code, "historical": [codes]} '
                    'or {"fixed": code, "historical_file": path}'
                )
            fixed = Wgc.from_code(str(mix["fixed"]))
            if "historical" in mix:
                historical = _wgc_list(mix["historical"], "mix historical")
            else:
                historical = load_wgc_sequence(str(mix["historical_file"]))
            return ClimateRegime.alternating_mix(historical, fixed)
    raise ConfigurationError(f"cannot parse climate spec {spec!r}")


def _wgc_list(raw, name: str) -> list[Wgc]:
    if not isinstance(raw, list):
        raise ConfigurationError(
            f"climate {name} must be a JSON array of weather codes (got {raw!r})"
        )
    return [Wgc.from_code(str(c)) for c in raw]
