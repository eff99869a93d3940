"""Per-cycle weather growing condition (WGC) sequences.

A regime maps a cycle index to one of the five WGC levels. Constant,
see-saw, and explicit-sequence regimes are deterministic; the random
regime draws iid uniform levels from the run's seeded stream. A mix
regime alternates a historical sequence (even cycle indices) with one
fixed level (odd indices), which is how weather sensitivity scenarios
are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .errors import ConfigurationError, read_text
from .rng import SplitMix64
from .tables import Wgc

__all__ = ["RegimeKind", "ClimateRegime", "wgc_for_cycle", "load_wgc_sequence"]


class RegimeKind(Enum):
    CONSTANT = "constant"
    SEESAW = "seesaw"
    RANDOM_UNIFORM = "random"
    SEQUENCE = "sequence"
    MIX = "mix"


_SEESAW_PATTERN = (Wgc.VERY_UNFAVORABLE, Wgc.AVERAGE, Wgc.VERY_FAVORABLE)


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
    def constant_unfavorable() -> "ClimateRegime":
        return ClimateRegime.constant(Wgc.UNFAVORABLE)

    @staticmethod
    def constant_average() -> "ClimateRegime":
        return ClimateRegime.constant(Wgc.AVERAGE)

    @staticmethod
    def constant_favorable() -> "ClimateRegime":
        return ClimateRegime.constant(Wgc.FAVORABLE)

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
    if regime.kind is RegimeKind.SEQUENCE:
        if cycle_index >= len(regime.sequence):
            raise ConfigurationError(
                f"weather sequence has {len(regime.sequence)} entries but "
                f"cycle {cycle_index} was requested"
            )
        return regime.sequence[cycle_index]
    if regime.kind is RegimeKind.MIX:
        if cycle_index % 2 == 1:
            return regime.level
        if cycle_index >= len(regime.sequence):
            raise ConfigurationError(
                f"mix regime's historical sequence has {len(regime.sequence)} "
                f"entries but cycle {cycle_index} was requested"
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
