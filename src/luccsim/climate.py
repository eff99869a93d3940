"""Per-cycle weather growing condition (WGC) sequences.

A regime is the WGC levels it plays. Constant and see-saw regimes repeat
their levels for as long as a run lasts; the random regime has no levels
and draws iid uniform ones from the run's seeded stream. Explicit-sequence
and mix regimes play their levels once, so those levels must cover the
run. A mix regime plays a historical sequence with one fixed level put on
its odd cycle indices, which is how weather sensitivity scenarios are
built.

The regime's names and parser (`parse_climate_spec`) live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ConfigurationError, read_text
from .rng import SplitMix64
from .tables import Wgc

__all__ = ["ClimateRegime", "wgc_for_cycle", "load_wgc_sequence",
           "parse_climate_spec", "REGIME_NAMES"]


@dataclass(frozen=True)
class ClimateRegime:
    """The weather levels a run plays, one per cycle.

    Empty `levels` means each cycle's level is drawn from the run's stream.
    `series` names the levels in messages; it is set only on a regime that
    plays its levels once, and a regime without it repeats them.
    """

    name: str
    levels: tuple[Wgc, ...]
    series: Optional[str] = None

    @staticmethod
    def constant(level: Wgc) -> "ClimateRegime":
        return ClimateRegime(f"constant-{level.code}", (level,))

    @staticmethod
    def seesaw() -> "ClimateRegime":
        return ClimateRegime(
            "seesaw", (Wgc.VERY_UNFAVORABLE, Wgc.AVERAGE, Wgc.VERY_FAVORABLE)
        )

    @staticmethod
    def random_uniform() -> "ClimateRegime":
        return ClimateRegime("random", ())

    @staticmethod
    def explicit(sequence: Sequence[Wgc]) -> "ClimateRegime":
        if not sequence:
            raise ConfigurationError("explicit weather sequence is empty")
        return ClimateRegime(
            f"sequence[{len(sequence)}]", tuple(sequence), "weather sequence"
        )

    @staticmethod
    def alternating_mix(
        historical: Sequence[Wgc], fixed: Wgc
    ) -> "ClimateRegime":
        """`historical` on the even cycle indices, `fixed` on the odd ones."""
        if not historical:
            raise ConfigurationError("mix regime needs a historical sequence")
        return ClimateRegime(
            f"mix[{len(historical)} historical / {fixed.code}]",
            tuple(fixed if t % 2 else level for t, level in enumerate(historical)),
            "mix regime's historical sequence",
        )

    def describe(self) -> str:
        return self.name

    def check_cycles(self, cycles: int) -> None:
        """Refuse a weather series shorter than a run of `cycles` cycles."""
        if self.series and len(self.levels) < cycles:
            raise ConfigurationError(
                f"{self.series} has {len(self.levels)} entries "
                f"but the scenario runs {cycles} cycles"
            )


def wgc_for_cycle(
    regime: ClimateRegime, cycle_index: int, rng: Optional[SplitMix64] = None
) -> Wgc:
    """Weather level for one cycle; consumes `rng` only for the random regime."""
    if cycle_index < 0:
        raise ValueError("cycle_index must be non-negative")
    levels = regime.levels
    if not levels:
        if rng is None:
            raise ValueError("random regime needs a seeded stream")
        return Wgc(rng.randrange(len(Wgc)))
    if regime.series is None:
        return levels[cycle_index % len(levels)]
    if cycle_index >= len(levels):
        raise ConfigurationError(
            f"{regime.series} has {len(levels)} entries but "
            f"cycle {cycle_index} was requested"
        )
    return levels[cycle_index]


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
