import pytest

from luccsim import ClimateRegime, ConfigurationError, SplitMix64, Wgc
from luccsim.climate import load_wgc_sequence, wgc_for_cycle

VU, U, A, F, VF = Wgc


@pytest.mark.parametrize("regime, name, played", [
    (ClimateRegime.constant(F), "constant-F", [F, F, F, F, F, F]),
    (ClimateRegime.seesaw(), "seesaw", [VU, A, VF, VU, A, VF]),
    (ClimateRegime.random_uniform(), "random", [A, VF, U, F, VF, VU]),  # seed 7
    (ClimateRegime.explicit([F, VU, A, A, U, VF]), "sequence[6]", [F, VU, A, A, U, VF]),
    (ClimateRegime.alternating_mix([VU, U, A, F, U, U], VF), "mix[6 historical / VF]",
     [VU, VF, A, VF, U, VF]),
    (ClimateRegime.alternating_mix([U], VF), "mix[1 historical / VF]", [U]),
])
def test_each_regime_describes_itself_and_plays_its_levels(regime, name, played):
    assert regime.describe() == name
    rng = SplitMix64(7)
    assert [wgc_for_cycle(regime, t, rng) for t in range(len(played))] == played


def test_constant_regimes_ignore_cycle_index():
    for regime, level in (
        (ClimateRegime.constant(U), U),
        (ClimateRegime.constant(A), A),
        (ClimateRegime.constant(F), F),
    ):
        assert {wgc_for_cycle(regime, t) for t in (0, 1, 17, 999)} == {level}


def test_seesaw_pattern():
    regime = ClimateRegime.seesaw()
    assert [wgc_for_cycle(regime, t) for t in range(6)] == [VU, A, VF, VU, A, VF]


def test_explicit_sequence_indexing():
    regime = ClimateRegime.explicit([F, VU])
    assert wgc_for_cycle(regime, 0) is F
    assert wgc_for_cycle(regime, 1) is VU


def test_explicit_sequence_exhaustion():
    regime = ClimateRegime.explicit([F, VU])
    with pytest.raises(ConfigurationError, match="2 entries"):
        wgc_for_cycle(regime, 2)


def test_mix_alternates_history_and_fixed_level():
    history = [VU, U, A, F, VF, VU]
    regime = ClimateRegime.alternating_mix(history, VF)
    got = [wgc_for_cycle(regime, t) for t in range(6)]
    assert got == [VU, VF, A, VF, VF, VF]  # even indices historical, odd fixed


def test_mix_exhaustion():
    regime = ClimateRegime.alternating_mix([VU, U], A)
    assert wgc_for_cycle(regime, 1) is A  # the fixed level sits on the odd indices
    with pytest.raises(ConfigurationError):
        wgc_for_cycle(regime, 2)
    with pytest.raises(ConfigurationError, match="2 entries but cycle 3 was requested"):
        wgc_for_cycle(regime, 3)  # an odd index past the history is refused too
    with pytest.raises(ConfigurationError, match="1 entries but cycle 1 was requested"):
        wgc_for_cycle(ClimateRegime.alternating_mix([U], VF), 1)


def test_random_regime_is_seed_deterministic():
    regime = ClimateRegime.random_uniform()
    a = [wgc_for_cycle(regime, t, SplitMix64(42)) for t in range(1)]
    seq1 = _draw(regime, 42, 200)
    seq2 = _draw(regime, 42, 200)
    assert seq1 == seq2
    assert a[0] == seq1[0]


def _draw(regime, seed, n):
    rng = SplitMix64(seed)
    return [wgc_for_cycle(regime, t, rng) for t in range(n)]


def test_random_regime_frequencies_near_uniform():
    draws = _draw(ClimateRegime.random_uniform(), 123, 10_000)
    for level in Wgc:
        freq = draws.count(level) / len(draws)
        assert abs(freq - 0.2) <= 0.02


def test_random_regime_requires_stream():
    with pytest.raises(ValueError):
        wgc_for_cycle(ClimateRegime.random_uniform(), 0)


def test_negative_cycle_rejected():
    with pytest.raises(ValueError):
        wgc_for_cycle(ClimateRegime.constant(A), -1)


def test_sequence_file_roundtrip(tmp_path):
    path = tmp_path / "wgc.txt"
    path.write_text("VU\nU\n\nA\nF\nVF\n")
    assert load_wgc_sequence(str(path)) == (VU, U, A, F, VF)


def test_sequence_file_bad_code(tmp_path):
    path = tmp_path / "wgc.txt"
    path.write_text("VU\nXX\n")
    with pytest.raises(ConfigurationError, match="wgc.txt:2"):
        load_wgc_sequence(str(path))
