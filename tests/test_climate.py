import pytest

from luccsim import ClimateRegime, ConfigurationError, SplitMix64, Wgc
from luccsim.climate import load_wgc_sequence, wgc_for_cycle

VU, U, A, F, VF = Wgc


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
    assert wgc_for_cycle(regime, 1) is A  # odd index never touches history
    with pytest.raises(ConfigurationError):
        wgc_for_cycle(regime, 2)


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
