import numpy as np
import pytest

from luccsim import SplitMix64

from conftest import scalar_shuffle


def test_known_answer_vector_seed_zero():
    # Published SplitMix64 outputs for seed 0.
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_same_seed_same_stream():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_random_is_unit_interval_double():
    rng = SplitMix64(7)
    values = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    # 53-bit construction reaches below 1e-3 and above 0.999 eventually
    rng2 = SplitMix64(7)
    assert values == [rng2.random() for _ in range(1000)]


def test_randrange_bounds_and_determinism():
    rng = SplitMix64(11)
    draws = [rng.randrange(5) for _ in range(2000)]
    assert set(draws) == {0, 1, 2, 3, 4}
    rng2 = SplitMix64(11)
    assert draws == [rng2.randrange(5) for _ in range(2000)]


def test_shuffle_is_a_permutation_and_deterministic():
    rng = SplitMix64(3)
    items = list(range(50))
    rng.shuffle(items)
    assert sorted(items) == list(range(50))
    items2 = list(range(50))
    SplitMix64(3).shuffle(items2)
    assert items == items2


def test_shuffle_known_answer():
    rng = SplitMix64(3)
    items = list(range(10))
    rng.shuffle(items)
    assert items == [2, 8, 7, 4, 5, 6, 0, 1, 9, 3]
    assert rng.next_u64() == 0xE376A9B1A2036B72


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 625, 62500])
@pytest.mark.parametrize("seed", [0, 1, 12345, 2**64 - 1])
def test_shuffle_matches_scalar_fisher_yates_and_final_state(n, seed):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    items, expected = list(range(n)), list(range(n))
    block.shuffle(items)
    scalar_shuffle(scalar, expected)
    assert items == expected
    assert block.next_u64() == scalar.next_u64()


class ScriptedStream(SplitMix64):
    """Serves a fixed list of raw outputs; the state is the position in it."""

    def __init__(self, script):
        super().__init__(0)
        self.script = script

    def next_u64(self):
        self._state += 1
        return self.script[self._state - 1]

    def next_u64_array(self, k):
        self._state += k
        return np.array(self.script[self._state - k:self._state], dtype=np.uint64)


@pytest.mark.parametrize("rejected", [2**64 - 2**64 % 10, 2**64 - 1])
def test_shuffle_falls_back_to_scalar_draws_on_a_rejection(rejected):
    # randrange(10), the first swap of a 10-element shuffle, accepts only
    # u < 2^64 - (2^64 mod 10); the smallest and the largest rejected draw
    script = [rejected, *SplitMix64(5).next_u64_array(20).tolist()]
    block, scalar = ScriptedStream(script), ScriptedStream(script)
    items, expected = list(range(10)), list(range(10))
    block.shuffle(items)
    scalar_shuffle(scalar, expected)
    assert items == expected
    assert block._state == scalar._state == 10  # the rejected draw and nine accepted ones


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**64 - 1])
def test_block_draws_match_scalar_draws_and_final_state(seed):
    scalar, block = SplitMix64(seed), SplitMix64(seed)
    raw = [scalar.next_u64() for _ in range(1000)]
    assert block.next_u64_array(1000).tolist() == raw
    uniforms = [scalar.random() for _ in range(777)]
    assert block.random_array(777).tolist() == uniforms
    assert block.next_u64_array(0).tolist() == []
    assert block.next_u64() == scalar.next_u64()
