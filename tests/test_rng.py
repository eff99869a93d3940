import pytest

from luccsim import SplitMix64


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


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**64 - 1])
def test_block_draws_match_scalar_draws_and_final_state(seed):
    scalar, block = SplitMix64(seed), SplitMix64(seed)
    raw = [scalar.next_u64() for _ in range(1000)]
    assert block.next_u64_array(1000).tolist() == raw
    uniforms = [scalar.random() for _ in range(777)]
    assert block.random_array(777).tolist() == uniforms
    assert block.next_u64_array(0).tolist() == []
    assert block.next_u64() == scalar.next_u64()
