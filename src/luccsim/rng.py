"""Portable seeded random number generator.

Simulations must replay bit-identically from a seed, on any platform and in
any implementation language, so the generator is pinned to SplitMix64 rather
than to a host library whose stream is an implementation detail.

SplitMix64, defined entirely by its constants:

    state     = (state + 0x9E3779B97F4A7C15) mod 2^64
    z         = state
    z         = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z         = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output    = z XOR (z >> 31)

Known-answer check: seed 0 produces 0xE220A8397B1DCDAF first.

Derived draws are also fixed here: `random()` maps the top 53 bits to a
double in [0, 1); `randrange(n)` uses unbiased rejection sampling; `shuffle`
is a Fisher-Yates pass from the last element down.

The k-th output ahead depends only on state + k * gamma, so a block of
outputs can be computed as one array expression (`next_u64_array`,
`random_array`) that matches the scalar calls bit for bit. `shuffle` takes
its indices from one such block, bit-identical to the scalar randrange
stream, and falls back to randrange if a draw in the block is rejected.
"""

from __future__ import annotations

from typing import MutableSequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit generator; one instance per simulation run."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        self._state = (self._state + _GOLDEN_GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX_1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX_2) & _MASK64
        return z ^ (z >> 31)

    def next_u64_array(self, k: int) -> np.ndarray:
        """The next k raw outputs as a uint64 array, as k next_u64() calls give them.

        Every operand is uint64, so the array arithmetic wraps mod 2^64
        under numpy 1.x and 2.x promotion rules alike.
        """
        steps = np.arange(1, k + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GOLDEN_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_2)
        self._state = (self._state + k * _GOLDEN_GAMMA) & _MASK64
        return z ^ (z >> np.uint64(31))

    def random(self) -> float:
        """Uniform double in [0, 1), from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def random_array(self, k: int) -> np.ndarray:
        """The next k random() draws as a float64 array."""
        return (self.next_u64_array(k) >> np.uint64(11)) * 2.0**-53

    def randrange(self, n: int) -> int:
        """Unbiased uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("randrange() bound must be positive")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, seq: MutableSequence) -> None:
        """In-place Fisher-Yates shuffle from the end: swap i with randrange(i + 1)."""
        k, saved = max(len(seq) - 1, 0), self._state
        u, m = self.next_u64_array(k), np.arange(k + 1, 1, -1, dtype=np.uint64)
        if np.all(u <= ~((np.uint64(0) - m) % m)):  # randrange(m) accepts u < 2^64 - 2^64 % m
            # read as the loop goes: a list of k Python ints fills pymalloc
            # arenas that objects made meanwhile pin for the rest of the run
            js = memoryview(u % m)
        else:
            self._state = saved
            js = [self.randrange(i + 1) for i in range(k, 0, -1)]
        for i, j in zip(range(k, 0, -1), js):
            seq[i], seq[j] = seq[j], seq[i]
