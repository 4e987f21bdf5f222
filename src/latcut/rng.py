"""Seedable pseudo-random number generators with a pinned algorithm.

Randomized results must be bit-reproducible across platforms and Python
versions, so the generators are spelled out here instead of relying on
``random.Random``:

* ``SplitMix64``: Steele/Lea/Flood splitmix64.  Used to expand seeds and
  to derive independent per-trial seeds from one master seed.
* ``Xoshiro256StarStar``: Blackman/Vigna xoshiro256**, seeded by four
  consecutive splitmix64 outputs.

All state and outputs are 64-bit unsigned integers.
"""

from __future__ import annotations

from typing import Iterator

MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: a tiny 64-bit generator used mainly for seed derivation."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)


def derive_seeds(master_seed: int, count: int) -> Iterator[int]:
    """Derive `count` independent stream seeds from one master seed.

    Lazily: each seed is made as it is drawn, so a caller that stops
    early never makes the rest, and memory does not grow with `count`.
    """
    mixer = SplitMix64(master_seed)
    for _ in range(count):
        yield mixer.next_u64()


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK64


class Xoshiro256StarStar:
    """xoshiro256**: the workhorse generator for randomized algorithms."""

    def __init__(self, seed: int):
        mixer = SplitMix64(seed)
        self._s = [mixer.next_u64() for _ in range(4)]
        if not any(self._s):
            self._s[3] = 1  # the all-zero state is a fixed point

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & MASK64, 7) * 9) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n
