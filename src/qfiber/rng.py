"""Deterministic seeded randomness (splitmix64).

Every randomized routine in the package draws from a Stream so that runs
are reproducible from a single integer seed across platforms and python
versions.  fork() derives independent substreams from labels, which keeps
seed handling compositional: a scenario can hand each stage its own stream
without coordinating counters.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class Stream:
    """splitmix64 generator with rejection-sampled ranges."""

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._state = self.seed

    def next64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def randrange(self, a: int, b: int | None = None) -> int:
        """Uniform integer in [0, a) or [a, b)."""
        lo, hi = (0, a) if b is None else (a, b)
        n = hi - lo
        if n <= 0:
            raise ValueError("empty range")
        # rejection sampling for exact uniformity
        limit = (_MASK + 1) - (_MASK + 1) % n
        while True:
            x = self.next64()
            if x < limit:
                return lo + x % n

    def fork(self, label: int) -> "Stream":
        """Independent substream determined by (seed, label)."""
        return Stream(_mix(self.seed ^ _mix((label + 1) * _GOLDEN & _MASK)))
