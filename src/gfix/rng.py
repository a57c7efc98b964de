"""Deterministic 64-bit PRNG streams (splitmix64 finalizer).

Every sampling routine derives an independent stream from (seed, index),
so results do not depend on evaluation order and can be partitioned
across workers without changing the output.
"""

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class Stream:
    """A small deterministic generator of uniform doubles."""

    __slots__ = ("_state",)

    def __init__(self, seed: int, index: int = 0):
        self._state = _mix((seed & _MASK) ^ _mix(((index + 1) * _GAMMA) & _MASK))

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        # next_u64 inlined, one frame per draw; its top 53 bits -> [0, 1)
        z = self._state = (self._state + _GAMMA) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        u = ((z ^ (z >> 31)) >> 11) * (1.0 / (1 << 53))
        return low + (high - low) * u
