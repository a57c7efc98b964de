"""Deterministic 64-bit PRNG streams (splitmix64 finalizer).

Every sampling routine derives an independent stream from (seed, index),
so results do not depend on evaluation order and can be partitioned
across workers without changing the output.  ``lanes`` gives the uniforms
of a range's streams, stepped together, one per 128-bit lane of one int.
"""

import sys
from array import array

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int, mask: int = _MASK) -> int:
    # on each 64-bit lane that mask keeps; a right shift brings bits of the
    # lane above into a lane's upper half, so each multiply follows a mask;
    # the result keeps such bits only above bit 96, where no shift reaches
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
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
        """low + (high - low)*u, u the top 53 bits of ``next_u64`` as a
        double in [0, 1)."""
        u = (self.next_u64() >> 11) * (1.0 / (1 << 53))
        return low + (high - low) * u


def lanes(seed: int, start: int, stop: int, bounds) -> list:
    """One array per ``(low, high)`` of ``bounds``, in turn, of
    ``Stream(seed, i).uniform(low, high)`` for i in start..stop-1."""
    ones = int.from_bytes((b"\1" + bytes(15)) * (n := stop - start), "little")
    mask, gamma = _MASK * ones, _GAMMA * ones

    def low(z):  # the low 64 bits of every lane
        words = array("Q", z.to_bytes(16 * n, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        return words[::2]

    index = int.from_bytes(b"".join(i.to_bytes(16, "little")
                                    for i in range(start + 1, stop + 1)), "little")
    state = _mix((seed & _MASK) * ones ^ _mix(index * _GAMMA & mask, mask), mask)
    columns = []
    for lo, hi in bounds:
        state, span = (state + gamma) & mask, hi - lo
        columns.append(array("d", [lo + span * (v * (1.0 / (1 << 53)))
                                   for v in low(_mix(state, mask) >> 11)]))
    return columns
