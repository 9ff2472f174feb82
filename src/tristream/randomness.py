"""Deterministic randomness sources for estimator runs and scripted replays.

Estimators never touch ambient randomness: every probabilistic decision is
drawn from an explicit RandomSource, so a run can be reproduced bit for bit
or replayed against a hand-written decision script.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Iterable, Protocol

__all__ = ["RandomSource", "ScriptedSource", "SeededSource", "mix_seed"]

_MASK64 = (1 << 64) - 1

# Largest double below 1.0; a scripted "reject" compares >= any probability < 1
# (a draw is always below a probability of 1, as uniform() never reaches 1).
_REJECT_DRAW = math.nextafter(1.0, 0.0)


class RandomSource(Protocol):
    def uniform(self) -> float:
        """Next uniform draw in [0, 1)."""

    def randrange(self, n: int) -> int:
        """Next uniform integer in [0, n)."""


class SeededSource:
    """Mersenne Twister draws behind the RandomSource interface.

    ``randrange(n)`` returns exactly the integers of ``random.Random(seed)``'s
    ``randrange(n)``, by its own rejection loop on ``getrandbits``, in one
    Python frame instead of the stdlib's two.
    """

    def __init__(self, seed: int):
        rng = random.Random(seed)
        getrandbits = rng.getrandbits

        def randrange(n: int) -> int:
            if n < 1:
                raise ValueError(f"empty range for randrange({n})")
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            return r

        # Bound as instance attributes to keep the hot path cheap.
        self.uniform = rng.random
        self.randrange = randrange


class ScriptedSource:
    """Replays a fixed decision sequence instead of sampling.

    Each entry of ``decisions`` answers one accept/reject question: True maps
    to a draw of 0.0 (always below the probability under test), False to a
    draw just under 1.0.  ``slot_picks`` answers successive randrange calls.
    Exhausting either script raises LookupError, which makes replay tests
    strict about how many decisions an algorithm consumes.
    """

    def __init__(self, decisions: Iterable[bool], slot_picks: Iterable[int] = ()):
        self._decisions = deque(decisions)
        self._picks = deque(slot_picks)

    def uniform(self) -> float:
        if not self._decisions:
            raise LookupError("decision script exhausted")
        return 0.0 if self._decisions.popleft() else _REJECT_DRAW

    def randrange(self, n: int) -> int:
        if not self._picks:
            raise LookupError("slot-pick script exhausted")
        pick = self._picks.popleft()
        if not 0 <= pick < n:
            raise LookupError(f"scripted slot {pick} outside range({n})")
        return pick

    @property
    def exhausted(self) -> bool:
        return not self._decisions and not self._picks


def mix_seed(seed: int) -> int:
    """SplitMix64 finalizer; derives a decorrelated 64-bit seed.

    Used to seed the stream shuffle independently of the estimator draws so
    that two generators never start from the same state.
    """
    value = (seed + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (value ^ (value >> 31)) & _MASK64
