"""Replacement policies for way-organised cache sets.

Policies operate on way indices within one set and support *way masks*
(needed for CAT and DDIO): victim selection can be restricted to an
allowed subset of ways.  All policies implement
:class:`ReplacementPolicy`.

:class:`~repro.cachesim.cache.WayCache` builds one policy object per
set, on the set's first fill, for every policy except ``lru``: LRU is
kept as a per-set list of last-use stamps drawn from one clock per
cache, which orders each set's ways exactly as :class:`LruPolicy`'s
per-set clock does.  :class:`LruPolicy` stays the standalone
definition of that order.
"""

from __future__ import annotations

import random
from typing import List, Optional, Protocol, Sequence


class ReplacementPolicy(Protocol):
    """Per-set replacement state machine."""

    def touch(self, way: int) -> None:
        """Record a hit on *way*."""

    def victim(self, allowed_ways: Sequence[int]) -> int:
        """Choose a victim among *allowed_ways* (all currently valid)."""

    def reset(self, way: int) -> None:
        """Record that *way* was (re)filled."""


class LruPolicy:
    """True least-recently-used order over the ways of one set."""

    def __init__(self, n_ways: int) -> None:
        if n_ways <= 0:
            raise ValueError(f"n_ways must be positive, got {n_ways}")
        self.n_ways = n_ways
        # _stamp[w] is a monotonically increasing last-use time.
        self._clock = 0
        self._stamp: List[int] = [-1] * n_ways

    def touch(self, way: int) -> None:
        self._clock += 1
        self._stamp[way] = self._clock

    def victim(self, allowed_ways: Sequence[int]) -> int:
        if not allowed_ways:
            raise ValueError("allowed_ways must be non-empty")
        stamp = self._stamp
        best = allowed_ways[0]
        best_stamp = stamp[best]
        for way in allowed_ways[1:]:
            if stamp[way] < best_stamp:
                best = way
                best_stamp = stamp[way]
        return best

    def reset(self, way: int) -> None:
        self.touch(way)


class TreePlruPolicy:
    """Tree pseudo-LRU, as implemented by real Intel L1/L2 caches.

    The tree is over ``n_ways`` leaves (``n_ways`` must be a power of
    two).  Way masks are honoured by walking the tree but clamping the
    descent to the allowed subtree when the preferred side contains no
    allowed way.
    """

    def __init__(self, n_ways: int) -> None:
        if n_ways <= 0 or n_ways & (n_ways - 1):
            raise ValueError(f"n_ways must be a positive power of two, got {n_ways}")
        self.n_ways = n_ways
        self._bits: List[int] = [0] * max(1, n_ways - 1)

    def touch(self, way: int) -> None:
        # Walk from root to the leaf, setting each bit to point *away*
        # from the touched way.
        node = 0
        low, high = 0, self.n_ways
        while high - low > 1:
            mid = (low + high) // 2
            if way < mid:
                self._bits[node] = 1  # protect left, point right
                node = 2 * node + 1
                high = mid
            else:
                self._bits[node] = 0  # protect right, point left
                node = 2 * node + 2
                low = mid
        del node

    def victim(self, allowed_ways: Sequence[int]) -> int:
        if not allowed_ways:
            raise ValueError("allowed_ways must be non-empty")
        allowed = set(allowed_ways)
        node = 0
        low, high = 0, self.n_ways
        while high - low > 1:
            mid = (low + high) // 2
            left_has = any(low <= way < mid for way in allowed)
            right_has = any(mid <= way < high for way in allowed)
            go_left = self._bits[node] == 0
            if go_left and not left_has:
                go_left = False
            elif not go_left and not right_has:
                go_left = True
            if go_left:
                node = 2 * node + 1
                high = mid
            else:
                node = 2 * node + 2
                low = mid
        if low not in allowed:
            # The walk can only end outside the mask if the mask was
            # inconsistent with the tree clamping above.
            return min(allowed)
        return low

    def reset(self, way: int) -> None:
        self.touch(way)


class RandomPolicy:
    """Uniformly random victim selection (deterministic via seed)."""

    def __init__(self, n_ways: int, seed: int = 0) -> None:
        if n_ways <= 0:
            raise ValueError(f"n_ways must be positive, got {n_ways}")
        self.n_ways = n_ways
        self._rng = random.Random(seed)

    def touch(self, way: int) -> None:  # random policy keeps no state
        return None

    def victim(self, allowed_ways: Sequence[int]) -> int:
        if not allowed_ways:
            raise ValueError("allowed_ways must be non-empty")
        return self._rng.choice(list(allowed_ways))

    def reset(self, way: int) -> None:
        return None


class SrripPolicy:
    """Static re-reference interval prediction (SRRIP, ISCA '10).

    Modern Intel LLCs do not run true LRU; they use RRIP-family
    policies that resist scanning/thrashing traffic — relevant here
    because DDIO packet streams and Zipf-tail one-hit wonders are
    exactly such traffic.  Each way carries a 2-bit re-reference
    prediction value (RRPV): hits promote to 0, fills insert at
    ``2**bits - 2``, and victims are the first way at the maximum
    RRPV (aging every way when none is there).
    """

    def __init__(self, n_ways: int, bits: int = 2) -> None:
        if n_ways <= 0:
            raise ValueError(f"n_ways must be positive, got {n_ways}")
        if bits <= 0:
            raise ValueError(f"bits must be positive, got {bits}")
        self.n_ways = n_ways
        self.max_rrpv = (1 << bits) - 1
        self.insert_rrpv = self.max_rrpv - 1
        self._rrpv: List[int] = [self.max_rrpv] * n_ways

    def touch(self, way: int) -> None:
        self._rrpv[way] = 0

    def victim(self, allowed_ways: Sequence[int]) -> int:
        if not allowed_ways:
            raise ValueError("allowed_ways must be non-empty")
        rrpv = self._rrpv
        while True:
            for way in allowed_ways:
                if rrpv[way] >= self.max_rrpv:
                    return way
            for way in allowed_ways:
                rrpv[way] += 1

    def reset(self, way: int) -> None:
        self._rrpv[way] = self.insert_rrpv


class BrripPolicy(SrripPolicy):
    """Bimodal RRIP: most fills insert at the maximum RRPV (evict-soon),
    a small fraction at ``max - 1`` — the thrash-resistant half of
    DRRIP.  One-hit-wonder streams (packet payloads, Zipf tails) wash
    out of the cache almost immediately."""

    def __init__(self, n_ways: int, bits: int = 2, long_fraction: float = 1 / 32, seed: int = 0) -> None:
        super().__init__(n_ways, bits)
        if not 0 < long_fraction <= 1:
            raise ValueError("long_fraction must be in (0, 1]")
        self.long_fraction = long_fraction
        self._rng = random.Random(seed)

    def reset(self, way: int) -> None:
        if self._rng.random() < self.long_fraction:
            self._rrpv[way] = self.insert_rrpv
        else:
            self._rrpv[way] = self.max_rrpv


def make_policy(name: str, n_ways: int, seed: int = 0) -> ReplacementPolicy:
    """Instantiate a replacement policy by name
    (``lru``/``plru``/``random``/``srrip``/``brrip``)."""
    if name == "lru":
        return LruPolicy(n_ways)
    if name == "plru":
        return TreePlruPolicy(n_ways)
    if name == "random":
        return RandomPolicy(n_ways, seed=seed)
    if name == "srrip":
        return SrripPolicy(n_ways)
    if name == "brrip":
        return BrripPolicy(n_ways, seed=seed)
    raise ValueError(f"unknown replacement policy {name!r}")
