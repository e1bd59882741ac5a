"""WayCache against an eager reference model (hypothesis).

The model keeps the layout WayCache allocates lazily: per-set tag and
dirty lists, a line -> way dict and one ``replacement.py`` policy object
per set, all built up front.  Random insert/lookup/invalidate/flush
sequences with random way masks must give identical evictions, dirty
bits, way choices, ``lines()`` and ``set_occupancy()`` for every
replacement policy.
"""

from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.cache import WayCache
from repro.cachesim.replacement import make_policy
from repro.mem.address import CACHE_LINE

pytestmark = pytest.mark.differential

POLICIES = ("lru", "plru", "random", "srrip", "brrip")


class EagerWayCache:
    """Every set's state built at construction; victims from the policy
    objects."""

    def __init__(self, n_sets: int, n_ways: int, policy: str, seed: int) -> None:
        self.n_sets = n_sets
        self.n_ways = n_ways
        self.tags: List[List[Optional[int]]] = [[None] * n_ways for _ in range(n_sets)]
        self.dirty = [[False] * n_ways for _ in range(n_sets)]
        self.where: List[Dict[int, int]] = [{} for _ in range(n_sets)]
        self.policies = [make_policy(policy, n_ways, seed=seed + i) for i in range(n_sets)]

    def _index(self, line: int) -> int:
        return (line // CACHE_LINE) % self.n_sets

    def lookup(self, line: int, write: bool) -> bool:
        index = self._index(line)
        way = self.where[index].get(line)
        if way is None:
            return False
        self.policies[index].touch(way)
        if write:
            self.dirty[index][way] = True
        return True

    def insert(self, line: int, dirty: bool, allowed):
        index = self._index(line)
        existing = self.where[index].get(line)
        if existing is not None:
            self.policies[index].touch(existing)
            if dirty:
                self.dirty[index][existing] = True
            return None
        ways = tuple(range(self.n_ways)) if allowed is None else tuple(allowed)
        tags = self.tags[index]
        victim = None
        free = [way for way in ways if tags[way] is None]
        if free:
            way = free[0]
        else:
            way = self.policies[index].victim(ways)
            victim = (tags[way], self.dirty[index][way])
            del self.where[index][tags[way]]
        tags[way] = line
        self.dirty[index][way] = dirty
        self.where[index][line] = way
        self.policies[index].reset(way)
        return victim

    def invalidate(self, line: int):
        index = self._index(line)
        way = self.where[index].pop(line, None)
        if way is None:
            return None
        self.tags[index][way] = None
        dirty = self.dirty[index][way]
        self.dirty[index][way] = False
        return dirty

    def flush(self):
        drained = []
        for index in range(self.n_sets):
            for line, way in self.where[index].items():
                drained.append((line, self.dirty[index][way]))
            self.where[index].clear()
            self.tags[index] = [None] * self.n_ways
            self.dirty[index] = [False] * self.n_ways
        return drained

    def lines(self) -> List[int]:
        return [line for where in self.where for line in where]

    def set_occupancy(self, index: int) -> int:
        return len(self.where[index])

    def way_of(self, line: int) -> Optional[int]:
        return self.where[self._index(line)].get(line)


#: Op kinds, weighted towards fills so sets overflow and evict.
KINDS = ("insert",) * 5 + ("lookup",) * 3 + ("invalidate", "flush")


@st.composite
def scenarios(draw):
    n_sets = draw(st.sampled_from((1, 2, 4, 8)))
    n_ways = draw(st.sampled_from((2, 4, 8)))
    # Three lines per way per set keep every set over-subscribed.
    line = st.integers(0, 3 * n_sets * n_ways - 1).map(lambda i: i * CACHE_LINE)
    mask = st.one_of(
        st.none(),
        st.lists(st.integers(0, n_ways - 1), min_size=1, max_size=n_ways, unique=True),
    )
    op = st.tuples(st.sampled_from(KINDS), line, st.booleans(), mask)
    return (
        draw(st.sampled_from(POLICIES)),
        n_sets,
        n_ways,
        draw(st.integers(0, 1000)),
        draw(st.lists(op, min_size=20, max_size=200)),
    )


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
def test_lazy_state_matches_eager_model(scenario):
    policy, n_sets, n_ways, seed, sequence = scenario
    cache = WayCache(n_sets, n_ways, policy=policy, seed=seed)
    model = EagerWayCache(n_sets, n_ways, policy, seed)
    for kind, line, flag, mask in sequence:
        if kind == "insert":
            assert cache.insert(line, dirty=flag, allowed_ways=mask) == model.insert(
                line, flag, mask
            )
            assert cache.way_of(line) == model.way_of(line)
        elif kind == "lookup":
            assert cache.lookup(line, write=flag) == model.lookup(line, flag)
        elif kind == "invalidate":
            assert cache.invalidate(line) == model.invalidate(line)
        else:
            assert sorted(cache.flush()) == sorted(model.flush())
        assert sorted(cache.lines()) == sorted(model.lines())
        for index in range(n_sets):
            assert cache.set_occupancy(index) == model.set_occupancy(index)
    # Dirty bits of everything still resident.
    assert sorted(cache.flush()) == sorted(model.flush())
    assert cache.occupancy() == 0


@pytest.mark.parametrize("policy", POLICIES)
def test_untouched_sets_hold_no_state(policy):
    cache = WayCache(64, 4, policy=policy)
    assert not cache.lookup(5 * CACHE_LINE)
    assert cache.invalidate(5 * CACHE_LINE) is None
    assert cache._tags.count(None) == 64
    cache.insert(5 * CACHE_LINE)
    assert cache._tags.count(None) == 63
    assert cache.flush() == [(5 * CACHE_LINE, False)]
    # A flushed set keeps its (cleared) containers and replacement state.
    assert cache._tags[5] == [None] * 4
