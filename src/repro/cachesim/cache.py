"""Set-associative cache models.

Two implementations share one interface:

* :class:`DictCache` — a fast LRU-only cache used for the per-core L1
  and L2 levels (insertion-ordered dicts give O(1) LRU).
* :class:`WayCache` — a way-indexed cache with pluggable replacement
  and *way-mask* support, used for LLC slices where CAT and DDIO
  restrict which ways a fill may claim.  Its per-set state is
  allocated on a set's first fill.

Both store whole line addresses (the line address doubles as the tag;
the set index is derived from it), track a dirty bit per line, and
report evictions so the hierarchy can propagate write-backs.
"""

from __future__ import annotations

from itertools import count
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cachesim.replacement import make_policy
from repro.mem.address import CACHE_LINE_BITS, is_power_of_two

#: An eviction: (line_address, was_dirty).
Eviction = Tuple[int, bool]

#: The ``where`` map of every untouched :class:`WayCache` set: empty,
#: shared and read-only, so a stray write into it raises.
UNTOUCHED: Mapping[int, int] = MappingProxyType({})


class DictCache:
    """LRU set-associative cache backed by insertion-ordered dicts.

    Args:
        n_sets: number of sets (power of two).
        n_ways: associativity.
        name: label used in ``repr`` and error messages.
    """

    def __init__(self, n_sets: int, n_ways: int, name: str = "cache") -> None:
        if not is_power_of_two(n_sets):
            raise ValueError(f"n_sets must be a power of two, got {n_sets}")
        if n_ways <= 0:
            raise ValueError(f"n_ways must be positive, got {n_ways}")
        self.n_sets = n_sets
        self.n_ways = n_ways
        self.name = name
        self._set_mask = n_sets - 1
        # Each set maps line_address -> dirty flag; dict order is LRU
        # order (oldest first).
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(n_sets)]

    @property
    def capacity_lines(self) -> int:
        """Total number of lines this cache can hold."""
        return self.n_sets * self.n_ways

    @property
    def capacity_bytes(self) -> int:
        """Total capacity in bytes."""
        return self.capacity_lines << CACHE_LINE_BITS

    def set_index(self, line_address: int) -> int:
        """Return the set index for a line address."""
        return (line_address >> CACHE_LINE_BITS) & self._set_mask

    def lookup(self, line_address: int, write: bool = False) -> bool:
        """Probe for a line; on hit, refresh LRU and merge dirty state."""
        cache_set = self._sets[(line_address >> CACHE_LINE_BITS) & self._set_mask]
        dirty = cache_set.pop(line_address, None)
        if dirty is None:
            return False
        cache_set[line_address] = dirty or write
        return True

    def contains(self, line_address: int) -> bool:
        """Probe without touching replacement state."""
        cache_set = self._sets[(line_address >> CACHE_LINE_BITS) & self._set_mask]
        return line_address in cache_set

    def insert(self, line_address: int, dirty: bool = False) -> Optional[Eviction]:
        """Fill a line, returning the eviction it forced (if any).

        Inserting a line that is already present refreshes it and
        merges the dirty bit without evicting anything.
        """
        cache_set = self._sets[(line_address >> CACHE_LINE_BITS) & self._set_mask]
        previous = cache_set.pop(line_address, None)
        if previous is not None:
            cache_set[line_address] = previous or dirty
            return None
        victim: Optional[Eviction] = None
        if len(cache_set) >= self.n_ways:
            victim_address = next(iter(cache_set))
            victim = (victim_address, cache_set.pop(victim_address))
        cache_set[line_address] = dirty
        return victim

    def invalidate(self, line_address: int) -> Optional[bool]:
        """Drop a line; return its dirty bit, or ``None`` if absent."""
        cache_set = self._sets[(line_address >> CACHE_LINE_BITS) & self._set_mask]
        return cache_set.pop(line_address, None)

    def flush(self) -> List[Eviction]:
        """Empty the cache, returning every line with its dirty bit."""
        drained: List[Eviction] = []
        for cache_set in self._sets:
            drained.extend(cache_set.items())
            cache_set.clear()
        return drained

    def occupancy(self) -> int:
        """Return the number of valid lines currently held."""
        return sum(len(cache_set) for cache_set in self._sets)

    def lines(self) -> List[int]:
        """Return every resident line address (unspecified order)."""
        resident: List[int] = []
        for cache_set in self._sets:
            resident.extend(cache_set.keys())
        return resident

    def __repr__(self) -> str:
        return (
            f"DictCache(name={self.name!r}, n_sets={self.n_sets}, "
            f"n_ways={self.n_ways})"
        )


class WayCache:
    """Way-indexed set-associative cache with way-mask support.

    Used for LLC slices: CAT restricts application fills to a subset of
    ways and DDIO restricts I/O fills to (by default) 2 ways, so victim
    selection must understand way identity.

    Per-set state is allocated on a set's first fill, so construction
    costs a fixed number of Python objects whatever ``n_sets`` is (a
    fleet of simulated servers holds ~100k LLC sets, most never
    touched).  Four per-cache tables, indexed by set, hold it:

    * ``_where`` — line → way map.  An untouched set shares the
      read-only empty :data:`UNTOUCHED` map, so probes (``lookup``,
      ``contains``, DMA reads) need no allocation check; only fills
      call :meth:`_alloc`.
    * ``_tags`` / ``_dirty`` — per-way line address (``None`` when
      invalid) and dirty bit; ``None`` for an untouched set.
    * ``_repl`` — replacement state.  For ``lru`` it is a list of
      per-way last-use stamps drawn from the cache's one ``_clock``; a
      stamp only orders the ways of its own set, so one clock per
      cache picks the same victims as a clock per set.  Other policies
      keep a :mod:`~repro.cachesim.replacement` object per set, built
      on first fill with seed ``seed + set_index``.

    Once allocated, a set's containers are never replaced (``flush``
    clears them in place), so :class:`~repro.cachesim.engine.FastEngine`
    may hold references to them across calls.

    Args:
        n_sets: number of sets (power of two).
        n_ways: associativity.
        policy: replacement policy name (``lru``, ``plru``, ``random``,
            ``srrip``, ``brrip``).
        name: label for diagnostics.
        seed: seed forwarded to stochastic replacement policies.
    """

    def __init__(
        self,
        n_sets: int,
        n_ways: int,
        policy: str = "lru",
        name: str = "cache",
        seed: int = 0,
    ) -> None:
        if not is_power_of_two(n_sets):
            raise ValueError(f"n_sets must be a power of two, got {n_sets}")
        if n_ways <= 0:
            raise ValueError(f"n_ways must be positive, got {n_ways}")
        make_policy(policy, n_ways, seed=seed)  # reject bad names/geometry now
        self.n_sets = n_sets
        self.n_ways = n_ways
        self.name = name
        self.policy_name = policy
        self._seed = seed
        self._lru = policy == "lru"
        self._set_mask = n_sets - 1
        # Element types vary with allocation (see the class docstring).
        self._where: List[Any] = [UNTOUCHED] * n_sets
        self._tags: List[Any] = [None] * n_sets
        self._dirty: List[Any] = [None] * n_sets
        self._repl: List[Any] = [None] * n_sets
        self._clock = count()
        self._all_ways = tuple(range(n_ways))

    @property
    def capacity_lines(self) -> int:
        """Total number of lines this cache can hold."""
        return self.n_sets * self.n_ways

    @property
    def capacity_bytes(self) -> int:
        """Total capacity in bytes."""
        return self.capacity_lines << CACHE_LINE_BITS

    def set_index(self, line_address: int) -> int:
        """Return the set index for a line address."""
        return (line_address >> CACHE_LINE_BITS) & self._set_mask

    def _alloc(self, index: int) -> Tuple[Dict[int, int], list, list, Any]:
        """Allocate set *index*'s containers; returns ``(where, tags,
        dirty, repl)``."""
        n_ways = self.n_ways
        where: Dict[int, int] = {}
        tags: List[Optional[int]] = [None] * n_ways
        dirty = [False] * n_ways
        repl: Any = (
            [-1] * n_ways
            if self._lru
            else make_policy(self.policy_name, n_ways, seed=self._seed + index)
        )
        self._where[index] = where
        self._tags[index] = tags
        self._dirty[index] = dirty
        self._repl[index] = repl
        return where, tags, dirty, repl

    def _touch(self, index: int, way: int) -> None:
        if self._lru:
            self._repl[index][way] = next(self._clock)
        else:
            self._repl[index].touch(way)

    def lookup(self, line_address: int, write: bool = False) -> bool:
        """Probe for a line; on hit, refresh replacement state."""
        index = (line_address >> CACHE_LINE_BITS) & self._set_mask
        way = self._where[index].get(line_address)
        if way is None:
            return False
        self._touch(index, way)
        if write:
            self._dirty[index][way] = True
        return True

    def contains(self, line_address: int) -> bool:
        """Probe without touching replacement state."""
        index = (line_address >> CACHE_LINE_BITS) & self._set_mask
        return line_address in self._where[index]

    def way_of(self, line_address: int) -> Optional[int]:
        """Return the way holding a line, or ``None``."""
        index = (line_address >> CACHE_LINE_BITS) & self._set_mask
        return self._where[index].get(line_address)

    def insert(
        self,
        line_address: int,
        dirty: bool = False,
        allowed_ways: Optional[Sequence[int]] = None,
    ) -> Optional[Eviction]:
        """Fill a line, optionally restricted to *allowed_ways*.

        Preference order: refresh in place if already resident
        (regardless of way mask — a hit never migrates ways), else an
        invalid allowed way, else evict the policy's victim among the
        allowed ways (LRU: the oldest stamp, first of equals).
        """
        index = (line_address >> CACHE_LINE_BITS) & self._set_mask
        existing = self._where[index].get(line_address)
        if existing is not None:
            self._touch(index, existing)
            if dirty:
                self._dirty[index][existing] = True
            return None
        ways = self._all_ways if allowed_ways is None else tuple(allowed_ways)
        if not ways:
            raise ValueError("allowed_ways must be non-empty")
        tags = self._tags[index]
        if tags is None:
            where, tags, dirt, repl = self._alloc(index)
        else:
            where = self._where[index]
            dirt = self._dirty[index]
            repl = self._repl[index]
        victim: Optional[Eviction] = None
        for way in ways:
            if tags[way] is None:
                break
        else:
            way = min(ways, key=repl.__getitem__) if self._lru else repl.victim(ways)
            victim_tag = tags[way]
            assert victim_tag is not None
            victim = (victim_tag, dirt[way])
            del where[victim_tag]
        tags[way] = line_address
        dirt[way] = dirty
        where[line_address] = way
        if self._lru:
            repl[way] = next(self._clock)
        else:
            repl.reset(way)
        return victim

    def invalidate(self, line_address: int) -> Optional[bool]:
        """Drop a line; return its dirty bit, or ``None`` if absent."""
        index = (line_address >> CACHE_LINE_BITS) & self._set_mask
        where = self._where[index]
        way = where.get(line_address)
        if way is None:
            return None
        del where[line_address]
        self._tags[index][way] = None
        dirt = self._dirty[index]
        dirty = dirt[way]
        dirt[way] = False
        return dirty

    def flush(self) -> List[Eviction]:
        """Empty the cache, returning every line with its dirty bit.

        Allocated sets are cleared in place and keep their replacement
        state, as the per-set policy objects always did.
        """
        drained: List[Eviction] = []
        for where, tags, dirt in zip(self._where, self._tags, self._dirty):
            if where:
                drained.extend((line, dirt[way]) for line, way in where.items())
                where.clear()
                tags[:] = [None] * self.n_ways
                dirt[:] = [False] * self.n_ways
        return drained

    def occupancy(self) -> int:
        """Return the number of valid lines currently held."""
        return sum(map(len, self._where))

    def lines(self) -> List[int]:
        """Return every resident line address (unspecified order)."""
        resident: List[int] = []
        for where in self._where:
            resident.extend(where)
        return resident

    def set_occupancy(self, index: int) -> int:
        """Return the number of valid lines in one set."""
        return len(self._where[index])

    def __repr__(self) -> str:
        return (
            f"WayCache(name={self.name!r}, n_sets={self.n_sets}, "
            f"n_ways={self.n_ways}, policy={self.policy_name!r})"
        )
