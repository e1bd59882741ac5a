"""Property-based tests (hypothesis) for core invariants."""

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cachesim.cache import DictCache, WayCache
from repro.cachesim.hashfn import ModularSliceHash, haswell_complex_hash
from repro.core.cache_director import (
    headroom_lines_for_slice,
    pack_headrooms,
    unpack_headroom,
)
from repro.dpdk.ring import Ring
from repro.mem.address import CACHE_LINE, iter_lines, line_address, parity
from repro.net.harness import finite_queue_sim, lindley_waits
from repro.net.packet import EthernetHeader, FiveTuple, Ipv4Header
from repro.stats.percentiles import summarize_latencies

addresses = st.integers(min_value=0, max_value=(1 << 40) - 1)
lines = st.integers(min_value=0, max_value=(1 << 30) // 64 - 1).map(lambda i: i * 64)


class TestHashProperties:
    @given(a=addresses, b=addresses)
    def test_xor_hash_is_linear(self, a, b):
        """slice(a ^ b) == slice(a) ^ slice(b) ^ slice(0)."""
        h = haswell_complex_hash(8)
        assert h.slice_of(a ^ b) == h.slice_of(a) ^ h.slice_of(b) ^ h.slice_of(0)

    @given(address=addresses)
    def test_xor_hash_range(self, address):
        assert 0 <= haswell_complex_hash(8).slice_of(address) < 8

    @given(address=addresses, n=st.integers(min_value=1, max_value=30))
    def test_modular_hash_range(self, address, n):
        assert 0 <= ModularSliceHash(n).slice_of(address) < n

    @given(block=st.integers(min_value=0, max_value=1 << 20), n=st.integers(2, 24))
    def test_modular_hash_block_is_permutation(self, block, n):
        h = ModularSliceHash(n)
        slices = sorted(
            h.slice_of((block * n + i) * CACHE_LINE) for i in range(n)
        )
        assert slices == list(range(n))

    @given(address=addresses, offset=st.integers(0, 63))
    def test_hash_constant_within_line(self, address, offset):
        h = haswell_complex_hash(8)
        base = line_address(address)
        assert h.slice_of(base + offset) == h.slice_of(base)

    @given(value=st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_parity_matches_popcount(self, value):
        assert parity(value) == bin(value).count("1") % 2


class TestHeadroomProperties:
    @given(
        base=st.integers(0, 1 << 24).map(lambda i: i * 64),
        target=st.integers(0, 7),
    )
    def test_headroom_always_found_within_15_lines(self, base, target):
        # From an arbitrary (possibly block-unaligned) base, a window
        # of 15 lines always contains one complete 8-line block and
        # therefore every slice — which is why the paper's 4-bit
        # udata64 encoding (offsets up to 15 lines / 832 B headroom)
        # suffices.
        h = haswell_complex_hash(8)
        k = headroom_lines_for_slice(base, h, target, max_lines=16)
        assert k is not None
        assert k <= 14
        assert h.slice_of(base + k * CACHE_LINE) == target

    @given(offsets=st.lists(st.integers(0, 15), min_size=1, max_size=16))
    def test_udata_pack_roundtrip(self, offsets):
        packed = pack_headrooms(offsets)
        for i, expected in enumerate(offsets):
            assert unpack_headroom(packed, i) == expected


class TestCacheProperties:
    @settings(max_examples=30)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["insert", "lookup", "invalidate"]), st.integers(0, 63)),
            max_size=200,
        )
    )
    def test_dict_and_way_cache_agree_under_lru(self, ops):
        """Both implementations are LRU set-associative caches: the
        same operation stream must produce identical contents."""
        dict_cache = DictCache(4, 2)
        way_cache = WayCache(4, 2, policy="lru")
        for op, index in ops:
            address = index * CACHE_LINE
            if op == "insert":
                dict_cache.insert(address)
                way_cache.insert(address)
            elif op == "lookup":
                assert dict_cache.lookup(address) == way_cache.lookup(address)
            else:
                assert dict_cache.invalidate(address) == way_cache.invalidate(address)
        assert sorted(dict_cache.lines()) == sorted(way_cache.lines())

    @settings(max_examples=30)
    @given(indices=st.lists(st.integers(0, 255), max_size=300))
    def test_occupancy_never_exceeds_capacity(self, indices):
        cache = DictCache(8, 2)
        for index in indices:
            cache.insert(index * CACHE_LINE)
        assert cache.occupancy() <= cache.capacity_lines
        for cache_set in cache._sets:
            assert len(cache_set) <= cache.n_ways

    @settings(max_examples=30)
    @given(indices=st.lists(st.integers(0, 255), min_size=1, max_size=100))
    def test_most_recent_insert_always_resident(self, indices):
        cache = WayCache(4, 4)
        for index in indices:
            cache.insert(index * CACHE_LINE)
        assert cache.contains(indices[-1] * CACHE_LINE)


class TestRingProperties:
    @settings(max_examples=50)
    @given(items=st.lists(st.integers(), max_size=64))
    def test_fifo_order_preserved(self, items):
        ring = Ring(64)
        accepted = [x for x in items if ring.enqueue(x)]
        drained = []
        while True:
            item = ring.dequeue()
            if item is None:
                break
            drained.append(item)
        assert drained == accepted

    @settings(max_examples=50)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("enq"), st.integers()),
                st.tuples(st.just("deq"), st.just(0)),
            ),
            max_size=100,
        )
    )
    def test_length_invariant(self, ops):
        ring = Ring(8)
        model = []
        for op, value in ops:
            if op == "enq":
                if ring.enqueue(value):
                    model.append(value)
            else:
                item = ring.dequeue()
                if model:
                    assert item == model.pop(0)
                else:
                    assert item is None
            assert len(ring) == len(model) <= 8


def head_pointer_queue_sim(
    arrivals_ns: np.ndarray,
    services_ns: np.ndarray,
    capacity: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reference finite-buffer FIFO: the original head-pointer sweep.

    Keeps every departure time and walks a head index past those that
    left by each arrival; :func:`finite_queue_sim` must agree exactly.
    """
    arrivals = np.asarray(arrivals_ns, dtype=float)
    services = np.asarray(services_ns, dtype=float)
    if arrivals.shape != services.shape:
        raise ValueError("arrivals and services must have equal length")
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    n = arrivals.size
    waits = np.full(n, np.nan)
    dropped = np.zeros(n, dtype=bool)
    # Departure times of admitted packets; head index marks the oldest
    # packet that may still be in the system.
    departures: List[float] = []
    head = 0
    last_departure = 0.0
    for i in range(n):
        t = arrivals[i]
        while head < len(departures) and departures[head] <= t:
            head += 1
        if len(departures) - head >= capacity:
            dropped[i] = True
            continue
        start = t if t > last_departure else last_departure
        waits[i] = start - t
        last_departure = start + services[i]
        departures.append(last_departure)
    return waits, dropped


#: (inter-arrival gap, service) pairs; zero gaps tie arrival times and
#: zero services leave at once, both edges of the admission test.
queue_packets = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=400.0)),
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=400.0)),
    ),
    min_size=0,
    max_size=300,
)


class TestQueueingProperties:
    arrival_lists = st.lists(
        st.floats(min_value=0.1, max_value=1000.0, allow_nan=False),
        min_size=1,
        max_size=200,
    )

    @settings(max_examples=30)
    @given(gaps=arrival_lists, seed=st.integers(0, 100))
    def test_lindley_matches_naive(self, gaps, seed):
        rng = np.random.default_rng(seed)
        arrivals = np.cumsum(np.array(gaps))
        services = rng.exponential(50.0, len(arrivals))
        fast = lindley_waits(arrivals, services)
        slow = np.zeros(len(arrivals))
        for i in range(1, len(arrivals)):
            slow[i] = max(
                0.0, slow[i - 1] + services[i - 1] - (arrivals[i] - arrivals[i - 1])
            )
        assert np.allclose(fast, slow)

    @settings(max_examples=30)
    @given(gaps=arrival_lists, capacity=st.integers(1, 32))
    def test_finite_queue_never_holds_more_than_capacity(self, gaps, capacity):
        arrivals = np.cumsum(np.array(gaps))
        services = np.full(len(arrivals), 100.0)
        waits, dropped = finite_queue_sim(arrivals, services, capacity)
        admitted = ~dropped
        # Waiting time of admitted work is bounded by capacity * service.
        finite_waits = waits[admitted]
        assert np.all(finite_waits <= capacity * 100.0 + 1e-6)

    @settings(max_examples=30)
    @given(gaps=arrival_lists)
    def test_infinite_buffer_admits_everything(self, gaps):
        arrivals = np.cumsum(np.array(gaps))
        services = np.full(len(arrivals), 10.0)
        _, dropped = finite_queue_sim(arrivals, services, capacity=10**9)
        assert not dropped.any()

    @settings(max_examples=300)
    @given(packets=queue_packets, capacity=st.integers(1, 64))
    def test_finite_queue_equals_head_pointer_reference(self, packets, capacity):
        gaps = np.array([g for g, _ in packets], dtype=float)
        services = np.array([s for _, s in packets], dtype=float)
        arrivals = np.cumsum(gaps)
        waits, dropped = finite_queue_sim(arrivals, services, capacity)
        ref_waits, ref_dropped = head_pointer_queue_sim(arrivals, services, capacity)
        assert waits.dtype == ref_waits.dtype and dropped.dtype == ref_dropped.dtype
        assert np.array_equal(waits, ref_waits, equal_nan=True)
        assert np.array_equal(dropped, ref_dropped)

    @pytest.mark.parametrize("capacity", [1, 2, 64])
    def test_finite_queue_one_and_zero_packets(self, capacity):
        for n in (0, 1):
            arrivals = np.full(n, 5.0)
            services = np.full(n, 3.0)
            waits, dropped = finite_queue_sim(arrivals, services, capacity)
            ref_waits, ref_dropped = head_pointer_queue_sim(
                arrivals, services, capacity
            )
            assert waits.shape == dropped.shape == (n,)
            assert np.array_equal(waits, ref_waits, equal_nan=True)
            assert np.array_equal(dropped, ref_dropped)


class TestCodecProperties:
    @given(
        dst=st.integers(0, (1 << 48) - 1),
        src=st.integers(0, (1 << 48) - 1),
        ethertype=st.integers(0, 0xFFFF),
    )
    def test_ethernet_roundtrip(self, dst, src, ethertype):
        header = EthernetHeader(dst_mac=dst, src_mac=src, ethertype=ethertype)
        assert EthernetHeader.unpack(header.pack()) == header

    @given(
        src=st.integers(0, (1 << 32) - 1),
        dst=st.integers(0, (1 << 32) - 1),
        proto=st.integers(0, 255),
        length=st.integers(20, 65535),
        ttl=st.integers(0, 255),
    )
    def test_ipv4_roundtrip_and_checksum(self, src, dst, proto, length, ttl):
        header = Ipv4Header(
            src_ip=src, dst_ip=dst, proto=proto, total_length=length, ttl=ttl
        )
        wire = header.pack()
        parsed = Ipv4Header.unpack(wire)
        assert (parsed.src_ip, parsed.dst_ip, parsed.proto) == (src, dst, proto)
        assert parsed.total_length == length
        assert parsed.ttl == ttl
        from repro.net.packet import ipv4_checksum

        assert ipv4_checksum(wire) == 0


class TestStatsProperties:
    @settings(max_examples=30)
    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=500,
        )
    )
    def test_summary_percentiles_ordered(self, samples):
        summary = summarize_latencies(samples)
        assert summary[75] <= summary[90] <= summary[95] <= summary[99]
        eps = 1e-9 * (1.0 + abs(summary.mean))
        assert min(samples) - eps <= summary.mean <= max(samples) + eps


class TestIterLinesProperties:
    @given(address=addresses, size=st.integers(1, 10_000))
    def test_lines_cover_range(self, address, size):
        covered = list(iter_lines(address, size))
        assert covered[0] <= address
        assert covered[-1] + CACHE_LINE >= address + size
        assert all(b - a == CACHE_LINE for a, b in zip(covered, covered[1:]))


class TestHierarchyModelChecking:
    """Random operation sequences must preserve structural invariants."""

    ops = st.lists(
        st.tuples(
            st.sampled_from(["read", "write", "clflush", "dma"]),
            st.integers(0, 7),            # core
            st.integers(0, 255),          # line index
        ),
        max_size=120,
    )

    def _machine(self, inclusive):
        from repro.cachesim.hierarchy import CacheHierarchy
        from repro.cachesim.interconnect import RingInterconnect
        from repro.cachesim.llc import SlicedLLC

        llc = SlicedLLC(
            slice_hash=haswell_complex_hash(8),
            interconnect=RingInterconnect(),
            n_sets=4,
            n_ways=2,
            ddio_ways=1,
        )
        return CacheHierarchy(
            n_cores=8, llc=llc, l1_sets=2, l1_ways=1, l2_sets=2, l2_ways=2,
            inclusive=inclusive,
        )

    @settings(max_examples=25, deadline=None)
    @given(ops=ops)
    def test_inclusive_invariants_hold(self, ops):
        h = self._machine(inclusive=True)
        for op, core, index in ops:
            line = index * CACHE_LINE
            if op == "read":
                h.access_line(core, line)
            elif op == "write":
                h.access_line(core, line, write=True)
            elif op == "clflush":
                h.clflush(line)
            else:
                h.dma_fill_line(line)
        h.check_invariants()

    @settings(max_examples=25, deadline=None)
    @given(ops=ops)
    def test_victim_invariants_hold(self, ops):
        h = self._machine(inclusive=False)
        for op, core, index in ops:
            line = index * CACHE_LINE
            if op == "read":
                h.access_line(core, line)
            elif op == "write":
                h.access_line(core, line, write=True)
            elif op == "clflush":
                h.clflush(line)
            else:
                h.dma_fill_line(line)
        h.check_invariants()

    @settings(max_examples=25, deadline=None)
    @given(ops=ops)
    def test_cycles_always_positive_and_bounded(self, ops):
        h = self._machine(inclusive=True)
        upper = 4 * h.latency.dram  # generous bound per access
        for op, core, index in ops:
            line = index * CACHE_LINE
            if op in ("read", "write"):
                result = h.access_line(core, line, write=op == "write")
                assert 0 < result.cycles <= upper
            elif op == "clflush":
                h.clflush(line)
            else:
                h.dma_fill_line(line)
