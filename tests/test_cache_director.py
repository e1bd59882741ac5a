"""Unit tests for CacheDirector headroom computation (§4.2)."""

import numpy as np
import pytest

from repro.cachesim.hashfn import ModularSliceHash, haswell_complex_hash
from repro.core.cache_director import (
    CacheDirector,
    DEFAULT_BASE_HEADROOM,
    HeadroomStats,
    UDATA_MAX_SLICES,
    headroom_lines_for_slice,
    pack_headrooms,
    unpack_headroom,
)
from repro.dpdk.mempool import Mempool
from repro.mem.address import CACHE_LINE, PAGE_1G
from repro.mem.allocator import ContiguousAllocator
from repro.mem.hugepage import PhysicalAddressSpace


class TestHeadroomSearch:
    def test_finds_target_within_eight_lines(self):
        h = haswell_complex_hash(8)
        for base in (0, 0x4000, 0x123400):
            for target in range(8):
                k = headroom_lines_for_slice(base, h, target)
                assert k is not None
                assert 0 <= k < 8
                assert h.slice_of(base + k * CACHE_LINE) == target

    def test_returns_smallest_offset(self):
        h = haswell_complex_hash(8)
        base = 0x8000
        target = h.slice_of(base)
        assert headroom_lines_for_slice(base, h, target) == 0

    def test_unaligned_base_rejected(self):
        with pytest.raises(ValueError):
            headroom_lines_for_slice(0x10, haswell_complex_hash(8), 0)

    def test_bound_respected(self):
        class NeverHash:
            n_slices = 2

            def slice_of(self, address):
                return 0

        assert headroom_lines_for_slice(0, NeverHash(), 1, max_lines=4) is None


class TestUdataPacking:
    def test_roundtrip(self):
        offsets = [3, 0, 7, 1, 5, 2, 6, 4]
        packed = pack_headrooms(offsets)
        for s, expected in enumerate(offsets):
            assert unpack_headroom(packed, s) == expected

    def test_sixteen_slices_fit(self):
        packed = pack_headrooms(list(range(16)))
        assert unpack_headroom(packed, 15) == 15

    def test_too_many_slices_rejected(self):
        with pytest.raises(ValueError):
            pack_headrooms([0] * (UDATA_MAX_SLICES + 1))

    def test_oversized_offset_rejected(self):
        with pytest.raises(ValueError):
            pack_headrooms([16])

    def test_unpack_out_of_range(self):
        with pytest.raises(IndexError):
            unpack_headroom(0, 16)


class TestCacheDirector:
    def make(self):
        h = haswell_complex_hash(8)
        return CacheDirector(h, core_to_slice=list(range(8))), h

    def test_precompute_covers_all_slices(self):
        director, h = self.make()
        buf_phys = 0x20000
        udata = director.precompute_udata(buf_phys)
        data_base = buf_phys + director.base_headroom
        for target in range(8):
            k = unpack_headroom(udata, target)
            assert h.slice_of(data_base + k * CACHE_LINE) == target

    def test_headroom_places_header_in_core_slice(self):
        director, h = self.make()
        for core in range(8):
            buf_phys = 0x740000
            udata = director.precompute_udata(buf_phys)
            headroom = director.headroom_for_core(udata, core)
            assert h.slice_of(buf_phys + headroom) == core

    def test_headroom_is_line_aligned_from_buffer(self):
        director, _ = self.make()
        udata = director.precompute_udata(0x4000)
        headroom = director.headroom_for_core(udata, 3)
        assert headroom % CACHE_LINE == 0

    def test_max_headroom_bound(self):
        director, h = self.make()
        # With the XOR hash the displacement never exceeds 7 lines.
        for buf_phys in range(0, 0x10000, 0x1400):
            buf_phys &= ~(CACHE_LINE - 1)
            udata = director.precompute_udata(buf_phys)
            for core in range(8):
                headroom = director.headroom_for_core(udata, core)
                assert headroom <= DEFAULT_BASE_HEADROOM + 7 * CACHE_LINE
                assert headroom <= director.max_headroom

    def test_stats_recorded(self):
        director, _ = self.make()
        udata = director.precompute_udata(0)
        director.headroom_for_core(udata, 0)
        director.headroom_for_core(udata, 1)
        summary = director.stats.summary()
        assert summary["count"] == 2
        assert summary["max"] >= summary["median"]

    def test_slow_path_matches_fast_path(self):
        director, h = self.make()
        buf_phys = 0xABC000
        udata = director.precompute_udata(buf_phys)
        for target in range(8):
            direct = director.headroom_for_slice_direct(buf_phys, target)
            packed = director.base_headroom + unpack_headroom(udata, target) * CACHE_LINE
            assert direct == packed

    def test_works_with_skylake_hash(self):
        h = ModularSliceHash(18)
        director = CacheDirector(h, core_to_slice=[0, 4, 8, 12, 10, 14, 3, 15], max_lines=16)
        udata = director.precompute_udata(0x9000)
        headroom = director.headroom_for_core(udata, 0)
        assert headroom >= director.base_headroom

    def test_invalid_construction(self):
        h = haswell_complex_hash(8)
        with pytest.raises(ValueError):
            CacheDirector(h, core_to_slice=[])
        with pytest.raises(ValueError):
            CacheDirector(h, core_to_slice=[0], base_headroom=100)


def scalar_udata(director, buf_phys):
    """The per-mbuf search: headroom_lines_for_slice + pack_headrooms."""
    offsets = []
    for target in range(min(director.hash.n_slices, UDATA_MAX_SLICES)):
        k = headroom_lines_for_slice(
            buf_phys + director.base_headroom,
            director.hash,
            target,
            min(director.max_lines, 16),
        )
        offsets.append(0 if k is None else k)
    return pack_headrooms(offsets)


class TestPoolPrecompute:
    @pytest.fixture
    def pool(self):
        space = PhysicalAddressSpace(seed=0)
        allocator = ContiguousAllocator(space.mmap_hugepage(PAGE_1G))
        return Mempool("rx", allocator, n_mbufs=512, data_room=2048 + 15 * CACHE_LINE)

    @pytest.mark.parametrize(
        "slice_hash", [haswell_complex_hash(8), ModularSliceHash(18)], ids=repr
    )
    def test_matches_per_mbuf_search(self, pool, slice_hash):
        director = CacheDirector(slice_hash, core_to_slice=[0, 1])
        bufs = [mbuf.buf_phys for mbuf in pool.mbufs]
        packed = director.precompute_udata_array(bufs)
        assert packed.dtype == np.uint64
        expected = [scalar_udata(director, buf) for buf in bufs]
        assert packed.tolist() == expected
        assert [director.precompute_udata(buf) for buf in bufs] == expected

    def test_eighteen_slices_clamp_and_fall_back(self, pool):
        h = ModularSliceHash(18)
        director = CacheDirector(h, core_to_slice=[0])
        bufs = [mbuf.buf_phys for mbuf in pool.mbufs]
        packed = director.precompute_udata_array(bufs).tolist()
        # 18 slices, 16 packed: at least one mbuf cannot reach some
        # packed target within 16 lines and stores the 0 fallback.
        fallbacks = 0
        for buf, udata in zip(bufs, packed):
            data_base = buf + director.base_headroom
            for target in range(UDATA_MAX_SLICES):
                k = unpack_headroom(udata, target)
                if h.slice_of(data_base + k * CACHE_LINE) != target:
                    assert k == 0
                    fallbacks += 1
        assert fallbacks > 0

    def test_short_bound_and_empty_pool(self):
        director = CacheDirector(haswell_complex_hash(8), core_to_slice=[0], max_lines=3)
        bufs = [i * 0x940 for i in range(64)]
        assert director.precompute_udata_array(bufs).tolist() == [
            scalar_udata(director, buf) for buf in bufs
        ]
        assert director.precompute_udata_array([]).tolist() == []

    def test_hash_without_array_form(self):
        class ScalarOnly:
            """A SliceHash with only the protocol's scalar method."""

            n_slices = 8

            def slice_of(self, address):
                return haswell_complex_hash(8).slice_of(address)

        director = CacheDirector(ScalarOnly(), core_to_slice=[0])
        bufs = [i * 0x940 for i in range(64)]
        assert director.precompute_udata_array(bufs).tolist() == [
            scalar_udata(director, buf) for buf in bufs
        ]

    def test_unaligned_buffer_rejected(self):
        director = CacheDirector(haswell_complex_hash(8), core_to_slice=[0])
        with pytest.raises(ValueError):
            director.precompute_udata_array([0, 0x10])
        with pytest.raises(ValueError):
            director.precompute_udata(0x10)


class TestHeadroomStats:
    def test_empty_summary(self):
        assert HeadroomStats().summary() == {"count": 0}

    def test_percentiles(self):
        stats = HeadroomStats()
        for value in range(1, 101):
            stats.record(value)
        summary = stats.summary()
        assert summary["median"] == 51
        assert summary["p95"] == 96
        assert summary["max"] == 100
