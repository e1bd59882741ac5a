"""Allocation budgets of cache construction, measured with tracemalloc.

LLC sets are allocated on first fill, so building a cache costs a fixed
number of Python containers however many sets it has.  These bounds are
deterministic (allocation counts and bytes, not timings).
"""

import gc
import tracemalloc

import pytest

from repro.cachesim.hashfn import haswell_complex_hash
from repro.cachesim.interconnect import RingInterconnect
from repro.cachesim.llc import SlicedLLC
from repro.fleet.cluster import FleetCluster, FleetClusterConfig


def traced(build):
    """``(bytes, blocks)`` still allocated after ``build()`` returns."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()
        size, _ = tracemalloc.get_traced_memory()
        blocks = sum(stat.count for stat in tracemalloc.take_snapshot().statistics("filename"))
    finally:
        tracemalloc.stop()
    del kept
    return size, blocks


@pytest.mark.parametrize("policy", ["lru", "brrip"])
def test_sliced_llc_containers_do_not_grow_with_sets(policy):
    def build(n_sets):
        return lambda: SlicedLLC(
            haswell_complex_hash(8), RingInterconnect(), n_sets=n_sets, n_ways=20,
            policy=policy,
        )

    build(1024)()  # first-use imports and caches stay out of the count
    _, small = traced(build(1024))
    _, large = traced(build(16384))
    # An eager layout would add 4-5 containers per extra set (~600k here).
    assert abs(large - small) <= 16, (small, large)


def test_fleet_cluster_allocates_at_most_two_mb_per_server():
    config = FleetClusterConfig(n_servers=4, n_tenants=4)
    FleetCluster(config, seed=0)
    size, _ = traced(lambda: FleetCluster(config, seed=0))
    assert size <= 8 * 1024 * 1024, f"{size / 1e6:.1f} MB"
