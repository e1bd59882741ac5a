"""Unit tests for the queueing/latency harness."""

import numpy as np
import pytest

from repro.net.harness import (
    NicModel,
    finite_queue_sim,
    lindley_waits,
    simulate_queueing_latency,
)


class TestLindley:
    def test_no_wait_when_idle(self):
        arrivals = np.array([0.0, 100.0, 200.0])
        services = np.array([10.0, 10.0, 10.0])
        assert np.allclose(lindley_waits(arrivals, services), 0.0)

    def test_back_to_back_waits(self):
        arrivals = np.array([0.0, 1.0, 2.0])
        services = np.array([10.0, 10.0, 10.0])
        waits = lindley_waits(arrivals, services)
        assert np.allclose(waits, [0.0, 9.0, 18.0])

    def test_matches_naive_simulation(self):
        rng = np.random.default_rng(0)
        arrivals = np.cumsum(rng.exponential(10, 500))
        services = rng.exponential(8, 500)
        waits = lindley_waits(arrivals, services)
        # Naive O(n) recursion.
        expected = np.zeros(500)
        for i in range(1, 500):
            expected[i] = max(
                0.0, expected[i - 1] + services[i - 1] - (arrivals[i] - arrivals[i - 1])
            )
        assert np.allclose(waits, expected)

    def test_cap_clips(self):
        arrivals = np.array([0.0, 1.0, 2.0, 3.0])
        services = np.array([100.0] * 4)
        waits = lindley_waits(arrivals, services, cap_ns=150.0)
        assert waits.max() <= 150.0

    def test_decreasing_arrivals_rejected(self):
        with pytest.raises(ValueError):
            lindley_waits(np.array([1.0, 0.5]), np.array([1.0, 1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lindley_waits(np.array([1.0]), np.array([1.0, 2.0]))

    def test_empty(self):
        assert lindley_waits(np.array([]), np.array([])).size == 0


class TestFiniteQueue:
    def test_no_drops_below_capacity(self):
        arrivals = np.arange(100) * 100.0
        services = np.full(100, 10.0)
        waits, dropped = finite_queue_sim(arrivals, services, capacity=4)
        assert not dropped.any()
        assert np.allclose(waits, 0.0)

    def test_drop_fraction_under_overload(self):
        """Offered 2x capacity -> about half dropped, not everything."""
        rng = np.random.default_rng(1)
        n = 20_000
        arrivals = np.cumsum(rng.exponential(5.0, n))
        services = np.full(n, 10.0)
        waits, dropped = finite_queue_sim(arrivals, services, capacity=64)
        assert 0.4 < dropped.mean() < 0.6

    def test_admitted_wait_bounded_by_buffer(self):
        rng = np.random.default_rng(2)
        n = 5000
        arrivals = np.cumsum(rng.exponential(5.0, n))
        services = np.full(n, 10.0)
        capacity = 32
        waits, dropped = finite_queue_sim(arrivals, services, capacity=capacity)
        finite = waits[~dropped]
        assert np.nanmax(finite) <= capacity * 10.0 + 1e-9

    def test_dropped_waits_are_nan(self):
        arrivals = np.array([0.0, 0.0, 0.0])
        services = np.array([100.0] * 3)
        waits, dropped = finite_queue_sim(arrivals, services, capacity=2)
        assert dropped[2]
        assert np.isnan(waits[2])

    def test_matches_lindley_with_huge_buffer(self):
        rng = np.random.default_rng(3)
        arrivals = np.cumsum(rng.exponential(10, 300))
        services = rng.exponential(9, 300)
        waits, dropped = finite_queue_sim(arrivals, services, capacity=10**6)
        assert not dropped.any()
        assert np.allclose(waits, lindley_waits(arrivals, services))

    def test_invalid_capacity(self):
        for capacity in (0, -3):
            with pytest.raises(ValueError, match="capacity"):
                finite_queue_sim(np.array([0.0]), np.array([1.0]), capacity=capacity)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            finite_queue_sim(np.array([0.0, 1.0]), np.array([1.0]), capacity=4)


class TestNicModel:
    def test_floor_includes_wire_time(self):
        nic = NicModel(link_gbps=100.0, overhead_ns=0.0)
        floors = nic.floor_ns(np.array([1500.0]))
        assert floors[0] == pytest.approx(120.0)

    def test_overhead_added(self):
        nic = NicModel(link_gbps=100.0, overhead_ns=50.0)
        assert nic.floor_ns(np.array([125.0]))[0] == pytest.approx(60.0)


class TestSimulateQueueingLatency:
    def make_stream(self, n=20_000, gap=100.0, service=50.0, queues=4):
        arrivals = np.arange(n) * gap
        sizes = np.full(n, 64.0)
        queue_ids = np.arange(n) % queues
        services = np.full(n, service)
        return arrivals, sizes, queue_ids, services

    def test_light_load_latency_is_service_plus_fixed(self):
        arrivals, sizes, queues, services = self.make_stream(gap=10_000.0)
        nic = NicModel(overhead_ns=0.0, fixed_latency_ns=1000.0)
        result = simulate_queueing_latency(
            arrivals, sizes, queues, services, n_queues=4, nic=nic
        )
        # wait=0; effective service = max(50, wire 5.12) = 50 ns.
        assert result.summary[99] == pytest.approx((50.0 + 1000.0) / 1e3, rel=0.01)
        assert result.drop_fraction == 0.0

    def test_overload_throughput_capped(self):
        # Per-queue offered 1/(4*20ns); service 400ns -> heavy overload.
        arrivals, sizes, queues, services = self.make_stream(gap=20.0, service=400.0)
        nic = NicModel(overhead_ns=0.0, fixed_latency_ns=0.0)
        result = simulate_queueing_latency(
            arrivals, sizes, queues, services, n_queues=4, nic=nic, ring_capacity=64
        )
        assert result.drop_fraction > 0.5
        assert result.achieved_gbps < result.offered_gbps

    def test_latency_grows_with_load(self):
        nic = NicModel(overhead_ns=0.0, fixed_latency_ns=0.0)
        results = []
        for gap in (400.0, 110.0):
            arrivals, sizes, queues, services = self.make_stream(gap=gap, service=100.0)
            rng = np.random.default_rng(0)
            services = rng.exponential(100.0, len(arrivals))
            results.append(
                simulate_queueing_latency(
                    arrivals, sizes, queues, services, n_queues=4, nic=nic
                ).summary[99]
            )
        assert results[1] > results[0]

    def test_shape_mismatch_rejected(self):
        arrivals, sizes, queues, services = self.make_stream(n=100)
        with pytest.raises(ValueError):
            simulate_queueing_latency(
                arrivals[:-1], sizes, queues, services, n_queues=4
            )
