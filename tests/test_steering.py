"""Unit tests for RSS and FlowDirector steering."""

import collections

import numpy as np
import pytest

from repro.dpdk.steering import FlowDirectorSteering, RssSteering, rss_hash
from repro.net.trace import CampusTraceGenerator


class TestRssHash:
    def test_deterministic(self):
        assert rss_hash(1, 2, 3) == rss_hash(1, 2, 3)

    def test_sensitive_to_fields(self):
        assert rss_hash(1, 2, 3) != rss_hash(1, 2, 4)
        assert rss_hash(1, 2) != rss_hash(2, 1)

    def test_32_bit_output(self):
        for fields in ((0,), (2**32 - 1, 2**16 - 1), (1, 2, 3, 4, 5)):
            assert 0 <= rss_hash(*fields) < 2**32

    def test_mixes_well(self):
        values = {rss_hash(i) & 0xFF for i in range(1000)}
        assert len(values) > 200


class TestRssSteering:
    def test_flow_affinity(self):
        rss = RssSteering(8)
        flow = (0x0A000001, 0xC0A80001, 1234, 80, 6)
        assert all(rss.queue_for(flow) == rss.queue_for(flow) for _ in range(10))

    def test_queues_in_range(self):
        rss = RssSteering(8)
        for i in range(200):
            assert 0 <= rss.queue_for((i, i + 1, i + 2, 80, 6)) < 8

    def test_spreads_flows(self):
        rss = RssSteering(8)
        counts = collections.Counter(
            rss.queue_for((i, 1, 2, 3, 6)) for i in range(4000)
        )
        assert len(counts) == 8
        assert max(counts.values()) < 3 * min(counts.values())

    def test_invalid_queue_count(self):
        with pytest.raises(ValueError):
            RssSteering(0)


class TestFlowDirector:
    def test_flow_pinned(self):
        fd = FlowDirectorSteering(8)
        flow = ("flow", 1)
        q = fd.queue_for(flow)
        assert all(fd.queue_for(flow) == q for _ in range(5))

    def test_balances_better_than_rss(self):
        """The paper's observation: FlowDirector achieves better load
        balance than RSS for skewed flow traffic."""
        flows = [(i, 1, 2, 3, 6) for i in range(64)]
        weights = [100 if i < 4 else 1 for i in range(64)]  # elephants
        rss = RssSteering(8)
        fd = FlowDirectorSteering(8)
        rss_load = collections.Counter()
        fd_load = collections.Counter()
        for flow, weight in zip(flows, weights):
            for _ in range(weight):
                rss_load[rss.queue_for(flow)] += 1
                fd_load[fd.queue_for(flow)] += 1

        def imbalance(load):
            values = [load.get(q, 0) for q in range(8)]
            return max(values) - min(values)

        assert imbalance(fd_load) <= imbalance(rss_load)

    def test_table_overflow_falls_back(self):
        fd = FlowDirectorSteering(2, table_size=4)
        for i in range(10):
            q = fd.queue_for((i,))
            assert 0 <= q < 2
        assert fd.n_flows == 4
        assert fd.table_overflows == 6

    def test_queue_loads(self):
        fd = FlowDirectorSteering(2)
        fd.queue_for(("a",))
        fd.queue_for(("b",))
        fd.queue_for(("a",))
        assert sum(fd.queue_loads()) == 3

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FlowDirectorSteering(0)
        with pytest.raises(ValueError):
            FlowDirectorSteering(2, table_size=0)


class TestFlowTable:
    """``flow_table(keys)[i]`` is the queue ``queue_for(keys[i])`` picks."""

    keys = CampusTraceGenerator(n_flows=512, seed=3).flows

    def _check(self, table, reference):
        assert table.dtype == np.int64
        assert table.shape == (len(self.keys),)
        assert table.tolist() == [reference.queue_for(k) for k in self.keys]

    def test_rss(self):
        self._check(RssSteering(8).flow_table(self.keys), RssSteering(8))

    def test_rss_uneven_reta(self):
        self._check(
            RssSteering(6, reta_size=100).flow_table(self.keys),
            RssSteering(6, reta_size=100),
        )

    def test_flow_director(self):
        steering = FlowDirectorSteering(8)
        table = steering.flow_table(self.keys)
        self._check(table, FlowDirectorSteering(8))
        assert steering.n_flows == len(self.keys)
        assert steering.table_overflows == 0
        # Pins hold: the steerer keeps answering with its table.
        assert [steering.queue_for(k) for k in self.keys] == table.tolist()

    def test_flow_director_overflow_falls_back_to_rss(self):
        steering = FlowDirectorSteering(8, table_size=100)
        table = steering.flow_table(self.keys)
        self._check(table, FlowDirectorSteering(8, table_size=100))
        assert steering.n_flows == 100
        assert steering.table_overflows == len(self.keys) - 100
        rss = RssSteering(8)
        assert table[100:].tolist() == [rss.queue_for(k) for k in self.keys[100:]]
