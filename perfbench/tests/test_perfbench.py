"""Tests of the benchmark itself, at reduced sizes.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import ROOT, Tracer  # noqa: E402

SMALL_NFV = dict(workloads.NFV, micro_packets=300, n_bulk_packets=5_000, runs=2)
SMALL_STEADY = dict(workloads.FLEET_STEADY, n_servers=2, n_tenants=2,
                    requests=1_000, warmup=200)


def _same(a, b) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.fixture(scope="module")
def nfv_payload():
    return workloads._nfv_run(SMALL_NFV, 3, workloads.no_span)


def test_perturbed_nfv_payload_fails_its_check(nfv_payload):
    assert workloads.check_nfv_chain(nfv_payload) == []
    bad = copy.deepcopy(nfv_payload)
    dpdk_p99 = bad["dpdk"]["summary"]["percentiles"]["p99"]
    bad["cachedirector"]["summary"]["percentiles"]["p99"] = dpdk_p99 + 1.0
    assert workloads.check_nfv_chain(bad)
    record = {"digest": workloads.digest(bad), "violations": []}
    assert run.problems(record, workloads.digest(nfv_payload))


def test_perturbed_fleet_payload_fails_its_check():
    payload = workloads._fleet_run(SMALL_STEADY, 0, workloads.no_span)
    assert workloads.check_fleet_steady(payload) == []
    bad = copy.deepcopy(payload)
    bad["servers"][0]["served"] -= 1
    assert workloads.check_fleet_steady(bad)
    assert workloads.digest(bad) != workloads.digest(payload)


def test_chaos_check_requires_every_degraded_mode():
    counters = {name: 5 for name in workloads.CHAOS_COUNTERS}
    counters["served"] = 85
    payload = {"requests": 100, "self_healing": {"counters": counters}}
    assert workloads.check_fleet_chaos(payload) == []
    for name in ("failovers", "hints_replayed", "reboots"):
        bad = copy.deepcopy(payload)
        bad["self_healing"]["counters"][name] = 0
        assert workloads.check_fleet_chaos(bad) == [f"{name} = 0, expected > 0"]
    bad = copy.deepcopy(payload)
    bad["self_healing"]["counters"]["shed"] += 1
    assert any("!= 100 requests" in p for p in workloads.check_fleet_chaos(bad))


def test_llc_check_flags_a_broken_slice_aware_gain():
    payload = {
        "sizes": [128 * 1024, 2 << 20],
        "normal_mops": {"read": [690.0, 158.0], "write": [1346.0, 259.0]},
        "slice_mops": {"read": [692.0, 205.0], "write": [1349.0, 323.0]},
    }
    assert workloads.check_llc_sweep(payload) == []
    bad = copy.deepcopy(payload)
    bad["slice_mops"]["read"][1] = 150.0
    assert len(workloads.check_llc_sweep(bad)) == 1
    bad = copy.deepcopy(payload)
    bad["slice_mops"]["write"][0] = 1300.0
    assert len(workloads.check_llc_sweep(bad)) == 1
    better = copy.deepcopy(payload)
    better["slice_mops"]["read"][0] = 710.0
    assert workloads.check_llc_sweep(better) == []


def _traced(run, *args):
    tracer = Tracer()
    tracer.instrument()
    try:
        with tracer.span(ROOT):
            payload = run(*args, tracer.span)
    finally:
        tracer.restore()
    return payload, tracer


def _accounts_for_wall_time(layers) -> None:
    wall = layers[ROOT]["total_s"]
    assert layers[ROOT]["self_s"] / wall < 0.05
    self_sum = sum(row["self_s"] for row in layers.values())
    assert self_sum == pytest.approx(wall, rel=1e-6)


def test_traced_run_keeps_the_payload_and_accounts_for_the_wall_time():
    from repro.fleet.server import FleetServer

    original_serve = FleetServer.serve
    plain = workloads._fleet_run(SMALL_STEADY, 1, workloads.no_span)
    traced, tracer = _traced(workloads._fleet_run, SMALL_STEADY, 1)
    assert FleetServer.serve is original_serve
    assert _same(plain, traced)
    layers = tracer.layer_totals()
    assert layers["fleet.serve"]["calls"] == SMALL_STEADY["requests"]
    assert layers["fleet.loop"]["calls"] == 1
    _accounts_for_wall_time(layers)
    assert tracer.counters()["cachesim.accesses"] > 0


def test_traced_nfv_chain_keeps_the_payload_and_times_each_arm(nfv_payload):
    from repro.experiments import nfv_common

    original = nfv_common.run_nfv_experiment
    traced, tracer = _traced(workloads._nfv_run, SMALL_NFV, 3)
    assert nfv_common.run_nfv_experiment is original
    assert _same(nfv_payload, traced)
    layers = tracer.layer_totals()
    assert layers["experiments.nfv"]["calls"] == 2
    assert layers["net.dut_build"]["calls"] == 2
    assert layers["net.microsim"]["count"] == 2 * SMALL_NFV["micro_packets"]
    assert layers["net.queueing"]["count"] == (
        2 * SMALL_NFV["runs"] * SMALL_NFV["n_bulk_packets"]
    )
    _accounts_for_wall_time(layers)


def test_self_time_excludes_children_and_nested_same_name_counts_once():
    tracer = Tracer()
    tracer.spans = [
        ["outer", 0, 100, -1, 0],
        ["inner", 10, 40, 0, 3],
        ["outer", 50, 70, 0, 0],
    ]
    layers = tracer.layer_totals()
    assert layers["outer"]["self_s"] == pytest.approx(70e-9)
    assert layers["outer"]["total_s"] == pytest.approx(100e-9)
    assert layers["inner"]["self_s"] == pytest.approx(30e-9)
    assert layers["inner"]["count"] == 3
