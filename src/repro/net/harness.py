"""The LoadGen/DuT measurement harness (§5, Fig. 11).

The paper measures end-to-end latency black-box style: the LoadGen
timestamps packets, the DuT processes them, and the measured latency
decomposes into *loopback* (link + LoadGen overhead, measured
separately and subtracted), *queueing at the DuT*, and *service time
at the DuT*.  CacheDirector only changes the last two.

The harness reproduces that decomposition:

1. **Microsimulation** — a sample of packets runs through the full
   DuT (:class:`~repro.net.chain.DutEnvironment`): NIC DMA via DDIO,
   PMD, service chain — on the cache simulator, yielding per-packet
   service cycles.
2. **Queueing** — an exact finite-buffer FIFO per RX queue
   (:func:`finite_queue_sim`): a packet is admitted iff fewer than
   ring-capacity packets are still in the system, i.e. the packet
   admitted ring-capacity places back has departed by its arrival;
   otherwise it is a drop.  (:func:`lindley_waits`, the
   infinite-buffer recursion, is only a test oracle.)  The NIC's
   per-packet floor (wire + PCIe/DDIO overhead — the cause of the
   ~76 Gbps ceiling the paper attributes to the Mellanox NIC, PCIe
   and DDIO) bounds each queue's drain rate.
3. **Composition** — latency = loopback + wait + service; summaries
   use the paper's percentiles.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.chain import DutEnvironment
from repro.net.packet import Packet
from repro.stats.percentiles import LatencySummary, summarize_latencies

#: Loopback latency floor the paper measured for the 100 Gbps runs.
LOOPBACK_100G_US = 495.0

#: Loopback latency floor for the low-rate runs (Fig. 12).
LOOPBACK_LOW_RATE_US = 9.0


@dataclass
class NicModel:
    """Per-packet floor and fixed latency of the NIC/PCIe path.

    ``overhead_ns`` models one RX queue's share of the per-packet
    PCIe/DDIO transaction cost that caps packet rates on the testbed's
    ConnectX-4 ("the ~76 Gbps limit … due to the Mellanox NIC's
    limitation for packets smaller than 512 B and other architectural
    limitations such as PCIe and DDIO", §5.1.2); the wire term is the
    100 Gbps serialisation time.  ``fixed_latency_ns`` is the NIC
    hardware pipeline latency (DMA engines, doorbells) every packet
    pays regardless of load.
    """

    link_gbps: float = 100.0
    overhead_ns: float = 490.0
    fixed_latency_ns: float = 4000.0

    def floor_ns(self, sizes_bytes: np.ndarray) -> np.ndarray:
        """Minimum per-packet occupancy of one RX queue, in ns."""
        return sizes_bytes * 8.0 / self.link_gbps + self.overhead_ns


def lindley_waits(
    arrivals_ns: np.ndarray,
    services_ns: np.ndarray,
    cap_ns: Optional[float] = None,
) -> np.ndarray:
    """FIFO waiting times for one queue via the Lindley recursion.

    ``W[0] = 0; W[i] = max(0, W[i-1] + S[i-1] - (A[i] - A[i-1]))``,
    computed in O(n) with prefix sums: with
    ``X[i] = S[i-1] - (A[i]-A[i-1])`` and ``C = cumsum(X)``,
    ``W[i] = C[i] - min(0, min_{j<=i} C[j])`` *restarted* at every
    point where the queue empties — which the prefix-min formulation
    handles automatically.

    Args:
        arrivals_ns: non-decreasing arrival times.
        services_ns: per-packet service durations.
        cap_ns: optional cap on waiting time (finite buffer): waits are
            clipped, modelling drop-from-tail once the ring is full.
    """
    arrivals = np.asarray(arrivals_ns, dtype=float)
    services = np.asarray(services_ns, dtype=float)
    if arrivals.shape != services.shape:
        raise ValueError("arrivals and services must have equal length")
    n = arrivals.size
    if n == 0:
        return np.zeros(0)
    if np.any(np.diff(arrivals) < 0):
        raise ValueError("arrival times must be non-decreasing")
    x = services[:-1] - np.diff(arrivals)
    c = np.concatenate(([0.0], np.cumsum(x)))
    running_min = np.minimum.accumulate(np.minimum(c, 0.0))
    waits = c - running_min
    if cap_ns is not None:
        np.clip(waits, 0.0, cap_ns, out=waits)
    return waits


def finite_queue_sim(
    arrivals_ns: np.ndarray,
    services_ns: np.ndarray,
    capacity: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact FIFO single-server queue with a finite buffer.

    An arrival finding *capacity* packets in the system (in service +
    waiting) is dropped — the RX ring is full and the NIC overwrites
    nothing.  Arrivals must be finite and non-decreasing and services
    finite and non-negative, so departures never decrease.  Returns
    ``(waits_ns, dropped)`` where waits of dropped packets are NaN.

    This is the overload-regime model: unlike a wait-clipped Lindley
    recursion it yields the correct ~``1 - capacity_ratio`` drop
    fraction and keeps the delivered packets' latency at the ring-full
    plateau the paper's 100 Gbps runs sit on.
    """
    arrivals = np.asarray(arrivals_ns, dtype=float)
    services = np.asarray(services_ns, dtype=float)
    if arrivals.shape != services.shape:
        raise ValueError("arrivals and services must have equal length")
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    # Departures are non-decreasing, so at least *capacity* packets are
    # still in the system iff the one admitted *capacity* places back
    # has not left yet: only the last *capacity* departures matter.
    # With finite arrivals an admitted wait is never NaN, so NaN alone
    # marks a drop.
    recent: Deque[float] = deque(maxlen=capacity)
    waits_list: List[float] = []
    last_departure = 0.0
    for t, service in zip(arrivals.tolist(), services.tolist()):
        if len(recent) == capacity and recent[0] > t:
            waits_list.append(math.nan)
            continue
        start = t if t > last_departure else last_departure
        waits_list.append(start - t)
        last_departure = start + service
        recent.append(last_departure)
    waits = np.array(waits_list, dtype=float)
    dropped = np.isnan(waits)
    return waits, dropped


@dataclass
class LatencyRunResult:
    """One run of the latency experiment."""

    latencies_us: np.ndarray
    summary: LatencySummary
    achieved_gbps: float
    offered_gbps: float
    drop_fraction: float
    #: Useful-bit throughput: like :attr:`achieved_gbps` but excluding
    #: packets the fault layer marked non-goodput (duplicates, frames
    #: with injected corruption).  Equal to ``achieved_gbps`` in
    #: fault-free runs.
    goodput_gbps: float = 0.0


def simulate_queueing_latency(
    arrivals_ns: np.ndarray,
    sizes_bytes: np.ndarray,
    queue_ids: np.ndarray,
    service_ns: np.ndarray,
    n_queues: int,
    nic: Optional[NicModel] = None,
    ring_capacity: int = 1024,
    loopback_us: float = LOOPBACK_100G_US,
    subtract_loopback: bool = True,
    goodput: Optional[np.ndarray] = None,
) -> LatencyRunResult:
    """End-to-end latency for a steered packet stream.

    Args:
        arrivals_ns: packet arrival times at the DuT.
        sizes_bytes: frame sizes.
        queue_ids: RX queue per packet (from RSS / FlowDirector).
        service_ns: per-packet core service times (microsim samples).
        n_queues: number of RX queues / cores.
        nic: per-packet NIC floor model; effective service is the max
            of core time and NIC floor.
        ring_capacity: RX ring depth — bounds the queueing delay; the
            excess arrival mass is counted as drops.
        loopback_us: loopback latency added to every packet.
        subtract_loopback: report latencies with the loopback *minimum*
            removed, as most paper figures do.
        goodput: optional per-packet boolean mask from the fault layer;
            ``False`` packets (duplicates, corrupted frames) still
            occupy the queue but are excluded from the goodput
            throughput figure.  ``None`` means every delivered packet
            is goodput.
    """
    nic = nic if nic is not None else NicModel()
    arrivals = np.asarray(arrivals_ns, dtype=float)
    sizes = np.asarray(sizes_bytes, dtype=float)
    queues = np.asarray(queue_ids)
    service = np.asarray(service_ns, dtype=float)
    if not (arrivals.shape == sizes.shape == queues.shape == service.shape):
        raise ValueError("all per-packet arrays must have equal length")
    effective = np.maximum(service, nic.floor_ns(sizes))
    latencies = np.empty_like(arrivals)
    dropped = np.zeros(arrivals.shape, dtype=bool)
    # Group packets by queue once (stable, so each queue keeps arrival
    # order) instead of masking the whole stream per queue.
    order = np.argsort(queues, kind="stable")
    bounds = np.searchsorted(queues[order], np.arange(n_queues + 1))
    for queue in range(n_queues):
        idx = order[bounds[queue] : bounds[queue + 1]]
        if idx.size == 0:
            continue
        qa = arrivals[idx]
        qs = effective[idx]
        waits, q_dropped = finite_queue_sim(qa, qs, capacity=ring_capacity)
        dropped[idx] = q_dropped
        latencies[idx] = waits + qs + nic.fixed_latency_ns
    kept = ~dropped
    duration_s = (arrivals.max() - arrivals.min()) / 1e9 if arrivals.size > 1 else 1.0
    achieved_gbps = float(sizes[kept].sum() * 8 / max(duration_s, 1e-12) / 1e9)
    offered_gbps = float(sizes.sum() * 8 / max(duration_s, 1e-12) / 1e9)
    if goodput is None:
        goodput_gbps = achieved_gbps
    else:
        good = np.asarray(goodput, dtype=bool)
        if good.shape != arrivals.shape:
            raise ValueError("goodput mask must match the per-packet arrays")
        goodput_gbps = float(
            sizes[kept & good].sum() * 8 / max(duration_s, 1e-12) / 1e9
        )
    latencies_us = latencies[kept] / 1e3
    if not subtract_loopback:
        latencies_us = latencies_us + loopback_us
    summary = summarize_latencies(latencies_us)
    return LatencyRunResult(
        latencies_us=latencies_us,
        summary=summary,
        achieved_gbps=achieved_gbps,
        offered_gbps=offered_gbps,
        drop_fraction=float(dropped.mean()),
        goodput_gbps=goodput_gbps,
    )


def sample_service_distribution(
    env: DutEnvironment,
    packets: Sequence[Packet],
    queues: Sequence[int],
) -> np.ndarray:
    """Microsimulate *packets* and return service times in ns.

    Dropped packets (pool exhaustion — rare in microsim, where the
    packets run synchronously) are excluded.
    """
    freq_ghz = env.config.spec.freq_ghz
    cycles = env.service_cycles(list(packets), list(queues))
    return np.array([c / freq_ghz for c in cycles if c is not None])


def bootstrap_service_ns(
    samples_ns: np.ndarray,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Resample a measured service-time distribution to *count* draws."""
    if samples_ns.size == 0:
        raise ValueError("no service-time samples")
    return rng.choice(samples_ns, size=count, replace=True)
