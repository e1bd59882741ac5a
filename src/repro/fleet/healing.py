"""Self-healing fleet: the serving loop and its two membership models.

:func:`run_healing_cell` is the fleet's one serving loop (reached
through :func:`repro.fleet.cluster.run_fleet_cell`).  The healing
config picks how membership works:

* **Trivial config** (R=1, detector off, no admission control or
  shedding) — the *re-sharding* model.  At each epoch boundary after
  the first, kills are drawn per alive server in id order (site
  ``fleet.server_kill``) and the last alive server is never killed; a
  killed server leaves the ring and its keys re-shard to their owner on
  the live ring.  No outage schedule is drawn and no ``self_healing``
  telemetry is emitted.
* **Any other config** — the *replicated* model, which adds four
  mechanisms on top of the same servers, ring and traffic stream:

  * **R-way replication** — every ``(tenant, key)`` pair maps to the
    ``replication`` first *distinct* servers clockwise from its ring
    slot (:meth:`~repro.fleet.ring.ConsistentHashRing.successors_at`).
    Replica sets are computed on the **full static ring** so they nest
    across R (``R`` replicas are a prefix of ``R+1``'s) and stay fixed
    as membership beliefs change; failover walks the set in order.
  * **Transient failures + recovery** — whole-server kills and gray
    stalls come from a pre-drawn
    :class:`~repro.faults.streams.OutageSchedule` (nested sampling:
    fire sets are intensity-supersets).  A kill with a recovery delay
    reboots the server cold after the delay — the hierarchy and every
    tenant's KVS are re-provisioned, so the rejoin re-warm is genuine
    simulated work.  Unlike the re-sharding model there is **no
    last-server kill guard**: a guard would break the monotone
    lost-key curves (whether a server is "last alive" depends on which
    other kills fired, so guarded fire sets stop nesting), and total
    outage is a well-defined measured state — requests simply count as
    unavailable.
  * **Heartbeat failure detection** — a deterministic phi-accrual-style
    detector: every alive, non-stalled server beats once per epoch;
    ``phi = elapsed / (mean_gap * ln 10)`` over a sliding window of
    observed gaps, and a server whose phi exceeds the threshold is
    *suspected* (clients stop trying it, so gray servers shed traffic).
    Stalled servers beat late, which inflates the window mean and slows
    future detection — the classic gray-failure cost, made measurable.
    A suspected server rejoins after ``rejoin_heartbeats`` consecutive
    on-time beats.
  * **Admission control** — a per-tenant token bucket over arrival time
    plus a per-server queue-lag watermark with hysteresis, both
    evaluated only at epoch boundaries / from arrival times so decisions
    never depend on cache timing (which is what keeps the scalar and
    batched dataplanes bit-identical).

Determinism contract: all randomness is drawn through the plan's
:class:`~repro.faults.plan.FaultClock` per-site streams (per-epoch kill
draws in the re-sharding model, the upfront outage schedule in the
replicated one); everything else is a pure function of the arrival
stream and epoch-boundary state.  A persisted plan replays bit-exactly,
and a default config gives the same payload as no config at all.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.faults.plan import FaultClock, FaultPlan
from repro.faults.streams import OutageSchedule, draw_outage_schedule
from repro.fleet.cluster import (
    FLEET_PERCENTILES,
    FleetCluster,
    FleetClusterConfig,
    FleetKillEvent,
    FleetRunResult,
)
from repro.fleet.ring import ConsistentHashRing, key_positions
from repro.fleet.server import FleetServer
from repro.fleet.traffic import REFERENCE_FREQ_GHZ, FleetTrafficGenerator
from repro.stats.percentiles import LatencySummary, summarize_latencies

_LN10 = math.log(10.0)


@dataclass(frozen=True)
class SelfHealingConfig:
    """Knobs for the self-healing serving loop.

    The defaults are all-off: ``replication=1``, detector disabled, no
    admission control.  Such a *trivial* config selects the re-sharding
    membership model and emits no ``self_healing`` telemetry — so
    passing a default config is byte-identical to passing no config at
    all.  Any other config selects the replicated model.
    """

    #: Distinct servers per key (R).  1 = no replication.
    replication: int = 1
    #: Arm the heartbeat failure detector.  Off = perfect knowledge
    #: (clients skip dead servers instantly, no detection lag).
    detector_enabled: bool = False
    #: Suspicion threshold on phi; ~0.8 suspects after ~2 missed beats.
    phi_threshold: float = 0.8
    #: Sliding window of observed heartbeat gaps (epochs).
    heartbeat_window: int = 8
    #: Consecutive on-time beats before a suspect rejoins.
    rejoin_heartbeats: int = 2
    #: Client-side cost (cycles) of timing out on a believed-up but
    #: dead replica before trying the next one.
    failover_timeout_cycles: float = 30_000.0
    #: Per-tenant token-bucket refill rate; ``None`` disables the
    #: bucket.
    admit_tenant_mrps: Optional[float] = None
    #: Token-bucket depth (burst allowance), in requests.
    admit_bucket_depth: float = 64.0
    #: Queue-lag watermark (µs) above which a server sheds new
    #: requests; ``None`` disables shedding.  Must be set together
    #: with :attr:`shed_lag_low_us`.
    shed_lag_high_us: Optional[float] = None
    #: Queue-lag watermark (µs) below which a shedding server resumes
    #: (hysteresis; evaluated at epoch boundaries only).
    shed_lag_low_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise ValueError(
                f"replication must be >= 1, got {self.replication}"
            )
        if self.phi_threshold <= 0:
            raise ValueError(
                f"phi_threshold must be positive, got {self.phi_threshold}"
            )
        if self.heartbeat_window < 1:
            raise ValueError(
                f"heartbeat_window must be >= 1, got {self.heartbeat_window}"
            )
        if self.rejoin_heartbeats < 1:
            raise ValueError(
                f"rejoin_heartbeats must be >= 1, got {self.rejoin_heartbeats}"
            )
        if self.failover_timeout_cycles < 0:
            raise ValueError("failover_timeout_cycles must be >= 0")
        if self.admit_tenant_mrps is not None and self.admit_tenant_mrps <= 0:
            raise ValueError("admit_tenant_mrps must be positive when set")
        if self.admit_bucket_depth <= 0:
            raise ValueError("admit_bucket_depth must be positive")
        if (self.shed_lag_high_us is None) != (self.shed_lag_low_us is None):
            raise ValueError(
                "shed_lag_high_us and shed_lag_low_us must be set together"
            )
        if self.shed_lag_high_us is not None:
            low = self.shed_lag_low_us
            assert low is not None
            if not 0 <= low <= self.shed_lag_high_us:
                raise ValueError(
                    "need 0 <= shed_lag_low_us <= shed_lag_high_us, got "
                    f"{low}/{self.shed_lag_high_us}"
                )

    @property
    def is_trivial(self) -> bool:
        """Whether this config selects the re-sharding membership model."""
        return (
            self.replication == 1
            and not self.detector_enabled
            and self.admit_tenant_mrps is None
            and self.shed_lag_high_us is None
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (persisted with experiment artifacts)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SelfHealingConfig":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown self-healing config keys: {sorted(unknown)}"
            )
        return cls(**data)


def resolve_healing(healing: Optional[object]) -> SelfHealingConfig:
    """Normalise a healing argument into a config.

    Accepts ``None`` (the default, trivial config), a
    :class:`SelfHealingConfig`, or its dict form.
    """
    if healing is None:
        return SelfHealingConfig()
    if isinstance(healing, SelfHealingConfig):
        return healing
    if isinstance(healing, dict):
        return SelfHealingConfig.from_dict(healing)
    raise TypeError(
        f"healing must be SelfHealingConfig, dict or None, "
        f"got {type(healing).__name__}"
    )


class HeartbeatDetector:
    """Deterministic phi-accrual-style failure detector.

    One heartbeat per alive, non-stalled server per epoch.  For a
    server that has not beaten for ``elapsed`` epochs with a windowed
    mean observed gap ``g``, the suspicion level is
    ``phi = elapsed / (g * ln 10)`` — the shape of phi-accrual with an
    exponential inter-arrival model, with the window mean standing in
    for the fitted scale so the detector is a pure function of the
    beat history (no clocks, no RNG).
    """

    def __init__(self, n_servers: int, config: SelfHealingConfig) -> None:
        self.config = config
        self.n_servers = n_servers
        self.believed_down: Set[int] = set()
        self._last_beat = [0] * n_servers
        self._streak = [0] * n_servers
        self._gaps: List[Deque[float]] = [
            deque(maxlen=config.heartbeat_window) for _ in range(n_servers)
        ]

    def mean_gap(self, server_id: int) -> float:
        """Windowed mean observed heartbeat gap (1.0 before any beat)."""
        window = self._gaps[server_id]
        if not window:
            return 1.0
        return sum(window) / len(window)

    def phi(self, server_id: int, epoch: int) -> float:
        """Current suspicion level for one server."""
        elapsed = epoch - self._last_beat[server_id]
        return elapsed / (self.mean_gap(server_id) * _LN10)

    def observe_epoch(
        self, epoch: int, beating: Sequence[bool]
    ) -> Tuple[List[int], List[int]]:
        """Process one epoch boundary's heartbeats.

        ``beating[s]`` says whether server *s* delivered an on-schedule
        beat this epoch (alive and not stalled).  Returns the ids
        newly suspected and newly rejoined, in id order.
        """
        suspected: List[int] = []
        rejoined: List[int] = []
        for sid in range(self.n_servers):
            if beating[sid]:
                gap = float(epoch - self._last_beat[sid])
                if gap > 0:
                    # Late beats (gap > 1) enter the window too: a gray
                    # server's slow beats inflate the mean and slow
                    # *future* detection — the gray-failure cost.
                    self._gaps[sid].append(gap)
                    self._last_beat[sid] = epoch
                    self._streak[sid] = (
                        self._streak[sid] + 1 if gap <= 1.0 else 1
                    )
                if (
                    sid in self.believed_down
                    and self._streak[sid] >= self.config.rejoin_heartbeats
                ):
                    self.believed_down.discard(sid)
                    rejoined.append(sid)
                continue
            self._streak[sid] = 0
            if sid in self.believed_down:
                continue
            if self.phi(sid, epoch) > self.config.phi_threshold:
                self.believed_down.add(sid)
                suspected.append(sid)
        return suspected, rejoined


class TokenBucketAdmission:
    """Per-tenant token bucket over *arrival* time (timing-free).

    Refill is proportional to inter-arrival cycles at the reference
    clock, so admit/reject decisions are a pure function of the
    traffic stream — identical under both dataplanes by construction.
    """

    def __init__(
        self,
        n_tenants: int,
        rate_mrps: float,
        depth: float,
        freq_ghz: float = REFERENCE_FREQ_GHZ,
    ) -> None:
        if rate_mrps <= 0:
            raise ValueError(f"rate_mrps must be positive, got {rate_mrps}")
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        #: Tokens per reference cycle (mrps = 1e6 req/s; GHz = 1e9 c/s).
        self.rate_per_cycle = rate_mrps / (freq_ghz * 1e3)
        self.depth = depth
        self._tokens = [depth] * n_tenants
        self._last_arrival = [0.0] * n_tenants

    def admit(self, tenant: int, arrival_cycles: float) -> bool:
        """Consume one token for *tenant* if available."""
        gained = (arrival_cycles - self._last_arrival[tenant]) * (
            self.rate_per_cycle
        )
        self._last_arrival[tenant] = arrival_cycles
        tokens = min(self.depth, self._tokens[tenant] + gained)
        if tokens >= 1.0:
            self._tokens[tenant] = tokens - 1.0
            return True
        self._tokens[tenant] = tokens
        return False


def lost_key_fraction(
    ring: ConsistentHashRing,
    alive: Sequence[bool],
    n_tenants: int,
    n_keys: int,
    replication: int,
) -> float:
    """Fraction of ``(tenant, key)`` pairs with every replica dead.

    Exact (full key-space enumeration), vectorised per unique ring
    slot.  ``alive`` is indexed like :attr:`ring.nodes`.  Because
    replica sets nest in R and dead sets nest in kill intensity (for
    permanent kills under nested sampling), the result is monotone
    non-increasing in ``replication`` and non-decreasing in intensity.
    """
    if len(alive) != len(ring):
        raise ValueError(
            f"alive has {len(alive)} entries for a {len(ring)}-node ring"
        )
    tenants = np.repeat(np.arange(n_tenants, dtype=np.uint64), n_keys)
    keys = np.tile(np.arange(n_keys, dtype=np.uint64), n_tenants)
    slots = ring.slot_positions(key_positions(tenants, keys))
    unique, counts = np.unique(slots, return_counts=True)
    lost = 0
    for slot, count in zip(unique, counts):
        owners = ring.successors_at(int(slot), replication)
        if not any(alive[owner] for owner in owners):
            lost += int(count)
    return lost / float(tenants.size)


@dataclass
class _WorkItem:
    """One unit of chargeable work on one server (phase A output)."""

    request: int
    tenant: int
    key: int
    is_get: bool
    bearing: bool  # whether this item defines the request's latency
    penalty: float = 0.0  # failover timeouts paid before the bearing try


def run_healing_cell(
    *,
    n_servers: int,
    n_tenants: int,
    requests: int,
    warmup: int,
    n_keys: int,
    theta: float,
    get_fraction: float,
    offered_mrps: float,
    vnodes: int,
    epoch_requests: int,
    tenant_ways: Optional[int],
    ddio_ways: Optional[int],
    engine: str,
    seed: int,
    plan: Optional[FaultPlan],
    dataplane: str,
    healing: SelfHealingConfig,
) -> FleetRunResult:
    """Simulate one fleet cell: the fleet's one serving loop.

    Arguments arrive validated and resolved from
    :func:`~repro.fleet.cluster.run_fleet_cell`, the public entry
    point.  Structured as three phases per epoch so the scalar and
    batched dataplanes are bit-identical by construction:

    * **Phase A (decisions)** — admission, routing, replica walk,
      failover and hint recording.  Every input (arrival times,
      aliveness, beliefs, shed flags) is frozen at the epoch boundary,
      so decisions never depend on cache timing.
    * **Phase B (charging)** — each server charges its work items in
      arrival order: one :meth:`~repro.fleet.server.FleetServer.serve`
      call per item (scalar) or one
      :meth:`~repro.fleet.server.FleetServer.serve_batch` (batched) —
      documented bit-identical per request.
    * **Phase C (queueing)** — per-server FIFO fold over the charged
      cycles, applying the gray-stall service multiplier and failover
      penalties; the bearing item's finish defines request latency.
    """
    config = healing
    # A trivial config keeps the re-sharding membership model: per-epoch
    # kill draws, and a killed server leaves the live ring.
    reshard = config.is_trivial
    clock = (
        FaultClock(plan)
        if plan is not None and plan.rates.any_active
        else None
    )
    n_epochs = (requests + epoch_requests - 1) // epoch_requests
    schedule: Optional[OutageSchedule] = None
    if (
        not reshard
        and clock is not None
        and (clock.rates.server_kill > 0.0 or clock.rates.server_stall > 0.0)
    ):
        schedule = draw_outage_schedule(clock, n_epochs, n_servers)

    cluster_config = FleetClusterConfig(
        n_servers=n_servers,
        n_tenants=n_tenants,
        n_keys=n_keys,
        vnodes=vnodes,
        tenant_ways=tenant_ways,
        ddio_ways=ddio_ways,
        engine=engine,
    )
    cluster = FleetCluster(cluster_config, seed=seed)
    servers = cluster.servers
    # A runtime CacheSanitizer needs its checks interleaved with the
    # accesses they guard; deferred replay breaks that, so charge
    # scalar (identical results, no speedup) when one is on.
    use_batched = dataplane == "batched" and all(
        server.context.hierarchy.sanitizer is None for server in servers
    )
    generator = FleetTrafficGenerator(
        n_tenants=n_tenants,
        n_keys=n_keys,
        theta=theta,
        get_fraction=get_fraction,
        offered_mrps=offered_mrps,
        seed=seed + 17,
    )
    batch = generator.generate(requests)

    # Replicated model: replica sets live on the full static ring,
    # successor walks cached per unique slot.
    replica_cache: Dict[int, List[int]] = {}

    def replicas_of(slot: int) -> List[int]:
        cached = replica_cache.get(slot)
        if cached is None:
            cached = cluster.ring.successors_at(slot, config.replication)
            replica_cache[slot] = cached
        return cached

    detector = (
        HeartbeatDetector(n_servers, config)
        if config.detector_enabled
        else None
    )
    believed_down: Set[int] = set()
    admission = (
        TokenBucketAdmission(
            n_tenants,
            config.admit_tenant_mrps,
            config.admit_bucket_depth,
        )
        if config.admit_tenant_mrps is not None
        else None
    )
    shedding: Set[int] = set()

    latencies_us = np.full(requests, np.nan)
    finishes = np.full(requests, np.nan)
    kills: List[FleetKillEvent] = []
    stall_log: List[Dict[str, int]] = []
    reboot_log: List[Dict[str, Any]] = []
    detections: List[Dict[str, Any]] = []
    rejoins: List[Dict[str, Any]] = []
    hints: List[List[Tuple[int, int]]] = [[] for _ in range(n_servers)]
    pending_event: Dict[int, Tuple[int, str]] = {}
    counters = {
        "served": 0,
        "rejected": 0,
        "shed": 0,
        "unavailable": 0,
        "failovers": 0,
        "hints_recorded": 0,
        "hints_replayed": 0,
        "reboots": 0,
        "stall_events": 0,
    }
    per_epoch: Dict[str, List[int]] = {
        key: [0] * n_epochs
        for key in ("served", "rejected", "shed", "unavailable")
    }
    believed_down_series: List[int] = [0] * n_epochs

    def record_kill(server: FleetServer, epoch: int, epoch_start: int) -> None:
        assert clock is not None
        clock.count("fleet.injected_server_kills")
        kills.append(
            FleetKillEvent(
                epoch=epoch, request_index=epoch_start, server=server.name
            )
        )

    def replay_hints(server: FleetServer, boundary_cycles: float) -> None:
        """Re-warm a rebooted server from its hint queue (in order)."""
        queued = hints[server.server_id]
        if not queued:
            return
        busy = boundary_cycles
        if use_batched:
            services = server.serve_batch(
                np.array([t for t, _ in queued], dtype=np.int64),
                np.array([k for _, k in queued], dtype=np.int64),
                np.zeros(len(queued), dtype=bool),
            )
            for service in services:
                busy += float(service)
        else:
            for tenant, key in queued:
                # Intentional scalar reference path (mirrors serve()).
                busy += float(server.serve(tenant, key, False))  # deepcheck: ignore[PERF001,PERF005]
        server.busy_until_cycles = busy
        counters["hints_replayed"] += len(queued)
        hints[server.server_id] = []

    for epoch_start in range(0, requests, epoch_requests):
        epoch = epoch_start // epoch_requests
        boundary_cycles = float(batch.arrivals_cycles[epoch_start])
        if epoch > 0:
            # 1. Recoveries due this boundary: reboot cold, replay hints.
            for server in servers:
                if (
                    not server.alive
                    and server.down_until_epoch > 0
                    and epoch >= server.down_until_epoch
                ):
                    server.reboot(epoch_start)
                    replay_hints(server, boundary_cycles)
                    counters["reboots"] += 1
                    reboot_log.append(
                        {"server": server.name, "epoch": epoch}
                    )
            # 2a. Re-sharding kills: one draw per alive server, in id
            # order.  The last alive server is never killed, and each
            # draw consumes exactly one uniform, so decisions stay a
            # pure function of the plan.
            if reshard and clock is not None:
                for server in servers:
                    if not server.alive:
                        continue
                    if len(cluster.alive_servers) <= 1:
                        break
                    if clock.fires(
                        "fleet.server_kill", clock.rates.server_kill
                    ):
                        cluster.kill_server(server.name, epoch_start)
                        record_kill(server, epoch, epoch_start)
            # 2b. Scheduled kills (no last-server guard — see module doc).
            if schedule is not None:
                for sid in range(n_servers):
                    server = servers[sid]
                    if schedule.kill_fires[epoch, sid] and server.alive:
                        server.kill(epoch_start)
                        delay = int(schedule.recovery_epochs[epoch, sid])
                        server.down_until_epoch = (
                            epoch + delay if delay > 0 else -1
                        )
                        pending_event[sid] = (epoch, "kill")
                        record_kill(server, epoch, epoch_start)
                # 3. Scheduled stalls (guarded: never gray the last
                # alive server — stalls do not feed the durability
                # curves, so the guard cannot break monotonicity).
                for sid in range(n_servers):
                    server = servers[sid]
                    if not (
                        schedule.stall_fires[epoch, sid] and server.alive
                    ):
                        continue
                    if len(cluster.alive_servers) <= 1:
                        continue
                    until = epoch + int(schedule.stall_epochs[epoch, sid])
                    if until > server.stalled_until_epoch:
                        server.stall(until)
                        assert clock is not None
                        clock.count("fleet.injected_server_stalls")
                        counters["stall_events"] += 1
                        if sid not in pending_event:
                            pending_event[sid] = (epoch, "stall")
                        stall_log.append(
                            {
                                "server_id": sid,
                                "epoch": epoch,
                                "until_epoch": until,
                            }
                        )
            # 4. Failure detection (or perfect knowledge).
            if detector is not None:
                beating = [
                    server.alive and not server.stalled_at(epoch)
                    for server in servers
                ]
                suspected, recovered = detector.observe_epoch(epoch, beating)
                believed_down = detector.believed_down
                for sid in suspected:
                    event = pending_event.pop(sid, None)
                    detections.append(
                        {
                            "server": servers[sid].name,
                            "kind": event[1] if event else "unknown",
                            "event_epoch": event[0] if event else None,
                            "detected_epoch": epoch,
                            "lag_epochs": (
                                epoch - event[0] if event else None
                            ),
                        }
                    )
                for sid in recovered:
                    pending_event.pop(sid, None)
                    rejoins.append(
                        {"server": servers[sid].name, "rejoin_epoch": epoch}
                    )
            else:
                believed_down = {
                    sid
                    for sid in range(n_servers)
                    if not servers[sid].alive
                }
            # Healthy beats clear stale pending events (stall ended
            # before the detector ever noticed).
            for sid in list(pending_event):
                server = servers[sid]
                if server.alive and not server.stalled_at(epoch):
                    if detector is None or sid not in believed_down:
                        del pending_event[sid]
            # 5. Queue-lag watermark shedding with hysteresis.
            if config.shed_lag_high_us is not None:
                low = config.shed_lag_low_us
                assert low is not None
                for server in servers:
                    lag_cycles = max(
                        0.0, server.busy_until_cycles - boundary_cycles
                    )
                    lag_us = server.latency_us(lag_cycles)
                    if lag_us > config.shed_lag_high_us:
                        shedding.add(server.server_id)
                    elif lag_us < low:
                        shedding.discard(server.server_id)
        believed_down_series[epoch] = len(believed_down)

        # ---- Phase A: decisions (timing-independent) ----------------
        epoch_stop = min(epoch_start + epoch_requests, requests)
        sub = batch.slice(epoch_start, epoch_stop)
        if reshard:
            # Live ring: a killed server's keys re-shard to their
            # current owner.
            routed = [[server.server_id] for server in cluster.route_epoch(sub)]
        else:
            routed = [
                replicas_of(slot)
                for slot in cluster.ring.slot_positions(
                    key_positions(sub.tenants, sub.keys)
                ).tolist()
            ]
        arrivals: List[float] = sub.arrivals_cycles.tolist()
        items: Dict[int, List[_WorkItem]] = {}
        rows = zip(
            sub.tenants.tolist(),
            sub.keys.tolist(),
            sub.is_get.tolist(),
            routed,
        )
        for offset, (tenant, key, is_get, replicas) in enumerate(rows):
            index = epoch_start + offset
            if admission is not None and not admission.admit(
                tenant, arrivals[offset]
            ):
                counters["rejected"] += 1
                per_epoch["rejected"][epoch] += 1
                continue
            # Walk the replica set: skip believed-down replicas for
            # free, pay a timeout on believed-up-but-dead ones, and
            # bear the request on the first believed-up live server.
            bearing_sid = -1
            penalty = 0.0
            for sid in replicas:
                if sid in believed_down:
                    continue
                if not servers[sid].alive:
                    penalty += config.failover_timeout_cycles
                    counters["failovers"] += 1
                    continue
                bearing_sid = sid
                break
            if bearing_sid < 0:
                counters["unavailable"] += 1
                per_epoch["unavailable"][epoch] += 1
                continue
            if bearing_sid in shedding:
                counters["shed"] += 1
                per_epoch["shed"][epoch] += 1
                continue
            counters["served"] += 1
            per_epoch["served"][epoch] += 1
            items.setdefault(bearing_sid, []).append(
                _WorkItem(index, tenant, key, is_get, True, penalty)
            )
            if not is_get:
                # SET fan-out: every other replica either serves the
                # write (live) or gets a hint for rejoin replay.
                for sid in replicas:
                    if sid == bearing_sid:
                        continue
                    if sid in believed_down or not servers[sid].alive:
                        hints[sid].append((tenant, key))
                        counters["hints_recorded"] += 1
                    else:
                        items.setdefault(sid, []).append(
                            _WorkItem(index, tenant, key, False, False)
                        )

        # ---- Phase B: charging ---- Phase C: queueing fold ----------
        for sid in sorted(items):
            server = servers[sid]
            work = items[sid]
            if use_batched:
                services = server.serve_batch(
                    np.array([w.tenant for w in work], dtype=np.int64),
                    np.array([w.key for w in work], dtype=np.int64),
                    np.array([w.is_get for w in work], dtype=bool),
                )
            else:
                # Intentional scalar reference path (one serve per item).
                services = [
                    float(server.serve(w.tenant, w.key, w.is_get))  # deepcheck: ignore[PERF001,PERF005]
                    for w in work
                ]
            factor = (
                clock.rates.server_stall_factor
                if clock is not None and server.stalled_at(epoch)
                else 1.0
            )
            busy = server.busy_until_cycles
            for item, service in zip(work, services):
                arrival = arrivals[item.request - epoch_start]
                effective = arrival + item.penalty
                start = effective if effective > busy else busy
                busy = start + float(service) * factor
                if item.bearing:
                    finishes[item.request] = busy
                    latencies_us[item.request] = server.latency_us(
                        busy - arrival
                    )
            server.busy_until_cycles = busy

    # ---- Statistics (served requests only) --------------------------
    measured_slice = slice(warmup, requests)
    measured_lat = latencies_us[measured_slice]
    served_mask = ~np.isnan(measured_lat)
    measured = int(served_mask.sum())
    if measured:
        duration_cycles = float(
            np.nanmax(finishes[measured_slice])
            - batch.arrivals_cycles[warmup]
        )
    else:
        duration_cycles = 0.0
    duration_s = duration_cycles / (REFERENCE_FREQ_GHZ * 1e9)
    goodput_mrps = measured / duration_s / 1e6 if duration_s > 0 else 0.0

    def summary_of(values: np.ndarray) -> LatencySummary:
        if values.size:
            return summarize_latencies(values, percentiles=FLEET_PERCENTILES)
        return LatencySummary(
            percentiles={q: 0.0 for q in FLEET_PERCENTILES},
            mean=0.0,
            count=0,
        )

    tenant_summaries: List[LatencySummary] = []
    measured_tenants = batch.tenants[measured_slice]
    for tenant in range(n_tenants):
        mask = (measured_tenants == tenant) & served_mask
        tenant_summaries.append(summary_of(measured_lat[mask]))

    window_p99: List[float] = []
    for window_start in range(warmup, requests, epoch_requests):
        window = latencies_us[
            window_start : min(window_start + epoch_requests, requests)
        ]
        window = window[~np.isnan(window)]
        # Served-only windows are ragged, so this stays a per-window
        # loop (the vectorised reshape needs rectangular windows).
        window_p99.append(  # deepcheck: ignore[PERF004]
            float(np.percentile(window, 99.0)) if window.size else 0.0
        )

    self_healing: Optional[Dict[str, Any]] = None
    if not reshard:
        self_healing = {
            "config": config.to_dict(),
            "counters": dict(counters),
            "per_epoch": {k: list(v) for k, v in per_epoch.items()},
            "believed_down_per_epoch": list(believed_down_series),
            "detections": detections,
            "rejoins": rejoins,
            "reboots": reboot_log,
            "stalls": [
                {
                    "server": servers[entry["server_id"]].name,
                    "epoch": entry["epoch"],
                    "until_epoch": entry["until_epoch"],
                }
                for entry in stall_log
            ],
            "believed_down_at_end": sorted(
                servers[sid].name for sid in believed_down
            ),
            "lost_key_fraction": lost_key_fraction(
                cluster.ring,
                [server.alive for server in servers],
                n_tenants,
                n_keys,
                config.replication,
            ),
        }

    return FleetRunResult(
        n_servers=n_servers,
        n_tenants=n_tenants,
        requests=requests,
        measured=measured,
        goodput_mrps=goodput_mrps,
        offered_mrps=offered_mrps,
        duration_ms=duration_s * 1e3,
        summary=summary_of(measured_lat[served_mask]),
        tenant_summaries=tenant_summaries,
        window_p99_us=window_p99,
        server_stats=[server.stats() for server in cluster.servers],
        kills=kills,
        alive_at_end=len(cluster.alive_servers),
        fault_counters=(
            clock.stats.to_dict() if clock is not None else None
        ),
        self_healing=self_healing,
    )
