"""The fleet front end: cluster, ring membership and the cell entry.

:class:`FleetCluster` owns N :class:`~repro.fleet.server.FleetServer`
instances and a :class:`~repro.fleet.ring.ConsistentHashRing` with one
entry per server.  :func:`run_fleet_cell` validates one cell's
arguments and drives a Zipf traffic stream through the fleet's one
serving loop, :func:`~repro.fleet.healing.run_healing_cell`:

1. requests are processed in epochs, in arrival order;
2. each request routes by consistent hash of ``(tenant, key)``, waits
   for its server to drain its queue (one simulated clock per server),
   then pays the full cache-simulated KVS service cost on that
   server's hierarchy;
3. at every epoch boundary the chaos clock may kill whole servers
   (site ``fleet.server_kill``).

The healing config picks one of two membership models.  A trivial
config re-shards: a killed server leaves the ring and only its keys
move — to their ring successors, whose caches are cold for them, which
is exactly the tail inflation + recovery the ``fleet-failover``
experiment measures.  Any other config keeps static replica sets and a
pre-drawn outage schedule (see :mod:`repro.fleet.healing`).

Determinism contract: server layouts derive per-server seeds from the
cell seed, kills draw from the plan's dedicated per-site stream (zero
rates draw nothing), and routing is hash-based — so a cell result is a
pure function of ``(params, seed, plan, healing)``, a persisted plan
replays bit-exactly, and a zero-rate plan is bit-identical to no plan
at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.faults.plan import resolve_plan
from repro.fleet.ring import ConsistentHashRing, key_positions
from repro.fleet.server import FleetServer
from repro.fleet.traffic import TrafficBatch
from repro.lab.spec import derive_seed
from repro.stats.percentiles import LatencySummary

#: The tail percentiles the fleet experiments report.
FLEET_PERCENTILES = (50.0, 99.0, 99.9)


@dataclass(frozen=True)
class FleetClusterConfig:
    """Shape and budgets of one simulated fleet."""

    n_servers: int
    n_tenants: int
    n_keys: int = 1 << 12
    vnodes: int = 64
    tenant_ways: Optional[int] = None
    ddio_ways: Optional[int] = None
    engine: str = "fast"

    def __post_init__(self) -> None:
        if self.n_servers <= 0:
            raise ValueError(
                f"n_servers must be positive, got {self.n_servers}"
            )
        if self.n_tenants <= 0:
            raise ValueError(
                f"n_tenants must be positive, got {self.n_tenants}"
            )
        if self.n_keys <= 1:
            raise ValueError(f"n_keys must be > 1, got {self.n_keys}")


class FleetCluster:
    """N simulated servers behind a consistent-hash load balancer."""

    def __init__(self, config: FleetClusterConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed
        self.servers: List[FleetServer] = [
            FleetServer(
                server_id,
                n_tenants=config.n_tenants,
                n_keys=config.n_keys,
                seed=derive_seed(seed, "fleet-server", server_id),
                tenant_ways=config.tenant_ways,
                ddio_ways=config.ddio_ways,
                engine=config.engine,
            )
            for server_id in range(config.n_servers)
        ]
        self._by_name: Dict[str, FleetServer] = {
            server.name: server for server in self.servers
        }
        self.ring = ConsistentHashRing(vnodes=config.vnodes)
        for server in self.servers:
            self.ring.add_node(server.name)

    @property
    def alive_servers(self) -> List[FleetServer]:
        """Servers still on the ring, in id order."""
        return [server for server in self.servers if server.alive]

    def server(self, name: str) -> FleetServer:
        """Look up one server by ring name."""
        return self._by_name[name]

    def kill_server(self, name: str, request_index: int) -> None:
        """Remove one server from service and from the ring.

        The re-sharding fleet must keep serving, so killing the last
        alive server is refused.
        """
        server = self._by_name[name]
        if not server.alive:
            raise ValueError(f"{name} is already dead")
        if len(self.alive_servers) <= 1:
            raise ValueError("cannot kill the last alive server")
        server.kill(request_index)
        self.ring.remove_node(name)

    def route_epoch(self, batch: TrafficBatch) -> List[FleetServer]:
        """Owning server per request under the current membership."""
        owners = self.ring.route_positions(
            key_positions(batch.tenants, batch.keys)
        )
        nodes = self.ring.nodes
        return [self._by_name[nodes[int(i)]] for i in owners]


@dataclass
class FleetKillEvent:
    """One chaos server kill, for the persisted payload."""

    epoch: int
    request_index: int
    server: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "request_index": self.request_index,
            "server": self.server,
        }


@dataclass
class FleetRunResult:
    """Outcome of one fleet cell (one shape × one plan)."""

    n_servers: int
    n_tenants: int
    requests: int
    measured: int
    goodput_mrps: float
    offered_mrps: float
    duration_ms: float
    summary: LatencySummary
    tenant_summaries: List[LatencySummary]
    window_p99_us: List[float]
    server_stats: List[Dict[str, Any]]
    kills: List[FleetKillEvent] = field(default_factory=list)
    alive_at_end: int = 0
    fault_counters: Optional[Dict[str, int]] = None
    #: Self-healing telemetry (detector/replication/admission); only
    #: emitted under the replicated membership model, so trivial-config
    #: payloads — and the goldens that embed them — carry no such key.
    self_healing: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the persisted cell payload)."""
        payload: Dict[str, Any] = {
            "n_servers": self.n_servers,
            "n_tenants": self.n_tenants,
            "requests": self.requests,
            "measured": self.measured,
            "goodput_mrps": self.goodput_mrps,
            "offered_mrps": self.offered_mrps,
            "duration_ms": self.duration_ms,
            "latency_us": self.summary.to_dict(),
            "tenants": [s.to_dict() for s in self.tenant_summaries],
            "window_p99_us": list(self.window_p99_us),
            "servers": list(self.server_stats),
            "kills": [k.to_dict() for k in self.kills],
            "alive_at_end": self.alive_at_end,
        }
        if self.fault_counters is not None:
            payload["fault_counters"] = self.fault_counters
        if self.self_healing is not None:
            payload["self_healing"] = self.self_healing
        return payload


def run_fleet_cell(
    n_servers: int,
    n_tenants: int,
    requests: int = 4000,
    warmup: int = 800,
    n_keys: int = 1 << 12,
    theta: float = 0.99,
    get_fraction: float = 0.95,
    offered_mrps: float = 2.0,
    vnodes: int = 64,
    epoch_requests: int = 500,
    tenant_ways: Optional[int] = None,
    ddio_ways: Optional[int] = None,
    engine: str = "fast",
    seed: int = 0,
    plan: Optional[object] = None,
    dataplane: str = "scalar",
    healing: Optional[object] = None,
) -> FleetRunResult:
    """Simulate one fleet shape under one (optional) fault plan.

    The first *warmup* requests are served but excluded from the
    latency/goodput statistics (cold caches).  ``plan`` — a
    :class:`~repro.faults.plan.FaultPlan` or its persisted dict form —
    arms the fleet fault sites; ``None`` or all-zero rates leave every
    code path and RNG stream untouched.  ``dataplane`` selects how each
    server charges an epoch's requests: ``"scalar"`` serves one request
    at a time (the reference), ``"batched"`` replays every server's op
    stream in one flattened engine pass
    (:meth:`FleetServer.serve_batch`) — results are bit-identical
    because routing, queueing and kill draws never depend on cache
    timing.

    ``healing`` — a :class:`~repro.fleet.healing.SelfHealingConfig`,
    its dict form, or ``None`` for the default — selects the membership
    model of the serving loop.  A trivial config (R=1, detector off, no
    admission control or shedding) re-shards a killed server's keys
    over the live ring; it honours only the ``fleet.server_kill`` site,
    so a plan arming stalls or recoveries is rejected.  Any other config
    adds replication, failure detection, recovery and admission control
    (:func:`~repro.fleet.healing.run_healing_cell`).
    """
    from repro.fleet.healing import resolve_healing, run_healing_cell

    if dataplane not in ("scalar", "batched"):
        raise ValueError(
            f"dataplane must be 'scalar' or 'batched', got {dataplane!r}"
        )
    if requests <= 0:
        raise ValueError(f"requests must be positive, got {requests}")
    if not 0 <= warmup < requests:
        raise ValueError(
            f"warmup must be in [0, requests), got {warmup}/{requests}"
        )
    if epoch_requests <= 0:
        raise ValueError(
            f"epoch_requests must be positive, got {epoch_requests}"
        )
    config = resolve_healing(healing)
    resolved = resolve_plan(plan)
    if config.is_trivial and resolved is not None:
        ignored: List[str] = []
        if resolved.rates.server_stall > 0.0:
            ignored.append("fleet.server_stall")
        if resolved.rates.server_recovery_epochs_max > 0:
            ignored.append("fleet.server_recovery")
        if ignored:
            raise ValueError(
                f"plan arms {', '.join(ignored)}, which a trivial healing "
                "config ignores; pass a non-trivial healing config "
                "(replication, detector, admission or shedding)"
            )
    return run_healing_cell(
        n_servers=n_servers,
        n_tenants=n_tenants,
        requests=requests,
        warmup=warmup,
        n_keys=n_keys,
        theta=theta,
        get_fraction=get_fraction,
        offered_mrps=offered_mrps,
        vnodes=vnodes,
        epoch_requests=epoch_requests,
        tenant_ways=tenant_ways,
        ddio_ways=ddio_ways,
        engine=engine,
        seed=seed,
        plan=resolved,
        dataplane=dataplane,
        healing=config,
    )
