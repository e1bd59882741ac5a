"""Outside-in span recorder for the traced benchmark run.

The benchmark never edits the program to trace it.  Instead,
:func:`instrument` replaces public entry points -- class attributes
such as ``FleetServer.serve`` and module functions such as
``repro.net.harness.simulate_queueing_latency`` -- with wrappers that
record one span per call, from the benchmark's own files only.  Spans
hold a name, start, end, parent and a work count; they stay in memory
and are written once, when the repetition ends.

A layer's self time is its span's duration minus the part covered by
its child spans.  The benchmark's root span (``bench.workload``) covers
the whole timed region, so its self time is the wall time no layer
accounts for.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Name of the span around the whole timed region of one repetition.
ROOT = "bench.workload"

# (module, owner attribute or None for a module function, attribute, span
# name, work-count function or None).  Each line is one boundary between
# the benchmark and a layer of the program; the span name is the layer.
_BOUNDARIES: List[Tuple[str, Optional[str], str, str, Optional[Callable]]] = [
    ("repro.net.chain", "DutEnvironment", "__init__", "net.dut_build", None),
    ("repro.core.cache_director", "CacheDirector", "precompute_udata",
     "core.precompute_udata", None),
    ("repro.cachesim.machines", None, "build_hierarchy",
     "cachesim.hierarchy_build", None),
    ("repro.fleet.cluster", "FleetCluster", "__init__", "fleet.cluster_build", None),
    ("repro.mem.allocator", "ContiguousAllocator", "allocate", "mem.alloc", None),
    ("repro.mem.allocator", "SliceFilteredAllocator", "allocate", "mem.alloc", None),
    ("repro.mem.allocator", "SliceFilteredAllocator", "allocate_lines",
     "mem.alloc", None),
    ("repro.mem.hugepage", "PhysicalAddressSpace", "mmap_hugepage", "mem.alloc", None),
    ("repro.net.trace", "CampusTraceGenerator", "__init__", "net.trace_gen", None),
    ("repro.net.trace", "CampusTraceGenerator", "generate", "net.trace_gen", None),
    ("repro.net.trace", "CampusTraceGenerator", "generate_arrays",
     "net.trace_gen", None),
    ("repro.net.harness", None, "sample_service_distribution", "net.microsim",
     lambda args, kwargs: len(args[1])),
    ("repro.cachesim.engine", "FastEngine", "run_op_stream", "cachesim.op_stream",
     None),
    ("repro.net.harness", None, "simulate_queueing_latency", "net.queueing",
     lambda args, kwargs: len(args[0])),
    ("repro.stats.percentiles", None, "summarize_latencies", "stats.summary", None),
    ("repro.stats.percentiles", None, "median_of_runs", "stats.summary", None),
    ("repro.fleet.traffic", "FleetTrafficGenerator", "generate", "fleet.traffic",
     None),
    ("repro.fleet.cluster", "FleetCluster", "route_epoch", "fleet.route", None),
    ("repro.fleet.ring", None, "key_positions", "fleet.route", None),
    ("repro.fleet.ring", "ConsistentHashRing", "slot_positions", "fleet.route",
     None),
    ("repro.fleet.ring", "ConsistentHashRing", "successors_at", "fleet.route",
     None),
    ("repro.fleet.server", "FleetServer", "serve", "fleet.serve", None),
    ("repro.fleet.server", "FleetServer", "serve_batch", "fleet.serve",
     lambda args, kwargs: len(args[1])),
    ("repro.fleet.healing", "TokenBucketAdmission", "admit", "fleet.admission",
     None),
    ("repro.fleet.healing", "HeartbeatDetector", "observe_epoch", "fleet.detector",
     None),
    ("repro.fleet.cluster", None, "run_fleet_cell", "fleet.loop", None),
    ("repro.fleet.healing", None, "run_healing_cell", "fleet.loop", None),
    ("repro.cachesim.engine", "FastEngine", "access_batch", "cachesim.access_batch",
     lambda args, kwargs: len(args[1])),
    ("repro.experiments.nfv_common", None, "run_nfv_experiment", "experiments.nfv",
     None),
    ("repro.experiments.fig07_ops_sweep", None, "run_fig07", "experiments.fig07",
     None),
]


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        #: One list per span: [name, start_ns, end_ns, parent index, count].
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        #: Counter objects of every cache hierarchy / DDIO engine built.
        self.hierarchy_stats: List[Any] = []
        self.ddio_stats: List[Any] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str, count: int = 0) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        index = self._open(name, count)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str, count: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, count])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, func: Callable, name: str, count: Optional[Callable]) -> Callable:
        """A wrapper of *func* that records one span per call."""
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer._open(name, count(args, kwargs) if count else 1)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def instrument(self) -> None:
        """Wrap every boundary in :data:`_BOUNDARIES`.

        A module function is also rebound in every ``repro`` module that
        imported it by name, so calls from inside the program are traced
        as well as calls from the benchmark.
        """
        for module_name, owner_name, attr, name, count in _BOUNDARIES:
            module = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(module, owner_name)
                self._patch(owner, attr, self.wrap(owner.__dict__[attr], name, count))
                continue
            original = getattr(module, attr)
            traced = self.wrap(original, name, count)
            for other in list(sys.modules.values()):
                other_name = getattr(other, "__name__", "")
                if other_name.startswith("repro") and getattr(
                    other, attr, None
                ) is original:
                    self._patch(other, attr, traced)
        self._collect_counters()

    def _collect_counters(self) -> None:
        """Keep each new hierarchy's and DDIO engine's counter object."""
        from repro.cachesim.ddio import DdioEngine
        from repro.cachesim.hierarchy import CacheHierarchy

        for cls, sink in (
            (CacheHierarchy, self.hierarchy_stats),
            (DdioEngine, self.ddio_stats),
        ):
            init = cls.__dict__["__init__"]

            def recording_init(obj: Any, *args: Any, _init: Callable = init,
                               _sink: List[Any] = sink, **kwargs: Any) -> None:
                _init(obj, *args, **kwargs)
                _sink.append(obj.stats)

            self._patch(cls, "__init__", functools.wraps(init)(recording_init))

    def restore(self) -> None:
        """Undo :meth:`instrument`."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: self seconds, inclusive seconds, calls, count.

        Inclusive time skips spans nested in a span of the same name, so
        a recursive layer does not count its interval twice.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, parent, count) in enumerate(spans):
            row = totals.setdefault(
                name, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "count": 0}
            )
            row["self_s"] += (end - start - child_ns[index]) / 1e9
            row["calls"] += 1
            row["count"] += count
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                row["total_s"] += (end - start) / 1e9
        return totals

    def counters(self) -> Dict[str, int]:
        """Summed cache counters over every hierarchy and DDIO engine."""
        return {
            "llc.hits": sum(s.llc_hits for s in self.hierarchy_stats),
            "llc.misses": sum(s.llc_misses for s in self.hierarchy_stats),
            "cachesim.accesses": sum(
                s.reads + s.writes for s in self.hierarchy_stats
            ),
            "ddio.fills": sum(s.write_lines for s in self.ddio_stats),
        }

    def dump(self, path: str) -> None:
        """Write every span as JSON (called once, at exit)."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "count"],
                    "spans": self.spans,
                },
                handle,
            )
