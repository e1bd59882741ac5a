"""One repetition of one workload, in a fresh process.

Usage: ``python3 perfbench/rep.py --workload NAME --seed N [--trace PATH]``
with the program's ``src`` directory on ``PYTHONPATH``.  Prints one JSON
line: the repetition's timings (two set-up samples, one before and one
after the timed region), peak RSS, payload digest and check results,
plus per-layer totals when ``--trace`` is given (the spans are then
also written to PATH).  ``run.py`` starts one of these per
repetition; it is not meant to be run by hand except for debugging.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import ROOT, Tracer  # noqa: E402
from workloads import WORKLOADS, digest, no_span  # noqa: E402

#: Modules every workload's calls live in; imported (and timed) first.
_IMPORTS = (
    "numpy",
    "repro.experiments.nfv_common",
    "repro.experiments.fig07_ops_sweep",
    "repro.fleet.cluster",
    "repro.fleet.healing",
    "repro.faults.plan",
)


def measure(name: str, seed: int, tracer: Optional[Tracer] = None) -> dict:
    """Run one repetition; return its record (see the module doc)."""
    workload = WORKLOADS[name]
    start = time.perf_counter()
    for module in _IMPORTS:
        __import__(module)
    import_s = time.perf_counter() - start
    if tracer is not None:
        tracer.instrument()
    setup_s = [workload.setup(seed)]
    if tracer is not None:
        # Only the timed region below is attributed to layers.
        tracer.spans.clear()
        tracer.hierarchy_stats.clear()
        tracer.ddio_stats.clear()
    span = tracer.span if tracer is not None else no_span
    gc.collect()
    start = time.perf_counter()
    with span(ROOT):
        payload = workload.run(seed, span)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.restore()
    # The host's speed drifts over seconds; a second set-up after the
    # timed region samples it at another moment.
    setup_s.append(workload.setup(seed))
    record = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "import_s": import_s,
        "digest": digest(payload),
        "violations": workload.check(payload),
        "model": workload.model(payload),
    }
    if tracer is not None:
        record["layers"] = tracer.layer_totals()
        record["counters"] = tracer.counters()
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", metavar="PATH", help="write spans here")
    args = parser.parse_args()
    tracer = Tracer() if args.trace else None
    record = measure(args.workload, args.seed, tracer)
    if tracer is not None:
        tracer.dump(args.trace)
    print(json.dumps(record), flush=True)
    # Skip interpreter teardown: freeing the simulated system's objects
    # one by one takes longer than the measured work on some workloads.
    os._exit(0)


if __name__ == "__main__":
    main()
