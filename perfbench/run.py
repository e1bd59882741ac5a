"""The repository benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition runs the workload at
its fixed size in a fresh, single-threaded Python process
(``perfbench/rep.py``), one after another, until ``--seconds`` are spent
(at least :data:`MIN_REPS` repetitions).  Every repetition's output is
checked: the payload digest must match the one recorded for the default
seed, and the workload's invariants must hold for any seed.  A
repetition that fails its check or crashes counts as a failed operation.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones (medians over repetitions, and for
``setup_s`` over both set-up samples of every repetition); with
``--trace 1`` untraced and traced repetitions alternate and the metrics
are per-layer (medians over the traced ones).  The run record, with
host provenance, and the spans are written under ``.perfbench/``.

Exits 2 without a result when the program's sources are missing, and 1
after the result when a check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 3
#: A repetition that runs longer than this is killed and counted failed.
REP_TIMEOUT_S = 120.0
EXPECTED = HERE / "expected.json"
#: Declares the metrics this command prints, with their units.
DECLARED = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench"

#: Per-layer self time: the span's duration minus its child spans.
SELF_TIMES = {
    "core.precompute_udata_s": "core.precompute_udata",
    "net.dut_build_s": "net.dut_build",
    "cachesim.hierarchy_build_s": "cachesim.hierarchy_build",
    "fleet.cluster_build_s": "fleet.cluster_build",
    "mem.alloc_s": "mem.alloc",
    "net.trace_gen_s": "net.trace_gen",
    "net.microsim_s": "net.microsim",
    "cachesim.op_stream_s": "cachesim.op_stream",
    "net.queueing_s": "net.queueing",
    "fleet.traffic_s": "fleet.traffic",
    "fleet.route_s": "fleet.route",
    "fleet.serve_s": "fleet.serve",
    "fleet.admission_s": "fleet.admission",
    "fleet.detector_s": "fleet.detector",
    "fleet.loop_self_s": "fleet.loop",
    "cachesim.access_batch_s": "cachesim.access_batch",
    "experiments.nfv_self_s": "experiments.nfv",
    "experiments.fig07_self_s": "experiments.fig07",
    "stats.summary_s": "stats.summary",
    "bench.unattributed_s": "bench.workload",
}

#: Per-unit cost: a span's inclusive time over the work count recorded
#: at that boundary, times a scale (to ns or us).
PER_UNIT = {
    "net.microsim_ns_per_packet": ("net.microsim", 1e9),
    "net.queueing_ns_per_packet": ("net.queueing", 1e9),
    "fleet.serve_us_per_request": ("fleet.serve", 1e6),
    "cachesim.ns_per_access": ("cachesim.access_batch", 1e9),
}

#: Work counts recorded at a span boundary (exact for a seed).
SPAN_COUNTS = {
    "net.microsim_packets": "net.microsim",
    "net.bulk_packets": "net.queueing",
}
MODEL = (
    "net.drop_frac",
    "fleet.served", "fleet.shed", "fleet.rejected", "fleet.unavailable",
    "fleet.failovers", "fleet.hints_replayed", "fleet.reboots",
    "model.cd_p99_gain_us", "model.goodput_mrps", "model.p99_us",
    "model.unavailable_frac", "model.peak_slice_read_mops",
)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def git_sha() -> str:
    """HEAD's commit, read from ``.git`` in the checkout if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_rep(workload: str, seed: int, trace_path: Optional[Path]) -> Dict[str, Any]:
    """One repetition in a fresh process; its record or an ``error``."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=str(ROOT), capture_output=True,
            text=True, timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {REP_TIMEOUT_S:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unreadable output: {lines[-1][:200]}"}


def problems(record: Dict[str, Any], expected: Optional[str]) -> List[str]:
    """Why a repetition counts as failed (empty when it passed)."""
    if "error" in record:
        return [record["error"]]
    found = list(record["violations"])
    if expected is not None and record["digest"] != expected:
        found.append(f"digest {record['digest']} != expected {expected}")
    return found


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def layer_metrics(record: Dict[str, Any], untraced_wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    layers = record["layers"]
    metrics: Dict[str, float] = {}
    empty = {"self_s": 0.0, "total_s": 0.0, "count": 0}
    for metric, span in SELF_TIMES.items():
        metrics[metric] = layers.get(span, empty)["self_s"]
    for metric, (span, scale) in PER_UNIT.items():
        row = layers.get(span, empty)
        metrics[metric] = row["total_s"] / row["count"] * scale if row["count"] else 0.0
    for metric, span in SPAN_COUNTS.items():
        metrics[metric] = float(layers.get(span, empty)["count"])
    metrics.update(record["counters"])
    for metric in MODEL:
        metrics[metric] = float(record["model"].get(metric, 0.0))
    metrics["import_s"] = record["import_s"]
    wall = record["wall_s"]
    metrics["trace_coverage_frac"] = 1.0 - metrics["bench.unattributed_s"] / wall
    metrics["trace_overhead_frac"] = wall / untraced_wall_s - 1.0
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    declared = json.loads(DECLARED.read_text())
    expected_digests = json.loads(EXPECTED.read_text())
    expected = (
        expected_digests["digests"].get(args.workload)
        if args.seed == expected_digests["seed"]
        else None
    )
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "hostname": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "loadavg_before": os.getloadavg(),
    }
    start = time.perf_counter()
    reps: List[Dict[str, Any]] = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        trace_path = OUT_DIR / f"spans-{stem}-rep{len(reps)}.json" if traced else None
        record = run_rep(args.workload, args.seed, trace_path)
        record["traced"] = traced
        record["problems"] = problems(record, expected)
        reps.append(record)
        elapsed = time.perf_counter() - start
        per_rep = elapsed / len(reps)
        if len(reps) >= MIN_REPS + args.trace and elapsed + per_rep > args.seconds:
            break
    provenance["loadavg_after"] = os.getloadavg()

    failed = sum(1 for r in reps if r["problems"])
    good = [r for r in reps if not r["problems"]]
    untraced = [r for r in good if not r["traced"]]
    metrics: Dict[str, Dict[str, Any]] = {}
    if args.trace:
        traced_reps = [r for r in good if r["traced"]]
        if untraced and traced_reps:
            base = median([r["wall_s"] for r in untraced])
            rows = [layer_metrics(r, base) for r in traced_reps]
            for m in declared["per_layer"]:
                metrics[m["name"]] = {
                    "value": median([row[m["name"]] for row in rows]),
                    "unit": m["unit"],
                }
    elif untraced:
        samples = {m["name"]: [r[m["name"]] for r in untraced]
                   for m in declared["end_to_end"]}
        samples["setup_s"] = [s for r in untraced for s in r["setup_s"]]
        for m in declared["end_to_end"]:
            metrics[m["name"]] = {
                "value": median(samples[m["name"]]),
                "unit": m["unit"],
            }

    (OUT_DIR / f"run-{stem}.json").write_text(
        json.dumps({"provenance": provenance, "reps": reps}, indent=1)
    )
    for record in reps:
        for problem in record["problems"]:
            print(f"FAILED repetition: {problem}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
