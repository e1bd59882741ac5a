# Convenience targets for the reproduction.

PY ?= python

.PHONY: install test test-fast diff-test bench bench-full bench-trajectory perfbench-check quick examples figures lab lab-compare check deepcheck lint sanitize-lab chaos-smoke fleet-smoke clean

LAB_DIR ?= lab-runs/latest
LAB_JOBS ?= 4

install:
	pip install -e . --no-build-isolation

test:
	$(PY) -m pytest tests/ -q

# Everything except the multi-second lab/chaos integration tests.
test-fast:
	$(PY) -m pytest tests/ -q -m "not slow"

# Fast-vs-reference engine equivalence: the differential replay harness
# plus the hypothesis property suite (see docs/MODEL.md).  The
# dataplane-diff step then replays one trace (and one fleet cell)
# scalar-vs-batched end to end as a standalone smoke on top of the
# marked tests in tests/test_dataplane_diff.py.
diff-test:
	$(PY) -m pytest tests/ -q -m differential
	$(PY) -c "from repro.cachesim.diff import run_dataplane_differential, run_fleet_differential; \
	from repro.net.chain import simple_forwarding_chain; \
	r = run_dataplane_differential(simple_forwarding_chain, n_packets=400); \
	assert r.equal, r.detail; \
	f = run_fleet_differential(n_servers=2, n_tenants=2, requests=800, warmup=200, n_keys=512); \
	assert f.equal, f.detail; \
	from repro.faults.plan import plan_for_class; \
	h = run_fleet_differential(n_servers=3, n_tenants=2, requests=800, warmup=200, n_keys=512, \
	plan=plan_for_class('fleet-gray', seed=7, intensity=6.0), \
	healing={'replication': 2, 'detector_enabled': True}); \
	assert h.equal, h.detail; \
	print('dataplane-diff: scalar == batched on', r.n_packets, 'packets +', f.n_packets, '+', h.n_packets, 'fleet requests')"

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only -q -s

# Closer to the paper's sample counts (10x samples; much slower).
bench-full:
	REPRO_BENCH_SCALE=10 $(PY) -m pytest benchmarks/ --benchmark-only -q -s

# Persisted perf trajectory: measure the declared suite, write the next
# BENCH_NNNN.json, and gate it against the previous artifact (see
# docs/BENCH.md).  BENCH_SCALE/BENCH_ARGS tune sizing, e.g.
#   make bench-trajectory BENCH_SCALE=full BENCH_ARGS="--samples 5"
BENCH_SCALE ?= smoke
BENCH_ARGS ?=
bench-trajectory:
	$(PY) -m repro bench run --scale $(BENCH_SCALE) $(BENCH_ARGS)
	$(PY) -m repro bench compare

# Seed-0 output check of the repo benchmark (perfbench/, BENCHMARK.json):
# run.py exits non-zero unless the workload prints `"correct": true`, i.e.
# its payload digest matches perfbench/expected.json.  The workload names
# come from perfbench's WORKLOADS, so a new workload is checked too.
perfbench-check:
	@names=$$(cd perfbench && $(PY) -c "from workloads import WORKLOADS; print(' '.join(sorted(WORKLOADS)))") || exit 1; \
	for w in $$names; do \
	  $(PY) perfbench/run.py --workload $$w --seed 0 --seconds 1 --trace 0 || exit 1; \
	done

quick:
	$(PY) examples/quickstart.py

examples:
	$(PY) examples/quickstart.py
	$(PY) examples/reverse_engineer_hash.py
	$(PY) examples/cache_isolation.py
	$(PY) examples/hot_data_migration.py
	$(PY) examples/nfv_service_chain.py
	$(PY) examples/kvs_slice_aware.py

figures:
	$(PY) -m repro fig 5
	$(PY) -m repro fig 6 --ops 4000
	$(PY) -m repro fig 16
	$(PY) -m repro table 1
	$(PY) -m repro table 2
	$(PY) -m repro table 4

# Run the whole experiment matrix (reduced scale) into $(LAB_DIR).
lab:
	$(PY) -m repro lab run --all --jobs $(LAB_JOBS) --out $(LAB_DIR)

# Diff the latest lab run against the checked-in golden baselines.
lab-compare:
	$(PY) -m repro lab compare $(LAB_DIR) tests/golden

# Static analysis of simulation invariants (see docs/CHECKS.md).
check:
	$(PY) -m repro check

# Whole-program hot-path & seed-flow analysis, gated against the
# committed baseline, plus the ranked vectorization worklist (see
# docs/CHECKS.md, "Deep checks").  No explicit paths: the default
# invocation's relative paths are what the baseline is keyed on.
deepcheck:
	$(PY) -m repro deepcheck report --baseline .deepcheck-baseline.json
	$(PY) -m repro deepcheck worklist --top 15

# check + ruff + mypy (ruff/mypy are optional extras: pip install -e .[lint]).
lint: check
	$(PY) -m ruff check src
	$(PY) -m mypy

# Full reduced-scale matrix under the runtime CacheSanitizer; the
# compare step proves sanitizing never perturbs results.
sanitize-lab:
	RF_SANITIZE=1 $(PY) -m repro lab run --all --jobs $(LAB_JOBS) --scale reduced --out $(LAB_DIR)
	$(PY) -m repro lab compare $(LAB_DIR) tests/golden

# Chaos experiments under the sanitizer, then bit-identical replay of
# each artifact from its persisted fault plan (see docs/FAULTS.md).
CHAOS_DIR ?= lab-runs/chaos
chaos-smoke:
	RF_SANITIZE=1 $(PY) -m repro lab run chaos-tail degradation-knee --jobs $(LAB_JOBS) --scale reduced --out $(CHAOS_DIR)
	$(PY) -m repro chaos replay $(CHAOS_DIR)/chaos-tail.json
	$(PY) -m repro chaos replay $(CHAOS_DIR)/degradation-knee.json

FLEET_DIR ?= lab-runs/fleet

fleet-smoke:
	RF_SANITIZE=1 $(PY) -m repro lab run fleet-scale fleet-failover fleet-availability fleet-durability --jobs $(LAB_JOBS) --scale reduced --out $(FLEET_DIR)
	$(PY) -m repro fleet replay $(FLEET_DIR)/fleet-failover.json
	$(PY) -m repro fleet replay $(FLEET_DIR)/fleet-availability.json
	$(PY) -m repro fleet replay $(FLEET_DIR)/fleet-durability.json
	$(PY) -m repro lab compare $(FLEET_DIR) tests/golden

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
