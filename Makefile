PYTHON ?= python
export PYTHONPATH := src

.PHONY: test unit check-docs check-obs check-resilience check-quorum check-lsm check-serving check-anomaly check-cluster check-imports bench-e2e bench-compare all

all: test

# The default gate: unit suite + doc snippets + instrumentation coverage
# + fault-tolerance contract + LSM durability contract + serving-plane
# smoke gate + anomaly-detection contract + cluster serving contract +
# import-footprint contract.
test: unit check-docs check-obs check-resilience check-quorum check-lsm check-serving check-anomaly check-cluster check-imports

unit:
	$(PYTHON) -m pytest -x -q

# Extract and smoke-execute every ```python block in docs/*.md
# (blocks tagged ```python no-run are syntax-checked only); hold
# docs/protocol.md to the command table and docs/observability.md's name
# reference to the names a scripted run records, both directions.
check-docs:
	$(PYTHON) scripts/check_docs.py

# Assert every public KeyValueStore op on the instrumented wrappers
# records a metric, and that one observed cache hit stays within its
# call-count budget (see scripts/check_instrumentation.py).
check-obs:
	$(PYTHON) scripts/check_instrumentation.py

# Drive the fault-tolerance plane end to end and assert its metric
# vocabulary and typed errors (see docs/resilience.md).
check-resilience:
	$(PYTHON) scripts/check_resilience.py

# Partition a quorum member through the chaos plane, write through the
# partition, heal, and assert Merkle anti-entropy convergence without a
# full-keyspace scan, fail-fast below W, and reads surviving one member
# down -- all with zero real sleeps (see docs/resilience.md).
check-quorum:
	$(PYTHON) scripts/check_quorum.py

# Crash-simulate the LSM engine (torn WAL tails, mixed states, double
# crashes) and assert no acknowledged write is lost (see docs/lsm.md).
check-lsm:
	$(PYTHON) scripts/check_lsm.py

# Boot the async serving engine, drive a pipelined open-loop burst, and
# assert STATS move plus the 2x concurrent-connection headroom over the
# threaded engine (see docs/serving.md and scripts/check_serving.py).
check-serving:
	$(PYTHON) scripts/check_serving.py

# Inject a latency step, an error burst, and a slow leak through the chaos
# plane on a virtual clock and assert the anomaly engine detects and clears
# all three with zero false positives (see docs/anomaly.md).
check-anomaly:
	$(PYTHON) scripts/check_anomaly.py

# Boot a three-shard cluster over real sockets, check that a non-owner
# answers -MOVED and stores nothing, hash-route through the cluster client,
# add and remove shards mid-traffic, and assert zero lost keys, bounded key
# movement, and epoch convergence without a single client reconnect (see
# docs/cluster.md).
check-cluster:
	$(PYTHON) scripts/check_cluster.py

# In fresh interpreters, assert what a process loads: `import repro` is the
# lazy surface only, the serving closure stays free of asyncio, sqlite3,
# cryptography and the layers it does not compose, importing either engine
# loads neither argparse nor subprocess, neither server child (threaded or
# async) ever loads asyncio, and a served request imports nothing
# (structural asserts, no wall-clock; see docs/architecture.md and
# scripts/check_imports.py).
check-imports:
	$(PYTHON) scripts/check_imports.py

# The e2e measurement spine (BENCHMARK.json, benchmarks/e2e/README.md).
# `make bench-e2e` runs all five workloads interleaved plus one traced run
# each and writes benchmarks/e2e/out/result.json; `make bench-e2e
# WORKLOAD=cold_read_threaded [SEED=7] [TRACE=1]` runs one workload the way
# the driver does (~20 s; the last stdout line is its JSON result).
SEED ?= 20170419
TRACE ?= 0
bench-e2e:
	python3 benchmarks/e2e/run.py --seed $(SEED) $(if $(WORKLOAD),--workload $(WORKLOAD) --trace $(TRACE))

# Compare two result.json files against BENCHMARK.json's bounds:
# `make bench-compare A=parent/result.json B=benchmarks/e2e/out/result.json`
# (A is the reference; exits non-zero when a bound is exceeded).
bench-compare:
	python3 benchmarks/e2e/compare.py $(A) $(B)
