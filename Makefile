# Convenience targets for the GSim+ reproduction.

PYTHON ?= python

.PHONY: install test test-fast bench bench-all bench-compression bench-scale bench-scale-gate bench-gate bench-e2e figures accuracy examples all-checks

# Pin BLAS thread pools so benchmark numbers isolate the worker-pool
# sharding from library-internal threading (see docs/usage.md).
BENCH_ENV = OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONPATH=src

# Where `make bench` writes its pytest-benchmark JSON; override with
# `make bench BENCH_OUT=elsewhere.json`.  Defaults to a gitignored file
# under results/ so a fresh run never clobbers the committed
# results/BENCH_core.json baseline the perf gate compares against.
BENCH_OUT ?= results/BENCH_fresh.json

# Committed baseline + candidate path for `make bench-gate`.
BENCH_BASELINE ?= results/BENCH_core.json
BENCH_GATE_OUT ?= results/BENCH_gate_candidate.json

# Default tolerance bands: worker-scaling entries oversubscribe small
# CI hosts and jitter 2-3x run-to-run, so they get a wide band; the
# algorithmic benchmarks keep the gate's +50% default.
BENCH_GATE_BANDS ?= --band '*_workers*=3.0'

# Where `make bench-scale` writes the pair-scan timing and the
# in-memory-vs-mmap RSS comparison (committed baseline for the gate).
BENCH_SCALE_OUT ?= results/BENCH_scale.json
BENCH_SCALE_GATE_OUT ?= results/BENCH_scale_candidate.json

# Where `make bench-compression` writes the exact-vs-compressed
# accuracy/speed curves (committed next to the core bench artifact).
BENCH_COMPRESSION_OUT ?= results/BENCH_compression.json

install:
	$(PYTHON) -m pip install -e '.[dev]'

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m 'not slow'

bench:
	mkdir -p $(dir $(BENCH_OUT))
	$(BENCH_ENV) $(PYTHON) -m pytest \
		benchmarks/test_core_kernels.py \
		benchmarks/test_topk_retrieval.py \
		benchmarks/test_parallel_scan.py \
		--benchmark-only --benchmark-json=$(BENCH_OUT)

bench-all:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-compression:
	mkdir -p $(dir $(BENCH_COMPRESSION_OUT))
	$(BENCH_ENV) $(PYTHON) benchmarks/compression_sweep.py $(BENCH_COMPRESSION_OUT)

bench-scale:
	mkdir -p $(dir $(BENCH_SCALE_OUT))
	$(BENCH_ENV) $(PYTHON) benchmarks/bench_scale.py $(BENCH_SCALE_OUT)

# Compare a fresh scale run against the committed baseline with the
# wide worker band (see scripts/bench_gate.py --help).
bench-scale-gate:
	$(MAKE) bench-scale BENCH_SCALE_OUT=$(BENCH_SCALE_GATE_OUT)
	$(PYTHON) scripts/bench_gate.py \
		--baseline results/BENCH_scale.json --candidate $(BENCH_SCALE_GATE_OUT) \
		$(BENCH_GATE_BANDS)

# CI perf-regression gate: run the core benchmarks fresh, compare
# against the committed baseline with tolerance bands (exit 1 on a
# regression, 2 on unusable input).  See scripts/bench_gate.py --help.
bench-gate:
	$(MAKE) bench BENCH_OUT=$(BENCH_GATE_OUT)
	$(PYTHON) scripts/bench_gate.py \
		--baseline $(BENCH_BASELINE) --candidate $(BENCH_GATE_OUT) \
		$(BENCH_GATE_BANDS)

# End-to-end benchmark (contract and command in BENCHMARK.json): both
# workloads, one fresh process each; `make bench-e2e SEED=3 TRACE=1` for
# the per-layer run.  Results land in the gitignored .bench_e2e/results/.
SEED ?= 1
TRACE ?= 0

bench-e2e:
	for workload in paper mmap; do \
		python3 bench_e2e/run.py --workload $$workload --seed $(SEED) \
			--seconds 40 --trace $(TRACE) || exit 1; \
	done

figures:
	for fig in fig2 fig3 fig4 fig5 fig6 fig7 fig8; do \
		$(PYTHON) -m repro.cli $$fig --scale small --seed 7; \
	done

accuracy:
	$(PYTHON) -m repro.cli accuracy --scale tiny
	$(PYTHON) -m repro.cli bound

examples:
	for script in examples/*.py; do \
		echo "== $$script"; $(PYTHON) $$script || exit 1; \
	done

all-checks: test bench
