"""Serial-vs-parallel equivalence suite and worker-pool unit tests.

Everything here carries the ``parallel`` marker; CI runs it as its own
step with pinned BLAS thread counts.  The load-bearing claims:

* every parallel path (factor steps, dense fallback, top-k scans, sweep
  cells, batched queries) returns **bit-identical** results for
  ``max_workers`` in {1, 2, 4};
* cancellation and deadline expiry propagate out of worker threads as
  the same structured exceptions the serial path raises;
* the bounded-memory scans stay within their ledger budget, one
  dense fallback step holds at most about four ``|Z|``-sized arrays at
  any worker count, and one factored step holds at most 1.1x its new
  factor pair above its input.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest

import repro.core.topk as topk
from repro.core.batch import BatchQueryEngine
from repro.core.embeddings import LowRankFactors
from repro.core.gsim_plus import NUMERICAL_RANK_TOL, GSimPlus
from repro.core.topk import scan_top_pairs, top_k_for_queries, top_k_pairs
from repro.experiments.journal import RunJournal
from repro.experiments.runner import (
    ALGORITHMS,
    AlgorithmSpec,
    CellTask,
    ExperimentConfig,
    run_cells,
)
from repro.graphs.generators import erdos_renyi_graph, rmat_graph
from repro.retrieval.index import GSimIndex
from repro.runtime import (
    CancellationToken,
    Cancelled,
    DeadlineExceeded,
    ExecutionContext,
    FaultInjector,
    MemoryLedger,
    Tracer,
    WallClockDeadline,
    WorkerPool,
    parallel,
)
from repro.runtime.errors import TransientError
from repro.runtime.parallel import shard_ranges, shard_rows_by_nnz
from repro.runtime.resilience import RetryPolicy
from repro.utils.memory import MemoryTracker

pytestmark = pytest.mark.parallel

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def graph_pair():
    return (
        rmat_graph(8, 1200, seed=3, name="A"),
        rmat_graph(7, 600, seed=4, name="B"),
    )


# ----------------------------------------------------------------------
# Shard helpers
# ----------------------------------------------------------------------
class TestShardHelpers:
    def test_ranges_cover_and_are_contiguous(self):
        for total in (0, 1, 2, 7, 10, 1000):
            for shards in (1, 2, 3, 7, 64):
                ranges = shard_ranges(total, shards)
                assert len(ranges) <= shards
                flat = [i for start, stop in ranges for i in range(start, stop)]
                assert flat == list(range(total))

    def test_ranges_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            shard_ranges(-1, 2)
        with pytest.raises(ValueError):
            shard_ranges(10, 0)

    def test_nnz_shards_cover_and_balance(self, graph_pair):
        graph_a, _ = graph_pair
        indptr = graph_a.adjacency.indptr
        total = int(indptr[-1])
        for shards in (1, 2, 4, 8):
            ranges = shard_rows_by_nnz(indptr, shards)
            flat = [i for start, stop in ranges for i in range(start, stop)]
            assert flat == list(range(graph_a.num_nodes))
            if shards > 1 and len(ranges) > 1:
                loads = [int(indptr[stop] - indptr[start]) for start, stop in ranges]
                # Balanced up to one row's worth of skew around the target.
                assert max(loads) <= total / len(ranges) + int(np.diff(indptr).max())

    def test_nnz_shards_edgeless_falls_back_to_rows(self):
        indptr = np.zeros(11, dtype=np.int64)
        assert shard_rows_by_nnz(indptr, 3) == shard_ranges(10, 3)

    def test_nnz_shards_empty_matrix(self):
        assert shard_rows_by_nnz(np.zeros(1, dtype=np.int64), 4) == []


# ----------------------------------------------------------------------
# WorkerPool
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_map_preserves_order(self):
        for workers in WORKER_COUNTS:
            pool = WorkerPool(max_workers=workers)
            assert pool.map(lambda x: x * x, range(50)) == [x * x for x in range(50)]

    def test_serial_flag_and_resolve(self):
        assert WorkerPool(max_workers=1).serial
        assert not WorkerPool(max_workers=2).serial
        assert WorkerPool.resolve(None).max_workers == 1
        assert WorkerPool.resolve(3).max_workers == 3
        pool = WorkerPool(max_workers=2)
        assert WorkerPool.resolve(pool) is pool

    def test_rejects_bad_worker_counts(self):
        with pytest.raises(ValueError):
            WorkerPool(max_workers=0)
        with pytest.raises(TypeError):
            WorkerPool(max_workers=True)
        with pytest.raises(TypeError):
            WorkerPool(max_workers=2.5)

    def test_first_submitted_error_wins(self):
        def boom(x):
            raise ValueError(f"boom{x}")

        for workers in WORKER_COUNTS:
            with pytest.raises(ValueError, match="boom0"):
                WorkerPool(max_workers=workers).map(boom, range(8))

    def test_single_failure_propagates(self):
        def maybe_boom(x):
            if x == 5:
                raise KeyError("five")
            return x

        with pytest.raises(KeyError):
            WorkerPool(max_workers=4).map(maybe_boom, range(8))

    def test_serial_runs_inline(self):
        thread_ids = []
        WorkerPool(max_workers=1).map(
            lambda _: thread_ids.append(threading.get_ident()), range(4)
        )
        assert set(thread_ids) == {threading.get_ident()}

    def test_map_records_shard_metrics(self):
        context = ExecutionContext()
        WorkerPool(max_workers=2).map(lambda x: x, range(6), context=context)
        snap = context.metrics.snapshot()
        assert snap["counters"]["parallel.shards"] == 6
        assert snap["gauges"]["parallel.workers"] == 2

    def test_default_size_follows_cpu_affinity(self, monkeypatch):
        # A process pinned to 2 of 64 CPUs gets 2 workers (constructing a
        # pool starts no thread).
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        assert WorkerPool().max_workers == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert WorkerPool().max_workers == 64

    def test_map_checkpoints_cancellation(self):
        token = CancellationToken()
        token.cancel()
        context = ExecutionContext(cancellation=token)
        with pytest.raises(Cancelled):
            WorkerPool(max_workers=2).map(lambda x: x, range(4), context=context)


# ----------------------------------------------------------------------
# Index builds: the parallel default and the peak gauge
# ----------------------------------------------------------------------
class TestIndexBuildWorkers:
    def test_default_build_matches_serial(self, graph_pair, monkeypatch):
        # The default is one worker per usable CPU: three, on any host.
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 3)
        context = ExecutionContext()
        default = GSimIndex.build(*graph_pair, iterations=5, context=context)
        serial = GSimIndex.build(*graph_pair, iterations=5, max_workers=1)
        assert context.metrics.snapshot()["gauges"]["parallel.workers"] == 3
        np.testing.assert_array_equal(default.factors.u, serial.factors.u)
        np.testing.assert_array_equal(default.factors.v, serial.factors.v)
        assert default.factors.log_scale == serial.factors.log_scale

    @pytest.mark.parametrize("recompress_tol", [None, 1e-8])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_gauge_is_the_ledger_peak(self, graph_pair, workers, recompress_tol):
        # The gauge records the charges taken inside a step and a
        # recompression, not only the pair held between steps.
        context = ExecutionContext.start(memory_limit_bytes=1 << 40)
        index = GSimIndex.build(
            *graph_pair, iterations=5, context=context, max_workers=workers,
            recompress_tol=recompress_tol,
        )
        gauges = index.metadata.build_metrics["gauges"]
        assert gauges["gsim_plus.peak_bytes_held"] == gauges["memory.peak_bytes"]


# ----------------------------------------------------------------------
# Factor-step bit-identity
# ----------------------------------------------------------------------
class TestFactorStepEquivalence:
    @pytest.mark.parametrize("variant", ["dense", "none", "numerical-rank"])
    def test_bit_identical_across_workers(self, graph_pair, variant):
        graph_a, graph_b = graph_pair
        options = {"rank_cap": variant}
        if variant == "numerical-rank":
            options = {"rank_cap": "none", "recompress_tol": NUMERICAL_RANK_TOL}
        iterations = 5 if variant == "none" else 10
        reference = GSimPlus(graph_a, graph_b, **options).run(iterations)
        for workers in WORKER_COUNTS[1:]:
            result = GSimPlus(
                graph_a, graph_b, max_workers=workers, **options
            ).run(iterations)
            assert np.array_equal(reference.similarity, result.similarity)
            assert reference.z_frobenius_log == result.z_frobenius_log
            assert reference.used_dense_fallback == result.used_dense_fallback

    def test_dense_fallback_engages(self, graph_pair):
        graph_a, graph_b = graph_pair
        result = GSimPlus(graph_a, graph_b, max_workers=4).run(10)
        assert result.used_dense_fallback  # the regime the sharded dense step serves

    def test_shard_cache_hits_counted(self, graph_pair):
        graph_a, graph_b = graph_pair
        context = ExecutionContext()
        GSimPlus(graph_a, graph_b, max_workers=2).run(6, context=context)
        counters = context.metrics.snapshot()["counters"]
        assert counters["gsim_plus.transpose_cache_hits"] > 0

    def test_serial_steps_run_inline(self, graph_pair):
        """A serial solver runs every step's chunk tasks inline: no pool
        metrics or spans, and one checkpoint per iteration, through both
        the factor and the dense steps."""
        graph_a, graph_b = graph_pair
        injector = FaultInjector(probability=0.0)
        tracer = Tracer()
        context = ExecutionContext(fault_injector=injector, tracer=tracer)
        solver = GSimPlus(graph_a, graph_b)
        assert solver.run(10, context=context).used_dense_fallback
        counters = context.metrics.snapshot()["counters"]
        assert not [name for name in counters if name.startswith("parallel.")]
        assert {span.name for span in tracer.spans()} == {"gsim_plus.iterate"}
        assert injector.checkpoints_seen == 10

    def test_dense_step_peak_memory_bounded(self):
        """Z^T, P = Z B^T and Q = Z B, then P, Q, the update and one
        shard product: a dense step never holds more than four
        ``|Z|``-sized arrays, however the rows are sharded."""
        graph_a = erdos_renyi_graph(600, 3000, seed=21)
        graph_b = erdos_renyi_graph(400, 2000, seed=22)
        assert GSimPlus(graph_a, graph_b).run(10).used_dense_fallback
        z = np.random.default_rng(0).random((600, 400))
        for workers in WORKER_COUNTS:
            solver = GSimPlus(graph_a, graph_b, max_workers=workers)
            solver._step_dense(z)  # warm-up
            with MemoryTracker() as tracker:
                solver._step_dense(z)
            assert tracker.peak_bytes <= 4.5 * z.nbytes, (
                workers, tracker.peak_bytes / z.nbytes
            )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_factor_step_peak_memory_bounded(self, monkeypatch, workers):
        """One factored step holds its input, the new pair and one chunk
        product per worker: above its input, its traced peak stays within
        the ledger charge (the input, held as ``iterate`` holds it, plus
        the step's own charge) and within 1.1x the new pair."""
        # Small chunks, so that four of them in flight stay small beside
        # this graph's new pair (5.9 MB), as 4 MiB chunks do on paper-sized
        # factors.
        solver_module = sys.modules[GSimPlus.__module__]
        monkeypatch.setattr(solver_module, "_CHUNK_BYTES", 64 << 10)
        graph_a = erdos_renyi_graph(20000, 40000, seed=23)
        graph_b = erdos_renyi_graph(3000, 6000, seed=24)
        solver = GSimPlus(graph_a, graph_b, max_workers=workers)
        factors = LowRankFactors.ones(solver.n_a, solver.n_b)
        for _ in range(4):
            factors = solver._step_factors(factors)
        context = ExecutionContext(memory=MemoryLedger(1 << 30))
        with context.holding(factors.nbytes, "input pair"):
            with MemoryTracker() as tracker:
                stepped = solver._step_factors(factors, context)
        charge = context.memory.peak_bytes
        assert charge == factors.nbytes + solver._step_bytes(factors)
        assert stepped.width == 32
        assert tracker.peak_bytes <= charge, (workers, tracker.peak_bytes, charge)
        assert tracker.peak_bytes <= 1.1 * stepped.nbytes, (
            workers, tracker.peak_bytes / stepped.nbytes
        )


# ----------------------------------------------------------------------
# Top-k scans
# ----------------------------------------------------------------------
class TestTopKEquivalence:
    def test_pairs_identical_across_workers_and_blocks(self, graph_pair):
        graph_a, graph_b = graph_pair
        reference = top_k_pairs(graph_a, graph_b, k=25, iterations=6)
        for workers in WORKER_COUNTS:
            for block_rows in (16, 1024):
                result = top_k_pairs(
                    graph_a, graph_b, k=25, iterations=6,
                    block_rows=block_rows, max_workers=workers,
                )
                assert result == reference

    def test_scan_matches_bruteforce_on_tie_heavy_factors(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n_a = int(rng.integers(2, 40))
            n_b = int(rng.integers(2, 30))
            # Integer entries produce many exact score ties.
            factors = LowRankFactors(
                rng.integers(0, 3, size=(n_a, 2)).astype(float),
                rng.integers(0, 3, size=(n_b, 2)).astype(float),
            )
            scores = factors.u @ factors.v.T
            rows, cols = np.divmod(np.arange(scores.size), n_b)
            for k in (1, 5, n_a * n_b):
                order = np.lexsort((cols, rows, -scores.ravel()))[:k]
                expected = [
                    (int(rows[i]), int(cols[i]), float(scores.ravel()[i]))
                    for i in order
                ]
                got = scan_top_pairs(factors, k, block_rows=3)
                assert [(p.node_a, p.node_b, p.score) for p in got] == expected

    def test_queries_identical_across_workers(self, graph_pair):
        graph_a, graph_b = graph_pair
        queries = list(range(0, graph_a.num_nodes, 3))
        reference = top_k_for_queries(graph_a, graph_b, queries, k=7, iterations=6)
        for workers in WORKER_COUNTS:
            for block_rows in (8, 1024):
                result = top_k_for_queries(
                    graph_a, graph_b, queries, k=7, iterations=6,
                    block_rows=block_rows, max_workers=workers,
                )
                assert result == reference

    def test_queries_memory_stays_bounded(self, graph_pair, monkeypatch):
        """The blocked query scan must never charge the full |Q| x n_B.

        The factors are built outside the ledger, so it holds the scan's
        own charges only (the build's recompression charges more than
        this pair's full block).
        """
        graph_a, graph_b = graph_pair
        queries = list(range(graph_a.num_nodes)) * 4  # |Q| = 4 n_A
        block_rows = 16
        full_bytes = len(queries) * graph_b.num_nodes * 8
        factors = topk._factors_for(graph_a, graph_b, 6)
        monkeypatch.setattr(topk, "_factors_for", lambda *args, **kwargs: factors)
        context = ExecutionContext(memory=MemoryLedger(1 << 30))
        top_k_for_queries(
            graph_a, graph_b, queries, k=5, iterations=6,
            block_rows=block_rows, context=context,
        )
        assert 0 < context.memory.peak_bytes < full_bytes
        assert context.memory.held_bytes == 0

    def test_cancellation_fires_mid_scan(self, graph_pair):
        graph_a, graph_b = graph_pair
        factors = GSimIndex.build(graph_a, graph_b, iterations=6)._factors

        class _CancelAfter:
            def __init__(self, token, after):
                self.token = token
                self.remaining = after

            def on_checkpoint(self, what):
                self.remaining -= 1
                if self.remaining <= 0:
                    self.token.cancel()

        token = CancellationToken()
        context = ExecutionContext(
            cancellation=token, fault_injector=_CancelAfter(token, after=3)
        )
        # The pruned scan scores only a handful of the 256 rows here (7 in
        # one-row blocks), so one-row blocks are what give it more than
        # three checkpoints.
        with pytest.raises(Cancelled):
            scan_top_pairs(factors, 10, block_rows=1, context=context)

    def test_deadline_fires_mid_scan(self, graph_pair):
        graph_a, graph_b = graph_pair
        factors = GSimIndex.build(graph_a, graph_b, iterations=6)._factors
        context = ExecutionContext(deadline=WallClockDeadline(1e-9))
        with pytest.raises(DeadlineExceeded):
            scan_top_pairs(factors, 10, block_rows=8, context=context)


# ----------------------------------------------------------------------
# Batched queries and the index
# ----------------------------------------------------------------------
class TestServingEquivalence:
    def test_query_many_identical_across_workers(self, graph_pair):
        graph_a, graph_b = graph_pair
        index = GSimIndex.build(graph_a, graph_b, iterations=6)
        rng = np.random.default_rng(5)
        requests = [
            (
                rng.integers(0, graph_a.num_nodes, size=4).tolist(),
                rng.integers(0, graph_b.num_nodes, size=3).tolist(),
            )
            for _ in range(12)
        ]
        reference = index.query_many(requests)
        for workers in WORKER_COUNTS:
            blocks = index.query_many(requests, max_workers=workers)
            assert len(blocks) == len(reference)
            for got, expected in zip(blocks, reference):
                assert np.array_equal(got, expected)

    def test_engine_query_many_accepts_legacy_zero(self):
        engine = BatchQueryEngine(
            LowRankFactors(np.ones((4, 1)), np.ones((3, 1)))
        )
        blocks = engine.query_many([([0], [0, 1])], max_workers=0)
        assert blocks[0].shape == (1, 2)

    def test_index_top_pairs_identical_across_blocks(self, graph_pair):
        graph_a, graph_b = graph_pair
        index = GSimIndex.build(graph_a, graph_b, iterations=6)
        reference = index.top_pairs(k=20)
        for block_rows in (1, 16, 1024):
            assert index.top_pairs(k=20, block_rows=block_rows) == reference


# ----------------------------------------------------------------------
# Sweep cells
# ----------------------------------------------------------------------
def _tiny_tasks(graph_pair, algorithms=("GSim+", "GSim")):
    graph_a, graph_b = graph_pair
    queries_a = np.arange(8)
    queries_b = np.arange(8)
    return [
        CellTask(
            ALGORITHMS[name], graph_a, graph_b, queries_a, queries_b,
            iterations=4, dataset=f"cell-{name}",
        )
        for name in algorithms
    ]


def _comparable(record):
    return (record.algorithm, record.dataset, record.outcome, record.params)


class TestSweepEquivalence:
    def test_run_cells_identical_outcomes(self, graph_pair):
        tasks = _tiny_tasks(graph_pair)
        serial = run_cells(tasks, ExperimentConfig(max_workers=1))
        for workers in WORKER_COUNTS[1:]:
            parallel = run_cells(tasks, ExperimentConfig(max_workers=workers))
            assert [_comparable(r) for r in parallel] == [
                _comparable(r) for r in serial
            ]

    def test_run_cells_journal_replay_composes(self, graph_pair, tmp_path):
        tasks = _tiny_tasks(graph_pair)
        journal = RunJournal(tmp_path / "journal.jsonl")
        config = ExperimentConfig(max_workers=2, journal=journal)
        first = run_cells(tasks, config)
        assert journal.hits == 0
        resumed = RunJournal(tmp_path / "journal.jsonl", resume=True)
        config2 = ExperimentConfig(max_workers=2, journal=resumed)
        second = run_cells(tasks, config2)
        assert resumed.hits == len(tasks)
        assert [_comparable(r) for r in second] == [_comparable(r) for r in first]

    def test_run_cells_retry_quarantine_composes(self, graph_pair):
        def _always_transient(*args, **kwargs):
            raise TransientError("flaky cell")

        flaky = AlgorithmSpec(
            name="Flaky",
            run=_always_transient,
            cost_model="gsim+",
            units_per_second=1e8,
        )
        graph_a, graph_b = graph_pair
        tasks = [
            CellTask(
                flaky, graph_a, graph_b, np.arange(4), np.arange(4),
                iterations=2, dataset=f"flaky-{i}",
            )
            for i in range(3)
        ]
        tracer = Tracer()
        context = ExecutionContext(tracer=tracer)
        config = ExperimentConfig(
            max_workers=2,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
            context=context,
        )
        records = run_cells(tasks, config)
        assert [record.outcome.value for record in records] == ["error"] * 3
        assert all(record.attempts == 2 for record in records)
        assert all("quarantined" in record.note for record in records)
        assert context.metrics.counter("sweep.quarantined") == 3
        assert context.metrics.counter("sweep.cells") == 3
        # Cells ran on worker threads, yet nest under the sweep's root.
        (root,) = [s for s in tracer.spans() if s.name == "sweep.run"]
        cells = [s for s in tracer.spans() if s.name == "sweep.cell"]
        assert len(cells) == 3
        assert all(cell.parent_id == root.span_id for cell in cells)

    def test_parallel_cells_report_ledger_memory(self, graph_pair):
        tasks = _tiny_tasks(graph_pair)
        records = run_cells(tasks, ExperimentConfig(max_workers=2))
        for record in records:
            assert record.ok
            assert record.memory_bytes is not None and record.memory_bytes > 0
