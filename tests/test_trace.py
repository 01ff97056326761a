"""Tracing & telemetry tests: spans, stitching, histograms, exporters.

Covers the tracer itself (nesting, cross-thread parent handles, bounded
buffers, the structured event log, Chrome-trace export, summaries), the
histogram metric kind (percentiles, merge-by-bucket-addition, concurrent
writers), and the end-to-end wiring: per-iteration solver spans, worker
shard stitching, the ``index.query_seconds`` latency histogram, traced
sweeps, and the ``--trace``/``--metrics`` CLI composition.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.cli import main
from repro.core import top_k_pairs
from repro.core.gsim_plus import gsim_plus
from repro.experiments.spec import ExperimentSpec, run_spec
from repro.graphs import Graph
from repro.retrieval import GSimIndex
from repro.runtime import (
    HISTOGRAM_BUCKETS,
    NULL_TRACER,
    ExecutionContext,
    Metrics,
    NullTracer,
    Tracer,
    WorkerPool,
    histogram_bucket_bounds,
    render_trace_summary,
    summarize_trace,
)

pytestmark = pytest.mark.trace


def _ring(n: int, seed: int = 0) -> Graph:
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % n) for i in range(n)]
    for _ in range(n // 2):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.append((int(u), int(v)))
    return Graph.from_edges(n, edges)


# ----------------------------------------------------------------------
# Tracer core
# ----------------------------------------------------------------------
class TestTracer:
    def test_implicit_nesting_and_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            assert tracer.current_span() is outer
            with tracer.span("inner") as inner:
                assert tracer.current_span() is inner
        assert tracer.current_span() is None
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.span_id != outer.span_id
        # Completion order: inner closes first.
        assert [s.name for s in tracer.spans()] == ["inner", "outer"]
        assert outer.duration >= inner.duration >= 0.0

    def test_explicit_parent_stitches_across_threads(self):
        tracer = Tracer()
        with tracer.span("submit") as parent:
            def shard():
                with tracer.span("shard", parent=parent):
                    pass

            threads = [threading.Thread(target=shard) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        shards = [s for s in tracer.spans() if s.name == "shard"]
        assert len(shards) == 4
        assert all(s.parent_id == parent.span_id for s in shards)
        # The worker threads had empty stacks; the explicit handle must
        # not be overridden by implicit resolution.
        assert parent.parent_id is None

    def test_exception_recorded_as_error_attribute(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (span,) = tracer.spans()
        assert span.attributes["error"] == "ValueError"
        assert span.end is not None

    def test_span_buffer_is_bounded_and_drops_oldest(self):
        tracer = Tracer(max_spans=3)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert [s.name for s in tracer.spans()] == ["s2", "s3", "s4"]
        assert tracer.dropped_spans == 2
        # Many times over the bound: the newest max_spans, in order.
        tracer = Tracer(max_spans=100)
        for index in range(300):
            with tracer.span(f"s{index}"):
                pass
        assert [s.name for s in tracer.spans()] == [
            f"s{index}" for index in range(200, 300)
        ]
        assert tracer.dropped_spans == 200

    def test_event_log_bounded_and_bound_to_spans(self):
        tracer = Tracer(max_events=2)
        with tracer.span("work") as span:
            tracer.event("first", severity="warning", detail=1)
        tracer.event("second")
        tracer.event("third", span=span, detail=3)
        events = tracer.events()
        assert [e["name"] for e in events] == ["second", "third"]
        assert tracer.dropped_events == 1
        # "second" fired outside any span; "third" was bound explicitly.
        assert events[0]["span_id"] is None
        assert events[1]["span_id"] == span.span_id
        assert events[1]["attributes"] == {"detail": 3}

    def test_chrome_trace_format(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", width=4) as outer:
            with tracer.span("inner"):
                tracer.event("milestone", severity="info", step=2)
        payload = tracer.chrome_trace()
        text = json.dumps(payload)  # must be JSON-serialisable
        assert "traceEvents" in payload
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert {e["name"] for e in complete} == {"outer", "inner"}
        assert [e["name"] for e in instants] == ["milestone"]
        by_name = {e["name"]: e for e in complete}
        assert by_name["inner"]["args"]["parent_id"] == outer.span_id
        assert by_name["outer"]["args"]["width"] == 4
        assert by_name["outer"]["dur"] >= by_name["inner"]["dur"] >= 0
        # The stitching marker is internal, never exported.
        assert "explicit_parent" not in text
        out = tmp_path / "trace.json"
        tracer.write_chrome_trace(out)
        assert json.loads(out.read_text())["traceEvents"]

    def test_write_events_jsonl(self, tmp_path):
        tracer = Tracer()
        tracer.event("a", severity="error", code=7)
        tracer.event("b")
        out = tmp_path / "events.jsonl"
        tracer.write_events(out)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["severity"] == "error"

    def test_summarize_trace_self_time_telescopes(self):
        tracer = Tracer()
        with tracer.span("root"):
            for _ in range(3):
                with tracer.span("child"):
                    time.sleep(0.002)
        rows = summarize_trace(tracer)
        by_name = {row["name"]: row for row in rows}
        assert by_name["child"]["calls"] == 3
        assert by_name["root"]["calls"] == 1
        root_total = by_name["root"]["total_seconds"]
        self_sum = sum(row["self_seconds"] for row in rows)
        # Serial trace: self time telescopes back to the root duration.
        assert self_sum == pytest.approx(root_total, rel=1e-9)
        assert by_name["child"]["min_seconds"] <= by_name["child"]["max_seconds"]
        # Hottest-first ranking.
        assert rows == sorted(
            rows, key=lambda row: (-row["self_seconds"], row["name"])
        )

    def test_render_trace_summary(self):
        tracer = Tracer()
        with tracer.span("alpha"):
            pass
        table = render_trace_summary(tracer)
        assert "span" in table and "alpha" in table and "self s" in table
        assert "(no spans recorded)" in render_trace_summary(Tracer())


class TestNullTracer:
    def test_null_span_is_a_shared_singleton(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
        assert NULL_TRACER.current_span() is None
        assert not NULL_TRACER.enabled
        NULL_TRACER.event("ignored", severity="error")

    def test_null_span_is_inert(self):
        with NULL_TRACER.span("x") as span:
            span.set_attribute("k", 1)
        assert span.duration == 0.0

    def test_context_defaults_to_null_tracer(self):
        assert ExecutionContext().tracer is NULL_TRACER
        tracer = Tracer()
        assert ExecutionContext(tracer=tracer).tracer is tracer
        assert isinstance(ExecutionContext().tracer, NullTracer)


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------
class TestHistograms:
    def test_bucket_bounds_tile_the_range(self):
        assert histogram_bucket_bounds(0) == (0.0, 1e-6)
        for index in range(1, HISTOGRAM_BUCKETS - 1):
            lower, upper = histogram_bucket_bounds(index)
            assert histogram_bucket_bounds(index - 1)[1] == pytest.approx(lower)
            assert upper > lower
        assert histogram_bucket_bounds(HISTOGRAM_BUCKETS - 1)[1] == float("inf")
        with pytest.raises(IndexError):
            histogram_bucket_bounds(HISTOGRAM_BUCKETS)

    def test_percentiles_over_a_known_distribution(self):
        metrics = Metrics()
        for millis in range(1, 101):  # 1ms .. 100ms
            metrics.observe_histogram("lat", millis / 1000.0)
        hist = metrics.histogram("lat")
        assert hist["count"] == 100
        assert hist["min"] == pytest.approx(0.001)
        assert hist["max"] == pytest.approx(0.100)
        assert hist["sum"] == pytest.approx(sum(range(1, 101)) / 1000.0)
        assert hist["p50"] <= hist["p90"] <= hist["p99"] <= hist["max"]
        # Buckets are ~33% wide; the estimates stay in the right decade.
        assert 0.025 <= hist["p50"] <= 0.085
        assert hist["p99"] >= 0.07

    def test_merge_is_exact_bucket_addition(self):
        first, second = Metrics(), Metrics()
        for value in (1e-5, 1e-3, 1e-1):
            first.observe_histogram("h", value)
            second.observe_histogram("h", value)
        second.observe_histogram("h", 10.0)
        first.merge_snapshot(second.snapshot())
        merged = first.histogram("h")
        assert merged["count"] == 7
        assert merged["max"] == pytest.approx(10.0)
        expected = Metrics()
        for value in (1e-5, 1e-3, 1e-1, 1e-5, 1e-3, 1e-1, 10.0):
            expected.observe_histogram("h", value)
        assert merged["buckets"] == expected.histogram("h")["buckets"]
        assert merged["sum"] == pytest.approx(expected.histogram("h")["sum"])

    def test_absent_histogram_reads_as_zero(self):
        hist = Metrics().histogram("never")
        assert hist["count"] == 0
        assert hist["buckets"] == {}
        assert hist["p99"] == 0.0

    def test_concurrent_writers_exact_counts(self):
        """Satellite: >=4 threads hammering one sink lose nothing."""
        metrics = Metrics()
        threads, per_thread = 6, 500

        def worker(seed: int) -> None:
            for step in range(per_thread):
                metrics.increment("ops")
                metrics.observe_histogram("lat", (seed + 1) * 1e-4)
                metrics.record_max("peak", seed * per_thread + step)

        pool = [
            threading.Thread(target=worker, args=(index,))
            for index in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert metrics.counter("ops") == threads * per_thread
        hist = metrics.histogram("lat")
        assert hist["count"] == threads * per_thread
        assert sum(hist["buckets"].values()) == threads * per_thread
        assert metrics.gauge("peak") == threads * per_thread - 1

    def test_concurrent_merge_snapshot_exact(self):
        """Satellite: concurrent merge_snapshot folds are lossless."""
        shared = Metrics()
        threads = 4

        def producer(seed: int) -> None:
            local = Metrics()
            for _ in range(200):
                local.increment("cells")
                local.observe_histogram("lat", (seed + 1) * 1e-3)
            shared.merge_snapshot(local.snapshot())

        pool = [
            threading.Thread(target=producer, args=(index,))
            for index in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert shared.counter("cells") == threads * 200
        hist = shared.histogram("lat")
        assert hist["count"] == threads * 200
        assert sum(hist["buckets"].values()) == threads * 200

    def test_snapshot_key_ordering_is_deterministic(self):
        """Satellite: same measurements, any insertion order -> same JSON."""
        forward, backward = Metrics(), Metrics()
        names = ["zeta", "alpha", "mid"]
        for name in names:
            forward.increment(name)
            forward.observe_histogram(f"h.{name}", 0.01)
        for name in reversed(names):
            backward.increment(name)
            backward.observe_histogram(f"h.{name}", 0.01)
        assert json.dumps(forward.snapshot()) == json.dumps(backward.snapshot())
        snap = forward.snapshot()
        assert list(snap["counters"]) == sorted(names)
        assert list(snap["histograms"]) == sorted(f"h.{n}" for n in names)


# ----------------------------------------------------------------------
# Wiring: solver, worker shards, index, sweep, CLI
# ----------------------------------------------------------------------
class TestTracedSolver:
    def test_one_span_per_iteration_with_attributes(self):
        tracer = Tracer()
        context = ExecutionContext(tracer=tracer)
        a, b = _ring(14, seed=1), _ring(11, seed=2)
        gsim_plus(a, b, iterations=4, context=context)
        iterate = [s for s in tracer.spans() if s.name == "gsim_plus.iterate"]
        assert len(iterate) == 4
        assert [s.attributes["k"] for s in iterate] == [1, 2, 3, 4]
        assert all("width" in s.attributes for s in iterate)

    def test_untraced_context_records_nothing(self):
        context = ExecutionContext()
        a, b = _ring(10, seed=3), _ring(9, seed=4)
        gsim_plus(a, b, iterations=2, context=context)
        assert context.tracer is NULL_TRACER


@pytest.mark.parallel
class TestShardStitching:
    def test_pool_shards_parent_under_submitting_span(self):
        tracer = Tracer()
        context = ExecutionContext(tracer=tracer)
        pool = WorkerPool.resolve(3)
        with tracer.span("submit") as parent:
            results = pool.map(
                lambda value: value * 2, list(range(8)),
                context=context, what="doubling",
            )
        assert results == [v * 2 for v in range(8)]
        shards = [s for s in tracer.spans() if s.name == "parallel.shard"]
        assert len(shards) == 8
        assert all(s.parent_id == parent.span_id for s in shards)

    def test_topk_scan_stitches_at_two_workers(self):
        """Two workers shard the build; the pair scan itself is serial
        and reports what it scored on its own span."""
        tracer = Tracer()
        context = ExecutionContext(tracer=tracer)
        a, b = _ring(24, seed=5), _ring(20, seed=6)
        top_k_pairs(a, b, 5, iterations=3, context=context, max_workers=2)
        spans = tracer.spans()
        (scan,) = [s for s in spans if s.name == "topk.scan_pairs"]
        assert 0 < scan.attributes["rows_scored"] <= 24
        assert 0 < scan.attributes["cells_scored"] <= 24 * 20
        shards = [s for s in spans if s.name == "parallel.shard"]
        assert shards, "the build must shard its steps"
        assert all(s.parent_id != scan.span_id for s in shards)


class TestTracedIndex:
    def test_query_latency_histogram_over_100_queries(self):
        a, b = _ring(30, seed=7), _ring(25, seed=8)
        index = GSimIndex.build(a, b, iterations=4)
        tracer = Tracer()
        context = ExecutionContext(tracer=tracer)
        for step in range(100):
            index.query([step % a.num_nodes], [step % b.num_nodes], context=context)
        hist = context.metrics.histogram("index.query_seconds")
        assert hist["count"] == 100
        assert 0.0 < hist["p50"] <= hist["p99"]
        query_spans = [s for s in tracer.spans() if s.name == "index.query"]
        assert len(query_spans) == 100
        assert query_spans[0].attributes["cells"] == 1

    def test_query_many_span_covers_all_requests(self):
        a, b = _ring(16, seed=9), _ring(13, seed=10)
        index = GSimIndex.build(a, b, iterations=3)
        tracer = Tracer()
        context = ExecutionContext(tracer=tracer)
        requests = [([i], [0, 1]) for i in range(6)]
        blocks = index.query_many(requests, max_workers=2, context=context)
        assert len(blocks) == 6
        (many,) = [s for s in tracer.spans() if s.name == "index.query_many"]
        assert many.attributes["requests"] == 6
        assert context.metrics.histogram("index.query_seconds")["count"] == 6


class TestTracedSweep:
    def test_sweep_spans_nest_and_account_for_wall_time(self):
        spec = ExperimentSpec(
            name="traced", datasets=("EE",), algorithms=("GSim+",),
            scale="tiny", iterations=3,
        )
        tracer = Tracer()
        records = run_spec(spec, context=ExecutionContext(tracer=tracer))
        assert records
        spans = tracer.spans()
        (root,) = [s for s in spans if s.name == "sweep.run"]
        cells = [s for s in spans if s.name == "sweep.cell"]
        assert len(cells) == len(records)
        assert all(c.parent_id == root.span_id for c in cells)
        assert all(c.attributes["outcome"] == "ok" for c in cells)
        iterates = [s for s in spans if s.name == "gsim_plus.iterate"]
        cell_ids = {c.span_id for c in cells}
        assert iterates and all(s.parent_id in cell_ids for s in iterates)
        # Serial run: the self-time ranking telescopes back to the root
        # duration (the acceptance bound is 10%; exact here).
        rows = summarize_trace(tracer)
        self_sum = sum(row["self_seconds"] for row in rows)
        assert self_sum == pytest.approx(root.duration, rel=0.10)


class TestTracedCli:
    def test_trace_and_metrics_compose(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "fig3", "--scale", "tiny", "--algorithms", "GSim+",
            "--trace", str(trace_path), "--trace-summary",
            "--metrics", str(metrics_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace written to" in out and "metrics written to" in out
        assert "self s" in out  # the summary table
        payload = json.loads(trace_path.read_text())
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert {"sweep.run", "sweep.cell", "gsim_plus.iterate"} <= names
        metrics = json.loads(metrics_path.read_text())
        assert set(metrics) == {"counters", "gauges", "histograms"}
        assert metrics["counters"]["sweep.cells"] == len(
            [e for e in payload["traceEvents"] if e["name"] == "sweep.cell"]
        )

    def test_topk_trace_has_shard_spans(self, tmp_path, capsys):
        trace_path = tmp_path / "topk-trace.json"
        code = main([
            "topk", "--scale", "tiny", "--dataset", "HP", "--top", "3",
            "--workers", "2", "--trace", str(trace_path),
        ])
        assert code == 0
        payload = json.loads(trace_path.read_text())
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in complete}
        assert {"gsim_plus.iterate", "topk.scan_pairs", "parallel.shard"} <= names
        (scan,) = [e for e in complete if e["name"] == "topk.scan_pairs"]
        assert scan["args"]["cells_scored"] > 0
        shard_parents = {
            e["args"]["parent_id"] for e in complete if e["name"] == "parallel.shard"
        }
        assert scan["args"]["span_id"] not in shard_parents  # a serial scan
