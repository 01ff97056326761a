"""Run-level telemetry tests: the slow-query log, SLO tracking, the
CLI's run record, and the perf gate.

Run as a suite with ``pytest -m telemetry``.
"""

from __future__ import annotations

import importlib.util
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import top_k_pairs
from repro.graphs import erdos_renyi_graph, random_node_sample
from repro.retrieval import GSimIndex
from repro.runtime import (
    ExecutionContext,
    Metrics,
    SLObjective,
    SLOTracker,
    SlowQueryLog,
    render_slo_report,
)
from repro.runtime.metrics import HISTOGRAM_BUCKETS, histogram_bucket_bounds

pytestmark = pytest.mark.telemetry

REPO_ROOT = Path(__file__).resolve().parent.parent

@pytest.fixture
def pair():
    graph_a = erdos_renyi_graph(30, 120, seed=1)
    graph_b = random_node_sample(graph_a, 12, seed=2)
    return graph_a, graph_b


# ----------------------------------------------------------------------
# SlowQueryLog
# ----------------------------------------------------------------------
class TestSlowQueryLog:
    def test_threshold_filters(self):
        log = SlowQueryLog(threshold_seconds=0.1)
        assert not log.maybe_record("index.query", 0.05)
        assert log.maybe_record("index.query", 0.15, k=10)
        assert len(log) == 1
        record = log.records()[0]
        assert record.operation == "index.query"
        assert record.attributes["k"] == 10
        assert record.query_id == 1

    def test_ring_is_bounded(self):
        log = SlowQueryLog(threshold_seconds=0.0, capacity=3)
        for i in range(10):
            log.maybe_record("op", float(i))
        assert len(log) == 3
        assert log.total_recorded == 10
        assert [r.duration_seconds for r in log.records()] == [7.0, 8.0, 9.0]
        # Query ids keep counting even as old records fall out.
        assert log.records()[-1].query_id == 10

    def test_snapshot_shape(self):
        log = SlowQueryLog(threshold_seconds=0.0, capacity=8)
        log.maybe_record("a", 1.0)
        snap = log.snapshot()
        assert snap["threshold_seconds"] == 0.0
        assert snap["capacity"] == 8
        assert snap["total_recorded"] == 1
        assert snap["records"][0]["operation"] == "a"

    def test_validation(self):
        with pytest.raises(ValueError):
            SlowQueryLog(threshold_seconds=-1)
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)

    def test_thread_safety(self):
        log = SlowQueryLog(threshold_seconds=0.0, capacity=10_000)

        def work():
            for _ in range(500):
                log.maybe_record("op", 1.0)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert log.total_recorded == 2000
        assert len({r.query_id for r in log.records()}) == len(log)


# ----------------------------------------------------------------------
# SLO tracking
# ----------------------------------------------------------------------
class TestSLO:
    def test_parse_units(self):
        assert SLObjective.parse("p99(x) < 50ms").threshold == pytest.approx(0.05)
        assert SLObjective.parse("p50(x) <= 20us").threshold == pytest.approx(2e-5)
        assert SLObjective.parse("max(x) < 2s").threshold == 2.0
        assert SLObjective.parse("error_rate(x) < 0.1%").threshold == (
            pytest.approx(0.001)
        )
        assert SLObjective.parse("count(x) <= 100").threshold == 100.0
        assert SLObjective.parse("p99(x) <= 1ms").inclusive
        assert not SLObjective.parse("p99(x) < 1ms").inclusive

    def test_parse_rejects_garbage(self):
        for bad in (
            "p98(x) < 1ms", "p99(x) > 1ms", "nonsense", "p99() < 1ms", "rate(x) < 1",
        ):
            with pytest.raises(ValueError):
                SLObjective.parse(bad)

    def test_violated_p99_is_flagged(self):
        metrics = Metrics()
        # Deliberately violate: all observations sit far above 1ms.
        for _ in range(100):
            metrics.observe_histogram("index.query_seconds", 0.5)
        tracker = SLOTracker(["p99(index.query_seconds) < 1ms"])
        reports = tracker.evaluate(metrics.snapshot())
        assert len(reports) == 1
        assert not reports[0].ok
        assert reports[0].observed >= 0.1
        assert reports[0].budget_burn > 1.0
        assert tracker.violated(metrics.snapshot())

    def test_satisfied_p99(self):
        metrics = Metrics()
        for _ in range(100):
            metrics.observe_histogram("index.query_seconds", 1e-4)
        reports = SLOTracker(["p99(index.query_seconds) < 50ms"]).evaluate(
            metrics.snapshot()
        )
        assert reports[0].ok
        assert 0.0 < reports[0].budget_burn < 1.0

    def test_error_rate(self):
        metrics = Metrics()
        metrics.increment("index.query.requests", 1000)
        metrics.increment("index.query.errors", 5)
        reports = SLOTracker(
            ["error_rate(index.query) < 0.1%", "error_rate(index.query) <= 0.5%"]
        ).evaluate(metrics.snapshot())
        assert not reports[0].ok  # 0.5% > 0.1%
        assert reports[1].ok  # 0.5% <= 0.5% (inclusive)
        assert reports[0].observed == pytest.approx(0.005)

    def test_rate_of_counters(self):
        metrics = Metrics()
        metrics.increment("sweep.errors", 1)
        metrics.increment("sweep.cells", 100)
        reports = SLOTracker(
            ["rate(sweep.errors/sweep.cells) < 0.05"]
        ).evaluate(metrics.snapshot())
        assert reports[0].ok
        assert reports[0].observed == pytest.approx(0.01)

    def test_empty_snapshot_is_vacuously_ok(self):
        reports = SLOTracker(["p99(missing) < 1ms"]).evaluate(Metrics().snapshot())
        assert reports[0].ok
        assert reports[0].observed == 0.0

    def test_recorded_names_the_inputs_observe_reads(self):
        metrics = Metrics()
        metrics.observe_histogram("q_seconds", 0.1)
        metrics.increment("q.requests")
        metrics.increment("sweep.errors")
        snapshot = metrics.snapshot()
        recorded = {
            "p99(q_seconds) < 1s": True,
            "mean(q_seconds) < 1s": True,
            "p99(r_seconds) < 1s": False,
            "error_rate(q) < 1%": True,
            "error_rate(r) < 1%": False,
            "rate(sweep.errors/q.requests) < 1": True,
            "rate(sweep.errors/sweep.cells) < 1": False,
        }
        for declaration, expected in recorded.items():
            objective = SLObjective.parse(declaration)
            assert objective.recorded(snapshot) is expected, declaration
            if not expected:
                assert objective.observe(snapshot) == 0.0

    def test_render_report(self):
        metrics = Metrics()
        metrics.observe_histogram("x", 10.0)
        text = render_slo_report(
            SLOTracker(["p99(x) < 1ms"]).evaluate(metrics.snapshot())
        )
        assert "VIOLATED" in text
        assert "p99(x) < 1ms" in text


# ----------------------------------------------------------------------
# Histogram hardening + accuracy (satellite 2 / 4)
# ----------------------------------------------------------------------
class TestHistogramHardening:
    def test_invalid_observations_counted_not_recorded(self):
        metrics = Metrics()
        for bad in (float("nan"), float("inf"), float("-inf"), 0.0, -1.0):
            metrics.observe_histogram("lat", bad)
        snap = metrics.snapshot()
        assert snap["counters"]["lat.invalid_observations"] == 5
        assert "lat" not in snap["histograms"]

    def test_valid_observations_unaffected(self):
        metrics = Metrics()
        metrics.observe_histogram("lat", 0.5)
        metrics.observe_histogram("lat", float("nan"))
        hist = metrics.snapshot()["histograms"]["lat"]
        assert hist["count"] == 1
        assert hist["sum"] == 0.5

    def test_single_observation_percentiles(self):
        metrics = Metrics()
        metrics.observe_histogram("lat", 0.037)
        hist = metrics.snapshot()["histograms"]["lat"]
        assert hist["count"] == 1
        assert hist["min"] == hist["max"] == 0.037
        # Quantiles clamp to [min, max]: exact for a single observation.
        assert hist["p50"] == hist["p90"] == hist["p99"] == 0.037

    def test_bucket_boundary_accuracy(self):
        # Values on exact bucket bounds: every quantile estimate must stay
        # within one log-spaced bucket width (factor 10^(1/8)) of truth.
        width = 10 ** (1 / 8)
        for index in (9, 17, 25):
            lower, _upper = histogram_bucket_bounds(index)
            metrics = Metrics()
            for _ in range(50):
                metrics.observe_histogram("lat", lower)
            hist = metrics.snapshot()["histograms"]["lat"]
            for q in ("p50", "p90", "p99"):
                assert lower / width <= hist[q] <= lower * width

    def test_disjoint_bucket_merge(self):
        fast, slow = Metrics(), Metrics()
        for _ in range(10):
            fast.observe_histogram("lat", 1e-5)
        for _ in range(10):
            slow.observe_histogram("lat", 1e2)
        merged = Metrics()
        merged.merge_snapshot(fast.snapshot())
        merged.merge_snapshot(slow.snapshot())
        hist = merged.snapshot()["histograms"]["lat"]
        assert hist["count"] == 20
        assert hist["min"] == 1e-5
        assert hist["max"] == 1e2
        assert hist["sum"] == pytest.approx(10 * 1e-5 + 10 * 1e2)
        # The median straddles the gap; p99 must land in the slow mode.
        assert hist["p99"] >= 1.0

    def test_underflow_and_overflow_buckets(self):
        metrics = Metrics()
        metrics.observe_histogram("lat", 1e-9)   # below the 1e-6 span
        metrics.observe_histogram("lat", 1e6)    # above the 1e4 span
        hist = metrics.snapshot()["histograms"]["lat"]
        assert hist["count"] == 2
        assert set(map(int, hist["buckets"])) == {0, HISTOGRAM_BUCKETS - 1}


class TestGoldenSnapshot:
    def test_snapshot_schema_is_stable(self):
        """The exported snapshot JSON must stay load-compatible: a golden
        file pins the schema consumed by dashboards and the flusher."""
        metrics = Metrics()
        metrics.increment("index.queries", 3)
        metrics.set_gauge("memory.held_bytes", 2048.0)
        # Sections of the removed timer and series kinds are ignored.
        metrics.merge_snapshot({
            "timers": {"build": {"seconds": 1.25, "calls": 2}},
            "series": {"convergence.delta": [0.5]},
        })
        metrics.observe_histogram("index.query_seconds", 0.004)
        metrics.observe_histogram("index.query_seconds", 0.008)
        snapshot = json.loads(json.dumps(metrics.snapshot(), sort_keys=True))
        golden_path = REPO_ROOT / "tests" / "data" / "metrics_snapshot_golden.json"
        golden = json.loads(golden_path.read_text(encoding="utf-8"))
        assert snapshot == golden


# ----------------------------------------------------------------------
# Wiring: retrieval + core record telemetry without changing results
# ----------------------------------------------------------------------
class TestRetrievalWiring:
    def test_index_query_records_latency_and_slow_query(self, pair):
        index = GSimIndex.build(*pair, iterations=4)
        slow = SlowQueryLog(threshold_seconds=0.0)
        context = ExecutionContext(slow_queries=slow)
        index.query([0, 1], [2, 3], context=context)
        snap = context.snapshot()
        assert snap["histograms"]["index.query_seconds"]["count"] == 1
        assert snap["counters"]["index.query.requests"] == 1
        assert "index.query.errors" not in snap["counters"]
        # The nested batch engine records first; the index-level record
        # wraps it.
        by_operation = {r.operation: r for r in slow.records()}
        assert "batch.query_block" in by_operation
        record = by_operation["index.query"]
        assert record.attributes["width"] >= 1
        assert record.attributes["error"] is False

    def test_index_query_error_counted(self, pair):
        index = GSimIndex.build(*pair, iterations=4)
        slow = SlowQueryLog(threshold_seconds=0.0)
        context = ExecutionContext(slow_queries=slow)
        with pytest.raises(IndexError):
            index.query([10**9], [0], context=context)
        snap = context.snapshot()
        assert snap["counters"]["index.query.errors"] == 1
        assert slow.records()[-1].attributes["error"] is True

    def test_top_pairs_record(self, pair):
        index = GSimIndex.build(*pair, iterations=4)
        slow = SlowQueryLog(threshold_seconds=0.0)
        context = ExecutionContext(slow_queries=slow)
        index.top_pairs(5, context=context)
        operations = [r.operation for r in slow.records()]
        assert "index.top_pairs" in operations
        assert "topk.scan_pairs" in operations  # nested core scan
        snap = context.snapshot()
        assert snap["histograms"]["index.top_pairs_seconds"]["count"] == 1

    def test_top_k_pairs_bit_identical_with_telemetry(self, pair):
        graph_a, graph_b = pair
        bare = top_k_pairs(graph_a, graph_b, 10, iterations=5)
        context = ExecutionContext(slow_queries=SlowQueryLog(threshold_seconds=0.0))
        observed = top_k_pairs(
            graph_a, graph_b, 10, iterations=5, context=context
        )
        assert [(p.node_a, p.node_b) for p in bare] == [
            (p.node_a, p.node_b) for p in observed
        ]
        np.testing.assert_array_equal(
            np.array([p.score for p in bare]),
            np.array([p.score for p in observed]),
        )
        assert context.slow_queries.total_recorded >= 1

    def test_batch_engine_records(self):
        from repro.core.batch import BatchQueryEngine
        from repro.core.embeddings import LowRankFactors

        engine = BatchQueryEngine(
            LowRankFactors(np.ones((4, 1)), np.ones((3, 1)))
        )
        slow = SlowQueryLog(threshold_seconds=0.0)
        context = ExecutionContext(slow_queries=slow)
        engine.query([0, 1], [2], context=context)
        record = slow.records()[0]
        assert record.operation == "batch.query_block"
        assert record.attributes["cells"] == 2

    def test_cell_merges_into_metrics_sink(self, pair):
        from repro.experiments.runner import ALGORITHMS, run_algorithm
        from repro.workloads.queries import make_workload

        graph_a, graph_b = pair
        workload = make_workload(graph_a, graph_b, 4, 4, seed=3)
        sink = Metrics()
        slow = SlowQueryLog(threshold_seconds=0.0)
        record = run_algorithm(
            ALGORITHMS["GSim+"],
            graph_a,
            graph_b,
            workload.queries_a,
            workload.queries_b,
            3,
            context=ExecutionContext(metrics=sink, slow_queries=slow),
        )
        assert record.outcome.value == "ok"
        snap = sink.snapshot()
        assert snap["counters"].get("gsim_plus.iterations", 0) > 0
        assert snap["counters"]["sweep.cells"] == 1
        # The cell's own record keeps only the cell's metrics.
        assert "sweep.cells" not in record.metrics["counters"]


# ----------------------------------------------------------------------
# CLI wiring (the run record + failure-path flush)
# ----------------------------------------------------------------------
class TestCliTelemetry:
    def test_topk_writes_telemetry(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.json"
        code = main([
            "topk", "--scale", "tiny", "--top", "3",
            "--metrics", str(path),
            "--slow-query-ms", "0",
            "--slo", "p99(topk.scan_pairs_seconds) < 60s",
        ])
        assert code == 0
        record = json.loads(path.read_text())
        assert record["histograms"]["topk.scan_pairs_seconds"]["count"] == 1
        assert record["gauges"]["gsim_plus.peak_bytes_held"] > 0
        assert record["peak_rss_bytes"] > 0
        slow = record["slow_queries"]
        assert slow["threshold_seconds"] == 0.0
        assert any(row["operation"] == "topk.scan_pairs" for row in slow["records"])
        (verdict,) = record["slo"]
        assert verdict["slo"] == "p99(topk.scan_pairs_seconds) < 60s"
        assert verdict["ok"] is True
        assert f"metrics written to {path}" in capsys.readouterr().out

    def test_slo_violation_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.json"
        code = main([
            "topk", "--scale", "tiny", "--top", "3",
            "--metrics", str(path),
            "--slo", "max(topk.scan_pairs_seconds) < 1us",
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert "VIOLATED" in captured.out
        assert "SLO violated" in captured.err
        # A violated objective still leaves its record, verdict included.
        (verdict,) = json.loads(path.read_text())["slo"]
        assert verdict["slo"] == "max(topk.scan_pairs_seconds) < 1us"
        assert verdict["ok"] is False

    def test_slo_without_telemetry_dir(self, capsys):
        """With no output path at all, the objectives are still judged."""
        from repro.cli import main

        code = main([
            "topk", "--scale", "tiny", "--top", "3",
            "--slo", "max(topk.scan_pairs_seconds) < 1us",
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert "VIOLATED" in captured.out
        assert "metrics written" not in captured.out

    def test_slo_on_unrecorded_metric_warns(self, capsys):
        from repro.cli import main

        code = main([
            "topk", "--scale", "tiny", "--top", "3",
            "--slo", "p99(topk.scan_seconds) < 60s",
            "--slo", "p99(topk.scan_pairs_seconds) < 60s",
        ])
        assert code == 0
        warnings = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("warning: SLO")
        ]
        assert warnings == [
            "warning: SLO 'p99(topk.scan_seconds) < 60s' reads a metric "
            "this run never recorded"
        ]

    def test_sweep_error_rate_is_recorded(self, capsys):
        from repro.cli import main

        code = main([
            "fig3", "--scale", "tiny", "--algorithms", "GSim+",
            "--slo", "rate(sweep.errors/sweep.cells) <= 0",
        ])
        assert code == 0
        assert "never recorded" not in capsys.readouterr().err

    def test_bad_slo_is_a_clean_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "topk", "--scale", "tiny", "--top", "3",
                "--slo", "p42(x) > fast",
            ])
        assert excinfo.value.code == 2
        assert "cannot parse SLO" in capsys.readouterr().err

    def test_failure_path_still_flushes(self, tmp_path, capsys, monkeypatch):
        import repro.core
        from repro.cli import main

        def boom(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(repro.core, "top_k_pairs", boom)
        path = tmp_path / "run.json"
        with pytest.raises(RuntimeError, match="injected failure"):
            main([
                "topk", "--scale", "tiny", "--top", "3",
                "--metrics", str(path),
            ])
        # The partial record still landed on disk for the post-mortem.
        record = json.loads(path.read_text())
        assert record["peak_rss_bytes"] > 0
        assert record["slow_queries"]["total_recorded"] == 0


# ----------------------------------------------------------------------
# Perf-regression gate (scripts/bench_gate.py)
# ----------------------------------------------------------------------
def _load_bench_gate():
    path = REPO_ROOT / "scripts" / "bench_gate.py"
    module_spec = importlib.util.spec_from_file_location("bench_gate", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_gate():
    return _load_bench_gate()


def _bench_json(medians: dict[str, float]) -> dict:
    return {
        "machine_info": {}, "commit_info": {}, "datetime": "", "version": "4",
        "benchmarks": [
            {
                "fullname": fullname,
                "name": fullname.rpartition("::")[2],
                "stats": {
                    "median": median, "mean": median,
                    "min": median * 0.9, "max": median * 1.1,
                    "ops": 1.0 / median,
                },
            }
            for fullname, median in medians.items()
        ],
    }


class TestBenchGate:
    def test_self_compare_passes(self, bench_gate, tmp_path, capsys):
        baseline = REPO_ROOT / "results" / "BENCH_core.json"
        code = bench_gate.main([
            "--baseline", str(baseline), "--candidate", str(baseline),
        ])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_two_x_regression_fails(self, bench_gate, tmp_path, capsys):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(_bench_json({"bench::a": 0.01, "bench::b": 0.02})))
        cand.write_text(json.dumps(_bench_json({"bench::a": 0.02, "bench::b": 0.02})))
        code = bench_gate.main([
            "--baseline", str(base), "--candidate", str(cand),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL bench::a" in out
        assert "ok   bench::b" in out

    def test_improvement_never_fails(self, bench_gate, tmp_path):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(_bench_json({"bench::a": 0.01})))
        cand.write_text(json.dumps(_bench_json({"bench::a": 0.0001})))
        assert bench_gate.main([
            "--baseline", str(base), "--candidate", str(cand),
        ]) == 0

    def test_band_override_last_match_wins(self, bench_gate, tmp_path):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(_bench_json({"bench::workers_4": 0.01})))
        cand.write_text(json.dumps(_bench_json({"bench::workers_4": 0.025})))
        common = ["--baseline", str(base), "--candidate", str(cand)]
        assert bench_gate.main(common) == 1  # default +50% band
        assert bench_gate.main(common + ["--band", "*workers*=2.0"]) == 0
        assert bench_gate.main(
            common + ["--band", "*workers*=2.0", "--band", "bench::*=0.1"]
        ) == 1  # later, more specific band tightened it again

    def test_new_and_retired_benchmarks_reported_not_gated(
        self, bench_gate, tmp_path, capsys
    ):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(_bench_json({"bench::old": 0.01, "bench::x": 0.01})))
        cand.write_text(json.dumps(_bench_json({"bench::new": 0.01, "bench::x": 0.01})))
        assert bench_gate.main([
            "--baseline", str(base), "--candidate", str(cand),
        ]) == 0
        out = capsys.readouterr().out
        assert "gone bench::old" in out
        assert "new  bench::new" in out

    def test_ops_stat_direction(self, bench_gate, tmp_path):
        # ops is a rate: LOWER candidate ops = regression.
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(_bench_json({"bench::a": 0.01})))
        cand.write_text(json.dumps(_bench_json({"bench::a": 0.03})))
        assert bench_gate.main([
            "--baseline", str(base), "--candidate", str(cand), "--stat", "ops",
        ]) == 1

    def test_unusable_input_exits_2(self, bench_gate, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit) as excinfo:
            bench_gate.main([
                "--baseline", str(missing), "--candidate", str(missing),
            ])
        assert excinfo.value.code == 2
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        with pytest.raises(SystemExit) as excinfo:
            bench_gate.main([
                "--baseline", str(garbage), "--candidate", str(garbage),
            ])
        assert excinfo.value.code == 2

    def test_no_overlap_exits_2(self, bench_gate, tmp_path):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(_bench_json({"bench::a": 0.01})))
        cand.write_text(json.dumps(_bench_json({"bench::b": 0.01})))
        assert bench_gate.main([
            "--baseline", str(base), "--candidate", str(cand),
        ]) == 2

    def test_json_report(self, bench_gate, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_bench_json({"bench::a": 0.01})))
        report_path = tmp_path / "report.json"
        bench_gate.main([
            "--baseline", str(base), "--candidate", str(base),
            "--json", str(report_path),
        ])
        report = json.loads(report_path.read_text())
        assert report["compared"] == 1
        assert report["rows"][0]["regressed"] is False
