"""Command-line entry point: regenerate any figure or table of the paper.

Usage (installed as ``gsimplus`` or via ``python -m repro.cli``)::

    gsimplus fig2 --scale tiny
    gsimplus fig3 --dataset EE --scale small
    gsimplus accuracy --scale tiny
    gsimplus all --scale tiny
    gsimplus fig2 --scale tiny --metrics out.json   # dump runtime metrics
    gsimplus spec exp.json --trace trace.json --trace-summary

Every subcommand runs under one :class:`repro.runtime.ExecutionContext`,
and ``--metrics PATH`` writes its counter/gauge/histogram snapshot as
JSON: experiment commands merge every cell's metrics into it (with the
``sweep.cells`` / ``sweep.quarantined`` counters), ``topk``/``sim``/
``live`` run on it, and ``accuracy``/``bound``/``datasets`` record their
wall time as ``cli.<command>`` operations.

``--trace PATH`` (figures, ``all``, ``spec``, ``topk``, ``sim``) records
a hierarchical span trace of the run and writes Chrome ``trace_event``
JSON — open it in Perfetto or ``chrome://tracing`` to see iterate →
shard → top-k nesting; ``--trace-summary`` prints the per-span-name
total/self-time hot-path table instead of (or as well as) the file.
``--trace`` and ``--metrics`` compose in one run.

``--telemetry-dir DIR`` (same subcommands as ``--trace``) opens a
:class:`repro.runtime.TelemetrySession`: a background flusher exports
the run's metrics to ``DIR/metrics.prom`` (Prometheus text format) and
``DIR/metrics.jsonl`` (append-only time-series) every
``--flush-interval`` seconds with resource gauges (RSS, CPU, GC,
threads) sampled on the same cadence, retrieval calls slower than
``--slow-query-ms`` land in ``DIR/slow_queries.jsonl``, and any
``--slo`` objectives (repeatable, e.g.
``--slo 'p99(index.query_seconds) < 50ms'``) are evaluated at the end
into ``DIR/slo_report.json``.  A violated objective sets exit code 3.
``--slo`` also works without ``--telemetry-dir`` (report printed only).

All observability outputs — ``--metrics``, ``--trace``, telemetry — are
flushed on failure paths too: a run that raises or is cancelled
mid-sweep still writes its partial snapshots, so post-mortems have data.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence

from repro.experiments.figures import (
    fig2_time_by_dataset,
    fig3_time_vs_k,
    fig4_time_vs_nb,
    fig5_time_vs_queries,
    fig6_memory_by_dataset,
    fig7_memory_vs_k,
    fig8_memory_vs_queries,
)
from repro.experiments.guards import Deadline, MemoryBudget
from repro.experiments.report import render_records
from repro.experiments.runner import ExperimentConfig
from repro.experiments.tables import accuracy_table, render_accuracy_table

__all__ = ["main"]

_FIGURES: dict[str, tuple[Callable, str, str, str]] = {
    # name -> (driver, sweep column, metric, description)
    "fig2": (fig2_time_by_dataset, "dataset", "time", "time by dataset"),
    "fig3": (fig3_time_vs_k, "k", "time", "time vs iterations k"),
    "fig4": (fig4_time_vs_nb, "n_b", "time", "time vs |V_B|"),
    "fig5": (fig5_time_vs_queries, "q_a", "time", "time vs query size"),
    "fig6": (fig6_memory_by_dataset, "dataset", "memory", "memory by dataset"),
    "fig7": (fig7_memory_vs_k, "k", "memory", "memory vs iterations k"),
    "fig8": (fig8_memory_vs_queries, "q_a", "memory", "memory vs query size"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsimplus",
        description="Regenerate the figures and tables of the GSim+ paper "
        "(EDBT 2024) on simulated, scale-reduced datasets.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def _add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--scale",
            default="tiny",
            choices=("tiny", "small", "medium"),
            help="dataset scale profile (default: tiny)",
        )
        sub.add_argument(
            "--seed", type=int, default=7, help="random seed (default: 7)"
        )
        sub.add_argument(
            "--iterations",
            "-k",
            type=int,
            default=None,
            help="iterations K (default: a per-scale value keeping 2^K "
            "below the scaled |V_B|, as in the paper's regime)",
        )
        sub.add_argument(
            "--algorithms",
            default=None,
            help="comma-separated competitor subset, e.g. 'GSim+,GSim' "
            "(default: all six)",
        )
        sub.add_argument(
            "--deadline",
            type=float,
            default=20.0,
            help="per-cell wall-clock budget in seconds (default: 20)",
        )
        sub.add_argument(
            "--memory-budget-mib",
            type=float,
            default=256.0,
            help="per-cell memory budget in MiB (default: 256)",
        )

    def _add_resilience(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--retries",
            type=int,
            default=0,
            metavar="N",
            help="retry transient failures up to N extra times with "
            "backoff; cells that keep failing are quarantined as "
            "structured ERROR records (default: 0 — fail fast)",
        )
        sub.add_argument(
            "--checkpoint-dir",
            default=None,
            metavar="DIR",
            help="persist progress under DIR (a run journal for sweeps, "
            "iteration snapshots for factor builds) so an interrupted "
            "run can be resumed with --resume",
        )
        sub.add_argument(
            "--resume",
            action="store_true",
            help="resume from the state in --checkpoint-dir: completed "
            "sweep cells are replayed, interrupted factor builds restart "
            "from their last valid snapshot",
        )

    def _add_metrics(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--metrics",
            default=None,
            metavar="PATH",
            help="write the run's counter/gauge/histogram tree as JSON to "
            "this path",
        )

    def _add_trace(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--trace",
            default=None,
            metavar="PATH",
            help="record a hierarchical span trace and write Chrome "
            "trace_event JSON to this path (open in Perfetto or "
            "chrome://tracing)",
        )
        sub.add_argument(
            "--trace-summary",
            action="store_true",
            help="print a per-span-name total/self-time table after the run",
        )

    def _add_telemetry(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--telemetry-dir",
            default=None,
            metavar="DIR",
            help="export operational telemetry under DIR during the run: "
            "metrics.prom (Prometheus text format) + metrics.jsonl "
            "(append-only time-series) flushed periodically with process "
            "resource gauges, and slow_queries.jsonl for retrieval calls "
            "over the --slow-query-ms threshold",
        )
        sub.add_argument(
            "--flush-interval",
            type=float,
            default=5.0,
            metavar="SEC",
            help="telemetry flush cadence in seconds (default: 5)",
        )
        sub.add_argument(
            "--slow-query-ms",
            type=float,
            default=100.0,
            metavar="MS",
            help="latency threshold for the slow-query log in "
            "milliseconds (default: 100)",
        )
        sub.add_argument(
            "--slo",
            action="append",
            default=None,
            metavar="SPEC",
            help="declare a service-level objective evaluated against the "
            "run's final metrics, e.g. 'p99(index.query_seconds) < 50ms' "
            "or 'error_rate(index.query) < 0.1%%'; repeatable; a "
            "violation sets exit code 3",
        )

    def _add_precision(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--precision",
            default="float64",
            choices=("float64", "float32"),
            help="factor dtype for GSim+: float64 is the exact default, "
            "float32 halves memory bandwidth on the SpMM / scan hot "
            "loops (default: float64)",
        )
        sub.add_argument(
            "--recompress-tol",
            type=float,
            default=None,
            metavar="TOL",
            help="enable rank-bounded factor recompression between "
            "doubling steps at relative Frobenius tolerance TOL (e.g. "
            "1e-8); width is then bounded by numerical rank instead of "
            "2^k (default: exact doubling; top-k builds cut at 1e-12)",
        )

    def _add_workers(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--workers",
            type=int,
            default=1,
            metavar="N",
            help="worker threads for sharded kernels and independent "
            "sweep cells (default: 1 — fully serial; results are "
            "identical for every N)",
        )

    for name, (_, _, _, description) in _FIGURES.items():
        sub = subparsers.add_parser(name, help=f"Figure {name[3:]}: {description}")
        _add_common(sub)
        _add_metrics(sub)
        _add_trace(sub)
        _add_telemetry(sub)
        _add_resilience(sub)
        _add_workers(sub)
        _add_precision(sub)
        if name in ("fig3", "fig4", "fig5", "fig7", "fig8"):
            sub.add_argument("--dataset", default="EE", help="dataset key")

    accuracy = subparsers.add_parser(
        "accuracy", help="§5.2.3 accuracy table (GSim+/GSim vs GSVD ranks)"
    )
    _add_common(accuracy)
    _add_metrics(accuracy)
    accuracy.add_argument("--dataset", default="HP", help="dataset key")

    bound = subparsers.add_parser(
        "bound", help="Theorem 4.2 validation: measured error vs spectral bound"
    )
    _add_common(bound)
    _add_metrics(bound)
    bound.add_argument("--dataset", default="HP", help="dataset key")

    everything = subparsers.add_parser(
        "all", help="regenerate every figure and the accuracy table"
    )
    _add_common(everything)
    _add_metrics(everything)
    _add_trace(everything)
    _add_telemetry(everything)
    _add_resilience(everything)
    _add_workers(everything)
    _add_precision(everything)

    topk = subparsers.add_parser(
        "topk", help="retrieve the k most similar cross-graph pairs"
    )
    _add_common(topk)
    _add_metrics(topk)
    _add_trace(topk)
    _add_telemetry(topk)
    _add_workers(topk)
    _add_precision(topk)
    topk.add_argument("--dataset", default="HP", help="dataset key")
    topk.add_argument("--top", type=int, default=10, help="number of pairs")

    datasets = subparsers.add_parser(
        "datasets", help="show the simulated dataset registry and statistics"
    )
    datasets.add_argument(
        "--scale", default="tiny", choices=("tiny", "small", "medium"),
        help="profile whose realised statistics to measure",
    )
    datasets.add_argument("--seed", type=int, default=7)
    _add_metrics(datasets)
    datasets_sub = datasets.add_subparsers(
        dest="datasets_command", required=False,
        metavar="{convert}",
    )
    convert = datasets_sub.add_parser(
        "convert",
        help="convert an edge-list file into an out-of-core mmap-CSR "
        "artifact directory (atomic, checksummed, crash-resumable)",
    )
    convert.add_argument("edge_list", help="edge-list file (src dst [weight])")
    convert.add_argument("out_dir", help="artifact directory to create")
    convert_mode = convert.add_mutually_exclusive_group()
    convert_mode.add_argument(
        "--strict", dest="mode", action="store_const", const="strict",
        help="raise on any malformed line (default)",
    )
    convert_mode.add_argument(
        "--lenient", dest="mode", action="store_const", const="lenient",
        help="skip malformed lines with one counted warning",
    )
    convert.set_defaults(mode="strict")
    convert.add_argument(
        "--comment", default="#", metavar="PREFIX",
        help="comment-line prefix (default: '#')",
    )
    convert.add_argument(
        "--name", default=None, help="graph name recorded in the manifest"
    )
    convert.add_argument(
        "--no-resume", action="store_true",
        help="discard any partial progress instead of resuming it",
    )

    sim = subparsers.add_parser(
        "sim", help="compute GSim+ similarities between two edge-list files"
    )
    sim.add_argument("graph_a", help="edge-list file for G_A")
    sim.add_argument("graph_b", help="edge-list file for G_B")
    sim.add_argument(
        "--iterations", "-k", type=int, default=10, help="iterations K"
    )
    sim.add_argument(
        "--queries-a", default=None,
        help="comma-separated G_A node ids (default: all nodes)",
    )
    sim.add_argument(
        "--queries-b", default=None,
        help="comma-separated G_B node ids (default: all nodes)",
    )
    sim.add_argument(
        "--top", type=int, default=None,
        help="instead of the block, print the top-N pairs",
    )
    sim.add_argument(
        "--relabel", action="store_true",
        help="accept arbitrary node tokens (relabelled to 0..n-1)",
    )
    sim.add_argument(
        "--mmap-dir", default=None, metavar="DIR",
        help="operate out-of-core: convert each edge list into an "
        "mmap-CSR artifact under DIR (reused on later runs; a graph "
        "argument that already names an artifact directory is mapped "
        "directly) and compute from the memory maps; incompatible with "
        "--relabel (streaming conversion needs integer node ids)",
    )
    sim.add_argument(
        "--output", default=None, help="write the block as CSV to this path"
    )
    _add_metrics(sim)
    _add_trace(sim)
    _add_telemetry(sim)
    _add_resilience(sim)
    _add_workers(sim)
    _add_precision(sim)

    live = subparsers.add_parser(
        "live",
        help="replay a seeded mutation stream against a live similarity "
        "session: background rebuilds, atomic generation swaps, and a "
        "block/serve_stale/shed serving policy",
    )
    live.add_argument("--dataset", default="HP", help="dataset key")
    live.add_argument(
        "--scale",
        default="tiny",
        choices=("tiny", "small", "medium"),
        help="dataset scale profile (default: tiny)",
    )
    live.add_argument(
        "--seed", type=int, default=7, help="random seed (default: 7)"
    )
    live.add_argument(
        "--iterations", "-k", type=int, default=6, help="iterations K"
    )
    live.add_argument(
        "--policy",
        default="serve_stale",
        choices=("block", "serve_stale", "shed"),
        help="what queries do while a rebuild is pending "
        "(default: serve_stale)",
    )
    live.add_argument(
        "--mutations",
        type=int,
        default=60,
        metavar="N",
        help="edge mutations to replay (default: 60)",
    )
    live.add_argument(
        "--queries",
        type=int,
        default=120,
        metavar="N",
        help="queries to interleave with the stream (default: 120)",
    )
    live.add_argument(
        "--max-version-lag",
        type=int,
        default=None,
        metavar="N",
        help="staleness budget: max graph versions a served generation "
        "may lag (default: unbounded)",
    )
    live.add_argument(
        "--max-age-seconds",
        type=float,
        default=None,
        metavar="SEC",
        help="staleness budget: max wall-clock age of a stale generation",
    )
    live.add_argument(
        "--max-edge-delta",
        type=int,
        default=None,
        metavar="N",
        help="staleness budget: max edge mutations since the served "
        "generation was built",
    )
    live.add_argument(
        "--eager",
        action="store_true",
        help="enqueue rebuilds at write time instead of first-query time",
    )
    live.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="checkpoint rebuilds under DIR so killed builds resume",
    )
    _add_metrics(live)
    _add_trace(live)
    _add_telemetry(live)
    _add_workers(live)
    _add_precision(live)

    spec = subparsers.add_parser(
        "spec", help="run a declarative experiment from a JSON spec file"
    )
    _add_metrics(spec)
    _add_trace(spec)
    _add_telemetry(spec)
    spec.add_argument("spec_path", help="path to the JSON experiment spec")
    spec.add_argument(
        "--metric", default="time", choices=("time", "memory"),
        help="metric to tabulate (default: time)",
    )
    spec.add_argument(
        "--export-csv", default=None, help="also write the records to this CSV"
    )
    _add_resilience(spec)
    _add_workers(spec)
    _add_precision(spec)
    return parser


def _resilience(args: argparse.Namespace, journal_name: str):
    """``(journal, retry_policy)`` from the --retries/--checkpoint-dir/
    --resume flags; each is ``None`` when the feature is off."""
    from repro.runtime.resilience import RetryPolicy

    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        raise SystemExit(2)
    journal = None
    if args.checkpoint_dir:
        from pathlib import Path

        from repro.experiments.journal import RunJournal

        journal = RunJournal(
            Path(args.checkpoint_dir) / f"{journal_name}-journal.jsonl",
            resume=args.resume,
        )
    retry_policy = (
        RetryPolicy(max_attempts=args.retries + 1) if args.retries > 0 else None
    )
    return journal, retry_policy


class _Observed:
    """One CLI command's :class:`repro.runtime.ExecutionContext` and the
    outputs it feeds.

    The context carries a :class:`repro.runtime.Tracer` with --trace or
    --trace-summary, and, with --telemetry-dir, the metrics sink and
    slow-query log of a :class:`repro.runtime.TelemetrySession` (a plain
    :class:`repro.runtime.Metrics` otherwise).  Wrap the command in ``with
    _Observed(args) as observed:``, which starts the telemetry flusher,
    and hand ``observed.context`` to the library.  The exit writes
    --metrics from the context's snapshot, the trace outputs, the final
    telemetry flush and the --slo verdicts.  On success :attr:`code` is
    then the exit-code contribution (1 when an output could not be
    written, 3 on a violated SLO).  On failure the same outputs are a
    best-effort partial flush for the post-mortem, and the exception
    propagates.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        from repro.runtime import (
            ExecutionContext,
            Metrics,
            SLObjective,
            TelemetrySession,
            Tracer,
        )

        self.args = args
        self.code = 0
        try:
            self.objectives = [
                SLObjective.parse(raw)
                for raw in (getattr(args, "slo", None) or ())
            ]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(2) from None
        metrics = Metrics()
        self.telemetry = None
        if getattr(args, "telemetry_dir", None):
            self.telemetry = TelemetrySession(
                args.telemetry_dir,
                metrics,
                interval_seconds=args.flush_interval,
                slow_query_threshold=args.slow_query_ms / 1000.0,
                objectives=self.objectives,
            )
        traced = getattr(args, "trace", None) or getattr(args, "trace_summary", False)
        self.context = ExecutionContext(
            metrics=metrics,
            tracer=Tracer() if traced else None,
            slow_queries=(
                self.telemetry.slow_queries if self.telemetry is not None else None
            ),
        )

    def __enter__(self) -> "_Observed":
        if self.telemetry is not None:
            self.telemetry.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.code = max(self._close_telemetry(), self._write_outputs())
            return
        for flush in (self._write_outputs, self._close_telemetry):
            try:
                flush()
            except Exception:
                pass

    def _close_telemetry(self) -> int:
        """Final telemetry flush and the --slo verdicts (3 when violated)."""
        from repro.runtime import SLOTracker, render_slo_report

        reports = None
        if self.telemetry is not None:
            reports = self.telemetry.close()
            print(f"telemetry written to {self.telemetry.directory}")
        if not self.objectives:
            return 0
        snapshot = self.context.snapshot()
        if reports is None:
            reports = SLOTracker(self.objectives).evaluate(snapshot)
        for objective in self.objectives:
            if not objective.recorded(snapshot):
                print(
                    f"warning: SLO {objective.declaration!r} reads a "
                    "metric this run never recorded",
                    file=sys.stderr,
                )
        print(render_slo_report(reports))
        if any(not report.ok for report in reports):
            print("error: SLO violated", file=sys.stderr)
            return 3
        return 0

    def _write_outputs(self) -> int:
        """--metrics, --trace and --trace-summary, which compose in one
        run; 1 when a requested file could not be written."""
        args, tracer = self.args, self.context.tracer
        code = 0
        if getattr(args, "metrics", None):
            code = _write_metrics(args.metrics, self.context.snapshot())
        if getattr(args, "trace", None):
            try:
                tracer.write_chrome_trace(args.trace)
            except OSError as exc:
                print(
                    f"error: cannot write trace to {args.trace}: {exc}",
                    file=sys.stderr,
                )
                code = 1
            else:
                print(
                    f"trace written to {args.trace} "
                    f"({len(tracer.spans())} spans; open in Perfetto)"
                )
        if getattr(args, "trace_summary", False):
            from repro.runtime import render_trace_summary

            print(render_trace_summary(tracer))
        return code


def _run_figure(
    name: str, args: argparse.Namespace, context, journal, retry_policy
) -> str:
    """Run one figure's sweep under ``context``; returns its table."""
    driver, column, metric, description = _FIGURES[name]
    guards = dict(
        memory_budget=MemoryBudget(int(args.memory_budget_mib * 1024 * 1024)),
        deadline=Deadline(limit_seconds=args.deadline),
        journal=journal,
        retry_policy=retry_policy,
        max_workers=getattr(args, "workers", 1),
        precision=getattr(args, "precision", "float64"),
        recompress_tol=getattr(args, "recompress_tol", None),
        context=context,
    )
    if args.iterations is None:
        config = ExperimentConfig.for_scale(args.scale, seed=args.seed, **guards)
    else:
        config = ExperimentConfig(
            scale=args.scale, iterations=args.iterations, seed=args.seed, **guards
        )
    kwargs = {}
    if hasattr(args, "dataset") and name not in ("fig2", "fig6"):
        kwargs["dataset"] = args.dataset
    if args.algorithms:
        kwargs["algorithms"] = tuple(
            token.strip() for token in args.algorithms.split(",") if token.strip()
        )
    hits_before = journal.hits if journal is not None else 0
    records = driver(config, **kwargs)
    title = f"Figure {name[3:]} — {description} (scale={args.scale})"
    rendered = render_records(records, column_key=column, metric=metric, title=title)
    if journal is not None:
        replayed = journal.hits - hits_before
        rendered += (
            f"\n[{replayed}/{len(records)} cells replayed from "
            f"{journal.path}]"
        )
    return rendered


def _write_metrics(path: str, tree: dict) -> int:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(tree, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        print(f"error: cannot write metrics to {path}: {exc}", file=sys.stderr)
        return 1
    print(f"metrics written to {path}")
    return 0


def _run_live(args: argparse.Namespace, context) -> None:
    """The ``live`` subcommand: a seeded writer/reader replay against a
    lifecycle-managed session, reporting how the chosen policy behaved."""
    import numpy as np

    from repro.dynamic import DynamicGraph, SimilaritySession, StalenessBudget
    from repro.graphs import load_dataset_pair
    from repro.runtime import IndexUnavailableError

    base_a, base_b = load_dataset_pair(
        args.dataset, scale=args.scale, seed=args.seed
    )
    graph_a = DynamicGraph(base_a.num_nodes)
    graph_a.add_edges([(s, d) for s, d, _ in base_a.edges()])
    graph_b = DynamicGraph(base_b.num_nodes)
    graph_b.add_edges([(s, d) for s, d, _ in base_b.edges()])

    budget = None
    if (
        args.max_version_lag is not None
        or args.max_age_seconds is not None
        or args.max_edge_delta is not None
    ):
        budget = StalenessBudget(
            max_version_lag=args.max_version_lag,
            max_age_seconds=args.max_age_seconds,
            max_edge_delta=args.max_edge_delta,
        )
    checkpoint_dir = None
    if args.checkpoint_dir:
        from pathlib import Path

        checkpoint_dir = Path(args.checkpoint_dir)

    rng = np.random.default_rng(args.seed)
    served = shed = 0
    with SimilaritySession(
        graph_a,
        graph_b,
        iterations=args.iterations,
        context=context,
        policy=args.policy,
        staleness_budget=budget,
        eager_rebuild=args.eager,
        checkpoint_dir=checkpoint_dir,
        max_workers=args.workers,
        precision=args.precision,
        recompress_tol=args.recompress_tol,
    ) as session:
        print(f"G_A = {graph_a}")
        print(f"G_B = {graph_b}")
        session.refresh()  # generation 1, built before the stream
        total = args.mutations + args.queries
        plan = rng.permutation(
            [True] * args.mutations + [False] * args.queries
        )
        for is_mutation in plan:
            if is_mutation:
                while True:
                    src = int(rng.integers(graph_a.num_nodes))
                    dst = int(rng.integers(graph_a.num_nodes))
                    if src != dst and not graph_a.has_edge(src, dst):
                        break
                graph_a.add_edge(src, dst)
            else:
                node = int(rng.integers(graph_a.num_nodes))
                try:
                    info = session.query_info([node], [0])
                except IndexUnavailableError:
                    shed += 1
                else:
                    served += 1
                    del info
        # Settle: one final synchronous rebuild so the closing state
        # is fresh and its generation installed.
        session.refresh()
        stats = session.stats
        health = session.health()
        print(
            f"\nreplayed {total} events "
            f"({args.mutations} mutations, {args.queries} queries) "
            f"under policy={args.policy!r}"
        )
        print(
            f"  served {served} queries ({stats.stale_served} stale), "
            f"shed {shed}"
        )
        print(
            f"  {stats.recomputes} rebuilds installed, "
            f"{health['generations_built']} generations built, "
            f"live generation {health['live_generation']} "
            f"(fingerprint {health['live_fingerprint'][:12]})"
        )
        print(
            f"  breaker {health['breaker']}, "
            f"degraded={health['degraded']}, "
            f"rejected mutations: {graph_a.rejected_mutations}"
        )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command in _FIGURES:
        journal, retry_policy = _resilience(args, args.command)
        with _Observed(args) as observed:
            print(_run_figure(
                args.command, args, observed.context, journal, retry_policy
            ))
        return observed.code
    if args.command == "accuracy":
        with _Observed(args) as observed:
            with observed.context.operation("cli.accuracy"):
                table = accuracy_table(
                    dataset=args.dataset, scale=args.scale, seed=args.seed
                )
            print(render_accuracy_table(table))
            print(
                f"max |GSim+ err - GSim err| = {table.max_equivalence_gap():.3e} "
                "(Theorem 3.1 predicts 0)"
            )
        return observed.code
    if args.command == "bound":
        from repro.experiments.tables import error_bound_table, render_error_bound_table

        with _Observed(args) as observed:
            with observed.context.operation("cli.bound"):
                table = error_bound_table(dataset=args.dataset, seed=args.seed)
            print(render_error_bound_table(table))
        return observed.code
    if args.command == "all":
        journal, retry_policy = _resilience(args, "all")
        with _Observed(args) as observed:
            for name in _FIGURES:
                print(_run_figure(
                    name, args, observed.context, journal, retry_policy
                ))
                print()
            table = accuracy_table(scale=args.scale, seed=args.seed)
            print(render_accuracy_table(table))
        return observed.code
    if args.command == "topk":
        from repro.core import top_k_pairs
        from repro.graphs import load_dataset_pair

        graph_a, graph_b = load_dataset_pair(
            args.dataset, scale=args.scale, seed=args.seed
        )
        iterations = args.iterations
        if iterations is None:
            iterations = ExperimentConfig.for_scale(args.scale).iterations
        with _Observed(args) as observed:
            pairs = top_k_pairs(
                graph_a, graph_b, args.top, iterations=iterations,
                context=observed.context, max_workers=args.workers,
                precision=args.precision, recompress_tol=args.recompress_tol,
            )
            print(f"top-{args.top} pairs on {graph_a.name} (K={iterations}):")
            for pair in pairs:
                print(
                    f"  G_A {pair.node_a:>7}  ~  G_B {pair.node_b:>6}"
                    f"   score {pair.score:.5f}"
                )
        return observed.code
    if args.command == "sim":
        import numpy as np

        from repro.core import top_k_pairs
        from repro.core.gsim_plus import gsim_plus
        from repro.graphs import read_edge_list
        from repro.runtime.resilience import CheckpointManager, RetryPolicy

        checkpoints = None
        if args.checkpoint_dir:
            from pathlib import Path

            checkpoints = CheckpointManager(
                Path(args.checkpoint_dir), prefix="sim"
            )
        elif args.resume:
            print("error: --resume requires --checkpoint-dir", file=sys.stderr)
            return 2
        retry_policy = (
            RetryPolicy(max_attempts=args.retries + 1)
            if args.retries > 0
            else None
        )

        if args.mmap_dir is not None and args.relabel:
            print(
                "error: --mmap-dir is incompatible with --relabel "
                "(streaming conversion needs integer node ids)",
                file=sys.stderr,
            )
            return 2

        def _load_graph(source: str) -> "object":
            if args.mmap_dir is None:
                return read_edge_list(source, relabel=args.relabel)
            from pathlib import Path

            from repro.graphs import MmapCSRGraph, convert_edge_list

            path = Path(source)
            if (path / "manifest.json").exists():
                return MmapCSRGraph(path)
            return convert_edge_list(path, Path(args.mmap_dir) / path.stem)

        graph_a = _load_graph(args.graph_a)
        graph_b = _load_graph(args.graph_b)
        print(f"G_A = {graph_a}")
        print(f"G_B = {graph_b}")
        observed = _Observed(args)
        context = observed.context

        def _top_pairs():
            return top_k_pairs(
                graph_a, graph_b, args.top, iterations=args.iterations,
                context=context, max_workers=args.workers,
                precision=args.precision,
                recompress_tol=args.recompress_tol,
            )

        def _parse_queries(raw: str | None) -> list[int] | None:
            if raw is None:
                return None
            return [int(token) for token in raw.split(",") if token.strip()]

        def _compute(resume_from):
            return gsim_plus(
                graph_a,
                graph_b,
                iterations=args.iterations,
                queries_a=_parse_queries(args.queries_a),
                queries_b=_parse_queries(args.queries_b),
                normalization="global",
                context=context,
                checkpoints=checkpoints,
                resume_from=resume_from,
                max_workers=args.workers,
                precision=args.precision,
                recompress_tol=args.recompress_tol,
            )

        with observed:
            if args.top is not None:
                if retry_policy is not None:
                    pairs = retry_policy.call(_top_pairs, what="sim topk")
                else:
                    pairs = _top_pairs()
                for pair in pairs:
                    print(f"  {pair.node_a}\t{pair.node_b}\t{pair.score:.6f}")
            else:
                resume_from = {"manager": checkpoints if args.resume else None}
                if retry_policy is not None:
                    def _on_retry(attempt: int, exc: BaseException) -> None:
                        # A failed attempt may still have snapshotted
                        # progress; pick up from the last valid checkpoint
                        # rather than iteration zero.
                        resume_from["manager"] = checkpoints

                    result = retry_policy.call(
                        lambda: _compute(resume_from["manager"]),
                        what="sim",
                        on_retry=_on_retry,
                    )
                else:
                    result = _compute(resume_from["manager"])
                if args.output:
                    np.savetxt(
                        args.output, result.similarity, delimiter=",", fmt="%.8g"
                    )
                    print(
                        f"{result.similarity.shape} block written to {args.output}"
                    )
                else:
                    with np.printoptions(precision=4, suppress=True, threshold=400):
                        print(result.similarity)
        return observed.code
    if args.command == "live":
        with _Observed(args) as observed:
            _run_live(args, observed.context)
        return observed.code
    if args.command == "spec":
        from repro.experiments.export import write_csv
        from repro.experiments.spec import ExperimentSpec, run_spec

        journal, retry_policy = _resilience(args, "spec")
        spec = ExperimentSpec.from_json(args.spec_path)
        if args.precision != "float64" or args.recompress_tol is not None:
            # CLI flags override the spec file's precision policy.
            import dataclasses

            overrides = {}
            if args.precision != "float64":
                overrides["precision"] = args.precision
            if args.recompress_tol is not None:
                overrides["recompress_tol"] = args.recompress_tol
            spec = dataclasses.replace(spec, **overrides)
        with _Observed(args) as observed:
            records = run_spec(
                spec, journal=journal, retry_policy=retry_policy,
                max_workers=args.workers, context=observed.context,
            )
            if journal is not None:
                print(
                    f"[{journal.hits}/{len(records)} cells replayed from "
                    f"{journal.path}]"
                )
            column = "dataset" if spec.sweep_axis is None else {
                "iterations": "k",
                "query_size": "q_a",
                "sample_size": "n_b",
            }[spec.sweep_axis]
            print(
                render_records(
                    records, column_key=column, metric=args.metric,
                    title=spec.name,
                )
            )
            if args.export_csv:
                write_csv(records, args.export_csv)
                print(f"records written to {args.export_csv}")
        return observed.code
    if args.command == "datasets":
        if getattr(args, "datasets_command", None) == "convert":
            from pathlib import Path

            from repro.graphs import convert_edge_list

            out_dir = Path(args.out_dir)
            graph = convert_edge_list(
                Path(args.edge_list),
                out_dir,
                mode=args.mode,
                comment=args.comment,
                name=args.name,
                resume=not args.no_resume,
            )
            on_disk = sum(
                item.stat().st_size for item in out_dir.iterdir()
                if item.is_file()
            )
            print(f"converted {args.edge_list} -> {out_dir}")
            print(
                f"  {graph.name}: {graph.num_nodes:,} nodes, "
                f"{graph.num_edges:,} edges, {on_disk:,} bytes on disk "
                f"({graph.resident_bytes():,} resident)"
            )
            return 0
        from repro.experiments.report import render_table
        from repro.graphs import DATASETS, degree_statistics, load_dataset

        with _Observed(args) as observed:
            rows = []
            for key in sorted(DATASETS):
                spec = DATASETS[key]
                with observed.context.operation("cli.datasets"):
                    graph = load_dataset(key, scale=args.scale, seed=args.seed)
                    stats = degree_statistics(graph)
                rows.append(
                    [
                        key,
                        f"{spec.paper_nodes:,}",
                        f"{spec.paper_edges:,}",
                        f"{spec.edge_ratio:.1f}",
                        f"{graph.num_nodes:,}",
                        f"{graph.num_edges:,}",
                        f"{graph.average_degree:.1f}",
                        f"{stats.gini:.2f}",
                    ]
                )
            print(
                render_table(
                    [
                        "key", "paper n", "paper m", "paper m/n",
                        f"{args.scale} n", f"{args.scale} m", "m/n", "gini",
                    ],
                    rows,
                    title=f"Simulated dataset registry (scale={args.scale})",
                )
            )
        return observed.code
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
