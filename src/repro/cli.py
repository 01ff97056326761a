"""Command-line entry point: regenerate any figure or table of the paper.

Usage (installed as ``gsimplus`` or via ``python -m repro.cli``)::

    gsimplus fig2 --scale tiny
    gsimplus fig3 --dataset EE --scale small
    gsimplus accuracy --scale tiny
    gsimplus all --scale tiny
    gsimplus fig2 --scale tiny --metrics run.json   # write the run record
    gsimplus fig7 --trace trace.json --trace-summary

Figure sweeps run their cells one after another, each measured under
its own deadline, memory budget and tracemalloc tracker, as the paper
measured one cell at a time.

Every subcommand runs under one :class:`repro.runtime.ExecutionContext`,
and ``--metrics PATH`` writes the run's record as one JSON object: the
context's counter/gauge/histogram snapshot, ``peak_rss_bytes`` (the
process's peak resident set, read at exit), ``slow_queries`` (the
:class:`repro.runtime.SlowQueryLog` of operations at or above
``--slow-query-ms``) and, with ``--slo``, one verdict per objective
under ``slo``.  Experiment commands merge every cell's metrics into it
(with the ``sweep.cells`` / ``sweep.errors`` counters), ``topk``/``sim``
run on it, and ``accuracy``/``bound``/``datasets`` record their wall
time as ``cli.<command>`` operations.

``--trace PATH`` (figures, ``all``, ``topk``, ``sim``) records a
hierarchical span trace of the run and writes Chrome ``trace_event``
JSON — open it in Perfetto or ``chrome://tracing`` to see iterate →
shard → top-k nesting; ``--trace-summary`` prints the per-span-name
total/self-time hot-path table instead of (or as well as) the file.
``--trace`` and ``--metrics`` compose in one run.

``--slo`` (same subcommands as ``--trace``; repeatable, e.g.
``--slo 'p99(index.query_seconds) < 50ms'``) evaluates objectives
against the run's final metrics and prints a verdict table.  A violated
objective sets exit code 3, and an objective on a metric the run never
recorded draws a warning.

The outputs are written on failure paths too: a run that raises or is
cancelled mid-sweep still writes its partial record and trace, so
post-mortems have data.
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

    def _add_scale(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--scale",
            default="tiny",
            choices=("tiny", "small", "medium"),
            help="dataset scale profile (default: tiny)",
        )
        _add_seed(sub)

    def _add_seed(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--seed", type=int, default=7, help="random seed (default: 7)"
        )

    def _add_iterations(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--iterations",
            "-k",
            type=int,
            default=None,
            help="iterations K (default: a per-scale value keeping 2^K "
            "below the scaled |V_B|, as in the paper's regime)",
        )

    def _add_sweep(sub: argparse.ArgumentParser) -> None:
        _add_scale(sub)
        _add_iterations(sub)
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

    def _add_metrics(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--metrics",
            default=None,
            metavar="PATH",
            help="write the run record as JSON to this path: the "
            "counter/gauge/histogram snapshot, the peak RSS, the slow "
            "queries and any --slo verdicts",
        )

    def _add_observed(sub: argparse.ArgumentParser) -> None:
        _add_metrics(sub)
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
        sub.add_argument(
            "--slow-query-ms",
            type=float,
            default=100.0,
            metavar="MS",
            help="latency threshold in milliseconds for the slow queries "
            "in the --metrics record (default: 100)",
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
            help="worker threads for the sharded kernels (default: 1 — "
            "fully serial; results are identical for every N)",
        )

    for name, (_, _, _, description) in _FIGURES.items():
        sub = subparsers.add_parser(name, help=f"Figure {name[3:]}: {description}")
        _add_sweep(sub)
        _add_observed(sub)
        _add_precision(sub)
        if name in ("fig3", "fig4", "fig5", "fig7", "fig8"):
            sub.add_argument("--dataset", default="EE", help="dataset key")

    accuracy = subparsers.add_parser(
        "accuracy", help="§5.2.3 accuracy table (GSim+/GSim vs GSVD ranks)"
    )
    _add_scale(accuracy)
    _add_metrics(accuracy)
    accuracy.add_argument("--dataset", default="HP", help="dataset key")

    bound = subparsers.add_parser(
        "bound", help="Theorem 4.2 validation: measured error vs spectral bound"
    )
    _add_seed(bound)
    _add_metrics(bound)
    bound.add_argument("--dataset", default="HP", help="dataset key")

    everything = subparsers.add_parser(
        "all", help="regenerate every figure and the accuracy table"
    )
    _add_sweep(everything)
    _add_observed(everything)
    _add_precision(everything)

    topk = subparsers.add_parser(
        "topk", help="retrieve the k most similar cross-graph pairs"
    )
    _add_scale(topk)
    _add_iterations(topk)
    _add_observed(topk)
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
    _add_seed(datasets)
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
    sim.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="snapshot the factor build's iterations under DIR so an "
        "interrupted run can be resumed with --resume",
    )
    sim.add_argument(
        "--resume",
        action="store_true",
        help="restart an interrupted factor build from the last valid "
        "snapshot in --checkpoint-dir",
    )
    _add_observed(sim)
    _add_workers(sim)
    _add_precision(sim)
    return parser


class _Observed:
    """One CLI command's :class:`repro.runtime.ExecutionContext` and the
    outputs it feeds.

    The context carries a :class:`repro.runtime.Tracer` with --trace or
    --trace-summary, and a :class:`repro.runtime.SlowQueryLog` at
    --slow-query-ms with --metrics.  Wrap the command in ``with
    _Observed(args) as observed:`` and hand ``observed.context`` to the
    library.  The exit prints the --slo verdicts, then writes the
    --metrics record and the trace outputs.  On success :attr:`code` is
    then the exit-code contribution (1 when an output could not be
    written, 3 on a violated SLO).  On failure the same outputs are a
    best-effort partial flush for the post-mortem, and the exception
    propagates.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        from repro.runtime import ExecutionContext, SLObjective, SlowQueryLog, Tracer

        self.args = args
        self.code = 0
        self.reports = None
        try:
            self.objectives = [
                SLObjective.parse(raw)
                for raw in (getattr(args, "slo", None) or ())
            ]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(2) from None
        traced = getattr(args, "trace", None) or getattr(args, "trace_summary", False)
        slow_queries = None
        if args.metrics:
            slow_queries = SlowQueryLog(
                threshold_seconds=getattr(args, "slow_query_ms", 100.0) / 1000.0
            )
        self.context = ExecutionContext(
            tracer=Tracer() if traced else None, slow_queries=slow_queries
        )

    def __enter__(self) -> "_Observed":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.code = max(self._judge_slos(), self._write_outputs())
            return
        for flush in (self._judge_slos, self._write_outputs):
            try:
                flush()
            except Exception:
                pass

    def _judge_slos(self) -> int:
        """Print the --slo verdicts; 3 when one is violated."""
        from repro.runtime import SLOTracker, render_slo_report

        if not self.objectives:
            return 0
        snapshot = self.context.snapshot()
        self.reports = SLOTracker(self.objectives).evaluate(snapshot)
        for objective in self.objectives:
            if not objective.recorded(snapshot):
                print(
                    f"warning: SLO {objective.declaration!r} reads a "
                    "metric this run never recorded",
                    file=sys.stderr,
                )
        print(render_slo_report(self.reports))
        if any(not report.ok for report in self.reports):
            print("error: SLO violated", file=sys.stderr)
            return 3
        return 0

    def _record(self) -> dict:
        """The --metrics record: the context's snapshot, the process's
        peak RSS, the slow queries and the --slo verdicts."""
        import resource

        record = self.context.snapshot()
        # ru_maxrss counts KiB on Linux and bytes on macOS.
        unit = 1 if sys.platform == "darwin" else 1024
        record["peak_rss_bytes"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit
        )
        record["slow_queries"] = self.context.slow_queries.snapshot()
        if self.reports is not None:
            record["slo"] = [report.to_dict() for report in self.reports]
        return record

    def _write_outputs(self) -> int:
        """--metrics, --trace and --trace-summary, which compose in one
        run; 1 when a requested file could not be written."""
        args, tracer = self.args, self.context.tracer
        code = 0
        if args.metrics:
            code = _write_metrics(args.metrics, self._record())
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


def _run_figure(name: str, args: argparse.Namespace, context) -> str:
    """Run one figure's sweep under ``context``; returns its table."""
    driver, column, metric, description = _FIGURES[name]
    guards = dict(
        memory_budget=MemoryBudget(int(args.memory_budget_mib * 1024 * 1024)),
        deadline=Deadline(limit_seconds=args.deadline),
        precision=args.precision,
        recompress_tol=args.recompress_tol,
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
    records = driver(config, **kwargs)
    title = f"Figure {name[3:]} — {description} (scale={args.scale})"
    return render_records(records, column_key=column, metric=metric, title=title)


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


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command in _FIGURES:
        with _Observed(args) as observed:
            print(_run_figure(args.command, args, observed.context))
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
        with _Observed(args) as observed:
            for name in _FIGURES:
                print(_run_figure(name, args, observed.context))
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
        from repro.runtime.resilience import CheckpointManager

        checkpoints = None
        if args.checkpoint_dir:
            from pathlib import Path

            checkpoints = CheckpointManager(
                Path(args.checkpoint_dir), prefix="sim"
            )
        elif args.resume:
            print("error: --resume requires --checkpoint-dir", file=sys.stderr)
            return 2

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
        def _parse_queries(raw: str | None) -> list[int] | None:
            if raw is None:
                return None
            return [int(token) for token in raw.split(",") if token.strip()]

        with _Observed(args) as observed:
            if args.top is not None:
                pairs = top_k_pairs(
                    graph_a, graph_b, args.top, iterations=args.iterations,
                    context=observed.context, max_workers=args.workers,
                    precision=args.precision,
                    recompress_tol=args.recompress_tol,
                )
                for pair in pairs:
                    print(f"  {pair.node_a}\t{pair.node_b}\t{pair.score:.6f}")
            else:
                result = gsim_plus(
                    graph_a,
                    graph_b,
                    iterations=args.iterations,
                    queries_a=_parse_queries(args.queries_a),
                    queries_b=_parse_queries(args.queries_b),
                    normalization="global",
                    context=observed.context,
                    checkpoints=checkpoints,
                    resume_from=checkpoints if args.resume else None,
                    max_workers=args.workers,
                    precision=args.precision,
                    recompress_tol=args.recompress_tol,
                )
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
