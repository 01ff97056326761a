"""Per-layer measurement: layer spans, peak memory and layer metrics.

In the traced run :class:`LayerSpans` wraps the public entry points of
each layer, from this benchmark's files, so every call records a span on
the run's :class:`repro.runtime.Tracer`.  The library's own spans
(``index.query``, ``gsim_plus.iterate``, ...) nest inside them because
every call that takes ``context=`` receives the traced context.
:class:`PeakMemory` resets the kernel's peak-RSS watermark at layer
boundaries and reads it back when the layer ends.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Iterator, NamedTuple

import numpy as np

import repro.graphs.io as graphs_io
import repro.graphs.mmap_csr as mmap_csr
import repro.retrieval.index as index_module
from repro.core.batch import BatchQueryEngine
from repro.core.complexity import InstanceParams, predict_cost
from repro.core.embeddings import LowRankFactors
from repro.graphs.graph import Graph
from repro.retrieval.index import GSimIndex
from repro.runtime import summarize_trace

# Span name -> layer.  Names with a dot-separated module prefix are the
# wrappers below; the others are spans the library records itself.
LAYER_OF_SPAN = {
    "graphs.io.read_edge_list": "graphs.io",
    "graphs.graph.from_edges": "graphs.graph",
    "graphs.mmap_csr.convert_edge_list": "graphs.mmap_csr",
    "graphs.mmap_csr.load": "graphs.mmap_csr",
    "index.build": "retrieval.index",
    "gsim_plus.iterate": "core.gsim_plus",
    "core.embeddings.recompressed": "core.embeddings",
    "core.embeddings.frobenius_norm": "core.embeddings",
    "runtime.resilience.content_checksum": "runtime.resilience",
    "retrieval.index.save": "retrieval.index",
    "retrieval.index.load": "retrieval.index",
    "retrieval.index.query": "retrieval.index",
    "retrieval.index.top_matches": "retrieval.index",
    "retrieval.index.top_pairs": "retrieval.index",
    "index.query": "retrieval.index",
    "index.top_pairs": "retrieval.index",
    "core.batch.query": "core.batch",
    "batch.query_block": "core.batch",
    "core.topk.scan_top_pairs": "core.topk",
    "topk.scan_pairs": "core.topk",
}
LAYERS = set(LAYER_OF_SPAN.values())
# The worker pool records a shard span even when it runs serially; its
# time belongs to the layer that submitted the shard.
INHERITED_SPANS = {"parallel.shard"}


# ----------------------------------------------------------------------
# Peak memory
# ----------------------------------------------------------------------
def _status_kib(key: str) -> float | None:
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return float(line.split()[1])
    except OSError:
        return None
    return None


class PeakMemory:
    """Peak RSS per region, measured from outside the library.

    With a writable ``/proc/self/clear_refs`` (method ``clear_refs``),
    writing ``5`` resets ``VmHWM`` to the current RSS, so the watermark
    read when a region ends is that region's true peak.  Nested regions
    fold the watermark into every enclosing region before they reset it.
    Elsewhere (method ``sampled``) the RSS is sampled at region
    boundaries only, which can miss a peak inside the region.
    """

    def __init__(self) -> None:
        self.method = "clear_refs" if self._reset() else "sampled"
        self.peaks: dict[str, float] = {}
        self._open: list[list] = []

    @staticmethod
    def _reset() -> bool:
        try:
            with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
                handle.write("5")
        except OSError:
            return False
        return True

    def _read_mib(self) -> float:
        key = "VmHWM" if self.method == "clear_refs" else "VmRSS"
        kib = _status_kib(key)
        if kib is None:
            import resource

            kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return kib / 1024.0

    def enter(self, name: str) -> None:
        now = self._read_mib()
        for region in self._open:
            region[1] = max(region[1], now)
        if self.method == "clear_refs":
            self._reset()
            now = self._read_mib()
        self._open.append([name, now])

    def exit(self) -> float:
        name, peak = self._open.pop()
        peak = max(peak, self._read_mib())
        self.peaks[name] = max(self.peaks.get(name, 0.0), peak)
        return peak

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()


# ----------------------------------------------------------------------
# Layer spans
# ----------------------------------------------------------------------
class LayerSpans:
    """Wraps layer entry points with spans (and peak probes) while installed."""

    # (owner, attribute, span name, probe peak RSS)
    TARGETS = (
        (graphs_io, "read_edge_list", "graphs.io.read_edge_list", False),
        (Graph, "from_edges", "graphs.graph.from_edges", False),
        (mmap_csr, "convert_edge_list", "graphs.mmap_csr.convert_edge_list", True),
        (mmap_csr.MmapCSRGraph, "load", "graphs.mmap_csr.load", False),
        (LowRankFactors, "recompressed", "core.embeddings.recompressed", True),
        (LowRankFactors, "frobenius_norm", "core.embeddings.frobenius_norm", False),
        (index_module, "content_checksum", "runtime.resilience.content_checksum", False),
        (mmap_csr, "content_checksum", "runtime.resilience.content_checksum", False),
        (GSimIndex, "save", "retrieval.index.save", False),
        (GSimIndex, "load", "retrieval.index.load", False),
        (GSimIndex, "query", "retrieval.index.query", False),
        (GSimIndex, "top_matches", "retrieval.index.top_matches", False),
        (GSimIndex, "top_pairs", "retrieval.index.top_pairs", False),
        (BatchQueryEngine, "query", "core.batch.query", False),
        (index_module, "scan_top_pairs", "core.topk.scan_top_pairs", False),
    )

    def __init__(self, tracer, memory: PeakMemory) -> None:
        self.tracer = tracer
        self.memory = memory

    def _wrap(self, func, name: str, probe: bool):
        tracer, memory = self.tracer, self.memory

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if probe:
                memory.enter(name)
            try:
                with tracer.span(name) as span:
                    result = func(*args, **kwargs)
                    if isinstance(result, np.ndarray):
                        span.set_attribute("cells", int(result.size))
                    return result
            finally:
                if probe:
                    memory.exit()

        return wrapper

    @contextmanager
    def installed(self) -> Iterator[None]:
        saved = []
        try:
            for owner, attribute, name, probe in self.TARGETS:
                raw = vars(owner)[attribute]
                saved.append((owner, attribute, raw))
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, name, probe))
                else:
                    patched = self._wrap(raw, name, probe)
                setattr(owner, attribute, patched)
            yield
        finally:
            for owner, attribute, raw in reversed(saved):
                setattr(owner, attribute, raw)


# ----------------------------------------------------------------------
# Trace analysis
# ----------------------------------------------------------------------
class _Relabelled(NamedTuple):
    """A span under another name, as :func:`summarize_trace` reads it."""

    name: str
    span_id: int
    parent_id: int | None
    duration: float


class SpanTree:
    """Parent/child index over a finished trace.

    ``summary`` is :func:`repro.runtime.summarize_trace` of the trace:
    one row per span name with its calls, total and self seconds.
    """

    def __init__(self, spans) -> None:
        self.spans = list(spans)
        self.by_id = {span.span_id: span for span in self.spans}
        self.children: dict[int, list] = {}
        for span in self.spans:
            if span.parent_id is not None:
                self.children.setdefault(span.parent_id, []).append(span)
        self.summary = summarize_trace(self.spans)
        self._rows = {row["name"]: row for row in self.summary}

    def seconds(self, name: str, column: str = "self_seconds") -> float:
        """One ``summary`` column for the spans called ``name`` (0 if none)."""
        row = self._rows.get(name)
        return row[column] if row else 0.0

    def named(self, name: str) -> list:
        return [span for span in self.spans if span.name == name]

    def descendant(self, span, name: str):
        frontier = list(self.children.get(span.span_id, ()))
        while frontier:
            child = frontier.pop(0)
            if child.name == name:
                return child
            frontier.extend(self.children.get(child.span_id, ()))
        return None

    def layer_of(self, span) -> str | None:
        while span is not None and span.name in INHERITED_SPANS:
            span = self.by_id.get(span.parent_id)
        return None if span is None else LAYER_OF_SPAN.get(span.name)

    def layer_self_times(self) -> dict[str, float]:
        """Self seconds per layer: each span's self time, summed by layer."""
        relabelled = [
            _Relabelled(self.layer_of(span) or span.name, span.span_id,
                        span.parent_id, span.duration)
            for span in self.spans
        ]
        return {row["name"]: row["self_seconds"]
                for row in summarize_trace(relabelled) if row["name"] in LAYERS}

    def roots(self, kind: str) -> list:
        """Root spans of requests of one kind."""
        return [
            span
            for span in self.spans
            if span.parent_id is None and span.attributes.get("kind") == kind
        ]

    def chrome_trace(self, tracer) -> dict:
        """The tracer's Chrome trace, each span tagged with its root's id."""
        root_of: dict[int, int] = {}
        by_id = self.by_id

        def _root(span_id: int) -> int:
            path = []
            while span_id not in root_of:
                span = by_id.get(span_id)
                if span is None or span.parent_id is None:
                    root_of[span_id] = span_id
                    break
                path.append(span_id)
                span_id = span.parent_id
            for node in path:
                root_of[node] = root_of[span_id]
            return root_of[span_id]

        trace = tracer.chrome_trace()
        for event in trace["traceEvents"]:
            span_id = event.get("args", {}).get("span_id")
            if event.get("ph") == "X" and span_id is not None:
                event["args"]["root_id"] = _root(span_id)
        return trace


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tree: SpanTree, job, metrics, memory: PeakMemory,
                  totals: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced run, as ``name -> (value, unit)``.

    A layer the workload does not exercise reports 0.
    """
    out: dict[str, tuple[float, str]] = {}
    sizes = job.sizes

    # graphs.io / graphs.graph: ingest by the text parser.
    read_total = tree.seconds("graphs.io.read_edge_list", "total_seconds")
    out["graphs.io.read_s"] = (tree.seconds("graphs.io.read_edge_list"), "s")
    out["graphs.io.edges_per_s"] = (
        job.ingested_edges / read_total if read_total else 0.0, "1/s")
    out["graphs.io.nodes_dropped"] = (
        float(job.nodes_dropped if job.workload.ingest == "read" else 0), "count")
    out["graphs.graph.from_edges_s"] = (tree.seconds("graphs.graph.from_edges"), "s")

    # graphs.mmap_csr: the streamed converter.
    convert_total = tree.seconds("graphs.mmap_csr.convert_edge_list", "total_seconds")
    out["graphs.mmap_csr.convert_s"] = (
        tree.seconds("graphs.mmap_csr.convert_edge_list"), "s")
    out["graphs.mmap_csr.edges_per_s"] = (
        job.ingested_edges / convert_total if convert_total else 0.0, "1/s")
    out["graphs.mmap_csr.nodes_dropped"] = (
        float(job.nodes_dropped if job.workload.ingest == "convert" else 0), "count")
    out["graphs.mmap_csr.peak_rss_mib"] = (
        memory.peaks.get("graphs.mmap_csr.convert_edge_list", 0.0), "MiB")

    # core.gsim_plus: the doubling steps, excluding recompression.
    steps = sorted(tree.named("gsim_plus.iterate"), key=lambda s: s.attributes.get("k", 0))
    widths = [int(span.attributes.get("width", 0)) for span in steps]
    iterate_s = tree.seconds("gsim_plus.iterate")
    edges = sizes.get("m_a", 0) + sizes.get("m_b", 0)
    gflop = sum(4.0 * edges * width for width in [1] + widths[:-1]) / 1e9 if widths else 0.0
    out["core.gsim_plus.iterate_s"] = (iterate_s, "s")
    out["core.gsim_plus.spmm_gflop"] = (gflop, "GFLOP")
    out["core.gsim_plus.gflops"] = (gflop / iterate_s if iterate_s else 0.0, "GFLOP/s")
    out["core.gsim_plus.final_width"] = (float(widths[-1] if widths else 0), "count")
    out["core.gsim_plus.peak_rss_mib"] = (memory.peaks.get("core.gsim_plus", 0.0), "MiB")

    # core.embeddings: recompression and the Gram norm.
    out["core.embeddings.recompress_s"] = (tree.seconds("core.embeddings.recompressed"), "s")
    out["core.embeddings.recompress_peak_rss_mib"] = (
        memory.peaks.get("core.embeddings.recompressed", 0.0), "MiB")
    out["core.embeddings.norm_s"] = (tree.seconds("core.embeddings.frobenius_norm"), "s")

    out["runtime.resilience.checksum_s"] = (
        tree.seconds("runtime.resilience.content_checksum"), "s")

    # retrieval.index: persistence and the per-call serving path.
    out["retrieval.index.save_s"] = (tree.seconds("retrieval.index.save"), "s")
    out["retrieval.index.load_s"] = (tree.seconds("retrieval.index.load"), "s")
    overheads = []
    for span in tree.named("retrieval.index.query"):
        inner = tree.descendant(span, "core.batch.query")
        if inner is not None:
            overheads.append(span.duration - inner.duration)
    selects = []
    for span in tree.named("retrieval.index.top_matches"):
        inner = tree.descendant(span, "retrieval.index.query")
        if inner is not None:
            selects.append(span.duration - inner.duration)
    out["retrieval.index.query_overhead_us"] = (_percentile(overheads, 50) * 1e6, "us")
    out["retrieval.index.match_select_us"] = (_percentile(selects, 50) * 1e6, "us")

    # core.batch: the block kernel under `block` requests.
    batch_times, cells = [], 0
    for root in tree.roots("block"):
        inner = tree.descendant(root, "core.batch.query")
        if inner is not None:
            batch_times.append(inner.duration)
            cells += int(inner.attributes.get("cells", 0))
    out["core.batch.query_p50_us"] = (_percentile(batch_times, 50) * 1e6, "us")
    out["core.batch.query_p99_us"] = (_percentile(batch_times, 99) * 1e6, "us")
    out["core.batch.cells_per_s"] = (
        cells / sum(batch_times) if batch_times else 0.0, "1/s")

    # core.topk: the full pair scan behind `pairs`.
    scans = tree.named("core.topk.scan_top_pairs")
    n_a, n_b = sizes.get("n_a", 0), sizes.get("n_b", 0)
    out["core.topk.scan_s"] = (_percentile([s.duration for s in scans], 50), "s")
    out["core.topk.scored_frac"] = (
        metrics.counter("topk.rows_scanned") / (n_a * len(scans)) if scans else 0.0, "1")

    # runtime.trace: what tracing costs and how much of the run it explains.
    layer_total = sum(tree.layer_self_times().values())
    out["runtime.trace.overhead_frac"] = (totals["traced"] / totals["untraced"] - 1.0, "1")
    out["runtime.trace.coverage_frac"] = (layer_total / totals["traced"], "1")

    # core.complexity: measured time per unit of the paper's cost model.
    out["core.complexity.ns_per_unit"] = (complexity_ns_per_unit(tree, job), "ns")
    return out


def complexity_ns_per_unit(tree: SpanTree, job) -> float:
    """Build + block time over ``predict_cost("gsim+", ...)`` units."""
    sizes = job.sizes
    iterations = job.workload.iterations

    def _units(q_a: int, q_b: int) -> float:
        params = InstanceParams(
            sizes["n_a"], sizes["n_b"], sizes["m_a"], sizes["m_b"], q_a, q_b, iterations
        )
        return predict_cost("gsim+", params)[0]

    seconds, units = 0.0, 0.0
    for build in tree.named("index.build"):
        seconds += build.duration
        units += _units(0, 0)
    base = _units(0, 0)
    for root in tree.roots("block"):
        inner = tree.descendant(root, "retrieval.index.query")
        if inner is None:
            continue
        request = job.requests.blocks[root.attributes["index"]]
        seconds += inner.duration
        units += _units(request.rows.size, request.cols.size) - base
    return seconds * 1e9 / units if units else 0.0
