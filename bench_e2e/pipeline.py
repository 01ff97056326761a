"""The workloads: set-up, timed sequence and answer verification.

A timed run has two phases.  The *ready* phase takes the inputs on disk to
a loaded index that answers queries; the *request* phase is one closed-loop
client with no think time, issuing the seeded request stream.  Every call
into the library goes through its public functions; ``read_edge_list`` and
``convert_edge_list`` are looked up on their modules at call time so the
traced run's layer spans see them.
"""

from __future__ import annotations

import gc
import shutil
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

import repro.graphs.io as graphs_io
import repro.graphs.mmap_csr as mmap_csr
from repro.graphs.datasets import load_dataset_pair
from repro.retrieval.index import GSimIndex
from repro.runtime import ExecutionContext, Metrics, NULL_TRACER, Tracer

from checks import (
    MATCH_K,
    PAIRS_K,
    Answers,
    Scorer,
    Tolerance,
    algorithm1_factors,
    check_answers,
    csr_mismatch,
    dense_eq2,
    own_csr,
)
from inputs import (
    BLOCK,
    MATCH,
    PAIRS,
    EdgeFile,
    Requests,
    make_requests,
    rmat_pair,
    write_edge_file,
)
from layers import LayerSpans, PeakMemory


@dataclass(frozen=True)
class Workload:
    name: str
    # "read": the UK stand-in pair, parsed by read_edge_list; "convert":
    # the R-MAT pair, streamed to mmap CSR by convert_edge_list.
    ingest: str
    iterations: int
    recompress_tol: float | None
    blocks: int
    matches: int
    pairs: int
    # A fixed graph seed, or None to draw the graphs from the workload
    # seed.  The recompressed width of a seeded R-MAT pair ranged 17-24,
    # which alone spread index_mib, ready_s and peak_rss_mib by about 10%
    # (quartiles over ten seeds); with a fixed pair the seed drives the
    # request stream only.
    graph_seed: int | None = None


# Request counts are sized so that block and match samples span about
# 12 s of each run: on a shared 2-vCPU Xeon VM the speed of small calls
# wanders by 10-15% from one second to the next, and half as many samples
# (3.5 s of them on mmap, between which its one pair scan runs for 10 s)
# spread the latency percentiles up to 0.22 over ten seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper", "read", 8, None, 4000, 4000, 0),
        Workload("mmap", "convert", 10, 1e-8, 6000, 6000, 1, graph_seed=7),
    )
}

# The pre-flight pass runs each workload's sequence on this stand-in.
PREFLIGHT_SCALE = "tiny"


@dataclass
class Job:
    """One workload's generated inputs and the files of its runs."""

    workload: Workload
    scratch: Path
    edges_a: EdgeFile
    edges_b: EdgeFile
    requests: Requests
    sizes: dict = field(default_factory=dict)

    @property
    def index_path(self) -> Path:
        return self.scratch / "index.npz"

    @property
    def ingested_edges(self) -> int:
        return self.edges_a.num_edges + self.edges_b.num_edges

    @property
    def nodes_dropped(self) -> int:
        return self.edges_a.nodes_dropped + self.edges_b.nodes_dropped


def set_up(workload: Workload, seed: int, scratch: Path, scale: str = "medium",
           request_counts: tuple[int, int, int] | None = None) -> Job:
    """Generate the inputs of one workload (untimed)."""
    scratch.mkdir(parents=True, exist_ok=True)
    graph_seed = seed if workload.graph_seed is None or scale != "medium" else workload.graph_seed
    if workload.ingest == "convert" and scale == "medium":
        graph_a, graph_b = rmat_pair(graph_seed)
    else:
        graph_a, graph_b = load_dataset_pair("UK", scale, graph_seed)
    edges_a = write_edge_file(graph_a, scratch / "graph_a.txt")
    edges_b = write_edge_file(graph_b, scratch / "graph_b.txt")
    blocks, matches, pairs = request_counts or (
        workload.blocks, workload.matches, workload.pairs)
    requests, _, _ = make_requests(
        edges_a.ingested_nodes, edges_b.ingested_nodes, blocks, matches, pairs, seed)
    return Job(workload, scratch, edges_a, edges_b, requests)


# ----------------------------------------------------------------------
# One timed pass
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    traced: bool
    ready_s: float = 0.0
    total_s: float = 0.0
    peak_rss_mib: float = 0.0
    steps: dict = field(default_factory=dict)  # ready step -> durations
    answers: Answers | None = None
    tracer: object = None
    metrics: object = None


class _Pass:
    def __init__(self, traced: bool, memory: PeakMemory) -> None:
        self.memory = memory
        self.result = PassResult(traced)
        if traced:
            self.tracer = Tracer(max_spans=2_000_000)
            self.context = ExecutionContext(metrics=Metrics(), tracer=self.tracer)
            self.result.tracer, self.result.metrics = self.tracer, self.context.metrics
        else:
            self.tracer, self.context = NULL_TRACER, None

    @contextmanager
    def step(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        with self.tracer.span(f"ready.{name}"):
            yield
        self.result.steps.setdefault(name, []).append(time.perf_counter() - start)


def _build(run: _Pass, job: Job, graph_a, graph_b) -> GSimIndex:
    workload = job.workload
    probe = run.memory.region("core.gsim_plus") if run.result.traced else nullcontext()
    with run.step("build"), probe:
        return GSimIndex.build(
            graph_a, graph_b, iterations=workload.iterations,
            recompress_tol=workload.recompress_tol, context=run.context,
        )


def _ready(run: _Pass, job: Job) -> GSimIndex:
    """Inputs on disk -> a loaded index (the ready phase)."""
    if job.workload.ingest == "read":
        with run.step("ingest"):
            graph_a = graphs_io.read_edge_list(job.edges_a.path)
            graph_b = graphs_io.read_edge_list(job.edges_b.path)
    else:
        for name in ("csr_a", "csr_b"):
            shutil.rmtree(job.scratch / name, ignore_errors=True)
        with run.step("convert"):
            for name, edges in (("csr_a", job.edges_a), ("csr_b", job.edges_b)):
                mmap_csr.convert_edge_list(edges.path, job.scratch / name, context=run.context)
        with run.step("open"):
            graph_a = mmap_csr.MmapCSRGraph.load(job.scratch / "csr_a")
            graph_b = mmap_csr.MmapCSRGraph.load(job.scratch / "csr_b")
    job.sizes = dict(n_a=graph_a.num_nodes, n_b=graph_b.num_nodes,
                     m_a=graph_a.num_edges, m_b=graph_b.num_edges)
    index = _build(run, job, graph_a, graph_b)
    del graph_a, graph_b
    with run.step("save"):
        index.save(job.index_path)
    del index
    with run.step("load"):
        return GSimIndex.load(job.index_path)


def _request_phase(run: _Pass, job: Job, index: GSimIndex, seconds: float) -> None:
    """The request phase: one closed-loop client over the seeded stream.

    The loop stops early once ``seconds`` have elapsed, a guard that keeps
    a much slower program within the run's time limit.  Requests it never
    issues count as failed (see :func:`verify`), so a cut run cannot pass
    with a smaller sample.
    """
    requests, context, tracer = job.requests, run.context, run.tracer
    answers = run.result.answers = Answers(requests)
    clock = time.perf_counter
    start = clock()
    for kind, i in requests.order:
        if clock() - start > seconds:
            break
        with tracer.span("request", kind=kind, index=i):
            begin = clock()
            try:
                if kind == BLOCK:
                    request = requests.blocks[i]
                    answer = index.query(request.rows, request.cols, context=context)
                elif kind == MATCH:
                    node = int(requests.match_nodes[i])
                    answer = index.top_matches(node, k=MATCH_K, context=context)
                else:
                    answer = index.top_pairs(k=PAIRS_K, context=context)
                answers.latency[kind][i] = clock() - begin
            except Exception as exc:  # a failed request is counted, not fatal
                answers.latency[kind][i] = clock() - begin
                answers.errors[kind, i] = f"{type(exc).__name__}: {exc}"
            else:
                if kind == BLOCK:
                    answers.record_block(i, answer, request)
                else:
                    answers.record_ranked(kind, i, answer)
                del answer


def timed_pass(job: Job, traced: bool, seconds: float, memory: PeakMemory) -> PassResult:
    """Run the ready phase and the request phase once."""
    run = _Pass(traced, memory)
    spans = LayerSpans(run.tracer, memory)
    gc.collect()
    gc.freeze()
    try:
        with spans.installed() if traced else nullcontext():
            memory.enter("timed")
            start = time.perf_counter()
            index = _ready(run, job)
            run.result.ready_s = time.perf_counter() - start
            _request_phase(run, job, index, seconds)
            run.result.total_s = time.perf_counter() - start
            run.result.peak_rss_mib = memory.exit()
        job.sizes["width"] = index.factors.width
        del index
    finally:
        gc.unfreeze()
    return run.result


def percentile_ms(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if len(values) else 0.0


def end_to_end(setup_s: float, first: PassResult, index_mib: float,
               ok_frac: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of an untraced run, as ``name -> (value, unit)``."""
    block, match = first.answers.latencies(BLOCK), first.answers.latencies(MATCH)
    return {
        "setup_s": (setup_s, "s"),
        "ready_s": (first.ready_s, "s"),
        "total_s": (first.total_s, "s"),
        "peak_rss_mib": (first.peak_rss_mib, "MiB"),
        "index_mib": (index_mib, "MiB"),
        "block_p50_ms": (percentile_ms(block, 50), "ms"),
        "block_p99_ms": (percentile_ms(block, 99), "ms"),
        "match_p50_ms": (percentile_ms(match, 50), "ms"),
        "match_p99_ms": (percentile_ms(match, 99), "ms"),
        "ok_frac": (ok_frac, "1"),
    }


# ----------------------------------------------------------------------
# Verification (after timing)
# ----------------------------------------------------------------------
def _saved_factors(path: Path) -> Scorer:
    with np.load(path, allow_pickle=False) as archive:
        return Scorer(archive["u"], archive["v"])


def _own_graphs(job: Job):
    a = own_csr(job.edges_a.src, job.edges_a.dst, job.edges_a.ingested_nodes)
    b = own_csr(job.edges_b.src, job.edges_b.dst, job.edges_b.ingested_nodes)
    return a, b


def _structure_checks(job: Job) -> tuple[int, list[str]]:
    """Ingested sizes, and the converter's CSR arrays entry for entry."""
    failures: list[str] = []
    want = dict(n_a=job.edges_a.ingested_nodes, n_b=job.edges_b.ingested_nodes,
                m_a=job.edges_a.num_edges, m_b=job.edges_b.num_edges)
    got = {key: job.sizes.get(key) for key in want}
    if got != want:
        failures.append(f"ingested sizes {got} != {want}")
    checks = 1
    if job.workload.ingest == "convert":
        for name, edges in (("csr_a", job.edges_a), ("csr_b", job.edges_b)):
            graph = mmap_csr.MmapCSRGraph(job.scratch / name)
            n = edges.ingested_nodes
            for label, matrix, reference in (
                ("A", graph.adjacency, own_csr(edges.src, edges.dst, n)),
                ("A^T", graph.adjacency_t, own_csr(edges.dst, edges.src, n)),
            ):
                checks += 1
                problem = csr_mismatch(matrix, reference)
                if problem is not None:
                    failures.append(f"{name} {label}: {problem}")
            del graph
    return checks, failures


def verify(job: Job, passes: list[PassResult]) -> tuple[int, list[str]]:
    """Check every recorded answer; return ``(checks, failures)``.

    Every answer is scored against the factors read from the saved index;
    an exact build (no recompression) is also checked against the
    benchmark's own Algorithm 1.  A request the run never issued is one
    failed check.
    """
    tol = Tolerance()
    checks, failures = _structure_checks(job)
    answers = [result.answers for result in passes]
    issued = sum(a.issued(kind).size for a in answers for kind in (BLOCK, MATCH, PAIRS))
    checks += issued
    for each in answers:
        unissued = each.unissued()
        checks += len(unissued)
        failures += [f"{kind}[{i}] not issued before the request cap" for kind, i in unissued]
    reference = _saved_factors(job.index_path)
    for each in answers:
        failures += check_answers(each, job.requests, reference, tol)
    del reference
    if job.workload.recompress_tol is None:
        a, b = _own_graphs(job)
        reference = Scorer(*algorithm1_factors(a, b, job.workload.iterations))
        checks += issued
        for each in answers:
            failures += [
                f"vs Algorithm 1: {message}"
                for message in check_answers(each, job.requests, reference, tol)
            ]
    return checks, failures


def preflight(workload: Workload, seed: int, scratch: Path) -> tuple[int, list[str]]:
    """Run the workload's sequence on the tiny stand-in against dense Eq. (2).

    Exact paths must agree to 1e-9; recompressed ones within ``K * tol``
    of the unit-norm similarity.  The pass also warms lazy imports.
    """
    job = set_up(workload, seed, scratch, scale=PREFLIGHT_SCALE,
                 request_counts=(40, 40, workload.pairs))
    result = timed_pass(job, traced=False, seconds=float("inf"), memory=PeakMemory())
    a, b = _own_graphs(job)
    dense = dense_eq2(a, b, workload.iterations)
    tol = Tolerance()
    if workload.recompress_tol:
        tol = Tolerance(atol=workload.iterations * workload.recompress_tol)
    checks, failures = _structure_checks(job)
    index = GSimIndex.load(job.index_path)
    full = index.query(np.arange(dense.shape[0]), np.arange(dense.shape[1]))
    error = float(np.linalg.norm(full - dense))
    if not error <= max(tol.atol, 1e-9):
        failures.append(f"pre-flight: ||S - S_eq2||_F = {error:.3g}")
    answers = result.answers
    checks += 1 + sum(answers.issued(kind).size for kind in (BLOCK, MATCH, PAIRS))
    failures += check_answers(answers, job.requests, Scorer.dense(dense), tol)
    return checks, [f"pre-flight {message}" for message in failures]
