"""Top-k scan timing and out-of-core RSS comparison.

Standalone script (not a pytest-benchmark suite) with two halves:

* **Scan timing** — the serial, norm-pruned top-k pair scan over
  precomputed GSim+ factors with a tiny ``block_rows``, so per-block
  Python work (selection, candidate merges) is a visible share of the
  time.
* **Resident-set comparison** — the same blocked SpMM workload run in
  two fresh child processes over the same converted multi-million-edge
  artifact: one materialises the CSR arrays on the heap, one keeps them
  mmap-backed and drops clean pages (``release_pages``) after every
  block.  Peak-RSS deltas over the post-import baseline come from
  :class:`repro.runtime.ResourceMonitor` (``/proc/self/status``).

The output is pytest-benchmark-shaped JSON (``benchmarks[].fullname`` +
``stats``) so ``scripts/bench_gate.py`` can gate it; the RSS section
rides along under ``memory``.  Run via ``make bench-scale`` (pins BLAS
threads, writes ``results/BENCH_scale.json``) or directly::

    PYTHONPATH=src python benchmarks/bench_scale.py [output.json]
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

FULLNAME = "benchmarks/bench_scale.py::{name}"

# Timing half: factors from a synthetic rmat pair, then the pair scan.
TIMING_SCALE_A = 15
TIMING_SCALE_B = 13
TIMING_EDGES_A = 240_000
TIMING_EDGES_B = 72_000
TIMING_ITERATIONS = 4
TIMING_BLOCK_ROWS = 2
TIMING_K = 100
ROUNDS = 9

# RSS half: a multi-million-edge synthetic graph, converted once and
# shared by both children.
RSS_SCALE = 21  # 2**21 nodes
RSS_EDGES = 8_000_000
RSS_SEED = 99
RSS_BLOCK_NNZ = 1 << 18  # ~3 MiB of data+indices per block
RSS_DENSE_WIDTH = 1
RSS_PASSES = 2


def _stats(samples: list[float]) -> dict:
    ordered = sorted(samples)
    n = len(ordered)
    median = statistics.median(ordered)
    q1 = ordered[max(0, (n - 1) // 4)]
    q3 = ordered[min(n - 1, (3 * (n - 1)) // 4)]
    return {
        "min": ordered[0],
        "max": ordered[-1],
        "mean": statistics.fmean(ordered),
        "median": median,
        "stddev": statistics.pstdev(ordered) if n > 1 else 0.0,
        "iqr": q3 - q1,
        "ops": (1.0 / median) if median > 0 else 0.0,
        "rounds": n,
    }


def _bench_entry(name: str, samples: list[float], **extra) -> dict:
    return {
        "name": name,
        "fullname": FULLNAME.format(name=name),
        "stats": _stats(samples),
        "extra_info": extra,
    }


# ---------------------------------------------------------------------------
# timing half
# ---------------------------------------------------------------------------


def run_timing() -> list[dict]:
    from repro.core.gsim_plus import GSimPlus
    from repro.core.topk import scan_top_pairs
    from repro.graphs.generators import rmat_graph

    print("building factors for the scan kernel ...", file=sys.stderr)
    graph_a = rmat_graph(TIMING_SCALE_A, TIMING_EDGES_A, seed=31, name="bench-A")
    graph_b = rmat_graph(TIMING_SCALE_B, TIMING_EDGES_B, seed=32, name="bench-B")
    # The exact 2^K = 16 columns, as in results/BENCH_scale.json: the
    # index's cut keeps the same width but rotates the rows.
    solver = GSimPlus(graph_a, graph_b, rank_cap="none")
    for state in solver.iterate(TIMING_ITERATIONS):
        factors = state.factors

    def one() -> float:
        start = time.perf_counter()
        scan_top_pairs(factors, k=TIMING_K, block_rows=TIMING_BLOCK_ROWS)
        return time.perf_counter() - start

    name = "topk_scan_serial"
    one()  # warm-up: primes the page cache
    samples = [one() for _ in range(ROUNDS)]
    print(
        f"{name}: median {statistics.median(samples):.3f}s over {ROUNDS} rounds",
        file=sys.stderr,
    )
    return [
        _bench_entry(
            name,
            samples,
            backend="serial",
            workers=1,
            rows=int(factors.shape[0]),
            cols=int(factors.shape[1]),
            width=int(factors.width),
            block_rows=TIMING_BLOCK_ROWS,
        )
    ]


# ---------------------------------------------------------------------------
# RSS half (parent orchestration + --child worker)
# ---------------------------------------------------------------------------


def child_main(mode: str, root: str) -> int:
    """Fresh-process workload: blocked SpMM over the converted artifact.

    Both modes run the identical nnz-bounded blocked SpMM over zero-copy
    CSR views (scipy row slicing would heap-copy each block); the only
    difference is where the arrays live — the heap, or the mapping with
    clean pages dropped after every block.
    """
    from repro.graphs import MmapCSRGraph
    from repro.graphs.mmap_csr import csr_from_arrays
    from repro.runtime import Metrics, ResourceMonitor

    monitor = ResourceMonitor(Metrics())
    baseline = monitor.sample()["process.rss_bytes"]

    graph = MmapCSRGraph(root)
    indptr = graph.adjacency.indptr
    indices = graph.adjacency.indices
    data = graph.adjacency.data
    if mode == "inmem":
        # Same arrays, materialised on the heap: the in-memory footprint
        # the mmap representation is being compared against.  Copy in
        # chunks and drop the clean mapped pages as we go, so the peak
        # reflects heap residency rather than the copy transient.
        def materialise(array):
            out = np.empty(array.shape, array.dtype)
            step = max(1, (32 << 20) // array.itemsize)
            for lo in range(0, array.shape[0], step):
                out[lo : lo + step] = array[lo : lo + step]
                graph.release_pages()
            return out

        indptr, indices, data = (
            materialise(indptr),
            materialise(indices),
            materialise(data),
        )

    n = graph.num_nodes
    # Row blocks bounded by stored entries, not row count: power-law
    # graphs concentrate most of the nnz in the hub rows, and a bounded
    # working set is the point of the out-of-core path.
    bounds = np.searchsorted(
        indptr, np.arange(0, indptr[-1] + RSS_BLOCK_NNZ, RSS_BLOCK_NNZ)
    )
    bounds = np.unique(np.clip(bounds, 0, n))
    if not bounds.size or bounds[-1] != n:
        bounds = np.append(bounds, n)

    rng = np.random.default_rng(7)
    dense = rng.standard_normal((n, RSS_DENSE_WIDTH))
    checksum = 0.0
    for _ in range(RSS_PASSES):
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            start, stop = int(indptr[lo]), int(indptr[hi])
            block = csr_from_arrays(
                indptr[lo : hi + 1] - indptr[lo],
                indices[start:stop],
                data[start:stop],
                (int(hi - lo), n),
            )
            checksum += float((block @ dense).sum())
            if mode == "mmap":
                graph.release_pages()
            monitor.sample()

    final = monitor.sample()
    print(
        json.dumps(
            {
                "mode": mode,
                "baseline_rss_bytes": baseline,
                "peak_rss_bytes": final["process.peak_rss_bytes"],
                "peak_delta_bytes": final["process.peak_rss_bytes"] - baseline,
                "checksum": checksum,
            }
        )
    )
    return 0


def run_rss(script: Path) -> dict:
    from repro.graphs import MmapCSRGraph
    from repro.graphs.generators import rmat_graph

    results = {}
    # Keep the artifact on disk: the RSS comparison is about paging
    # against a disk-backed file.
    scratch_dir = "/var/tmp" if os.path.isdir("/var/tmp") else None
    with tempfile.TemporaryDirectory(
        prefix="bench-scale-", dir=scratch_dir
    ) as tmp:
        root = Path(tmp) / "artifact"
        print(
            f"generating rmat graph (2**{RSS_SCALE} nodes, "
            f"{RSS_EDGES} edges) ...",
            file=sys.stderr,
        )
        graph = rmat_graph(RSS_SCALE, RSS_EDGES, seed=RSS_SEED, name="rss-bench")
        MmapCSRGraph.from_graph(graph, root)
        del graph
        for mode in ("inmem", "mmap"):
            proc = subprocess.run(
                [sys.executable, str(script), "--child", mode, str(root)],
                capture_output=True,
                text=True,
                check=True,
            )
            results[mode] = json.loads(proc.stdout)
            print(
                f"rss[{mode}]: peak delta "
                f"{results[mode]['peak_delta_bytes'] / 2**20:.1f} MiB",
                file=sys.stderr,
            )
    if results["inmem"]["checksum"] != results["mmap"]["checksum"]:
        raise AssertionError(
            "in-memory and mmap workloads disagree: "
            f"{results['inmem']['checksum']} vs {results['mmap']['checksum']}"
        )
    return results


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "--child":
        return child_main(argv[1], argv[2])

    out = Path(argv[0]) if argv else Path("results/BENCH_scale.json")
    script = Path(__file__).resolve()

    entries = run_timing()
    rss = run_rss(script)
    for mode in ("inmem", "mmap"):
        entries.append(
            _bench_entry(
                f"rss_{mode}_peak_delta_bytes",
                [float(rss[mode]["peak_delta_bytes"])],
                unit="bytes",
            )
        )

    cpu_count = os.cpu_count() or 1
    document = {
        "machine_info": {
            "node": platform.node(),
            "processor": platform.processor(),
            "python_version": platform.python_version(),
            "cpu_count": cpu_count,
            "note": "single-core host" if cpu_count == 1 else "multi-core host",
        },
        "config": {
            "timing": {
                "iterations": TIMING_ITERATIONS,
                "block_rows": TIMING_BLOCK_ROWS,
                "k": TIMING_K,
                "rounds": ROUNDS,
            },
            "rss": {
                "scale": RSS_SCALE,
                "edges": RSS_EDGES,
                "block_nnz": RSS_BLOCK_NNZ,
                "passes": RSS_PASSES,
            },
        },
        "memory": rss,
        "benchmarks": entries,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
