"""Exact-vs-compressed accuracy/speed curves for factor recompression.

Standalone script (not a pytest-benchmark suite): sweeps the
recompression tolerance and the precision policy over the bench dataset
pairs and writes one JSON document of curves —

* factor width after K iterations (the ``2^k``-schedule vs numerical
  rank; 1e-12 is the default cut of index builds),
* median iterate wall time and factor bytes,
* max / mean absolute similarity error against the exact float64 run,
* the Theorem 4.2 spectral bound for the same K, as the reference line.

Run via ``make bench-compression`` (pins BLAS threads, writes
``results/BENCH_compression.json``) or directly::

    PYTHONPATH=src python benchmarks/compression_sweep.py [output.json]

The JSON is committed next to the other bench artifacts so accuracy
regressions in the recompression path show up in review diffs.  The
script exits 1, after writing the curves, when any recompressed error
exceeds the Theorem 4.2 bound or ``ITERATIONS * tol`` (see
:func:`tolerance_breaches`).
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.error_bound import error_bound
from repro.core.gsim_plus import GSimPlus
from repro.graphs import load_dataset_pair

DATASETS = ("HP", "EE")
ITERATIONS = 8
TOLERANCES = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)
REPEATS = 5


def _run(graph_a, graph_b, queries_a, queries_b, **solver_kwargs):
    """One measured solve: (result, median seconds over REPEATS)."""
    timings = []
    result = None
    for _ in range(REPEATS):
        solver = GSimPlus(graph_a, graph_b, rank_cap="none", **solver_kwargs)
        start = time.perf_counter()
        result = solver.run(ITERATIONS, queries_a=queries_a, queries_b=queries_b)
        timings.append(time.perf_counter() - start)
    return result, statistics.median(timings)


def bound_check(dataset: str) -> dict:
    """Theorem 4.2 validation on a reduced companion pair.

    The full-spectrum bound needs ``n_A * n_B <= 4000``, far below the
    bench pairs, so G_A is reduced to its highest-degree induced
    subgraph (hubs keep the walk structure alive through K iterations,
    unlike a random node sample) and the recompressed error is measured
    on that same pair — error and bound stay comparable.
    """
    full_a, graph_b = load_dataset_pair(dataset, scale="tiny", seed=7)
    size = max(2, 4000 // graph_b.num_nodes)
    degrees = (
        np.asarray(full_a.adjacency.sum(axis=1)).ravel()
        + np.asarray(full_a.adjacency.sum(axis=0)).ravel()
    )
    hubs = sorted(int(node) for node in np.argsort(-degrees)[:size])
    graph_a = full_a.subgraph(hubs)
    queries_a = np.arange(graph_a.num_nodes)
    queries_b = np.arange(graph_b.num_nodes)
    # Theorem 4.2 needs an even iteration count; ITERATIONS is even.
    bound = error_bound(graph_a, graph_b, ITERATIONS)
    exact, _ = _run(graph_a, graph_b, queries_a, queries_b)
    checks = []
    for tol in TOLERANCES:
        result, _ = _run(
            graph_a, graph_b, queries_a, queries_b, recompress_tol=tol
        )
        max_error = float(
            np.abs(
                np.asarray(result.similarity, dtype=np.float64)
                - exact.similarity
            ).max()
        )
        checks.append(
            {
                "tolerance": tol,
                "max_error": max_error,
                "within_bound": bool(max_error <= bound),
            }
        )
    return {
        "n_a": graph_a.num_nodes,
        "n_b": graph_b.num_nodes,
        "theorem_4_2_bound": bound,
        "checks": checks,
    }


def sweep_dataset(dataset: str) -> dict:
    graph_a, graph_b = load_dataset_pair(dataset, scale="tiny", seed=7)
    queries_a = np.arange(min(30, graph_a.num_nodes))
    queries_b = np.arange(min(30, graph_b.num_nodes))
    exact, exact_seconds = _run(graph_a, graph_b, queries_a, queries_b)

    def _point(result, seconds, label):
        error = np.abs(
            np.asarray(result.similarity, dtype=np.float64) - exact.similarity
        )
        return {
            "label": label,
            "precision": result.precision,
            "final_width": result.final_width,
            "seconds_median": seconds,
            "max_error": float(error.max()),
            "mean_error": float(error.mean()),
            "truncation": (
                result.truncation.to_dict()
                if result.truncation is not None
                else None
            ),
        }

    points = [_point(exact, exact_seconds, "exact-float64")]
    for tol in TOLERANCES:
        result, seconds = _run(
            graph_a, graph_b, queries_a, queries_b, recompress_tol=tol
        )
        points.append(_point(result, seconds, f"recompress-{tol:.0e}"))
    result, seconds = _run(
        graph_a, graph_b, queries_a, queries_b,
        recompress_tol=1e-6, precision="float32",
    )
    points.append(_point(result, seconds, "recompress-1e-06-float32"))
    return {
        "dataset": dataset,
        "n_a": graph_a.num_nodes,
        "n_b": graph_b.num_nodes,
        "iterations": ITERATIONS,
        "doubling_width": 2**ITERATIONS,
        "points": points,
        "bound_check": bound_check(dataset),
    }


def tolerance_breaches(document: dict) -> list[str]:
    """Recompressed points whose max error exceeds ``ITERATIONS * tol``.

    ``ITERATIONS`` recompressions at relative tolerance ``tol`` move the
    normalised scores by at most about ``ITERATIONS * tol`` (the tolerance
    ``bench_e2e`` verifies recompressed builds against).  The Theorem 4.2
    bound is orders of magnitude looser, too loose to catch a wrong kernel.
    """
    breaches = []
    for sweep in document["datasets"]:
        points = [
            (point["label"], point["truncation"]["tolerance"], point["max_error"])
            for point in sweep["points"]
            if point["truncation"] is not None
        ]
        points += [
            (f"bound-check-{check['tolerance']:.0e}", check["tolerance"], check["max_error"])
            for check in sweep["bound_check"]["checks"]
        ]
        breaches += [
            f"{sweep['dataset']} {label}: max_err={error:.3e} > {ITERATIONS} * {tol:.0e}"
            for label, tol, error in points
            if not error <= ITERATIONS * tol
        ]
    return breaches


def main(argv: list[str]) -> int:
    output = Path(argv[1]) if len(argv) > 1 else Path("results/BENCH_compression.json")
    document = {
        "schema": "bench-compression-v1",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "repeats": REPEATS,
        "datasets": [sweep_dataset(dataset) for dataset in DATASETS],
    }
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    within = True
    for sweep in document["datasets"]:
        check = sweep["bound_check"]
        print(
            f"{sweep['dataset']}: doubling_width={sweep['doubling_width']} "
            f"bound={check['theorem_4_2_bound']:.3e} "
            f"(on {check['n_a']}x{check['n_b']} companion)"
        )
        for point in sweep["points"]:
            print(
                f"  {point['label']:>26}  width={point['final_width']:>4}  "
                f"t={point['seconds_median'] * 1e3:7.2f}ms  "
                f"max_err={point['max_error']:.3e}"
            )
        if not all(entry["within_bound"] for entry in check["checks"]):
            print("  ERROR: recompressed error exceeded the Theorem 4.2 bound")
            within = False
    for breach in tolerance_breaches(document):
        print(f"ERROR: {breach}")
        within = False
    print(f"curves written to {output}")
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
