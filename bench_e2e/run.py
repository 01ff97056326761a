#!/usr/bin/env python3
"""End-to-end, per-layer benchmark of the GSim+ pipeline.

Usage, from the repository root::

    python3 bench_e2e/run.py --workload paper --seed 1 --seconds 40 --trace 0

Each invocation runs one workload (``paper`` or ``mmap``, see
``pipeline.WORKLOADS``) in this fresh process, with OpenMP/OpenBLAS/MKL
pinned to one thread before numpy loads:

1. pre-flight: the workload's call sequence on the UK ``tiny`` stand-in,
   checked against a dense Eq. (2) iteration (this also warms imports);
2. set-up (``setup_s``): the graph pair written as edge-list files
   (``paper`` draws it from the seed, ``mmap`` uses a fixed pair) and the
   seeded request stream;
3. the timed run: ready phase (files -> loaded index) and request phase
   (one closed-loop client, no think time, over a fixed seeded request
   stream).  ``--seconds`` caps the request phase; a request the cap cuts
   counts as failed;
4. with ``--trace 1`` the timed run is repeated with a live tracer and
   layer spans; its spans give the per-layer metrics, and the two runs'
   ``total_s`` give the tracing overhead;
5. verification of every recorded answer against the benchmark's own
   references.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  The full record,
with the host description, is written under ``.bench_e2e/results/`` and,
for traced runs, the Chrome trace next to it; scratch files live in
``.bench_e2e/scratch-<pid>/`` and are removed at exit.  The exit code is 0
only when every answer is correct.
"""

from __future__ import annotations

import os
import sys

for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_e2e"
_MIB = 1024.0 * 1024.0


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper", "mmap"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="cap on the request phase; requests it cuts count as failed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Reproducibility record
# ----------------------------------------------------------------------
def _first_line_value(path: str, key: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def _filesystem(path: Path) -> str | None:
    best, kind = "", None
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                point = fields[1]
                if str(path).startswith(point) and len(point) > len(best):
                    best, kind = point, fields[2]
    except OSError:
        return None
    return kind


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def host_record(seed: int, memory_method: str) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    mem_kib = _first_line_value("/proc/meminfo", "MemTotal")
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _first_line_value("/proc/cpuinfo", "model name"),
        "ram_mib": int(mem_kib.split()[0]) // 1024 if mem_kib else None,
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "scratch_fs": _filesystem(WORK),
        "peak_rss_method": memory_method,
        "seed": seed,
        "git_commit": _git_commit(),
    }


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, default=float)
        handle.write("\n")


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from layers import PeakMemory, SpanTree, layer_metrics
    from pipeline import WORKLOADS, end_to_end, percentile_ms, preflight, set_up, timed_pass, verify

    workload = WORKLOADS[args.workload]
    memory = PeakMemory()
    scratch = WORK / f"scratch-{os.getpid()}"
    try:
        start = time.perf_counter()
        pre_checks, failures = preflight(workload, args.seed, scratch / "preflight")
        preflight_s = time.perf_counter() - start
        shutil.rmtree(scratch / "preflight")

        start = time.perf_counter()
        job = set_up(workload, args.seed, scratch / "run")
        setup_s = time.perf_counter() - start

        passes = [timed_pass(job, traced=False, seconds=args.seconds, memory=memory)]
        if args.trace:
            passes.append(timed_pass(job, traced=True, seconds=args.seconds, memory=memory))
        index_mib = job.index_path.stat().st_size / _MIB

        start = time.perf_counter()
        checks, run_failures = verify(job, passes)
        verify_s = time.perf_counter() - start
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures += run_failures
    attempted = pre_checks + checks
    failed = min(len(failures), attempted)
    ok_frac = 1.0 - failed / attempted
    host = host_record(args.seed, memory.method)
    counts = {kind: int(passes[0].answers.issued(kind).size)
              for kind in ("block", "match", "pairs")}
    e2e = end_to_end(setup_s, passes[0], index_mib, ok_frac)

    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("host: " + json.dumps(host, sort_keys=True))
    print(f"sizes: {json.dumps(job.sizes, sort_keys=True)} "
          f"nodes_dropped={job.nodes_dropped}")
    print("samples: " + " ".join(f"{kind}={count}" for kind, count in counts.items()))
    pairs = passes[0].answers.latencies("pairs")
    if len(pairs):
        print(f"pairs_p50_ms: {percentile_ms(pairs, 50):.6g} ms over {len(pairs)} samples")
    request_s = passes[0].total_s - passes[0].ready_s
    print(f"request phase: {request_s:.3f} s (cap {args.seconds:g} s)")
    print("ready steps (s): " + json.dumps(
        {k: [round(v, 6) for v in values] for k, values in passes[0].steps.items()}))
    print(f"pre-flight {preflight_s:.3f} s, verify {verify_s:.3f} s, "
          f"checks {attempted}, failed {failed} (failed_frac {failed / attempted:.6g})")
    for message in failures[:20]:
        print(f"FAILED: {message}")
    _print_table("end-to-end:", e2e)

    record = {
        "workload": workload.name, "seconds": args.seconds,
        "trace": args.trace, "host": host, "sizes": job.sizes, "samples": counts,
        "steps": passes[0].steps, "request_s": request_s,
        "attempted": attempted, "failed": failed,
        "failures": failures[:100], "end_to_end": e2e,
    }
    result_metrics = e2e
    if args.trace:
        traced = passes[1]
        tree = SpanTree(traced.tracer.spans())
        per_layer = layer_metrics(
            tree, job, traced.metrics, memory,
            {"traced": traced.total_s, "untraced": passes[0].total_s},
        )
        result_metrics = per_layer
        _print_table("per-layer (traced run):", per_layer)
        self_times = tree.layer_self_times()
        print("layer self time (s): " + json.dumps(
            {k: round(v, 6) for k, v in sorted(self_times.items())}))
        print(f"dropped spans: {traced.tracer.dropped_spans}")
        hot = tree.summary[:12]
        for row in hot:
            print(f"  hot {row['name']:<40} calls={row['calls']:<6} "
                  f"self={row['self_seconds']:.6f}s total={row['total_seconds']:.6f}s")
        record.update(per_layer=per_layer, layer_self_s=self_times, hot_path=hot)
        stem = f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
        write_json(WORK / "results" / f"{stem}.trace.json", tree.chrome_trace(traced.tracer))
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    write_json(WORK / "results" / f"{stem}.json", record)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result_metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
