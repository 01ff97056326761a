"""Out-of-core CSR graphs (``scale`` marker).

The load-bearing claims, mirroring the parallel suite's contract:

* an :class:`MmapCSRGraph` built by :func:`convert_edge_list` is
  **bit-identical** to the in-memory :class:`Graph` parsed from the same
  edge list — structure, degrees, and SpMM products;
* the converter is crash-safe: killed at any checkpoint, a resumed run
  publishes a manifest whose content checksum equals a clean convert's;
* ``gsim_plus`` / ``top_k_pairs`` / ``top_k_for_queries`` return
  bit-identical results for in-memory and mmap-backed graphs at
  ``max_workers`` in {1, 2, 4} worker threads;
* memmap arrays are charged at their *resident* estimate, not their
  virtual ``nbytes``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.gsim_plus import gsim_plus
from repro.core.topk import top_k_for_queries, top_k_pairs
from repro.graphs import MmapCSRGraph, convert_edge_list, read_edge_list
from repro.runtime import (
    ExecutionContext,
    FaultInjector,
    InjectedFault,
    MemoryLedger,
    WorkerPool,
)
from repro.utils.memory import RESIDENT_WINDOW_BYTES, resident_estimate, resident_nbytes

pytestmark = pytest.mark.scale

WORKER_COUNTS = (1, 2, 4)
GRAPH_SPECS = {"a": (60, 400, 11), "b": (45, 300, 12)}


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def edge_files(tmp_path_factory):
    """Weighted edge lists with comments and duplicate edges."""
    root = tmp_path_factory.mktemp("edges")
    paths = {}
    for label, (n, m, seed) in GRAPH_SPECS.items():
        rng = np.random.default_rng(seed)
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        weight = rng.standard_normal(m).round(3)
        lines = ["# synthetic weighted edge list", f"{n - 1} {n - 1} 0.5"]
        lines += [f"{s} {d} {w}" for s, d, w in zip(src, dst, weight)]
        path = root / f"{label}.txt"
        path.write_text("\n".join(lines) + "\n")
        paths[label] = path
    return paths


@pytest.fixture(scope="module")
def graph_pairs(edge_files, tmp_path_factory):
    """(in-memory, mmap) pairs parsed from the same edge lists.

    Tiny chunk/block sizes force the converter through many chunks and
    row blocks, exercising the streamed code paths on a small input.
    """
    root = tmp_path_factory.mktemp("mmap")
    mem = {k: read_edge_list(p, name=k) for k, p in edge_files.items()}
    mm = {
        k: convert_edge_list(
            p, root / k, name=k, chunk_edges=64, block_rows=16
        )
        for k, p in edge_files.items()
    }
    return mem, mm


@pytest.fixture(scope="module")
def pools():
    """One thread pool per worker count."""
    return {w: WorkerPool(max_workers=w) for w in WORKER_COUNTS}


def _storages(graph_pairs):
    """(label, graph_a, graph_b) for the in-memory and the mmap pair."""
    mem, mm = graph_pairs
    return [
        ("in-memory", mem["a"], mem["b"]),
        ("mmap", mm["a"], mm["b"]),
    ]


# ---------------------------------------------------------------------------
# mmap-CSR vs in-memory parity
# ---------------------------------------------------------------------------


def test_mmap_structure_parity(graph_pairs):
    mem, mm = graph_pairs
    for key in mem:
        g, h = mem[key], mm[key]
        assert h.num_nodes == g.num_nodes
        assert h.num_edges == g.num_edges
        assert np.array_equal(h.out_degrees(), g.out_degrees())
        assert np.array_equal(h.in_degrees(), g.in_degrees())
        for attr in ("adjacency", "adjacency_t"):
            a, b = getattr(g, attr), getattr(h, attr)
            assert np.array_equal(b.indptr, a.indptr)
            assert np.array_equal(b.indices, a.indices)
            assert np.array_equal(b.data, a.data)


def test_mmap_spmm_bit_identical(graph_pairs):
    mem, mm = graph_pairs
    for key in mem:
        g, h = mem[key], mm[key]
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((g.num_nodes, 7))
        assert np.array_equal(h.adjacency @ dense, g.adjacency @ dense)
        assert np.array_equal(h.adjacency_t @ dense, g.adjacency_t @ dense)


def test_convert_idempotent_and_verifiable(graph_pairs, edge_files, tmp_path):
    _, mm = graph_pairs
    root = mm["a"].root
    # A second convert into the same directory reloads the artifact.
    again = convert_edge_list(edge_files["a"], root, name="a")
    assert again.num_edges == mm["a"].num_edges
    # Full checksum verification passes on a clean artifact.
    verified = MmapCSRGraph(root, verify=True)
    assert verified.num_edges == mm["a"].num_edges
    # No raw.* intermediates or progress journal survive completion.
    leftovers = [p.name for p in root.iterdir() if p.name.startswith("raw.")]
    assert leftovers == []
    assert not (root / "progress.json").exists()


def test_verify_detects_corruption(edge_files, tmp_path):
    graph = convert_edge_list(edge_files["b"], tmp_path / "art", name="b")
    target = tmp_path / "art" / "adj.data.bin"
    raw = bytearray(target.read_bytes())
    raw[0] ^= 0xFF
    target.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="checksum"):
        MmapCSRGraph(graph.root, verify=True)


def test_from_graph_round_trip(graph_pairs, tmp_path):
    mem, _ = graph_pairs
    g = mem["b"]
    h = MmapCSRGraph.from_graph(g, tmp_path / "fg", name="b-copy")
    assert np.array_equal(h.adjacency.indptr, g.adjacency.indptr)
    assert np.array_equal(h.adjacency.indices, g.adjacency.indices)
    assert np.array_equal(h.adjacency.data, g.adjacency.data)
    rng = np.random.default_rng(9)
    dense = rng.standard_normal((g.num_nodes, 3))
    assert np.array_equal(h.adjacency_t @ dense, g.adjacency_t @ dense)


# ---------------------------------------------------------------------------
# converter modes and crash-safety
# ---------------------------------------------------------------------------


def test_convert_strict_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\nx y\n2 3\n")
    with pytest.raises(ValueError, match="line 2"):
        convert_edge_list(path, tmp_path / "out", mode="strict")


def test_convert_lenient_matches_reader(tmp_path):
    path = tmp_path / "messy.txt"
    path.write_text("# header\n0 1 2.0\nx y\n2 0 1.0\n-1 3 9.0\n3 2\n")
    with pytest.warns(RuntimeWarning, match="skipped"):
        h = convert_edge_list(path, tmp_path / "out", mode="lenient")
        g = read_edge_list(path, mode="lenient")
    assert h.num_edges == g.num_edges
    assert np.array_equal(h.adjacency.indices, g.adjacency.indices)
    assert np.array_equal(h.adjacency.data, g.adjacency.data)


@pytest.mark.parametrize("fail_at", [1, 3, 5, 7, 9])
def test_convert_crash_resume_checksum_identical(
    edge_files, tmp_path, fail_at
):
    clean = convert_edge_list(
        edge_files["a"], tmp_path / "clean", chunk_edges=64, block_rows=16
    )
    clean_manifest = json.loads((clean.root / "manifest.json").read_text())

    crashed = tmp_path / "crashed"
    context = ExecutionContext(
        fault_injector=FaultInjector(fail_at=fail_at, match="mmap convert")
    )
    with pytest.raises(InjectedFault):
        convert_edge_list(
            edge_files["a"],
            crashed,
            chunk_edges=64,
            block_rows=16,
            context=context,
        )
    assert not (crashed / "manifest.json").exists()

    resumed = convert_edge_list(
        edge_files["a"], crashed, chunk_edges=64, block_rows=16
    )
    resumed_manifest = json.loads((resumed.root / "manifest.json").read_text())
    assert resumed_manifest["checksum"] == clean_manifest["checksum"]
    assert not (crashed / "progress.json").exists()


# ---------------------------------------------------------------------------
# bit-identity across storage and worker threads
# ---------------------------------------------------------------------------


def _similarity(graph_a, graph_b, max_workers=None):
    return gsim_plus(
        graph_a, graph_b, iterations=6, max_workers=max_workers
    ).similarity


def test_gsim_plus_backend_bit_identity(graph_pairs, pools):
    mem, _ = graph_pairs
    reference = _similarity(mem["a"], mem["b"])
    for storage, graph_a, graph_b in _storages(graph_pairs):
        for workers, pool in pools.items():
            got = _similarity(graph_a, graph_b, max_workers=pool)
            assert np.array_equal(got, reference), (storage, workers)


def test_top_k_pairs_backend_bit_identity(graph_pairs, pools):
    mem, _ = graph_pairs
    reference = top_k_pairs(mem["a"], mem["b"], k=25, iterations=6, block_rows=17)
    for storage, graph_a, graph_b in _storages(graph_pairs):
        for workers, pool in pools.items():
            got = top_k_pairs(
                graph_a, graph_b, k=25, iterations=6, block_rows=17,
                max_workers=pool,
            )
            assert got == reference, (storage, workers)


def test_top_k_for_queries_backend_bit_identity(graph_pairs, pools):
    mem, _ = graph_pairs
    queries = [0, 5, 5, 17, 3, 59, 28]
    reference = top_k_for_queries(
        mem["a"], mem["b"], queries, k=7, iterations=6, block_rows=2
    )
    for storage, graph_a, graph_b in _storages(graph_pairs):
        for workers, pool in pools.items():
            got = top_k_for_queries(
                graph_a,
                graph_b,
                queries,
                k=7,
                iterations=6,
                block_rows=2,
                max_workers=pool,
            )
            assert got == reference, (storage, workers)


# ---------------------------------------------------------------------------
# resident-memory accounting
# ---------------------------------------------------------------------------


def test_resident_nbytes_memmap_bounded(graph_pairs):
    _, mm = graph_pairs
    graph = mm["a"]
    data = graph.adjacency.data
    resident = resident_nbytes(data)
    assert 0 <= resident <= data.nbytes
    # Heap arrays are fully resident by definition.
    heap = np.ones(1024)
    assert resident_nbytes(heap) == heap.nbytes


def test_resident_estimate_window():
    assert resident_estimate(100) == 100
    big = 4 * RESIDENT_WINDOW_BYTES
    assert resident_estimate(big) == RESIDENT_WINDOW_BYTES


def test_ledger_charges_resident_not_virtual(graph_pairs):
    _, mm = graph_pairs
    graph = mm["b"]
    virtual = graph.memory_bytes()
    resident = graph.resident_bytes()
    assert resident <= virtual
    ledger = MemoryLedger(limit_bytes=max(resident, 1) * 2 + 1)
    ledger.charge(resident, "mmap graph")
    assert ledger.held_bytes == resident
    ledger.release(resident)
    assert ledger.held_bytes == 0


def test_release_pages_keeps_graph_usable(graph_pairs):
    mem, mm = graph_pairs
    graph = mm["a"]
    graph.release_pages()
    assert graph.resident_bytes() >= 0
    rng = np.random.default_rng(2)
    dense = rng.standard_normal((graph.num_nodes, 2))
    assert np.array_equal(
        graph.adjacency @ dense, mem["a"].adjacency @ dense
    )


# ---------------------------------------------------------------------------
# CLI converter
# ---------------------------------------------------------------------------


def test_cli_datasets_convert(edge_files, tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "artifact"
    code = main(
        ["datasets", "convert", str(edge_files["a"]), str(out), "--lenient"]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "nodes" in printed and "edges" in printed
    assert (out / "manifest.json").exists()
    graph = MmapCSRGraph(out)
    assert graph.num_nodes == GRAPH_SPECS["a"][0]
