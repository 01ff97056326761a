"""Index once, retrieve forever — GSim+ as a similarity index.

The expensive part of GSim+ is iterating the factor matrices ``U_K`` /
``V_K``; answering a query block from them is a cheap slender product.
This example shows the index workflow the paper's "retrieval" framing
implies:

1. build a :class:`repro.GSimIndex` for a scaled web-crawl dataset pair
   (once),
2. persist it to a checksummed ``.npz`` index file,
3. reload it and serve three kinds of queries without touching the
   graphs: arbitrary query blocks, global top-k pairs, and per-node
   rankings.  Every score is an entry of the globally normalised
   similarity matrix ``S_K = Z_K / ||Z_K||_F``.

Run with::

    python examples/index_and_retrieve.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import GSimIndex
from repro.graphs import load_dataset_pair


def main() -> None:
    graph_a, graph_b = load_dataset_pair("UK", scale="tiny", seed=7)
    print(f"G_A = {graph_a}")
    print(f"G_B = {graph_b}")

    with tempfile.TemporaryDirectory() as tmp:
        index_path = Path(tmp) / "uk_gsim_index.npz"

        # --- 1+2: build and persist --------------------------------------
        start = time.perf_counter()
        GSimIndex.build(graph_a, graph_b, iterations=6).save(index_path)
        build_seconds = time.perf_counter() - start
        size_kib = index_path.stat().st_size / 1024
        print(f"\nindex built in {build_seconds * 1e3:.1f} ms, "
              f"{size_kib:.0f} KiB on disk")

        index = GSimIndex.load(index_path)

    # --- 3a: serve a query block from the loaded index -------------------
    start = time.perf_counter()
    block = index.query([5, 17, 99], [0, 1, 2, 3])
    query_ms = (time.perf_counter() - start) * 1e3
    print(f"\n3x4 query block (globally normalised), {query_ms:.2f} ms:")
    print(np.array_str(block, precision=3, suppress_small=True))

    # --- 3b: global top-k pairs ------------------------------------------
    print("\ntop-5 most similar cross-graph pairs:")
    for pair in index.top_pairs(k=5):
        print(f"  G_A node {pair.node_a:>5}  ~  G_B node {pair.node_b:>4}"
              f"   score {pair.score:.4f}")

    # --- 3c: per-node retrieval -------------------------------------------
    print("\nper-node retrieval (3 best matches each):")
    for node in [0, 1, 2]:
        matches = ", ".join(
            f"{p.node_b} ({p.score:.4f})" for p in index.top_matches(node, k=3)
        )
        print(f"  G_A node {node}: {matches}")


if __name__ == "__main__":
    main()
