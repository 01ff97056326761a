"""Seeded inputs: graph pairs, edge-list files and request streams.

Everything here runs during set-up, before the timed run starts.  The same
seed always yields the same graphs, files and requests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.graphs.generators import rmat_graph
from repro.graphs.graph import Graph
from repro.graphs.sampling import random_node_sample

# Largest |Q_A| and |Q_B| of a block request (the paper's Fig. 5 query
# sizes).  Capping |Q_B| at the UK stand-in's |V_B| keeps the largest
# answers at ~64 MB: on the 10k-node mmap sample, 2000 x 10k blocks
# (155 MB, twice over for the normalised copy) made block_p99_ms follow
# the host's page-fault and huge-page state, spreading 0.24-0.33 over
# ten seeds.
MAX_QUERY_A = 2000
MAX_QUERY_B = 4000
# The mmap workload's R-MAT G_A (2^18 nodes, 2 M edges) and the size of
# its induced G_B sample (the paper's |V_B|).
RMAT_SCALE = 18
RMAT_EDGES = 2_000_000
RMAT_SAMPLE = 10_000
# Entries of each block answer that are recorded verbatim for the checks.
PROBES_PER_BLOCK = 3
_WRITE_CHUNK = 1 << 18

BLOCK, MATCH, PAIRS = "block", "match", "pairs"


@dataclass
class EdgeFile:
    """One generated graph written as a ``src<TAB>dst`` edge list.

    ``ingested_nodes`` is what a reader that infers ``n = max id + 1``
    will see: trailing isolated nodes are lost in the round trip.
    """

    path: Path
    generated_nodes: int
    ingested_nodes: int
    src: np.ndarray
    dst: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    @property
    def nodes_dropped(self) -> int:
        return self.generated_nodes - self.ingested_nodes


def write_edge_file(graph: Graph, path: Path) -> EdgeFile:
    """Write ``graph`` (unit weights) as an edge list; keep its edges.

    The output is what ``repro.graphs.io.write_edge_list`` writes, less its
    ``#`` header (which both readers skip).  Formatting a chunk of lines
    at a time writes the UK stand-in's 2.1 M edges in about 0.6 s, where
    ``write_edge_list``, one formatted line per edge, takes about 1.9 s;
    the difference is about a fifth of ``setup_s``.
    """
    coo = graph.adjacency.tocoo()
    if coo.nnz and not np.all(coo.data == 1.0):
        raise ValueError(f"{graph.name}: expected unit edge weights")
    src = coo.row.astype(np.int32)
    dst = coo.col.astype(np.int32)
    with open(path, "w", encoding="ascii") as handle:
        for start in range(0, src.size, _WRITE_CHUNK):
            stop = min(start + _WRITE_CHUNK, src.size)
            flat = np.empty(2 * (stop - start), dtype=np.int64)
            flat[0::2] = src[start:stop]
            flat[1::2] = dst[start:stop]
            handle.write(("%d\t%d\n" * (stop - start)) % tuple(flat.tolist()))
    ingested = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
    return EdgeFile(path, graph.num_nodes, ingested, src, dst)


def rmat_pair(seed: int) -> tuple[Graph, Graph]:
    """A seeded 2^18-node R-MAT graph and a uniform induced sample of it."""
    graph_rng, sample_rng = np.random.default_rng(seed).spawn(2)
    graph_a = rmat_graph(RMAT_SCALE, RMAT_EDGES, seed=graph_rng, name="rmat")
    graph_b = random_node_sample(graph_a, RMAT_SAMPLE, seed=sample_rng)
    return graph_a, graph_b


@dataclass
class BlockRequest:
    rows: np.ndarray
    cols: np.ndarray
    # Per-entry sketch weights, gathered before timing so the digest of
    # an answer costs one matrix-vector product.
    weights_rows: np.ndarray
    weights_cols: np.ndarray
    probe_i: np.ndarray
    probe_j: np.ndarray


@dataclass
class Requests:
    """A seeded closed-loop request stream over one index."""

    order: list[tuple[str, int]]
    blocks: list[BlockRequest]
    match_nodes: np.ndarray
    pairs: int

    def counts(self) -> dict[str, int]:
        return {
            BLOCK: len(self.blocks),
            MATCH: int(self.match_nodes.size),
            PAIRS: self.pairs,
        }


def _lattice(count: int) -> np.ndarray:
    """A centred rank-1 lattice of ``count`` points in [0, 1)^2.

    Its generator is the integer nearest ``count / golden ratio`` that is
    coprime with ``count``.  The points cover the square evenly and do not
    depend on the seed, so every seed asks for the same block sizes (with
    different nodes, in a different order) and the latency percentiles
    compare like with like across seeds.
    """
    step = round(count / ((1 + math.sqrt(5)) / 2))
    while math.gcd(step, count) != 1:
        step += 1
    i = np.arange(count) + 0.5
    return np.column_stack([i / count, (i * step / count) % 1.0])


def _log_uniform_size(u: float, top: int) -> int:
    """Map ``u`` in [0, 1) to an integer log-uniform in [1, top]."""
    return int(min(top, max(1, math.floor(math.exp(u * math.log(top + 1))))))


def make_requests(
    n_a: int,
    n_b: int,
    blocks: int,
    matches: int,
    pairs: int,
    seed: int,
) -> tuple[Requests, np.ndarray, np.ndarray]:
    """Generate the request stream and the sketch weights of G_A / G_B.

    Block sizes are log-uniform: |Q_A| in [1, min(2000, n_A)] and |Q_B| in
    [1, min(4000, n_B)], over distinct uniform nodes.  ``match`` nodes are uniform G_A
    nodes.  The kinds are interleaved by a seeded shuffle.
    """
    rng = np.random.default_rng([seed, n_a, n_b])
    weights_a = rng.uniform(0.5, 1.5, size=n_a)
    weights_b = rng.uniform(0.5, 1.5, size=n_b)
    points = _lattice(blocks) if blocks else np.empty((0, 2))
    block_list = []
    for x, y in points:
        size_a = _log_uniform_size(x, min(MAX_QUERY_A, n_a))
        size_b = _log_uniform_size(y, min(MAX_QUERY_B, n_b))
        rows = rng.choice(n_a, size=size_a, replace=False)
        cols = rng.choice(n_b, size=size_b, replace=False)
        block_list.append(
            BlockRequest(
                rows=rows,
                cols=cols,
                weights_rows=weights_a[rows],
                weights_cols=weights_b[cols],
                probe_i=rng.integers(size_a, size=PROBES_PER_BLOCK),
                probe_j=rng.integers(size_b, size=PROBES_PER_BLOCK),
            )
        )
    match_nodes = rng.integers(n_a, size=matches)
    order = (
        [(BLOCK, i) for i in range(blocks)]
        + [(MATCH, i) for i in range(matches)]
        + [(PAIRS, i) for i in range(pairs)]
    )
    permutation = rng.permutation(len(order))
    requests = Requests(
        order=[order[i] for i in permutation],
        blocks=block_list,
        match_nodes=match_nodes,
        pairs=pairs,
    )
    return requests, weights_a, weights_b
