"""Seeded synthetic graph generators.

These provide the scaled-down stand-ins for the paper's real datasets (see
``repro.graphs.datasets``).  All generators return directed
:class:`repro.graphs.Graph` instances and are deterministic given a seed.

* :func:`erdos_renyi_graph` — G(n, m) uniform random edges.
* :func:`barabasi_albert_graph` — preferential attachment (heavy-tailed
  in-degrees, like social graphs such as ego-Facebook).
* :func:`rmat_graph` — recursive-matrix generator; with the classic
  (0.57, 0.19, 0.19, 0.05) quadrant split it mimics web crawls such as
  uk-2002 / it-2004.
* :func:`chung_lu_graph` — expected-degree model fitting an arbitrary
  power-law exponent (used for email/communication graph stand-ins).
* :func:`directed_block_graph` — planted blocks with directional roles,
  used by the social-media-alignment example.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import (
    check_nonnegative_integer,
    check_positive_integer,
    check_probability,
)

__all__ = [
    "barabasi_albert_graph",
    "chung_lu_graph",
    "directed_block_graph",
    "erdos_renyi_graph",
    "rmat_graph",
]


def _dedupe_edges(
    rows: np.ndarray, cols: np.ndarray, num_nodes: int, drop_self_loops: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Remove duplicate directed edges (and optionally self loops)."""
    if drop_self_loops:
        keep = rows != cols
        rows, cols = rows[keep], cols[keep]
    # Encode each edge as a single int64 key; sort and keep the first of each
    # run of equal keys (np.unique's output, without its hash table).
    keys = np.sort(rows.astype(np.int64) * np.int64(num_nodes) + cols.astype(np.int64))
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    return keys // num_nodes, keys % num_nodes


def erdos_renyi_graph(
    num_nodes: int,
    num_edges: int,
    seed: SeedLike = None,
    allow_self_loops: bool = False,
    name: str = "erdos-renyi",
) -> Graph:
    """Directed G(n, m): ``num_edges`` distinct uniform random edges.

    Raises ``ValueError`` if more edges are requested than distinct pairs
    exist.
    """
    num_nodes = check_positive_integer(num_nodes, "num_nodes")
    num_edges = check_nonnegative_integer(num_edges, "num_edges")
    capacity = num_nodes * num_nodes - (0 if allow_self_loops else num_nodes)
    if num_edges > capacity:
        raise ValueError(
            f"cannot place {num_edges} distinct edges in a graph with capacity {capacity}"
        )
    rng = ensure_rng(seed)
    rows = np.empty(0, dtype=np.int64)
    cols = np.empty(0, dtype=np.int64)
    # Rejection-sample in batches until enough distinct edges accumulate.
    while rows.size < num_edges:
        deficit = num_edges - rows.size
        batch = max(64, int(deficit * 1.3))
        new_rows = rng.integers(0, num_nodes, size=batch)
        new_cols = rng.integers(0, num_nodes, size=batch)
        rows = np.concatenate([rows, new_rows])
        cols = np.concatenate([cols, new_cols])
        rows, cols = _dedupe_edges(rows, cols, num_nodes, not allow_self_loops)
    if rows.size > num_edges:
        # unique() sorted the edges, so subsample uniformly to hit the target.
        pick = rng.choice(rows.size, size=num_edges, replace=False)
        rows, cols = rows[pick], cols[pick]
    return Graph.from_edges(num_nodes, np.column_stack((rows, cols)), name=name)


def barabasi_albert_graph(
    num_nodes: int,
    edges_per_node: int,
    seed: SeedLike = None,
    name: str = "barabasi-albert",
) -> Graph:
    """Directed preferential-attachment graph.

    Each arriving node points ``edges_per_node`` directed edges at existing
    nodes chosen proportionally to their current total degree, yielding the
    heavy-tailed degree distribution typical of social graphs.
    """
    num_nodes = check_positive_integer(num_nodes, "num_nodes")
    edges_per_node = check_positive_integer(edges_per_node, "edges_per_node")
    if edges_per_node >= num_nodes:
        raise ValueError(
            f"edges_per_node ({edges_per_node}) must be < num_nodes ({num_nodes})"
        )
    rng = ensure_rng(seed)
    # repeated_targets holds one entry per degree unit; attachment picks
    # uniformly from it, which is exactly degree-proportional sampling.
    repeated_targets: list[int] = list(range(edges_per_node))
    sources: list[int] = []
    targets: list[int] = []
    for node in range(edges_per_node, num_nodes):
        pool = np.asarray(repeated_targets, dtype=np.int64)
        chosen: set[int] = set()
        while len(chosen) < edges_per_node:
            picks = rng.choice(pool, size=edges_per_node - len(chosen))
            chosen.update(int(p) for p in picks)
        for dst in chosen:
            sources.append(node)
            targets.append(dst)
            repeated_targets.append(dst)
        repeated_targets.extend([node] * edges_per_node)
    return Graph.from_edges(
        num_nodes, np.column_stack((sources, targets)), name=name
    )


def rmat_graph(
    scale: int,
    num_edges: int,
    seed: SeedLike = None,
    quadrants: tuple[float, float, float, float] = (0.57, 0.19, 0.19, 0.05),
    name: str = "rmat",
) -> Graph:
    """R-MAT recursive matrix graph with ``2**scale`` nodes.

    The adjacency matrix is built by recursively descending into one of four
    quadrants with probabilities ``(a, b, c, d)``; skewed splits produce the
    scale-free, community-rich structure of web crawls.  Duplicate edges are
    merged, so the realised edge count can be slightly below ``num_edges``.
    """
    scale = check_positive_integer(scale, "scale")
    num_edges = check_nonnegative_integer(num_edges, "num_edges")
    a, b, c, d = (check_probability(q, "quadrant weight") for q in quadrants)
    total = a + b + c + d
    if not np.isclose(total, 1.0):
        raise ValueError(f"quadrant weights must sum to 1, got {total}")
    rng = ensure_rng(seed)
    num_nodes = 1 << scale
    thresholds = np.cumsum([a, b, c])

    def _draw(count: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised descent: at each level pick a quadrant per edge."""
        batch_rows = np.zeros(count, dtype=np.int64)
        batch_cols = np.zeros(count, dtype=np.int64)
        for level in range(scale):
            bit = np.int64(1) << (scale - 1 - level)
            draws = rng.random(count)
            right = (draws >= thresholds[0]) & (draws < thresholds[1])
            down = (draws >= thresholds[1]) & (draws < thresholds[2])
            diag = draws >= thresholds[2]
            batch_cols[right | diag] += bit
            batch_rows[down | diag] += bit
        return batch_rows, batch_cols

    rows = np.empty(0, dtype=np.int64)
    cols = np.empty(0, dtype=np.int64)
    # The skewed quadrant split lands many edges on the same hot cells, so
    # duplicates are common; top up in a few rounds (the exact target may be
    # unreachable once the hot quadrant saturates).
    for _ in range(8):
        deficit = num_edges - rows.size
        if deficit <= 0:
            break
        new_rows, new_cols = _draw(int(deficit * 1.4) + 8)
        rows = np.concatenate([rows, new_rows])
        cols = np.concatenate([cols, new_cols])
        rows, cols = _dedupe_edges(rows, cols, num_nodes, drop_self_loops=True)
    if rows.size > num_edges:
        pick = rng.choice(rows.size, size=num_edges, replace=False)
        rows, cols = rows[pick], cols[pick]
    return Graph.from_edges(num_nodes, np.column_stack((rows, cols)), name=name)


def chung_lu_graph(
    degrees: np.ndarray | list[int],
    seed: SeedLike = None,
    name: str = "chung-lu",
) -> Graph:
    """Directed Chung-Lu expected-degree graph.

    Edge ``i -> j`` appears with probability proportional to
    ``degrees[i] * degrees[j]``, capped at 1.  Sampling uses the efficient
    per-endpoint method: both endpoints of each of ``sum(degrees)`` candidate
    edges are drawn degree-proportionally, then duplicates are removed.
    """
    weights = np.asarray(degrees, dtype=np.float64)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("degrees must be a non-empty 1-D sequence")
    if (weights < 0).any():
        raise ValueError("degrees must be non-negative")
    total = weights.sum()
    if total <= 0:
        return Graph.empty(weights.size, name=name)
    rng = ensure_rng(seed)
    num_nodes = weights.size
    target_edges = int(round(total))
    probabilities = weights / total
    rows = np.empty(0, dtype=np.int64)
    cols = np.empty(0, dtype=np.int64)
    # Heavy-tailed weights concentrate draws on hubs, so duplicates are
    # frequent; re-draw in batches until the realised edge count reaches
    # the expected total (bounded rounds: hub-hub saturation can make the
    # exact target unreachable).
    for _ in range(12):
        deficit = target_edges - rows.size
        if deficit <= 0:
            break
        new_rows = rng.choice(num_nodes, size=2 * deficit, p=probabilities)
        new_cols = rng.choice(num_nodes, size=2 * deficit, p=probabilities)
        rows = np.concatenate([rows, new_rows])
        cols = np.concatenate([cols, new_cols])
        rows, cols = _dedupe_edges(rows, cols, num_nodes, drop_self_loops=True)
    if rows.size > target_edges:
        pick = rng.choice(rows.size, size=target_edges, replace=False)
        rows, cols = rows[pick], cols[pick]
    return Graph.from_edges(num_nodes, np.column_stack((rows, cols)), name=name)


def power_law_degrees(
    num_nodes: int,
    average_degree: float,
    exponent: float = 2.5,
    seed: SeedLike = None,
) -> np.ndarray:
    """Draw a power-law degree sequence rescaled to a target average degree.

    Helper for :func:`chung_lu_graph`; exposed because the dataset registry
    and tests use it directly.
    """
    num_nodes = check_positive_integer(num_nodes, "num_nodes")
    if average_degree <= 0:
        raise ValueError(f"average_degree must be positive, got {average_degree}")
    if exponent <= 1.0:
        raise ValueError(f"exponent must be > 1, got {exponent}")
    rng = ensure_rng(seed)
    # Inverse-CDF sampling of a Pareto tail starting at 1.
    uniforms = rng.random(num_nodes)
    raw = (1.0 - uniforms) ** (-1.0 / (exponent - 1.0))
    return raw * (average_degree / raw.mean())


def directed_block_graph(
    block_sizes: list[int],
    block_matrix: np.ndarray | list[list[float]],
    seed: SeedLike = None,
    name: str = "directed-sbm",
) -> Graph:
    """Directed block model with an arbitrary block-to-block edge matrix.

    ``block_matrix[r][c]`` is the probability of an edge from a node in
    block ``r`` to a node in block ``c``.  The matrix need not be
    symmetric, so blocks can play *directional* roles (broadcasters,
    receivers, mixers) — the structure GSim's ``A``/``A^T`` recursion
    distinguishes and the social-media-alignment example relies on.  Self
    loops are excluded.
    """
    if not block_sizes:
        raise ValueError("block_sizes must be non-empty")
    sizes = [check_positive_integer(s, "block size") for s in block_sizes]
    matrix = np.asarray(block_matrix, dtype=np.float64)
    if matrix.shape != (len(sizes), len(sizes)):
        raise ValueError(
            f"block_matrix must be {len(sizes)}x{len(sizes)}, got {matrix.shape}"
        )
    if (matrix < 0).any() or (matrix > 1).any():
        raise ValueError("block_matrix entries must be probabilities in [0, 1]")
    rng = ensure_rng(seed)
    num_nodes = sum(sizes)
    membership = np.repeat(np.arange(len(sizes)), sizes)
    prob = matrix[membership][:, membership]
    np.fill_diagonal(prob, 0.0)
    mask = rng.random((num_nodes, num_nodes)) < prob
    rows, cols = np.nonzero(mask)
    return Graph.from_edges(num_nodes, np.column_stack((rows, cols)), name=name)
