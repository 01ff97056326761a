"""RoleSim (RSim) — Jin et al.'s axiomatic role similarity.

RoleSim is defined on a *single* graph; following the paper's experimental
setup, cross-graph queries are answered by running RoleSim on the disjoint
union ``G = G_A ∪ G_B`` and reading entries between the two node blocks.

The iteration over all node pairs ``(u, v)``::

    sim(u, v) = (1 - beta) * w(u, v) / max(d_u, d_v) + beta

where ``w(u, v)`` is the weight of a maximal matching between the
neighbour sets ``N(u)`` and ``N(v)`` under the previous iteration's
similarities, and ``beta`` is the decay factor.  All-pairs similarities
must be materialised every iteration — ``Θ((n_A + n_B)^2)`` memory — which
is why the paper reports RSim surviving only on its smallest dataset.

Two matching strategies are provided (ablation §5 of DESIGN.md):

* ``"greedy"`` — sort candidate pairs by weight, pick greedily; the
  ``O(d^2 log d)`` strategy RoleSim's authors use.
* ``"exact"`` — optimal assignment via the Hungarian algorithm
  (``scipy.optimize.linear_sum_assignment``); slower, slightly higher
  matching weights.

An *Iceberg* threshold is supported: pairs whose similarity falls below
``iceberg_threshold`` are clamped to ``beta`` and skipped in later
iterations (the IcebergRoleSim heuristic mentioned in Related Work).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.graphs.graph import Graph
from repro.runtime import ExecutionContext
from repro.utils.validation import (
    check_nonnegative_integer,
    check_probability,
    resolve_node_index,
)

__all__ = ["RoleSimResult", "rolesim", "rolesim_query"]

_MATCHING_STRATEGIES = ("greedy", "exact")


@dataclass
class RoleSimResult:
    """Output of a RoleSim run.

    Attributes
    ----------
    similarity:
        All-pairs ``n x n`` similarity over the (combined) graph.
    iterations:
        Iterations performed.
    """

    similarity: np.ndarray
    iterations: int


def _matching_weight_greedy(
    weights: np.ndarray,
) -> float:
    """Greedy maximal matching weight on a |N(u)| x |N(v)| weight matrix."""
    rows, cols = weights.shape
    if rows == 0 or cols == 0:
        return 0.0
    order = np.argsort(weights, axis=None)[::-1]
    used_rows = np.zeros(rows, dtype=bool)
    used_cols = np.zeros(cols, dtype=bool)
    total = 0.0
    matched = 0
    limit = min(rows, cols)
    for flat in order:
        i, j = divmod(int(flat), cols)
        if used_rows[i] or used_cols[j]:
            continue
        used_rows[i] = True
        used_cols[j] = True
        total += float(weights[i, j])
        matched += 1
        if matched == limit:
            break
    return total


def _matching_weight_exact(weights: np.ndarray) -> float:
    """Optimal assignment weight (maximisation) via the Hungarian method."""
    rows, cols = weights.shape
    if rows == 0 or cols == 0:
        return 0.0
    row_idx, col_idx = linear_sum_assignment(weights, maximize=True)
    return float(weights[row_idx, col_idx].sum())


def rolesim(
    graph: Graph,
    iterations: int = 5,
    beta: float = 0.15,
    matching: str = "greedy",
    iceberg_threshold: float | None = None,
    context: ExecutionContext | None = None,
) -> RoleSimResult:
    """All-pairs RoleSim on one (undirected-ised) graph.

    Parameters
    ----------
    graph:
        Input graph; edges are symmetrised because RoleSim is defined on
        undirected neighbourhoods.
    beta:
        Decay factor in (0, 1); the RoleSim papers use 0.1-0.2.
    matching:
        ``"greedy"`` (default) or ``"exact"``.
    iceberg_threshold:
        If set, pairs below the threshold are frozen at ``beta`` after the
        first iteration (IcebergRoleSim pruning).

    Examples
    --------
    >>> from repro.graphs import Graph
    >>> g = Graph.from_edges(3, [(0, 1), (1, 2)])
    >>> out = rolesim(g, iterations=2)
    >>> out.similarity.shape
    (3, 3)
    """
    iterations = check_nonnegative_integer(iterations, "iterations")
    beta = check_probability(beta, "beta")
    if matching not in _MATCHING_STRATEGIES:
        raise ValueError(
            f"matching must be one of {_MATCHING_STRATEGIES}, got {matching!r}"
        )
    match_fn = (
        _matching_weight_greedy if matching == "greedy" else _matching_weight_exact
    )
    undirected = graph.to_undirected()
    n = undirected.num_nodes
    neighbours = [undirected.successors(node) for node in range(n)]
    degrees = np.array([len(nbrs) for nbrs in neighbours])

    similarity = np.ones((n, n))
    active = np.ones((n, n), dtype=bool)
    np.fill_diagonal(active, False)  # diagonal stays exactly 1.

    context = ExecutionContext.resolve(context)
    # Working set: the current iterate plus its updated copy.
    with context.holding(2 * n * n * 8, "RoleSim all-pairs matrices"):
        for _ in range(iterations):
            updated = similarity.copy()
            for u in range(n):
                if u % 64 == 0:
                    context.checkpoint("RoleSim pair updates")
                nbrs_u = neighbours[u]
                row_updates = 0
                for v in range(u + 1, n):
                    if not active[u, v]:
                        continue
                    nbrs_v = neighbours[v]
                    denom = max(degrees[u], degrees[v])
                    if denom == 0:
                        # Two isolated nodes play identical roles.
                        value = 1.0
                    else:
                        weights = similarity[np.ix_(nbrs_u, nbrs_v)]
                        value = (1.0 - beta) * match_fn(weights) / denom + beta
                    updated[u, v] = value
                    updated[v, u] = value
                    row_updates += 1
                if row_updates:
                    context.metrics.increment("rolesim.pair_updates", row_updates)
            similarity = updated
            context.metrics.increment("rolesim.iterations")
            if iceberg_threshold is not None:
                below = similarity < iceberg_threshold
                below &= active
                similarity[below] = beta
                active[below] = False
    np.fill_diagonal(similarity, 1.0)
    return RoleSimResult(similarity=similarity, iterations=iterations)


def rolesim_query(
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray | list[int],
    queries_b: np.ndarray | list[int],
    iterations: int = 5,
    beta: float = 0.15,
    matching: str = "greedy",
    context: ExecutionContext | None = None,
) -> np.ndarray:
    """Cross-graph RoleSim block via the disjoint union ``G_A ∪ G_B``.

    Despite the query sets, the *all-pairs* matrix over the union must be
    iterated (RoleSim's recursion spans every pair), reproducing the
    memory wall the paper reports.
    """
    rows = resolve_node_index(
        queries_a, graph_a.num_nodes, "queries_a",
        allow_empty=True, allow_duplicates=True,
    )
    cols = resolve_node_index(
        queries_b, graph_b.num_nodes, "queries_b",
        allow_empty=True, allow_duplicates=True,
    ) + graph_a.num_nodes
    union = graph_a.union_disjoint(graph_b)
    result = rolesim(
        union,
        iterations=iterations,
        beta=beta,
        matching=matching,
        context=context,
    )
    return result.similarity[np.ix_(rows, cols)]
