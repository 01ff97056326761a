"""The core :class:`Graph` abstraction.

A ``Graph`` is a directed graph over nodes ``0 .. n-1`` whose adjacency is
stored as a ``scipy.sparse.csr_matrix`` with float64 weights.  All the
similarity algorithms in this library consume this class; they never touch
raw edge lists.

Design notes
------------
* The adjacency is kept in CSR because every algorithm's inner loop is a
  sparse-times-dense product (``A @ U``) or its transpose; CSR gives both
  via a cached CSC view of ``A.T``.
* Instances are immutable by convention: mutating helpers return new
  ``Graph`` objects.  The underlying matrices are marked read-only where
  NumPy allows.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from repro.utils.validation import check_nonnegative_integer, resolve_node_index

__all__ = ["Graph"]


class Graph:
    """An immutable directed graph backed by a CSR adjacency matrix.

    Parameters
    ----------
    adjacency:
        A square ``scipy.sparse`` matrix or a 2-D array-like.  Entry
        ``adjacency[i, j]`` is the weight of edge ``i -> j`` (0 = absent).
    name:
        Optional human-readable name used in reports.

    Examples
    --------
    >>> g = Graph.from_edges(3, [(0, 1), (1, 2)])
    >>> g.num_nodes, g.num_edges
    (3, 2)
    >>> g.successors(0).tolist()
    [1]
    """

    __slots__ = ("_adj", "_adj_t", "_name")

    def __init__(self, adjacency: sp.spmatrix | np.ndarray, name: str = "graph") -> None:
        matrix = sp.csr_matrix(adjacency, dtype=np.float64)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(
                f"adjacency must be square, got shape {matrix.shape}"
            )
        if matrix.nnz and not np.isfinite(matrix.data).all():
            raise ValueError(
                "adjacency contains non-finite weights (NaN or infinity); "
                "similarity iterations would silently poison every score"
            )
        matrix.eliminate_zeros()
        matrix.sum_duplicates()
        self._adj = matrix
        # Cached CSR form of A.T, built on first access: A^T products
        # dominate every iteration, so the conversion is paid at most once
        # per graph — and never for graphs that only serve A products.
        self._adj_t: sp.csr_matrix | None = None
        self._name = str(name)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Iterable[tuple[int, int]]
        | Iterable[tuple[int, int, float]]
        | np.ndarray,
        name: str = "graph",
    ) -> "Graph":
        """Build a graph from an iterable of ``(src, dst)`` or
        ``(src, dst, weight)`` tuples, or an ``(m, 2)`` / ``(m, 3)`` array.

        Duplicate edges are summed.  Node ids must be in ``[0, num_nodes)``.
        An array means the same as iterating its rows, but is checked and
        converted in whole-array operations.
        """
        num_nodes = check_nonnegative_integer(num_nodes, "num_nodes")
        if isinstance(edges, np.ndarray):
            return cls(_edge_array_matrix(edges, num_nodes), name=name)
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for edge in edges:
            if len(edge) == 2:
                src, dst = edge  # type: ignore[misc]
                weight = 1.0
            elif len(edge) == 3:
                src, dst, weight = edge  # type: ignore[misc]
            else:
                raise ValueError(f"edge tuples must have 2 or 3 items, got {edge!r}")
            if not (0 <= src < num_nodes and 0 <= dst < num_nodes):
                raise ValueError(
                    f"edge ({src}, {dst}) out of range for {num_nodes} nodes"
                )
            rows.append(int(src))
            cols.append(int(dst))
            vals.append(float(weight))
        matrix = sp.csr_matrix(
            (vals, (rows, cols)), shape=(num_nodes, num_nodes), dtype=np.float64
        )
        return cls(matrix, name=name)

    @classmethod
    def empty(cls, num_nodes: int, name: str = "empty") -> "Graph":
        """An edgeless graph with ``num_nodes`` nodes."""
        num_nodes = check_nonnegative_integer(num_nodes, "num_nodes")
        return cls(sp.csr_matrix((num_nodes, num_nodes), dtype=np.float64), name=name)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Human-readable graph name."""
        return self._name

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._adj.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of stored (non-zero) directed edges ``m``."""
        return int(self._adj.nnz)

    @property
    def adjacency(self) -> sp.csr_matrix:
        """The CSR adjacency matrix ``A`` (do not mutate)."""
        return self._adj

    @property
    def adjacency_t(self) -> sp.csr_matrix:
        """``A.T`` converted to CSR once and cached (do not mutate).

        The benign race of two threads building the cache concurrently
        just computes the same matrix twice; the attribute write is
        atomic, so readers always see either ``None`` or a complete CSR.
        """
        if self._adj_t is None:
            self._adj_t = self._adj.transpose().tocsr()
        return self._adj_t

    @property
    def density(self) -> float:
        """Edge density ``m / n^2`` (0 for the empty graph)."""
        n = self.num_nodes
        if n == 0:
            return 0.0
        return self.num_edges / float(n * n)

    @property
    def average_degree(self) -> float:
        """Average out-degree ``m / n`` (0 for the empty graph)."""
        n = self.num_nodes
        if n == 0:
            return 0.0
        return self.num_edges / float(n)

    # ------------------------------------------------------------------
    # Degrees and neighbourhoods
    # ------------------------------------------------------------------
    def out_degrees(self) -> np.ndarray:
        """Array of out-degrees (edge counts, ignoring weights)."""
        return np.diff(self._adj.indptr)

    def in_degrees(self) -> np.ndarray:
        """Array of in-degrees (edge counts, ignoring weights)."""
        return np.diff(self.adjacency_t.indptr)

    def max_degree(self) -> int:
        """Maximum of in- and out-degree over all nodes (0 if edgeless)."""
        if self.num_nodes == 0:
            return 0
        degrees = np.concatenate([self.out_degrees(), self.in_degrees()])
        return int(degrees.max(initial=0))

    def successors(self, node: int) -> np.ndarray:
        """Out-neighbours of ``node`` as an int array."""
        self._check_node(node)
        start, stop = self._adj.indptr[node], self._adj.indptr[node + 1]
        return self._adj.indices[start:stop].copy()

    def predecessors(self, node: int) -> np.ndarray:
        """In-neighbours of ``node`` as an int array."""
        self._check_node(node)
        start, stop = self.adjacency_t.indptr[node], self.adjacency_t.indptr[node + 1]
        return self.adjacency_t.indices[start:stop].copy()

    def neighbors(self, node: int) -> np.ndarray:
        """Union of in- and out-neighbours of ``node`` (sorted, deduplicated)."""
        return np.unique(
            np.concatenate([self.successors(node), self.predecessors(node)])
        )

    def has_edge(self, src: int, dst: int) -> bool:
        """Whether the directed edge ``src -> dst`` exists."""
        self._check_node(src)
        self._check_node(dst)
        return bool(self._adj[src, dst] != 0)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over ``(src, dst, weight)`` triples in CSR order."""
        coo = self._adj.tocoo()
        for src, dst, weight in zip(coo.row, coo.col, coo.data):
            yield int(src), int(dst), float(weight)

    # ------------------------------------------------------------------
    # Derived graphs (all return new instances)
    # ------------------------------------------------------------------
    def reversed(self) -> "Graph":
        """The graph with every edge direction flipped."""
        return Graph(self.adjacency_t, name=f"{self._name}-reversed")

    def to_undirected(self) -> "Graph":
        """Symmetrise: edge i~j present if either direction exists.

        Weights of antiparallel edges are merged by maximum, matching the
        convention used by the role-similarity baselines that operate on
        undirected structure.
        """
        sym = self._adj.maximum(self.adjacency_t)
        return Graph(sym, name=f"{self._name}-undirected")

    def subgraph(self, nodes: Iterable[int], name: str | None = None) -> "Graph":
        """Induced subgraph on ``nodes``, relabelled to ``0..len(nodes)-1``.

        Node order in ``nodes`` determines the new labels; duplicates are
        rejected.
        """
        index = resolve_node_index(
            list(nodes),
            self.num_nodes,
            "subgraph nodes",
            allow_empty=True,
            bounds_error=ValueError,
        )
        sub = self._adj[index][:, index]
        return Graph(sub, name=name or f"{self._name}-sub{index.size}")

    def union_disjoint(self, other: "Graph", name: str | None = None) -> "Graph":
        """Disjoint union: ``other``'s nodes are shifted by ``self.num_nodes``.

        Used by the RoleSim baseline, which evaluates pairs within the
        combined graph ``G_A ∪ G_B``.
        """
        combined = sp.block_diag(
            (self._adj, other.adjacency), format="csr", dtype=np.float64
        )
        return Graph(combined, name=name or f"{self._name}+{other.name}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Approximate bytes held by the CSR structures (A and A.T)."""
        total = 0
        for matrix in (self._adj, self.adjacency_t):
            total += matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        return total

    def __repr__(self) -> str:
        return (
            f"Graph(name={self._name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.num_nodes != other.num_nodes:
            return False
        return (self._adj != other.adjacency).nnz == 0

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.num_nodes):
            raise IndexError(
                f"node {node} out of range for graph with {self.num_nodes} nodes"
            )


def _edge_array_matrix(edges: np.ndarray, num_nodes: int) -> sp.csr_matrix:
    """:meth:`Graph.from_edges` for an array: one range check, one COO -> CSR."""
    if edges.ndim != 2 or edges.shape[1] not in (2, 3):
        raise ValueError(f"edge arrays must have shape (m, 2) or (m, 3), got {edges.shape}")
    ends = edges[:, :2]
    # min/max first: the row-wise mask is only needed to name the first bad
    # edge.  NaN fails both comparisons, as it does in the tuple loop.
    if ends.size and not (ends.min() >= 0 and ends.max() < num_nodes):
        bad = ~((ends >= 0) & (ends < num_nodes)).all(axis=1)
        src, dst = ends[np.argmax(bad)]
        raise ValueError(f"edge ({src}, {dst}) out of range for {num_nodes} nodes")
    # astype truncates toward zero, as int() does in the tuple loop.
    rows = ends[:, 0].astype(np.int64)
    cols = ends[:, 1].astype(np.int64)
    if edges.shape[1] == 3:
        vals = edges[:, 2].astype(np.float64)
    else:
        vals = np.ones(edges.shape[0])
    return sp.csr_matrix(
        (vals, (rows, cols)), shape=(num_nodes, num_nodes), dtype=np.float64
    )
