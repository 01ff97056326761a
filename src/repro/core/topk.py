"""Top-k pair retrieval from the factored similarity.

The paper's title speaks of *retrieval*: applications rarely want the full
``n_A x n_B`` matrix — they want the most similar pairs.  With GSim+'s
factors that can be answered without materialising the matrix, and
mostly without scoring it: the factor rows are node embeddings, and the
Cauchy-Schwarz bound ``|u_i . v_j| <= ||u_i|| ||v_j||`` proves most cells
unable to place.  The pair scan visits U's rows in descending norm order,
scores each row block only against the prefix of V's rows whose bound
survives, and stops at the first row whose bound falls below the running
k-th score.  Memory stays ``O(block_rows * n_B + k)`` however large
``n_A`` grows.  The scan is exact; when every row norm is equal nothing
prunes, and it scores every cell once.

Selection inside a block is vectorised: ``np.partition`` finds the k-th
score in linear time, every entry within rounding of it is kept, and only
the surviving candidates are sorted.

Ordering is canonical everywhere: score descending, then lowest
``node_a``, then lowest ``node_b``, where scores compare without their
last ``_TIE_BITS`` mantissa bits (about 1e-12 relative in float64): cells
tied to within rounding go to the lowest ids.  Candidate merges select by
that total order over values (not by arrival order), and ranked scores
come from one fixed kernel, so the result is independent of block size.

Entry points:

* :func:`top_k_pairs` — globally best ``(a, b, score)`` triples.
* :func:`top_k_for_queries` — per-query-node ranking (the "find the most
  similar nodes in the other graph" primitive of the synonym-extraction
  and community-matching applications).
* :func:`scan_top_pairs` — the pruned scan over prebuilt factors, shared
  with :class:`repro.retrieval.GSimIndex`.
* :func:`rank_row` — one row's ``k`` best columns, scored against V's
  non-zero rows only; shared with ``GSimIndex.top_matches``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.embeddings import LowRankFactors, nonzero_rows, row_norms
from repro.core.gsim_plus import NUMERICAL_RANK_TOL, GSimPlus
from repro.graphs.graph import Graph
from repro.runtime import NULL_CONTEXT, ExecutionContext
from repro.runtime.parallel import WorkerPool
from repro.utils.memory import dense_matrix_bytes
from repro.utils.validation import check_positive_integer, resolve_node_index

__all__ = [
    "NonzeroRows",
    "ScoredPair",
    "rank_row",
    "scan_top_pairs",
    "top_k_for_queries",
    "top_k_pairs",
]


@dataclass(frozen=True)
class ScoredPair:
    """One retrieved pair: node in G_A, node in G_B, similarity score."""

    node_a: int
    node_b: int
    score: float


def _factors_for(
    graph_a: Graph,
    graph_b: Graph,
    iterations: int,
    context: ExecutionContext = NULL_CONTEXT,
    max_workers: "WorkerPool | int | None" = None,
    recompress_tol: float | None = None,
    precision: str = "float64",
    initial_factors: tuple[np.ndarray, np.ndarray] | None = None,
    **checkpointing,
) -> LowRankFactors:
    """Run GSim+ cut at its numerical rank and return the final factors.

    Every doubling step is recompressed at ``recompress_tol`` (default
    :data:`~repro.core.gsim_plus.NUMERICAL_RANK_TOL`) to at most
    ``min(n_A, n_B)`` columns, so U/V stay factored at any depth.
    ``checkpointing`` forwards to :meth:`GSimPlus.iterate`.
    """
    if recompress_tol is None:
        recompress_tol = NUMERICAL_RANK_TOL
    solver = GSimPlus(
        graph_a,
        graph_b,
        rank_cap="none",
        initial_factors=initial_factors,
        max_workers=max_workers,
        recompress_tol=recompress_tol,
        precision=precision,
    )
    state = None
    for state in solver.iterate(iterations, context=context, **checkpointing):
        pass
    assert state is not None and state.factors is not None
    return state.factors


def _ranked_factors(
    graph_a: Graph, graph_b: Graph, iterations: int, context: ExecutionContext,
    **options,
) -> tuple[LowRankFactors, float]:
    """:func:`_factors_for` and the Frobenius norm that scores divide by."""
    factors = _factors_for(graph_a, graph_b, iterations, context=context, **options)
    norm = factors.frobenius_norm(include_scale=False)
    if norm == 0.0:
        raise ZeroDivisionError("similarity collapsed to zero; no ranking exists")
    return factors, norm


_TIE_BITS = 12
# Per score dtype: its bits' integer type, and the relative and absolute
# slack of _tie_floor (a key spans 2^(_TIE_BITS + 1) ulps or subnormals).
_TIE_DTYPES = {
    np.dtype(f): (np.dtype(i), float(np.finfo(f).eps) * 2 ** (_TIE_BITS + 2),
                  float(np.finfo(f).smallest_subnormal) * 2 ** (_TIE_BITS + 2))
    for f, i in (("f4", "i4"), ("f8", "i8"))
}


def _tie_keys(scores: np.ndarray) -> np.ndarray:
    """``scores`` less their last ``_TIE_BITS`` mantissa bits, rounded half up."""
    bits = scores.view(_TIE_DTYPES[scores.dtype][0]) + (1 << (_TIE_BITS - 1))
    bits &= -(1 << _TIE_BITS)
    return bits.view(scores.dtype)


def _tie_floor(score: float, dtype: np.dtype) -> np.floating:
    """A value at or below every score whose tie key reaches ``score``'s."""
    _, relative, absolute = _TIE_DTYPES[dtype]
    return dtype.type(score - abs(score) * relative - absolute)


def _row_top_k(row: np.ndarray, k: int) -> np.ndarray:
    """Columns of the ``k`` largest entries by tie key, then lowest column;
    only the (at most ``k + ties``) candidates that can place are sorted."""
    n = row.size
    if k >= n:
        candidates = np.arange(n)
    else:
        kth = row[np.argpartition(-row, k - 1)[k - 1]]
        candidates = np.flatnonzero(row >= _tie_floor(float(kth), row.dtype))
    return candidates[np.lexsort((candidates, _tie_keys(-row[candidates])))[:k]]


class NonzeroRows(NamedTuple):
    """A factor's non-zero rows: their ids, a contiguous copy of those
    rows, and the ids of its zero rows, both id lists ascending."""

    ids: np.ndarray
    rows: np.ndarray
    zero_ids: np.ndarray

    @classmethod
    def of(cls, factor: np.ndarray) -> "NonzeroRows":
        """Split the rows of ``factor``."""
        live = nonzero_rows(factor)
        ids = np.flatnonzero(live)
        return cls(ids, np.ascontiguousarray(factor[ids]), np.flatnonzero(~live))


def rank_row(
    u_row: np.ndarray, targets: NonzeroRows, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` best ``(columns, raw scores)`` of one similarity row.

    ``u_row`` is scored against the non-zero rows of V only.  Every zero
    row of V scores exactly 0, so its lowest ids are the only ones that
    can place.  The order is that of :func:`_row_top_k` on the full row:
    tie key descending, then lowest column.
    """
    if not np.count_nonzero(u_row):  # every column scores 0: the lowest ids place
        cols = np.arange(min(k, targets.ids.size + targets.zero_ids.size))
        return cols, np.zeros(cols.size, u_row.dtype)
    scores = targets.rows @ u_row
    best = _row_top_k(scores, k)
    cols, values = targets.ids[best], scores[best]
    zeros = targets.zero_ids[:k]
    if zeros.size and (cols.size < k or values[-1] <= -_tie_floor(0.0, values.dtype)):
        cols = np.concatenate([cols, zeros])
        values = np.concatenate([values, np.zeros(zeros.size, values.dtype)])
        order = np.lexsort((cols, -_tie_keys(values)))[:k]
        cols, values = cols[order], values[order]
    return cols, values


def _pair_scores(
    u: np.ndarray, v: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """``u[rows[t]] . v[cols[t]]`` for every ``t``, by one fixed kernel.

    BLAS rounds a product differently depending on the shape of the
    block it computes, so the pair scan ranks by these scores instead:
    products summed in column order, the same for every block shape.
    """
    products = u[rows] * v[cols]
    scores = products[:, 0].copy()
    for column in range(1, products.shape[1]):
        scores += products[:, column]
    return scores


def _pruned_scan(
    u: np.ndarray,
    v: np.ndarray,
    k: int,
    block_rows: int,
    context: ExecutionContext,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """The exact ``k`` best cells of ``U V^T``, visiting rows by norm.

    Returns ``(scores, rows, cols, rows_scored, cells_scored)``.

    Rows of U are visited in descending norm order, and each row block is
    scored against the prefix of V's rows (also in descending norm order)
    whose Cauchy-Schwarz bound ``||u_i|| ||v_j||`` reaches the running
    floor of the k-th score's tie key (:func:`_tie_floor`); the scan stops
    at the first row whose bound against V's largest row falls below it.
    Bounds are padded by ``rho`` times ``||u_i|| ||v_j||``,
    ``rho = 2 (w + 2) eps``, which exceeds the rounding of a dot product
    (``w eps / 2``), of the two norms (at most ``(w/4 + 2) eps`` each, see
    :func:`row_norms`) and of the bound itself, and also the ``w eps`` by
    which two dot-product kernels can differ.  So no pruned cell's key
    can reach the k-th key, and ties still reach the canonical merge.
    Bounds prune only once that floor is positive.

    Each block is scored by BLAS, whose rounding varies with the block
    shape; the cells within rounding of the running k-th score (or of
    the block's own k-th) are then re-scored by :func:`_pair_scores`, and
    only those scores are ranked, by ``(-tie key, row, col)``.  The result
    therefore does not depend on ``block_rows``.  If every row norm is
    equal, nothing prunes and the scan scores every cell once.
    """
    n_a, n_b = u.shape[0], v.shape[0]
    u_norms = row_norms(u)
    row_order = np.argsort(-u_norms, kind="stable")
    u_norms = u_norms[row_order]
    v_norms = row_norms(v)
    col_order = np.argsort(-v_norms, kind="stable")
    v_norms = v_norms[col_order]
    v_t = np.ascontiguousarray(v[col_order].T)
    rho = 2.0 * (u.shape[1] + 2) * float(np.finfo(u.dtype).eps)
    grow = 1.0 + rho
    v_top = float(v_norms[0]) if n_b else 0.0

    best_scores = np.empty(0, dtype=u.dtype)
    best_rows = np.empty(0, dtype=np.int64)
    best_cols = np.empty(0, dtype=np.int64)
    floor = -np.inf
    start, stop, prefix = 0, n_a, n_b
    rows_scored = cells_scored = 0
    while start < stop:
        # Until a k-th score exists, score about k cells at a time: the
        # first threshold then costs one small selection, not a full block.
        step = block_rows if floor > -np.inf else -(-k // max(prefix, 1))
        end = min(start + min(step, block_rows), stop)
        top = float(u_norms[start]) * grow
        if floor > 0:
            prefix = bisect.bisect_left(
                v_norms, True, 0, prefix, key=lambda n: top * n < floor
            )
        block = row_order[start:end]
        block_bytes = dense_matrix_bytes(block.size, prefix, itemsize=u.itemsize)
        rows_scored += block.size
        cells_scored += block.size * prefix
        context.checkpoint(f"top_k_pairs scan at row {start}")
        context.metrics.increment("topk.blocks_scanned")
        context.metrics.increment("topk.rows_scanned", block.size)
        context.metrics.increment("topk.cells_scored", block.size * prefix)
        with context.holding(block_bytes, "top-k scan block"):
            flat = (u[block] @ v_t[:, :prefix]).ravel()
            # Bounds |BLAS score - _pair_scores score| for every cell here.
            slack = rho * float(u_norms[start]) * v_top
            if floor > -np.inf:
                candidates = np.flatnonzero(flat >= floor - slack)
                values = flat[candidates]
            else:
                candidates, values = np.arange(flat.size), flat
        if values.size > k:
            kth = float(-np.partition(-values, k - 1)[k - 1])
            candidates = candidates[values >= _tie_floor(kth - slack, u.dtype) - slack]
        start = end
        if candidates.size == 0:
            continue
        rows = block[candidates // prefix]
        cols = col_order[candidates % prefix]
        merged_scores = np.concatenate([best_scores, _pair_scores(u, v, rows, cols)])
        merged_rows = np.concatenate([best_rows, rows])
        merged_cols = np.concatenate([best_cols, cols])
        order = np.lexsort((merged_cols, merged_rows, -_tie_keys(merged_scores)))[:k]
        best_scores = merged_scores[order]
        best_rows = merged_rows[order]
        best_cols = merged_cols[order]
        if best_scores.size == k:
            floor = _tie_floor(float(best_scores[-1]), u.dtype)
        if floor > 0:
            stop = bisect.bisect_left(
                u_norms, True, start, stop, key=lambda n: n * grow * v_top < floor
            )
    return best_scores, best_rows, best_cols, rows_scored, cells_scored


def scan_top_pairs(
    factors: LowRankFactors,
    k: int,
    block_rows: int = 1024,
    context: ExecutionContext | None = None,
    norm: float = 1.0,
) -> list[ScoredPair]:
    """The ``k`` best pairs of a prebuilt factor pair.

    Returned scores are the factored scores divided by ``norm`` (callers
    pass ``||Z||_F`` for normalised scores); any positive ``norm`` yields
    the same pairs.  The scan is exact and output-sensitive: rows are
    visited in descending norm order and cells that their norm bounds
    prove unable to place are never scored (see :func:`_pruned_scan`).
    Ties, scores equal to within their last ``_TIE_BITS`` mantissa bits,
    break by lowest ``node_a`` then ``node_b``, and the result is
    identical for every ``block_rows``.  Each call is one
    ``topk.scan_pairs`` operation of ``context``.
    """
    k = check_positive_integer(k, "k")
    block_rows = check_positive_integer(block_rows, "block_rows")
    n_a, n_b = factors.shape
    k = min(k, n_a * n_b)
    context = ExecutionContext.resolve(context)
    with context.operation(
        "topk.scan_pairs", k=k, rows=n_a, cols=n_b, width=factors.width
    ) as operation:
        scores, rows, cols, rows_scored, cells_scored = _pruned_scan(
            factors.u, factors.v, k, block_rows, context
        )
        operation.set_attribute("rows_scored", rows_scored)
        operation.set_attribute("cells_scored", cells_scored)
        return [
            ScoredPair(int(row), int(col), float(score) / norm)
            for score, row, col in zip(scores, rows, cols)
        ]


def top_k_pairs(
    graph_a: Graph,
    graph_b: Graph,
    k: int,
    iterations: int = 10,
    block_rows: int = 1024,
    context: ExecutionContext | None = None,
    max_workers: "WorkerPool | int | None" = None,
    recompress_tol: float | None = None,
    precision: str = "float64",
) -> list[ScoredPair]:
    """The ``k`` highest-similarity cross-graph pairs.

    Pairs are ranked by their *unnormalised* factored scores; the ordering
    is identical to the normalised similarity (normalisation is a positive
    scalar), and returned scores are divided by ``||Z||_F`` for
    interpretability.  Ties, cells whose scores agree to within rounding
    (see :func:`scan_top_pairs`), are broken by lowest ``node_a`` then
    lowest ``node_b``; the result is independent of ``block_rows``.  The build
    is cut at the numerical rank (``recompress_tol``, default 1e-12, see
    :func:`_factors_for`), and ``max_workers`` applies to it; the pair
    scan itself is serial and pruned (see :func:`scan_top_pairs`).

    Examples
    --------
    >>> from repro.graphs import Graph
    >>> a = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
    >>> b = Graph.from_edges(4, [(0, i) for i in range(1, 4)])
    >>> best = top_k_pairs(a, b, k=1, iterations=6)
    >>> (best[0].node_a, best[0].node_b)   # hub matches hub
    (0, 0)
    """
    k = check_positive_integer(k, "k")
    block_rows = check_positive_integer(block_rows, "block_rows")
    context = ExecutionContext.resolve(context)
    factors, norm = _ranked_factors(
        graph_a, graph_b, iterations, context,
        max_workers=max_workers, recompress_tol=recompress_tol, precision=precision,
    )
    return scan_top_pairs(
        factors, k, block_rows=block_rows, context=context, norm=norm
    )


def top_k_for_queries(
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray | list[int],
    k: int,
    iterations: int = 10,
    block_rows: int = 1024,
    context: ExecutionContext | None = None,
    max_workers: "WorkerPool | int | None" = None,
    recompress_tol: float | None = None,
    precision: str = "float64",
) -> dict[int, list[ScoredPair]]:
    """For each query node of ``G_A``, its ``k`` best matches in ``G_B``.

    Returns a mapping ``query node -> ranked ScoredPair list`` (ties broken
    by node id for determinism).  Each query row is scored against V's
    non-zero rows only and ranked by :func:`rank_row`, so the answers are
    those of :meth:`repro.retrieval.GSimIndex.top_matches`.  Queries are
    handed out in chunks of ``block_rows``; each chunk is a checkpoint of
    ``context`` and charges its one-row working set against the ledger.
    The build is :func:`top_k_pairs`'s; the scan after it is one
    ``topk.query_scan`` operation.
    """
    k = check_positive_integer(k, "k")
    block_rows = check_positive_integer(block_rows, "block_rows")
    context = ExecutionContext.resolve(context)
    factors, norm = _ranked_factors(
        graph_a, graph_b, iterations, context,
        max_workers=max_workers, recompress_tol=recompress_tol, precision=precision,
    )
    queries = resolve_node_index(
        queries_a, factors.shape[0], "queries_a",
        allow_empty=True, allow_duplicates=True,
    )
    k = min(k, factors.shape[1])
    pool = WorkerPool.resolve(max_workers)
    u = factors.u
    targets = NonzeroRows.of(factors.v)
    row_bytes = dense_matrix_bytes(1, targets.ids.size, itemsize=u.itemsize)

    def _scan_chunk(
        bounds: tuple[int, int],
    ) -> list[tuple[int, np.ndarray, np.ndarray]]:
        start, stop = bounds
        chunk = queries[start:stop]
        context.checkpoint(f"top_k_for_queries scan at query {start}")
        context.metrics.increment("topk.blocks_scanned")
        context.metrics.increment("topk.rows_scanned", int(chunk.size))
        context.metrics.increment(
            "topk.cells_scored", int(chunk.size) * targets.ids.size
        )
        with context.holding(row_bytes, "top-k query row"):
            return [(int(node), *rank_row(u[node], targets, k)) for node in chunk]

    chunk_bounds = [
        (start, min(start + block_rows, queries.size))
        for start in range(0, queries.size, block_rows)
    ]

    with context.operation(
        "topk.query_scan",
        queries=int(queries.size),
        k=k,
        width=factors.width,
        workers=pool.max_workers,
    ):
        parts = pool.map(
            _scan_chunk, chunk_bounds, context=context, what="top-k query scan"
        )
    results: dict[int, list[ScoredPair]] = {}
    for part in parts:
        for node_a, cols, scores in part:
            results[node_a] = [
                ScoredPair(node_a, int(col), float(score) / norm)
                for col, score in zip(cols, scores)
            ]
    return results
