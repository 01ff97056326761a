"""Batched query serving over precomputed factors.

A retrieval service answers many query blocks against one factor pair.
``BatchQueryEngine`` wraps :class:`repro.core.embeddings.LowRankFactors`
with:

* ``query_many`` — answer a list of ``(Q_A, Q_B)`` blocks, optionally on a
  thread pool (the underlying BLAS products release the GIL, so threads
  give real parallelism for large blocks);
* ``stream_rows`` — iterate the full similarity row-block by row-block
  under a hard memory bound, for exhaustive consumers (exports, rank
  scans) that must never materialise ``n_A x n_B``.

Factor rows that are exactly zero contribute nothing to any block, and
GSim+ factors have many (the nodes no walk reaches).  The engine finds
them once, at construction, and ``query`` multiplies only the non-zero
rows and columns of each block into a zero-filled result.

Both entry points accept an optional
:class:`repro.runtime.ExecutionContext`: each served block is a
checkpoint (deadline/cancellation polled, block bytes charged against the
live memory budget), each ``query`` is one ``batch.query_block``
operation, and block counts land in ``context.metrics`` under
``batch.*``.  The :class:`repro.runtime.Metrics` sink is lock-protected,
so the thread-pool path aggregates counters without losing increments.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.embeddings import LowRankFactors, nonzero_rows
from repro.core.topk import NonzeroRows
from repro.runtime import ExecutionContext
from repro.runtime.parallel import WorkerPool
from repro.utils.validation import check_positive_integer, resolve_node_index

__all__ = ["BatchQueryEngine"]


class BatchQueryEngine:
    """Serve similarity queries from one factor pair.

    Parameters
    ----------
    factors:
        The precomputed (possibly loaded) low-embeddings.
    normalization:
        ``"global"`` (default): blocks are entries of the unit-Frobenius
        full matrix; ``"block"``: each block normalised by its own norm
        (Algorithm 1's convention).

    Examples
    --------
    >>> import numpy as np
    >>> engine = BatchQueryEngine(
    ...     LowRankFactors(np.ones((4, 1)), np.ones((3, 1))))
    >>> blocks = engine.query_many([([0, 1], [0]), ([2], [1, 2])])
    >>> [b.shape for b in blocks]
    [(2, 1), (1, 2)]
    """

    def __init__(
        self, factors: LowRankFactors, normalization: str = "global"
    ) -> None:
        if normalization not in ("global", "block"):
            raise ValueError(f"unknown normalization {normalization!r}")
        self._factors = factors
        self._normalization = normalization
        self._global_norm = factors.frobenius_norm(include_scale=False)
        if self._global_norm == 0.0:
            raise ZeroDivisionError("factors represent the zero matrix")
        self._u_live = nonzero_rows(factors.u)
        self._v_targets = NonzeroRows.of(factors.v)
        # Position of each G_B node's row in the contiguous copy, or -1.
        self._v_slot = np.full(factors.shape[1], -1, dtype=np.int64)
        self._v_slot[self._v_targets.ids] = np.arange(self._v_targets.ids.size)

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the represented similarity matrix."""
        return self._factors.shape

    @property
    def global_norm(self) -> float:
        """``||Z||_F`` of the represented (unnormalised) similarity."""
        return self._global_norm

    @property
    def v_targets(self) -> NonzeroRows:
        """V's non-zero rows (ids, contiguous copy) and its zero rows' ids."""
        return self._v_targets

    def _live_block(
        self, queries_a: object, queries_b: object
    ) -> tuple[tuple[int, int], np.ndarray, np.ndarray, np.ndarray]:
        """The block's shape, the positions of its non-zero rows and
        columns, and the unnormalised product of those rows and columns."""
        n_a, n_b = self._factors.shape
        rows = resolve_node_index(
            queries_a, n_a, "row index", allow_empty=True, allow_duplicates=True
        )
        cols = resolve_node_index(
            queries_b, n_b, "column index", allow_empty=True, allow_duplicates=True
        )
        live_rows = np.flatnonzero(self._u_live[rows])
        slots = self._v_slot[cols]
        live_cols = np.flatnonzero(slots >= 0)
        live = (
            self._factors.u[rows[live_rows]]
            @ self._v_targets.rows[slots[live_cols]].T
        )
        return (rows.size, cols.size), live_rows, live_cols, live

    def query(
        self,
        queries_a: np.ndarray | Sequence[int],
        queries_b: np.ndarray | Sequence[int],
        context: ExecutionContext | None = None,
    ) -> np.ndarray:
        """One normalised query block: one ``batch.query_block``
        operation of ``context``."""
        context = ExecutionContext.resolve(context)
        with context.operation("batch.query_block") as operation:
            operation.set_attribute("width", self._factors.width)
            context.checkpoint("batch query block")
            shape, live_rows, live_cols, live = self._live_block(
                queries_a, queries_b
            )
            cells = shape[0] * shape[1]
            operation.set_attribute("cells", cells)
            if self._normalization == "block":
                denominator = float(np.linalg.norm(live))
                if denominator == 0.0:
                    raise ZeroDivisionError("query block has zero norm")
            else:
                denominator = self._global_norm
            live /= denominator
            if live.shape == shape:
                block = live
            else:
                block = np.zeros(shape, dtype=live.dtype)
                block[np.ix_(live_rows, live_cols)] = live
            context.metrics.increment("batch.blocks_served")
            context.metrics.increment("batch.cells_served", cells)
            return block

    def query_many(
        self,
        requests: Iterable[tuple[Sequence[int], Sequence[int]]],
        max_workers: "WorkerPool | int | None" = None,
        context: ExecutionContext | None = None,
    ) -> list[np.ndarray]:
        """Answer many blocks; ``max_workers > 1`` uses a worker pool.

        Results come back in request order regardless of worker count, and
        each block's scores are worker-count independent (blocks are
        computed whole, never split).  Each block is a checkpoint of
        ``context``; with a thread pool the workers share the same
        lock-protected metrics sink, so counter increments are never lost
        to races.
        """
        request_list = list(requests)
        if isinstance(max_workers, int) and max_workers < 1:
            max_workers = 1  # historical "0 means serial" tolerance
        pool = WorkerPool.resolve(max_workers)
        return pool.map(
            lambda request: self.query(request[0], request[1], context=context),
            request_list,
            context=context,
            what="batch query blocks",
        )

    def stream_rows(
        self,
        block_rows: int = 1024,
        context: ExecutionContext | None = None,
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(start_row, normalised_block)`` covering every row.

        Peak memory is ``O(block_rows * n_B)``; global normalisation is
        used so concatenating the blocks reproduces the full matrix.  With
        a context, every block is a checkpoint and its bytes are charged
        against the live memory budget while it is the current block.
        """
        block_rows = check_positive_integer(block_rows, "block_rows")
        context = ExecutionContext.resolve(context)
        n_rows, n_cols = self._factors.shape
        v_t = self._factors.v.T
        itemsize = self._factors.dtype.itemsize
        charged = 0
        try:
            for start in range(0, n_rows, block_rows):
                stop = min(start + block_rows, n_rows)
                context.checkpoint(f"stream_rows block at row {start}")
                context.release(charged)
                charged = 0
                block_bytes = (stop - start) * n_cols * itemsize
                context.charge(block_bytes, "stream_rows block")
                charged = block_bytes
                block = (self._factors.u[start:stop] @ v_t) / self._global_norm
                context.metrics.increment("batch.blocks_served")
                context.metrics.increment("batch.rows_streamed", stop - start)
                yield start, block
        finally:
            context.release(charged)
