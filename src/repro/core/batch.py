"""Query blocks served from precomputed factors.

``BatchQueryEngine`` wraps one :class:`repro.core.embeddings.LowRankFactors`
pair and answers ``query(Q_A, Q_B)`` blocks of the globally normalised
similarity: entries of ``U V^T / ||U V^T||_F``, with the norm computed
once, at construction.

Factor rows that are exactly zero contribute nothing to any block, and
GSim+ factors have many (the nodes no walk reaches).  The engine finds
them once, at construction, and ``query`` multiplies only the non-zero
rows and columns of each block into a zero-filled result.

``query`` accepts an optional :class:`repro.runtime.ExecutionContext`:
each block is one ``batch.query_block`` operation and a checkpoint
(deadline/cancellation polled), and block and cell counts land in
``context.metrics`` under ``batch.*``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.embeddings import LowRankFactors, nonzero_rows
from repro.core.topk import NonzeroRows
from repro.runtime import ExecutionContext
from repro.utils.validation import resolve_node_index

__all__ = ["BatchQueryEngine"]


class BatchQueryEngine:
    """Serve similarity queries from one factor pair.

    Parameters
    ----------
    factors:
        The precomputed (possibly loaded) low-embeddings.  Blocks are
        entries of the unit-Frobenius full matrix.

    Examples
    --------
    >>> import numpy as np
    >>> engine = BatchQueryEngine(
    ...     LowRankFactors(np.ones((4, 1)), np.ones((3, 1))))
    >>> engine.query([0, 1], [0]).shape
    (2, 1)
    >>> round(float(engine.query([2], [1, 2]).sum()), 6)   # 2 / sqrt(12)
    0.57735
    """

    def __init__(self, factors: LowRankFactors) -> None:
        self._factors = factors
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
            live /= self._global_norm
            if live.shape == shape:
                block = live
            else:
                block = np.zeros(shape, dtype=live.dtype)
                block[np.ix_(live_rows, live_cols)] = live
            context.metrics.increment("batch.blocks_served")
            context.metrics.increment("batch.cells_served", cells)
            return block
