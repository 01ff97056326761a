"""Node alignment from a cross-graph similarity matrix.

Zager & Verghese (2008, cited by the paper) use similarity scores for
*graph matching*: pick a one-to-one correspondence between the nodes of
``G_A`` and ``G_B`` maximising total similarity.  Given any similarity
block (GSim+, GSVD, RoleSim, ...), these helpers extract an alignment:

* :func:`best_alignment` — optimal assignment (Hungarian) or fast greedy.
* :func:`alignment_score` — total and mean similarity of an alignment.
* :func:`alignment_accuracy` — fraction of pairs matching a ground truth
  (for the planted-correspondence experiments in the examples/tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = ["Alignment", "alignment_accuracy", "best_alignment"]

_METHODS = ("hungarian", "greedy")


@dataclass(frozen=True)
class Alignment:
    """A one-to-one partial matching between two node sets.

    ``pairs[i] = (a, b)`` aligns node ``a`` of the row graph to node ``b``
    of the column graph; at most ``min(n_A, n_B)`` pairs.
    """

    pairs: tuple[tuple[int, int], ...]
    total_score: float

    @property
    def size(self) -> int:
        """Number of aligned pairs."""
        return len(self.pairs)

    def as_dict(self) -> dict[int, int]:
        """The alignment as a ``row node -> column node`` mapping."""
        return dict(self.pairs)


def best_alignment(similarity: np.ndarray, method: str = "hungarian") -> Alignment:
    """Extract a maximum-similarity one-to-one alignment.

    Parameters
    ----------
    similarity:
        A ``n_A x n_B`` score matrix (any similarity model's output).
    method:
        ``"hungarian"`` — optimal assignment, ``O(n^3)``;
        ``"greedy"`` — repeatedly take the best unmatched pair,
        ``O(n_A n_B log(n_A n_B))``, within a factor ~2 of optimal.

    Examples
    --------
    >>> import numpy as np
    >>> scores = np.array([[0.9, 0.1], [0.2, 0.8]])
    >>> best_alignment(scores).pairs
    ((0, 0), (1, 1))
    """
    matrix = np.asarray(similarity, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"similarity must be 2-D, got {matrix.ndim}-D")
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if matrix.size == 0:
        return Alignment(pairs=(), total_score=0.0)
    if method == "hungarian":
        rows, cols = linear_sum_assignment(matrix, maximize=True)
        pairs = tuple(zip(map(int, rows), map(int, cols)))
    else:
        order = np.argsort(-matrix, axis=None, kind="stable")
        used_rows = np.zeros(matrix.shape[0], dtype=bool)
        used_cols = np.zeros(matrix.shape[1], dtype=bool)
        chosen: list[tuple[int, int]] = []
        limit = min(matrix.shape)
        for flat in order:
            row, col = divmod(int(flat), matrix.shape[1])
            if used_rows[row] or used_cols[col]:
                continue
            used_rows[row] = True
            used_cols[col] = True
            chosen.append((row, col))
            if len(chosen) == limit:
                break
        chosen.sort()
        pairs = tuple(chosen)
    total = float(sum(matrix[a, b] for a, b in pairs))
    return Alignment(pairs=pairs, total_score=total)


def alignment_accuracy(
    alignment: Alignment, ground_truth: dict[int, int]
) -> float:
    """Fraction of ground-truth correspondences the alignment recovered.

    ``ground_truth`` maps row nodes to their true column counterparts;
    rows absent from it are ignored.
    """
    if not ground_truth:
        raise ValueError("ground_truth must be non-empty")
    mapping = alignment.as_dict()
    hits = sum(
        1 for row, true_col in ground_truth.items() if mapping.get(row) == true_col
    )
    return hits / len(ground_truth)
