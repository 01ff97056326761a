"""Convergence-controlled GSim+ execution.

The paper runs a fixed number of iterations ``K`` (default 10) and notes
that even iterates converge.  For library users who prefer a tolerance to a
fixed budget, :func:`iterate_to_convergence` runs GSim+ and stops when
consecutive *even* iterates agree to ``tolerance`` in Frobenius norm.  The
comparison is done entirely in factored form via
:meth:`repro.core.embeddings.LowRankFactors.normalized_distance`, so the
full similarity matrix is never materialised while iterating.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from repro.core.embeddings import LowRankFactors
from repro.core.gsim_plus import GSimPlus
from repro.graphs.graph import Graph
from repro.runtime import ExecutionContext
from repro.utils.validation import check_positive_integer

__all__ = ["ConvergenceReport", "iterate_to_convergence"]


@dataclass
class ConvergenceReport:
    """Trace of a tolerance-driven GSim+ run.

    Attributes
    ----------
    converged:
        Whether the even-iterate difference dropped below the tolerance
        before ``max_iterations``.
    iterations:
        Number of iterations performed (always even on convergence).
    residuals:
        ``||S_k - S_{k-2}||_F`` measured at each even ``k >= 2``.
    similarity:
        The final normalised query-block similarity.
    """

    converged: bool
    iterations: int
    residuals: list[float] = field(default_factory=list)
    similarity: np.ndarray | None = None


def iterate_to_convergence(
    graph_a: Graph,
    graph_b: Graph,
    tolerance: float = 1e-4,
    max_iterations: int = 50,
    queries_a: np.ndarray | list[int] | None = None,
    queries_b: np.ndarray | list[int] | None = None,
    rank_cap: str = "dense",
    context: ExecutionContext | None = None,
) -> ConvergenceReport:
    """Run GSim+ until even iterates stabilise.

    Parameters
    ----------
    tolerance:
        Stop once ``||S_k - S_{k-2}||_F < tolerance`` for an even ``k``.
    max_iterations:
        Hard budget; the report flags ``converged=False`` when hit.

    Notes
    -----
    The residual sequence decays geometrically with ratio
    ``(|λ2|/|λ1|)^2`` (Theorem 4.2), so halving ``tolerance`` costs only
    O(1) extra iterations on well-separated spectra.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    max_iterations = check_positive_integer(max_iterations, "max_iterations")

    solver = GSimPlus(graph_a, graph_b, rank_cap=rank_cap)
    queries_a = solver._resolve_queries(queries_a, solver.n_a, "queries_a")
    queries_b = solver._resolve_queries(queries_b, solver.n_b, "queries_b")
    residuals: list[float] = []
    previous_even: LowRankFactors | None = None
    previous_even_dense: np.ndarray | None = None
    stopped_at: int | None = None

    with closing(solver.iterate(max_iterations, context=context)) as states:
        for state in states:
            if state.k == 0 or state.k % 2 != 0:
                continue
            if state.dense_z is not None:
                # Dense fallback regime: compare normalised dense iterates.
                current_dense = state.dense_z / np.linalg.norm(state.dense_z)
                if previous_even_dense is not None:
                    residuals.append(
                        float(np.linalg.norm(current_dense - previous_even_dense))
                    )
                previous_even_dense = current_dense
                previous_even = None
            else:
                assert state.factors is not None
                if previous_even is not None:
                    residuals.append(
                        state.factors.normalized_distance(previous_even)
                    )
                elif previous_even_dense is not None:
                    dense = state.factors.materialize(include_scale=False)
                    dense /= np.linalg.norm(dense)
                    residuals.append(
                        float(np.linalg.norm(dense - previous_even_dense))
                    )
                previous_even = LowRankFactors(
                    state.factors.u.copy(),
                    state.factors.v.copy(),
                    state.factors.log_scale,
                )
                previous_even_dense = None
            if residuals and residuals[-1] < tolerance:
                stopped_at = state.k
                break
    # Closing the iterator released its ledger charge; the last state is
    # the answer, so its block is formed as ``run`` would form it.
    iterations = stopped_at if stopped_at is not None else max_iterations
    result = solver._finalize(state, iterations, queries_a, queries_b)
    return ConvergenceReport(
        converged=stopped_at is not None,
        iterations=iterations,
        residuals=residuals,
        similarity=result.similarity,
    )
