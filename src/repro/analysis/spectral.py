"""Spectral diagnostics built on the Theorem 4.2 machinery."""

from __future__ import annotations

from repro.core.error_bound import spectral_gap
from repro.graphs.graph import Graph

__all__ = ["convergence_rate"]


def convergence_rate(graph_a: Graph, graph_b: Graph) -> float:
    """The per-iteration contraction ratio ``|λ2| / |λ1|`` of the GSim
    power iteration (smaller = faster convergence; Theorem 4.2).

    Returns 0.0 when the iteration converges in one step (rank-1 M) and
    raises when the dominant eigenvalue vanishes (empty graphs).
    """
    lambda1, lambda2 = spectral_gap(graph_a, graph_b)
    if lambda1 == 0.0:
        raise ValueError(
            "dominant eigenvalue is zero; GSim is undefined on edgeless inputs"
        )
    return lambda2 / lambda1
