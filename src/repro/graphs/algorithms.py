"""Degree statistics over :class:`repro.graphs.Graph`.

The CLI's ``datasets`` command prints them for each registered dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph

__all__ = ["DegreeStatistics", "degree_statistics"]


@dataclass(frozen=True)
class DegreeStatistics:
    """Summary of a graph's degree distribution."""

    mean: float
    median: float
    maximum: int
    gini: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"mean={self.mean:.2f} median={self.median:.1f} "
            f"max={self.maximum} gini={self.gini:.3f}"
        )


def degree_statistics(graph: Graph) -> DegreeStatistics:
    """Mean/median/max total degree plus the Gini coefficient of skew.

    Gini near 0 means egalitarian degrees (ER-like); web crawls and social
    graphs sit well above 0.5.
    """
    if graph.num_nodes == 0:
        return DegreeStatistics(mean=0.0, median=0.0, maximum=0, gini=0.0)
    degrees = (graph.out_degrees() + graph.in_degrees()).astype(np.float64)
    total = degrees.sum()
    if total == 0:
        gini = 0.0
    else:
        ordered = np.sort(degrees)
        n = ordered.size
        ranks = np.arange(1, n + 1)
        gini = float((2 * ranks - n - 1) @ ordered / (n * total))
    return DegreeStatistics(
        mean=float(degrees.mean()),
        median=float(np.median(degrees)),
        maximum=int(degrees.max()),
        gini=gini,
    )
