"""Query workload construction for the experiments."""

from repro.workloads.queries import (
    QueryWorkload,
    degree_biased_queries,
    make_workload,
    uniform_queries,
)

__all__ = [
    "QueryWorkload",
    "degree_biased_queries",
    "make_workload",
    "uniform_queries",
]
