"""repro — reproduction of "GSim+: Efficient Retrieval of Node-to-Node
Similarity Across Two Graphs at Billion Scale" (EDBT 2024).

Quickstart
----------
>>> from repro import Graph, gsim_plus
>>> a = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
>>> b = Graph.from_edges(3, [(0, 1), (1, 2)])
>>> result = gsim_plus(a, b, iterations=4)
>>> result.similarity.shape
(4, 3)

Package map
-----------
* :mod:`repro.core` — GSim+ (the paper's contribution) and its algebra.
* :mod:`repro.baselines` — GSim, GSVD, RoleSim, NED, StructSim.
* :mod:`repro.graphs` — graph substrate: representation, IO, generators,
  sampling, and the simulated dataset registry.
* :mod:`repro.workloads` — query-set generation.
* :mod:`repro.analysis` — accuracy, alignment and spectral metrics.
* :mod:`repro.runtime` — the execution-context layer: cooperative
  deadlines, live memory budgets, cancellation, and metrics shared by
  every compute loop above.
* :mod:`repro.experiments` — drivers regenerating every figure and table
  of the paper's evaluation section.
"""

from repro.baselines import gsim, gsim_partial, gsvd
from repro.core import (
    GSimPlus,
    GSimPlusResult,
    LowRankFactors,
    TruncationInfo,
    error_bound,
    gsim_plus,
    iterate_to_convergence,
)
from repro.graphs import Graph, load_dataset, load_dataset_pair
from repro.retrieval import GSimIndex
from repro.runtime import (
    BudgetExceeded,
    CancellationToken,
    ExecutionContext,
    Metrics,
)
from repro.workloads import make_workload

__version__ = "1.0.0"

__all__ = [
    "BudgetExceeded",
    "CancellationToken",
    "ExecutionContext",
    "GSimIndex",
    "GSimPlus",
    "GSimPlusResult",
    "Graph",
    "LowRankFactors",
    "Metrics",
    "TruncationInfo",
    "__version__",
    "error_bound",
    "gsim",
    "gsim_partial",
    "gsim_plus",
    "gsvd",
    "iterate_to_convergence",
    "load_dataset",
    "load_dataset_pair",
    "make_workload",
]
