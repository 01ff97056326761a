"""Drivers regenerating Figures 2-8 of the paper.

Each ``figN_*`` function returns the list of
:class:`repro.experiments.runner.RunRecord` backing that figure; calling
:func:`repro.experiments.report.render_records` on it prints the series
the paper plots.  The benchmark modules under ``benchmarks/`` time these
drivers, one per figure.

Scaling: the paper's query-set sizes (|Q| = 2,000, or 20,000 for Q_B on
the large graphs) are mapped per scale profile by ``_QUERY_TARGETS``,
clamped to the graph sizes.  Datasets come from the simulated registry
(:mod:`repro.graphs.datasets`).

Every driver builds its cell list up front and hands it to
:func:`repro.experiments.runner.run_cells`, which runs the cells one
after another, each under its own tracemalloc tracker.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.runner import (
    ALGORITHMS,
    AlgorithmSpec,
    CellTask,
    ExperimentConfig,
    RunRecord,
    run_cells,
)
from repro.graphs.datasets import load_dataset_pair
from repro.graphs.graph import Graph
from repro.graphs.sampling import random_node_sample
from repro.workloads.queries import make_workload

__all__ = [
    "fig2_time_by_dataset",
    "fig3_time_vs_k",
    "fig4_time_vs_nb",
    "fig5_time_vs_queries",
    "fig6_memory_by_dataset",
    "fig7_memory_vs_k",
    "fig8_memory_vs_queries",
]

# Scaled analogue of the paper's |Q| = 2,000 default.
_QUERY_TARGETS = {"tiny": 20, "small": 200, "medium": 1_000, "paper": 2_000}
# The paper uses a larger |Q_B| = 20,000 on WT/UK/IT.
_LARGE_DATASETS = ("WT", "UK", "IT")

_DEFAULT_DATASETS = ("HP", "EE", "WT", "UK", "IT")
_DEFAULT_ALGORITHMS = ("GSim+", "GSVD", "GSim", "SS-BC*", "NED", "RSim")


def _specs(names: tuple[str, ...] | list[str]) -> list[AlgorithmSpec]:
    unknown = [name for name in names if name not in ALGORITHMS]
    if unknown:
        raise KeyError(f"unknown algorithms {unknown}; choose from {sorted(ALGORITHMS)}")
    return [ALGORITHMS[name] for name in names]


def _query_sizes(dataset: str, scale: str) -> tuple[int, int]:
    base = _QUERY_TARGETS[scale]
    size_b = base * 10 if dataset in _LARGE_DATASETS else base
    return base, size_b


def _load_instance(
    dataset: str, config: ExperimentConfig
) -> tuple[Graph, Graph, np.ndarray, np.ndarray]:
    graph_a, graph_b = load_dataset_pair(dataset, scale=config.scale, seed=config.seed)
    size_a, size_b = _query_sizes(dataset, config.scale)
    workload = make_workload(
        graph_a, graph_b, size_a, size_b, seed=config.seed + 1
    )
    return graph_a, graph_b, workload.queries_a, workload.queries_b


# ----------------------------------------------------------------------
# Time figures
# ----------------------------------------------------------------------
def fig2_time_by_dataset(
    config: ExperimentConfig | None = None,
    datasets: tuple[str, ...] = _DEFAULT_DATASETS,
    algorithms: tuple[str, ...] = _DEFAULT_ALGORITHMS,
) -> list[RunRecord]:
    """Figure 2 — wall-clock time of every algorithm on every dataset.

    Expected shape (paper §5.2.1): GSim+ fastest everywhere; GSim/GSVD
    fail on the large datasets; RSim/NED only survive the smallest.
    """
    config = config or ExperimentConfig()
    tasks = []
    for dataset in datasets:
        graph_a, graph_b, queries_a, queries_b = _load_instance(dataset, config)
        for spec in _specs(algorithms):
            tasks.append(
                CellTask(
                    spec, graph_a, graph_b, queries_a, queries_b,
                    config.iterations, dataset=dataset,
                )
            )
    return run_cells(tasks, config)


def fig3_time_vs_k(
    config: ExperimentConfig | None = None,
    dataset: str = "EE",
    k_values: tuple[int, ...] = (2, 4, 6, 8, 10),
    algorithms: tuple[str, ...] = _DEFAULT_ALGORITHMS,
) -> list[RunRecord]:
    """Figure 3 — time versus iteration count k (paper sweeps 2..10).

    GSim+ grows mildly with k; GSim/GSVD cost a dense-iterate update per
    extra k; NED blows up exponentially.
    """
    config = config or ExperimentConfig()
    graph_a, graph_b, queries_a, queries_b = _load_instance(dataset, config)
    tasks = [
        CellTask(spec, graph_a, graph_b, queries_a, queries_b, k, dataset=dataset)
        for k in k_values
        for spec in _specs(algorithms)
    ]
    return run_cells(tasks, config)


def fig4_time_vs_nb(
    config: ExperimentConfig | None = None,
    dataset: str = "EE",
    nb_fractions: tuple[float, ...] = (0.05, 0.1, 0.2, 0.4, 0.8),
    algorithms: tuple[str, ...] = _DEFAULT_ALGORITHMS,
) -> list[RunRecord]:
    """Figure 4 — time versus |V_B| (the sampled subgraph's size).

    GSim+ and SS-BC* should be nearly flat; GSim/GSVD's dense iterate
    makes them superlinear in |V_B|.
    """
    config = config or ExperimentConfig()
    from repro.graphs.datasets import load_dataset  # local to avoid cycle

    graph_a = load_dataset(dataset, scale=config.scale, seed=config.seed)
    tasks = []
    for fraction in nb_fractions:
        size_b = max(16, int(graph_a.num_nodes * fraction))
        graph_b = random_node_sample(graph_a, size_b, seed=config.seed + 13)
        size_qa, size_qb = _query_sizes(dataset, config.scale)
        workload = make_workload(
            graph_a, graph_b, size_qa, size_qb, seed=config.seed + 1
        )
        for spec in _specs(algorithms):
            tasks.append(
                CellTask(
                    spec, graph_a, graph_b,
                    workload.queries_a, workload.queries_b,
                    config.iterations, dataset=dataset,
                )
            )
    return run_cells(tasks, config)


def fig5_time_vs_queries(
    config: ExperimentConfig | None = None,
    dataset: str = "EE",
    query_sizes: tuple[int, ...] = (25, 50, 100, 200, 400),
    algorithms: tuple[str, ...] = _DEFAULT_ALGORITHMS,
) -> list[RunRecord]:
    """Figure 5 — time versus query-set size (|Q_A| = |Q_B| swept together).

    SS-BC* scales with |Q_A| x |Q_B| (one single-pair query per pair);
    GSim+ only pays the final block product.
    """
    config = config or ExperimentConfig()
    graph_a, graph_b, _, _ = _load_instance(dataset, config)
    tasks = []
    for size in query_sizes:
        workload = make_workload(graph_a, graph_b, size, size, seed=config.seed + 1)
        for spec in _specs(algorithms):
            tasks.append(
                CellTask(
                    spec, graph_a, graph_b,
                    workload.queries_a, workload.queries_b,
                    config.iterations, dataset=dataset,
                )
            )
    return run_cells(tasks, config)


# ----------------------------------------------------------------------
# Memory figures
# ----------------------------------------------------------------------
def fig6_memory_by_dataset(
    config: ExperimentConfig | None = None,
    datasets: tuple[str, ...] = _DEFAULT_DATASETS,
    algorithms: tuple[str, ...] = _DEFAULT_ALGORITHMS,
) -> list[RunRecord]:
    """Figure 6 — peak memory of every algorithm on every dataset.

    Same cells as Figure 2 (the runner records both metrics per run);
    GSim+ should sit 1-2 orders below GSim/GSVD and scale linearly in
    |G_A|.
    """
    return fig2_time_by_dataset(config, datasets=datasets, algorithms=algorithms)


def fig7_memory_vs_k(
    config: ExperimentConfig | None = None,
    dataset: str = "EE",
    k_values: tuple[int, ...] = (2, 4, 6, 8, 10),
    algorithms: tuple[str, ...] = _DEFAULT_ALGORITHMS,
) -> list[RunRecord]:
    """Figure 7 — memory versus iteration count k (paper shows EE and WT)."""
    return fig3_time_vs_k(
        config, dataset=dataset, k_values=k_values, algorithms=algorithms
    )


def fig8_memory_vs_queries(
    config: ExperimentConfig | None = None,
    dataset: str = "EE",
    query_sizes: tuple[int, ...] = (25, 50, 100, 200, 400),
    algorithms: tuple[str, ...] = _DEFAULT_ALGORITHMS,
) -> list[RunRecord]:
    """Figure 8 — memory versus query-set size on EE (paper's choice)."""
    return fig5_time_vs_queries(
        config, dataset=dataset, query_sizes=query_sizes, algorithms=algorithms
    )
