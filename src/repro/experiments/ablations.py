"""Ablations of the design choices DESIGN.md §5 calls out.

Each ablation returns a list of ``(variant, seconds, extra)`` rows that the
corresponding benchmark prints:

* :func:`ablation_rank_cap` — GSim+ with the paper's dense fallback vs
  unbounded factor growth vs the index's cut at the numerical rank.
* :func:`ablation_normalization` — normalise once at the end (Eq. 6) vs
  per-iteration scalar rescaling overhead.
* :func:`ablation_query_extraction` — Algorithm 1's late row extraction vs
  materialising the full matrix then slicing.
* :func:`ablation_gsvd_rank` — GSVD's speed/accuracy trade-off across r.
* :func:`ablation_rolesim_matching` — greedy vs exact Hungarian matching.
* :func:`ablation_sampling_strategy` — uniform vs BFS vs forest-fire
  construction of ``G_B``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.accuracy import frobenius_error
from repro.baselines.gsim import gsim
from repro.baselines.gsvd import gsvd
from repro.baselines.rolesim import rolesim
from repro.core.gsim_plus import NUMERICAL_RANK_TOL, gsim_plus
from repro.graphs.graph import Graph
from repro.utils.timing import time_call

__all__ = [
    "AblationRow",
    "ablation_gsvd_rank",
    "ablation_normalization",
    "ablation_query_extraction",
    "ablation_rank_cap",
    "ablation_rolesim_matching",
    "ablation_sampling_strategy",
]


@dataclass(frozen=True)
class AblationRow:
    """One measured variant of a design-choice ablation."""

    variant: str
    seconds: float
    detail: str = ""


def ablation_rank_cap(
    graph_a: Graph, graph_b: Graph, iterations: int = 12
) -> list[AblationRow]:
    """Compare the two rank-cap behaviours and the cut of index builds at
    an iteration count deep enough that ``2^k`` passes ``min(n_A, n_B)``.

    ``dense`` and ``none`` produce the same similarity (exactness); the
    ``numerical-rank`` row cuts every step at ``NUMERICAL_RANK_TOL``, so
    its width is the numerical rank and its drift about ``K * 1e-12``.
    """
    cut = {"rank_cap": "none", "recompress_tol": NUMERICAL_RANK_TOL}
    variants = (("dense", {"rank_cap": "dense"}), ("none", {"rank_cap": "none"}),
                ("numerical-rank", cut))
    reference = None
    rows = []
    for name, options in variants:
        result, seconds = time_call(
            gsim_plus, graph_a, graph_b, iterations=iterations, **options
        )
        if reference is None:
            reference = result.similarity
            drift = 0.0
        else:
            drift = frobenius_error(result.similarity, reference)
        rows.append(
            AblationRow(
                variant=name,
                seconds=seconds,
                detail=f"width={result.final_width} drift={drift:.2e}",
            )
        )
    return rows


def ablation_normalization(
    graph_a: Graph, graph_b: Graph, iterations: int = 8
) -> list[AblationRow]:
    """Block vs global normalisation of the extracted query block.

    Both cost the same asymptotically; the row records the similarity
    drift between the two conventions on a random query workload.
    """
    rng = np.random.default_rng(5)
    queries_a = np.sort(
        rng.choice(graph_a.num_nodes, size=min(32, graph_a.num_nodes), replace=False)
    )
    queries_b = np.sort(
        rng.choice(graph_b.num_nodes, size=min(32, graph_b.num_nodes), replace=False)
    )
    rows = []
    results = {}
    for mode in ("block", "global"):
        result, seconds = time_call(
            gsim_plus,
            graph_a,
            graph_b,
            iterations=iterations,
            queries_a=queries_a,
            queries_b=queries_b,
            normalization=mode,
        )
        results[mode] = result.similarity
        rows.append(AblationRow(variant=mode, seconds=seconds))
    # The two conventions agree up to a positive scalar; record the angle.
    block, global_ = results["block"], results["global"]
    cosine = float(
        np.sum(block * global_)
        / (np.linalg.norm(block) * np.linalg.norm(global_))
    )
    rows.append(
        AblationRow(variant="agreement", seconds=0.0, detail=f"cosine={cosine:.6f}")
    )
    return rows


def ablation_query_extraction(
    graph_a: Graph, graph_b: Graph, iterations: int = 8, query_size: int = 32
) -> list[AblationRow]:
    """Late factored extraction (Algorithm 1) vs full materialisation.

    Demonstrates the |Q_A||Q_B| term in Theorem 4.1 replacing the naive
    n_A n_B one.
    """
    rng = np.random.default_rng(6)
    queries_a = np.sort(
        rng.choice(
            graph_a.num_nodes, size=min(query_size, graph_a.num_nodes), replace=False
        )
    )
    queries_b = np.sort(
        rng.choice(
            graph_b.num_nodes, size=min(query_size, graph_b.num_nodes), replace=False
        )
    )

    def _late() -> np.ndarray:
        return gsim_plus(
            graph_a,
            graph_b,
            iterations=iterations,
            queries_a=queries_a,
            queries_b=queries_b,
        ).similarity

    def _full_then_slice() -> np.ndarray:
        full = gsim(graph_a, graph_b, iterations=iterations).similarity
        block = full[np.ix_(queries_a, queries_b)]
        return block / np.linalg.norm(block)

    late_block, late_seconds = time_call(_late)
    naive_block, naive_seconds = time_call(_full_then_slice)
    drift = frobenius_error(late_block, naive_block)
    return [
        AblationRow("factored-late-extraction", late_seconds, f"drift={drift:.2e}"),
        AblationRow("materialise-then-slice", naive_seconds),
    ]


def ablation_gsvd_rank(
    graph_a: Graph,
    graph_b: Graph,
    iterations: int = 10,
    ranks: tuple[int, ...] = (5, 10, 50),
) -> list[AblationRow]:
    """GSVD's fixed rank r: time and error both rise/fall with r."""
    reference = gsim(graph_a, graph_b, iterations=iterations).similarity
    rows = []
    for rank in ranks:
        result, seconds = time_call(
            gsvd, graph_a, graph_b, iterations=iterations, rank=rank
        )
        error = frobenius_error(result.similarity_matrix(), reference)
        rows.append(
            AblationRow(variant=f"r={rank}", seconds=seconds, detail=f"err={error:.3e}")
        )
    return rows


def ablation_rolesim_matching(
    graph: Graph, iterations: int = 3
) -> list[AblationRow]:
    """Greedy vs exact Hungarian neighbour matching inside RoleSim."""
    rows = []
    results = {}
    for strategy in ("greedy", "exact"):
        result, seconds = time_call(
            rolesim, graph, iterations=iterations, matching=strategy
        )
        results[strategy] = result.similarity
        rows.append(AblationRow(variant=strategy, seconds=seconds))
    gap = float(np.abs(results["greedy"] - results["exact"]).max())
    rows.append(
        AblationRow(variant="max-entry-gap", seconds=0.0, detail=f"{gap:.3e}")
    )
    return rows


def ablation_sampling_strategy(
    graph: Graph, sample_size: int = 64, iterations: int = 6, seed: int = 5
) -> list[AblationRow]:
    """How the G_B sampling strategy shapes the similarity problem.

    The paper samples G_B uniformly; BFS and forest-fire samples keep more
    of the local structure.  Each row reports the sampled subgraph's edge
    retention and the GSim+ run time — structure-preserving samples carry
    more edges, hence denser iterations.
    """
    from repro.graphs.sampling import bfs_sample, forest_fire_sample, random_node_sample

    samplers = [
        ("random-node", random_node_sample),
        ("bfs", bfs_sample),
        ("forest-fire", forest_fire_sample),
    ]
    rows = []
    for name, sampler in samplers:
        subgraph = sampler(graph, sample_size, seed=seed)
        result, seconds = time_call(
            gsim_plus, graph, subgraph, iterations=iterations
        )
        del result
        rows.append(
            AblationRow(
                variant=name,
                seconds=seconds,
                detail=f"sample_edges={subgraph.num_edges}",
            )
        )
    return rows
