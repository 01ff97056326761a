"""Ablation benchmarks for the design choices DESIGN.md §5 calls out."""

from __future__ import annotations

import pytest

from repro.experiments.ablations import (
    ablation_gsvd_rank,
    ablation_normalization,
    ablation_query_extraction,
    ablation_rank_cap,
    ablation_rolesim_matching,
)
from repro.graphs import load_dataset_pair


@pytest.fixture(scope="module")
def pair():
    return load_dataset_pair("HP", scale="tiny", seed=7)


def _print_rows(capsys, title, rows):
    with capsys.disabled():
        print(f"\n{title}")
        for row in rows:
            print(f"  {row.variant:<26} {row.seconds * 1e3:8.2f} ms  {row.detail}")


def test_ablation_rank_cap(benchmark, pair, capsys):
    """Dense fallback vs unbounded width vs the cut at the numerical rank
    at k=12."""
    rows = benchmark.pedantic(
        ablation_rank_cap, args=pair, kwargs={"iterations": 12}, rounds=1, iterations=1
    )
    _print_rows(capsys, "rank-cap ablation", rows)
    assert {r.variant for r in rows} == {"dense", "none", "numerical-rank"}


def test_ablation_normalization(benchmark, pair, capsys):
    """Block vs global normalisation of the extracted query block."""
    rows = benchmark.pedantic(
        ablation_normalization, args=pair, kwargs={"iterations": 8},
        rounds=1, iterations=1,
    )
    _print_rows(capsys, "normalisation ablation", rows)
    cosine = float(rows[-1].detail.split("cosine=")[1])
    assert cosine > 0.999


def test_ablation_query_extraction(benchmark, pair, capsys):
    """Algorithm 1's late factored extraction vs materialise-then-slice."""
    rows = benchmark.pedantic(
        ablation_query_extraction, args=pair,
        kwargs={"iterations": 8, "query_size": 20}, rounds=1, iterations=1,
    )
    _print_rows(capsys, "query-extraction ablation", rows)
    assert len(rows) == 2


def test_ablation_gsvd_rank(benchmark, pair, capsys):
    """GSVD accuracy/time trade-off across its fixed rank r."""
    rows = benchmark.pedantic(
        ablation_gsvd_rank, args=pair,
        kwargs={"iterations": 10, "ranks": (5, 10, 50)}, rounds=1, iterations=1,
    )
    _print_rows(capsys, "GSVD rank ablation", rows)
    errors = [float(r.detail.split("err=")[1]) for r in rows]
    assert errors[-1] <= errors[0] + 1e-9


def test_ablation_rolesim_matching(benchmark, pair, capsys):
    """Greedy vs exact Hungarian matching inside RoleSim (small subgraph)."""
    graph_a, _ = pair
    small = graph_a.subgraph(range(60))
    rows = benchmark.pedantic(
        ablation_rolesim_matching, args=(small,), kwargs={"iterations": 2},
        rounds=1, iterations=1,
    )
    _print_rows(capsys, "RoleSim matching ablation", rows)
    assert rows[0].variant == "greedy"


def test_ablation_sampling_strategy(benchmark, pair, capsys):
    """Uniform vs BFS vs forest-fire G_B sampling (DESIGN.md §5)."""
    from repro.experiments.ablations import ablation_sampling_strategy

    graph_a, _ = pair
    rows = benchmark.pedantic(
        ablation_sampling_strategy, args=(graph_a,),
        kwargs={"sample_size": 60, "iterations": 6}, rounds=1, iterations=1,
    )
    _print_rows(capsys, "G_B sampling ablation", rows)
    assert len(rows) == 3
