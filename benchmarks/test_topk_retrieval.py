"""Benchmarks for the top-k retrieval extension.

Not a paper figure: these quantify the retrieval primitive the paper's
title implies — serving rankings from the precomputed factors versus
materialising the dense similarity and sorting it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.gsim import gsim
from repro.core import top_k_for_queries, top_k_pairs
from repro.core.topk import _factors_for
from repro.graphs import load_dataset_pair


@pytest.fixture(scope="module")
def pair():
    return load_dataset_pair("EE", scale="tiny", seed=7)


def test_topk_pairs_factored(benchmark, pair):
    """Global top-10 pairs from the factored representation."""
    graph_a, graph_b = pair
    result = benchmark(top_k_pairs, graph_a, graph_b, 10, 6)
    assert len(result) == 10


def test_topk_dense_contrast(benchmark, pair):
    """The dense alternative: full GSim matrix, then argsort."""
    graph_a, graph_b = pair

    def dense_topk():
        full = gsim(graph_a, graph_b, iterations=6).similarity
        order = np.argsort(full, axis=None)[::-1][:10]
        return [divmod(int(i), graph_b.num_nodes) for i in order]

    result = benchmark(dense_topk)
    assert len(result) == 10


def test_per_query_retrieval(benchmark, pair):
    """Per-node rankings for 20 query nodes."""
    graph_a, graph_b = pair
    queries = list(range(20))
    result = benchmark(top_k_for_queries, graph_a, graph_b, queries, 5, 6)
    assert len(result) == 20


def test_query_block_from_prebuilt_factors(benchmark, pair):
    """Serving a 50x50 block from already-built factors (the index case)."""
    graph_a, graph_b = pair
    factors = _factors_for(graph_a, graph_b, 6)  # cut at the numerical rank
    rows = np.arange(50)
    cols = np.arange(min(50, graph_b.num_nodes))

    block = benchmark(factors.query_block, rows, cols)
    assert block.shape == (rows.size, cols.size)
