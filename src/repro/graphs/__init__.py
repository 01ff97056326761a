"""Graph substrate: representation, IO, synthetic generators, sampling.

The similarity algorithms in :mod:`repro.core` and :mod:`repro.baselines`
operate on :class:`repro.graphs.Graph`, an immutable directed graph backed
by a ``scipy.sparse.csr_matrix`` adjacency.
"""

from repro.graphs.algorithms import degree_statistics
from repro.graphs.datasets import DATASETS, DatasetSpec, load_dataset, load_dataset_pair
from repro.graphs.generators import (
    barabasi_albert_graph,
    chung_lu_graph,
    directed_block_graph,
    erdos_renyi_graph,
    rmat_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.io import (
    read_edge_list,
    read_edge_list_text,
    write_edge_list,
)
from repro.graphs.sampling import (
    bfs_sample,
    forest_fire_sample,
    random_node_sample,
)
from repro.graphs.mmap_csr import MmapCSRGraph, convert_edge_list

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "Graph",
    "MmapCSRGraph",
    "barabasi_albert_graph",
    "bfs_sample",
    "chung_lu_graph",
    "convert_edge_list",
    "degree_statistics",
    "directed_block_graph",
    "erdos_renyi_graph",
    "forest_fire_sample",
    "load_dataset",
    "load_dataset_pair",
    "random_node_sample",
    "read_edge_list",
    "read_edge_list_text",
    "rmat_graph",
    "write_edge_list",
]
