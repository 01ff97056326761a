"""Core contribution: the GSim+ algorithm and its supporting algebra.

Public surface:

* :class:`repro.core.embeddings.LowRankFactors` — exact outer-product
  representation ``Z = s * U @ V.T`` with its factored norm, query
  blocks and recompression.
* :func:`repro.core.gsim_plus.gsim_plus` — Algorithm 1 from the paper.
* :class:`repro.core.gsim_plus.GSimPlus` — reusable solver object exposing
  per-iteration state (used by the convergence and accuracy experiments).
* :func:`repro.core.error_bound.error_bound` — Theorem 4.2.
* :mod:`repro.core.complexity` — Table 1 cost models.
"""

from repro.core.complexity import COST_MODELS, CostModel, predict_cost
from repro.core.convergence import ConvergenceReport, iterate_to_convergence
from repro.core.embeddings import LowRankFactors, TruncationInfo
from repro.core.error_bound import (
    error_bound,
    exact_similarity_spectral,
    kronecker_similarity_matrix,
    spectral_gap,
)
from repro.core.gsim_plus import GSimPlus, GSimPlusResult, gsim_plus
from repro.core.topk import ScoredPair, top_k_for_queries, top_k_pairs

__all__ = [
    "COST_MODELS",
    "ConvergenceReport",
    "CostModel",
    "GSimPlus",
    "GSimPlusResult",
    "LowRankFactors",
    "ScoredPair",
    "TruncationInfo",
    "error_bound",
    "exact_similarity_spectral",
    "gsim_plus",
    "iterate_to_convergence",
    "kronecker_similarity_matrix",
    "predict_cost",
    "spectral_gap",
    "top_k_for_queries",
    "top_k_pairs",
]
