"""Accuracy, alignment and spectral analysis utilities."""

from repro.analysis.accuracy import frobenius_error
from repro.analysis.matching import Alignment, alignment_accuracy, best_alignment
from repro.analysis.spectral import convergence_rate

__all__ = [
    "Alignment",
    "alignment_accuracy",
    "best_alignment",
    "convergence_rate",
    "frobenius_error",
]
