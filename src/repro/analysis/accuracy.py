"""Error metrics used by the §5.2.3 accuracy experiment."""

from __future__ import annotations

import numpy as np

__all__ = ["frobenius_error"]


def frobenius_error(estimate: np.ndarray, reference: np.ndarray) -> float:
    """``||estimate - reference||_F`` — the paper's accuracy metric."""
    if estimate.shape != reference.shape:
        raise ValueError(
            f"shape mismatch: estimate {estimate.shape} vs reference {reference.shape}"
        )
    return float(np.linalg.norm(estimate - reference))
