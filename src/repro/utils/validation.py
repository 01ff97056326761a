"""Argument validation helpers shared across the library.

They raise early with actionable messages instead of letting NumPy or SciPy
fail deep inside a kernel.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_integer",
    "check_nonnegative_integer",
    "check_positive_integer",
    "check_probability",
    "resolve_node_index",
]


def check_integer(value: object, name: str) -> int:
    """Validate ``value`` is an integer (Python or NumPy) and return it as int."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got bool")
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    return int(value)


def check_nonnegative_integer(value: object, name: str) -> int:
    """Validate ``value`` is an integer >= 0 and return it."""
    result = check_integer(value, name)
    if result < 0:
        raise ValueError(f"{name} must be >= 0, got {result}")
    return result


def check_positive_integer(value: object, name: str) -> int:
    """Validate ``value`` is an integer >= 1 and return it."""
    result = check_integer(value, name)
    if result < 1:
        raise ValueError(f"{name} must be >= 1, got {result}")
    return result


def resolve_node_index(
    index: object,
    size: int,
    name: str,
    *,
    full_if_none: bool = False,
    allow_empty: bool = False,
    allow_duplicates: bool = False,
    bounds_error: type[Exception] = IndexError,
) -> np.ndarray:
    """Validate a node-index selection and return it as an int64 array.

    The one bounds/duplicate check shared by the query resolvers
    (``GSimPlus``, top-k retrieval), ``Graph.subgraph``, and the factored
    ``query_block`` path.  Ids must be integers (integral floats are
    accepted): bool, string, object and fractional ids raise
    ``TypeError`` rather than being cast.

    Parameters
    ----------
    index:
        The candidate selection (sequence of ints, ndarray, or ``None``).
    size:
        Number of nodes the ids must index into (valid range ``0..size-1``).
    name:
        Parameter name used in error messages.
    full_if_none:
        When true, ``None`` resolves to ``arange(size)`` ("all nodes").
    allow_empty:
        Whether an empty selection is acceptable.
    allow_duplicates:
        Whether repeated ids are acceptable (e.g. repeated query rows).
    bounds_error:
        Exception type for out-of-range ids — ``IndexError`` by default;
        ``Graph.subgraph`` historically raises ``ValueError``.

    Examples
    --------
    >>> resolve_node_index([2, 0], 3, "queries")
    array([2, 0])
    >>> resolve_node_index(None, 3, "queries", full_if_none=True)
    array([0, 1, 2])
    """
    if index is None:
        if full_if_none:
            return np.arange(size, dtype=np.int64)
        raise ValueError(f"{name} must not be None")
    raw = np.asarray(index)
    # Integral floats pass: an empty list arrives as float64.
    integral = raw.dtype.kind in "iu" or (
        raw.dtype.kind == "f"
        and bool(np.all(np.isfinite(raw) & (raw == np.floor(raw))))
    )
    if not integral:
        raise TypeError(
            f"{name} must hold integer node ids, got {raw.dtype.name} values"
        )
    resolved = raw.astype(np.int64, copy=False)
    if resolved.ndim != 1:
        raise ValueError(f"{name} must be a non-empty 1-D index array")
    if resolved.size == 0:
        if not allow_empty:
            raise ValueError(f"{name} must be a non-empty 1-D index array")
        return resolved
    if resolved.min() < 0 or resolved.max() >= size:
        raise bounds_error(f"{name} out of range (valid node ids: 0..{size - 1})")
    if not allow_duplicates and np.unique(resolved).size != resolved.size:
        raise ValueError(f"{name} contains duplicates")
    return resolved


def check_probability(value: object, name: str) -> float:
    """Validate ``value`` lies in [0, 1] and return it as float."""
    if not isinstance(value, (int, float, np.floating, np.integer)) or isinstance(
        value, bool
    ):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    result = float(value)
    if not 0.0 <= result <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {result}")
    return result
