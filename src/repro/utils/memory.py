"""Memory accounting utilities.

Three complementary mechanisms are provided:

* :class:`MemoryTracker` — measures *actual* peak Python allocations using
  :mod:`tracemalloc`, used when reporting the memory figures (Figs 6-8).
* :func:`dense_matrix_bytes` — an *analytic* model of what a dense
  ``n_A x n_B`` similarity matrix would cost; the experiment guards use it
  to predict the out-of-memory crashes the paper reports for GSim/GSVD on
  large graphs without actually exhausting this machine's RAM.
* :func:`resident_nbytes` — what an array actually costs in RAM *right
  now*.  A heap array costs its ``nbytes``; a memory-mapped array costs
  only its resident pages (probed with ``mincore`` where available,
  bounded by :data:`RESIDENT_WINDOW_BYTES` otherwise).  The memory
  ledger charges this instead of ``arr.nbytes`` so an out-of-core run
  over a 100 GiB mapped graph is not billed 100 GiB of phantom RAM.
"""

from __future__ import annotations

import ctypes
import mmap as _mmap_module
import tracemalloc
from typing import Any

import numpy as np

__all__ = [
    "MemoryTracker",
    "RESIDENT_WINDOW_BYTES",
    "dense_matrix_bytes",
    "format_bytes",
    "resident_estimate",
    "resident_nbytes",
]

_FLOAT64_BYTES = 8

# Fallback working-set assumption for a memory-mapped array whose resident
# pages cannot be probed: the kernel keeps roughly one streaming window of
# hot pages per mapping, not the whole file.  64 MiB is deliberately
# generous — real streaming scans (blocked SpMM, top-k row blocks) touch
# far less at a time.
RESIDENT_WINDOW_BYTES = 64 * 1024 * 1024


def _is_file_backed(array: Any) -> bool:
    """Whether ``array``'s buffer ultimately lives in a file mapping.

    ``np.memmap`` arrays advertise themselves, but most views lose the
    subclass (``np.asarray`` of a memmap is a plain ``ndarray``), so the
    ``base`` chain is walked down to the owning object as well.
    """
    seen = array
    while seen is not None:
        if isinstance(seen, (np.memmap, _mmap_module.mmap)):
            return True
        seen = getattr(seen, "base", None)
    return False


def _mincore_resident(array: np.ndarray) -> int | None:
    """Resident bytes of a mapped array via ``mincore(2)``; None if unknown.

    The probe is best-effort: any platform where ``mincore`` is missing or
    rejects the (page-aligned) range simply reports ``None`` and the
    caller falls back to the bounded window estimate.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        mincore = libc.mincore
    except (OSError, AttributeError):  # pragma: no cover - non-glibc hosts
        return None
    nbytes = int(array.nbytes)
    if nbytes == 0:
        return 0
    page = _mmap_module.PAGESIZE
    address = array.ctypes.data
    start = address - (address % page)
    length = nbytes + (address - start)
    pages = (length + page - 1) // page
    vec = (ctypes.c_ubyte * pages)()
    mincore.argtypes = (
        ctypes.c_void_p,
        ctypes.c_size_t,
        ctypes.POINTER(ctypes.c_ubyte),
    )
    mincore.restype = ctypes.c_int
    if mincore(ctypes.c_void_p(start), ctypes.c_size_t(length), vec) != 0:
        return None
    resident_pages = sum(1 for flag in vec if flag & 1)
    return min(resident_pages * page, nbytes)


def resident_nbytes(array: np.ndarray) -> int:
    """Bytes of RAM ``array`` actually occupies.

    * heap-backed arrays: ``array.nbytes`` — unchanged from the historical
      ledger charge;
    * file-backed (memory-mapped) arrays: the resident page count from
      ``mincore``, falling back to
      ``min(nbytes, RESIDENT_WINDOW_BYTES)`` when the probe is
      unavailable.  Either way the charge can never exceed ``nbytes``.
    """
    array = np.asarray(array)
    if not _is_file_backed(array):
        return int(array.nbytes)
    probed = _mincore_resident(array)
    if probed is not None:
        return probed
    return resident_estimate(int(array.nbytes))  # pragma: no cover


def resident_estimate(num_bytes: int) -> int:
    """Planning estimate for an out-of-core array of ``num_bytes``.

    Used to charge the ledger *before* a mapped working set exists (the
    ledger contract is charge-before-allocate): the cost is capped at one
    streaming window, matching what a blocked scan keeps hot.
    """
    if num_bytes < 0:
        raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
    return min(int(num_bytes), RESIDENT_WINDOW_BYTES)


def dense_matrix_bytes(rows: int, cols: int, itemsize: int = _FLOAT64_BYTES) -> int:
    """Bytes needed to materialise a dense ``rows x cols`` matrix.

    This is the analytic cost model behind the paper's observation that
    GSim and GSVD "crash" on graphs where ``n_A * n_B`` exceeds memory.
    """
    if rows < 0 or cols < 0:
        raise ValueError(f"matrix dimensions must be non-negative, got {rows}x{cols}")
    return rows * cols * itemsize


def format_bytes(num_bytes: float) -> str:
    """Render a byte count using binary units, e.g. ``format_bytes(2048)``
    -> ``'2.0 KiB'``."""
    if num_bytes < 0:
        return "-" + format_bytes(-num_bytes)
    value = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


class MemoryTracker:
    """Context manager measuring peak traced allocations within its block.

    Nested use is supported: the tracker snapshots the current traced size
    on entry and reports the peak *delta* observed while the block runs.

    Examples
    --------
    >>> import numpy as np
    >>> with MemoryTracker() as tracker:
    ...     block = np.ones((128, 128))
    >>> tracker.peak_bytes > 0
    True
    """

    def __init__(self) -> None:
        self.peak_bytes: int = 0
        self._baseline: int = 0
        self._started_tracemalloc = False

    def __enter__(self) -> "MemoryTracker":
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        self._baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        _, peak = tracemalloc.get_traced_memory()
        self.peak_bytes = max(0, peak - self._baseline)
        if self._started_tracemalloc:
            tracemalloc.stop()
