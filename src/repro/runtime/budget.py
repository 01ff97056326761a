"""Deadlines and memory budgets — policies and their armed/live forms.

Two layers per resource:

* an immutable *policy* (:class:`Deadline`, :class:`MemoryBudget`) that an
  experiment config or serving tier declares once, offering *predictive*
  checks against cost-model estimates; and
* a mutable *enforcement object* created per run — :meth:`Deadline.arm`
  yields a :class:`WallClockDeadline` anchored at the current instant,
  :meth:`MemoryBudget.ledger` yields a :class:`MemoryLedger` doing live
  charge/release accounting.

Compute loops never see the policies: an
:class:`repro.runtime.context.ExecutionContext` carries the armed forms
and the loops poll it at checkpoints.  Predictive gating (the experiment
harness's OOM/TIMEOUT substitution) and in-loop enforcement therefore
share this one implementation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.runtime.errors import DeadlineExceeded, MemoryBudgetExceeded
from repro.utils.memory import format_bytes

__all__ = [
    "Deadline",
    "MemoryBudget",
    "MemoryLedger",
    "WallClockDeadline",
]


class WallClockDeadline:
    """A cooperative deadline anchored at construction time.

    Python cannot preempt a running computation, so long-running loops
    call :meth:`check` at natural checkpoints — between iterations, pairs,
    or row blocks.  Exceeding the deadline raises
    :class:`repro.runtime.errors.DeadlineExceeded`.

    Examples
    --------
    >>> deadline = WallClockDeadline(60.0)
    >>> deadline.check("warm-up")  # no-op while within budget
    >>> deadline.expired
    False
    """

    __slots__ = ("limit_seconds", "_start")

    def __init__(self, limit_seconds: float) -> None:
        if limit_seconds <= 0:
            raise ValueError(f"limit_seconds must be positive, got {limit_seconds}")
        self.limit_seconds = float(limit_seconds)
        self._start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        """Seconds since the deadline was armed."""
        return time.perf_counter() - self._start

    @property
    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.limit_seconds - self.elapsed

    @property
    def expired(self) -> bool:
        """Whether the budget has run out."""
        return self.remaining < 0.0

    def check(self, what: str = "computation") -> None:
        """Raise :class:`DeadlineExceeded` once the budget is exhausted."""
        if self.expired:
            raise DeadlineExceeded(
                f"{what} exceeded its {self.limit_seconds:.1f}s wall-clock budget"
            )


class MemoryLedger:
    """Live byte accounting against a hard ceiling.

    Compute loops :meth:`charge` a working set *before* allocating it and
    :meth:`release` it when done; a charge that would push the held total
    past ``limit_bytes`` raises
    :class:`repro.runtime.errors.MemoryBudgetExceeded` without the
    allocation ever happening.  All methods are thread-safe.

    Examples
    --------
    >>> ledger = MemoryLedger(1024)
    >>> ledger.charge(512, "factors")
    >>> ledger.held_bytes, ledger.peak_bytes
    (512, 512)
    >>> ledger.release(512)
    >>> ledger.held_bytes
    0
    """

    __slots__ = ("limit_bytes", "_lock", "_held", "_peak")

    def __init__(self, limit_bytes: int) -> None:
        limit_bytes = int(limit_bytes)
        if limit_bytes <= 0:
            raise ValueError(f"limit_bytes must be positive, got {limit_bytes}")
        self.limit_bytes = limit_bytes
        self._lock = threading.Lock()
        self._held = 0
        self._peak = 0

    @property
    def held_bytes(self) -> int:
        """Bytes currently charged."""
        with self._lock:
            return self._held

    @property
    def peak_bytes(self) -> int:
        """Highest held total observed so far."""
        with self._lock:
            return self._peak

    def charge(self, num_bytes: float, what: str = "allocation") -> None:
        """Account ``num_bytes`` held; raise when the ceiling is pierced."""
        amount = int(num_bytes)
        if amount < 0:
            raise ValueError(f"cannot charge a negative amount ({amount})")
        with self._lock:
            if self._held + amount > self.limit_bytes:
                raise MemoryBudgetExceeded(
                    f"{what}: holding {format_bytes(self._held)} + "
                    f"{format_bytes(amount)} exceeds budget "
                    f"{format_bytes(self.limit_bytes)}"
                )
            self._held += amount
            if self._held > self._peak:
                self._peak = self._held

    def release(self, num_bytes: float) -> None:
        """Return ``num_bytes`` to the budget (clamped at zero held)."""
        amount = int(num_bytes)
        if amount < 0:
            raise ValueError(f"cannot release a negative amount ({amount})")
        with self._lock:
            self._held = max(0, self._held - amount)


@dataclass(frozen=True)
class MemoryBudget:
    """A byte ceiling for one run or experiment cell.

    The default of 256 MiB is calibrated so that, on the ``small`` scale
    profile, the dense baselines survive the scaled HP and EE datasets but
    crash on WT/UK/IT — the same survival pattern as the paper's Figure 6
    at full scale (where the wall sits between EE's 21 GB and WT's 192 GB
    dense similarity matrix).
    """

    limit_bytes: int = 256 * 1024 * 1024

    def check(self, predicted_bytes: float, what: str) -> None:
        """Raise :class:`MemoryBudgetExceeded` when over budget."""
        if predicted_bytes > self.limit_bytes:
            raise MemoryBudgetExceeded(
                f"{what}: predicted {format_bytes(predicted_bytes)} exceeds "
                f"budget {format_bytes(self.limit_bytes)}"
            )

    def ledger(self) -> MemoryLedger:
        """Open a live :class:`MemoryLedger` against this ceiling."""
        return MemoryLedger(self.limit_bytes)


@dataclass(frozen=True)
class Deadline:
    """A wall-clock ceiling for one run or experiment cell.

    ``limit_seconds`` plays the role of the paper's "one day"; the default
    of 20 s keeps full figure regeneration to minutes on this hardware
    while preserving which algorithms do and do not finish.

    Enforcement is two-stage.  The *predictive* stage
    (:meth:`check_predicted`) vetoes a run outright only when the cost
    model predicts at least ``predictive_factor`` times the budget —
    cost models are worst-case, so borderline cells still get attempted.
    Attempted cells run under a cooperative :class:`WallClockDeadline`
    armed via :meth:`arm`, which stops them at the real limit.
    """

    limit_seconds: float = 20.0
    predictive_factor: float = 30.0

    def check_predicted(self, predicted_seconds: float, what: str) -> None:
        """Raise :class:`DeadlineExceeded` for clearly hopeless cells."""
        ceiling = self.limit_seconds * self.predictive_factor
        if predicted_seconds > ceiling:
            raise DeadlineExceeded(
                f"{what}: predicted {predicted_seconds:.1f}s exceeds "
                f"{ceiling:.0f}s ({self.predictive_factor:.0f}x the "
                f"{self.limit_seconds:.1f}s budget)"
            )

    def arm(self) -> WallClockDeadline:
        """Start a cooperative wall-clock deadline for one run."""
        return WallClockDeadline(self.limit_seconds)
