"""Algorithm registry and measured-run machinery.

Every experiment driver goes through :func:`run_algorithm`:

1. the instance parameters are fed to the algorithm's Table 1 cost model;
2. the memory/time guards may veto the run (recorded as OOM / TIMEOUT,
   mirroring the paper's crash / did-not-finish outcomes);
3. otherwise the algorithm executes for real under a stopwatch and a
   tracemalloc tracker, and the measurement is recorded.

The :data:`ALGORITHMS` registry holds one :class:`AlgorithmSpec` per
competitor with a uniform call signature
``run(graph_a, graph_b, queries_a, queries_b, iterations, context) ->
ndarray``.  Measured runs execute under one
:class:`repro.runtime.ExecutionContext` per cell — armed wall-clock
deadline, live memory ledger, and a metrics sink whose snapshot is stored
on the resulting :class:`RunRecord`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.baselines.gsim import gsim_partial
from repro.baselines.gsvd import gsvd
from repro.baselines.ned import TreeSizeLimitExceeded, ned_query
from repro.baselines.rolesim import rolesim_query
from repro.baselines.structsim import structsim_query
from repro.core.complexity import InstanceParams, predict_cost
from repro.core.gsim_plus import gsim_plus
from repro.experiments.guards import (
    Deadline,
    DeadlineExceeded,
    MemoryBudget,
    MemoryBudgetExceeded,
)
from repro.graphs.graph import Graph
from repro.runtime import BudgetExceeded, ExecutionContext
from repro.utils.memory import MemoryTracker
from repro.utils.timing import Stopwatch

__all__ = [
    "ALGORITHMS",
    "AlgorithmSpec",
    "CellTask",
    "ExperimentConfig",
    "Outcome",
    "RunRecord",
    "run_algorithm",
    "run_cells",
]

RunFn = Callable[
    [Graph, Graph, np.ndarray, np.ndarray, int, "ExecutionContext | None"],
    np.ndarray,
]


class Outcome(enum.Enum):
    """Terminal state of one experiment cell."""

    OK = "ok"
    OOM = "oom"
    TIMEOUT = "timeout"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered competitor.

    Attributes
    ----------
    name:
        Display name used in figures (matches the paper's labels).
    run:
        Uniform entry point returning the query-block scores.
    cost_model:
        Key into :data:`repro.core.complexity.COST_MODELS`.
    units_per_second:
        Calibration constant converting the model's dominant-term operation
        count into predicted seconds on this hardware.  Vectorised NumPy
        kernels sustain ~1e8 units/s; per-pair Python loops far less.
        Used only by the predictive time gate — measured runs report real
        wall clock.
    working_set_factor:
        Multiplier on the model's space estimate accounting for temporaries
        (e.g. GSim holds S, the updated S, and one product at once).
    """

    name: str
    run: RunFn
    cost_model: str
    units_per_second: float
    working_set_factor: float = 1.0


@dataclass
class RunRecord:
    """Measurement (or vetoed prediction) for one cell of a figure."""

    algorithm: str
    dataset: str
    outcome: Outcome
    seconds: float | None = None
    memory_bytes: float | None = None
    predicted_seconds: float | None = None
    predicted_bytes: float | None = None
    params: dict[str, object] = field(default_factory=dict)
    note: str = ""
    metrics: dict | None = None

    @property
    def ok(self) -> bool:
        """True when the cell executed and was measured."""
        return self.outcome is Outcome.OK


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for a figure/table driver.

    ``context`` is the sweep's :class:`repro.runtime.ExecutionContext`
    (``None`` means :data:`repro.runtime.NULL_CONTEXT`).  Its tracer
    records one ``sweep.run`` root span and, below it, one ``sweep.cell``
    span per cell (attributes: cell key, algorithm, dataset, outcome).
    Each cell runs under a context of its own (armed deadline, fresh
    ledger, fresh metrics for :attr:`RunRecord.metrics`) that borrows the
    sweep context's tracer and slow-query log, so solver spans nest
    inside their cell and retrieval calls land in one slow-query ring.
    Every finished cell's metric snapshot is merged into the sweep
    context's metrics, with the ``sweep.cells`` and ``sweep.errors``
    counters.  The context only observes: results are bit-identical with
    or without it.
    """

    scale: str = "small"
    iterations: int = 10
    seed: int = 7
    memory_budget: MemoryBudget = field(default_factory=MemoryBudget)
    deadline: Deadline = field(default_factory=Deadline)
    precision: str = "float64"
    recompress_tol: float | None = None
    context: ExecutionContext | None = None

    def solver_options(self) -> dict[str, object]:
        """Non-default GSim+ solver knobs, for :func:`run_algorithm`.

        Defaults map to an empty dict, so cell keys of default sweeps
        carry no solver options.
        """
        options: dict[str, object] = {}
        if self.precision != "float64":
            options["precision"] = self.precision
        if self.recompress_tol is not None:
            options["recompress_tol"] = self.recompress_tol
        return options

    # k per profile such that 2^k stays well below the scaled |V_B|
    # (paper regime: 2^10 = 1024 << |V_B| = 10,000).  Past that point
    # GSim+ correctly reverts to dense GSim and the speed gap closes by
    # design, so shape comparisons use the factored regime.
    _SCALE_ITERATIONS = {"tiny": 5, "small": 7, "medium": 9, "paper": 10}

    @classmethod
    def for_scale(cls, scale: str, seed: int = 7, **overrides) -> "ExperimentConfig":
        """Config whose iteration count keeps 2^k below the scaled |V_B|."""
        if scale not in cls._SCALE_ITERATIONS:
            raise KeyError(
                f"unknown scale {scale!r}; choose from {sorted(cls._SCALE_ITERATIONS)}"
            )
        return cls(
            scale=scale,
            iterations=cls._SCALE_ITERATIONS[scale],
            seed=seed,
            **overrides,
        )


# ----------------------------------------------------------------------
# Uniform adapters
# ----------------------------------------------------------------------
def _run_gsim_plus(
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray,
    queries_b: np.ndarray,
    iterations: int,
    context: ExecutionContext | None = None,
    **solver_options,
) -> np.ndarray:
    return gsim_plus(
        graph_a,
        graph_b,
        iterations=iterations,
        queries_a=queries_a,
        queries_b=queries_b,
        context=context,
        **solver_options,
    ).similarity


def _run_gsvd(
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray,
    queries_b: np.ndarray,
    iterations: int,
    context: ExecutionContext | None = None,
    **_solver_options,
) -> np.ndarray:
    result = gsvd(graph_a, graph_b, iterations=iterations, rank=10, context=context)
    return result.query_block(queries_a, queries_b)


def _run_gsim(
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray,
    queries_b: np.ndarray,
    iterations: int,
    context: ExecutionContext | None = None,
    **_solver_options,
) -> np.ndarray:
    return gsim_partial(
        graph_a, graph_b, queries_a, queries_b, iterations=iterations, context=context
    ).similarity


def _run_structsim(
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray,
    queries_b: np.ndarray,
    iterations: int,
    context: ExecutionContext | None = None,
    **_solver_options,
) -> np.ndarray:
    return structsim_query(
        graph_a, graph_b, queries_a, queries_b, levels=iterations, context=context
    )


def _run_ned(
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray,
    queries_b: np.ndarray,
    iterations: int,
    context: ExecutionContext | None = None,
    **_solver_options,
) -> np.ndarray:
    # NED's tree depth plays the role of k; depth 3 already explodes on
    # non-trivial graphs (the point the paper makes), so cap it there and
    # let the cooperative deadline / tree-size limit catch the blow-ups.
    depth = min(iterations, 3)
    return ned_query(
        graph_a, graph_b, queries_a, queries_b, depth=depth,
        size_limit=500_000, context=context,
    )


def _run_rolesim(
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray,
    queries_b: np.ndarray,
    iterations: int,
    context: ExecutionContext | None = None,
    **_solver_options,
) -> np.ndarray:
    # RoleSim converges within a handful of iterations; cap at 3 so the
    # all-pairs loops get a fighting chance on the smallest profile.
    return rolesim_query(
        graph_a, graph_b, queries_a, queries_b,
        iterations=min(iterations, 3), context=context,
    )


ALGORITHMS: dict[str, AlgorithmSpec] = {
    "GSim+": AlgorithmSpec(
        name="GSim+",
        run=_run_gsim_plus,
        cost_model="gsim+",
        units_per_second=2.0e8,
        working_set_factor=2.0,  # U_k plus the doubled U_{k+1}.
    ),
    "GSVD": AlgorithmSpec(
        name="GSVD",
        run=_run_gsvd,
        cost_model="gsvd",
        units_per_second=1.0e8,
        # Table 1 charges GSVD Θ(n_A n_B) space with the same dense working
        # set as GSim — the paper shows both crashing on WT and larger.
        working_set_factor=3.0,
    ),
    "GSim": AlgorithmSpec(
        name="GSim",
        run=_run_gsim,
        cost_model="gsim",
        units_per_second=2.0e8,
        working_set_factor=3.0,  # S, the update, and one product temporary.
    ),
    "SS-BC*": AlgorithmSpec(
        name="SS-BC*",
        run=_run_structsim,
        cost_model="ss-bc",
        units_per_second=3.0e6,
        working_set_factor=1.0,
    ),
    "NED": AlgorithmSpec(
        name="NED",
        run=_run_ned,
        cost_model="ned",
        units_per_second=4.0e7,
        working_set_factor=1.0,
    ),
    "RSim": AlgorithmSpec(
        name="RSim",
        run=_run_rolesim,
        cost_model="rsim",
        units_per_second=1.0e6,
        working_set_factor=2.0,  # previous + updated all-pairs matrices.
    ),
}


def instance_params(
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray,
    queries_b: np.ndarray,
    iterations: int,
) -> InstanceParams:
    """Collect the Table 1 model inputs for one instance."""
    combined_nodes = graph_a.num_nodes + graph_b.num_nodes
    combined_edges = graph_a.num_edges + graph_b.num_edges
    d_avg = max(1.0, combined_edges / max(combined_nodes, 1))
    d_max = max(graph_a.max_degree(), graph_b.max_degree(), 1)
    # NED's L (average nodes per tree level) grows like d_avg^level; use
    # the level-2 width as the representative L the cubic term sees.
    tree_level_width = max(2.0, d_avg**2)
    return InstanceParams(
        n_a=graph_a.num_nodes,
        n_b=graph_b.num_nodes,
        m_a=graph_a.num_edges,
        m_b=graph_b.num_edges,
        q_a=int(queries_a.size),
        q_b=int(queries_b.size),
        iterations=iterations,
        d_avg=d_avg,
        d_max=int(d_max),
        tree_level_width=tree_level_width,
    )


def cell_key(algorithm: str, dataset: str, params: dict[str, object]) -> str:
    """The canonical identity of one sweep cell: the ``cell`` attribute
    of its ``sweep.cell`` span.

    Folds in every instance parameter the runner records (graph sizes,
    query sizes, iteration count), so sweeping any axis — k, |V_B|, |Q|
    — yields distinct keys while a re-run of the same sweep maps onto
    the same ones.
    """
    rendered = ",".join(f"{key}={params[key]}" for key in sorted(params))
    return f"{algorithm}|{dataset}|{rendered}"


def run_algorithm(
    spec: AlgorithmSpec,
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray,
    queries_b: np.ndarray,
    iterations: int,
    memory_budget: MemoryBudget | None = None,
    deadline: Deadline | None = None,
    dataset: str = "",
    context: ExecutionContext | None = None,
    solver_options: dict[str, object] | None = None,
) -> RunRecord:
    """Gate, execute, and measure one experiment cell.

    ``solver_options`` carries non-default solver knobs (currently
    GSim+'s ``precision`` / ``recompress_tol``); they are recorded in the
    cell's params and key.

    Never raises for resource vetoes — those come back as OOM/TIMEOUT
    records, exactly like the crossed-out cells in the paper's figures.
    Attempted cells run under an :class:`repro.runtime.ExecutionContext`
    carrying the armed deadline and a live memory ledger, and under a
    tracemalloc tracker whose peak is the cell's memory; the context's
    metric snapshot (including partial metrics from interrupted runs) is
    stored on the record.  Any other exception propagates.

    ``context`` is the sweep's context (see :class:`ExperimentConfig`).
    The cell runs inside one ``sweep.cell`` span on its tracer
    (attributes: cell key, algorithm, dataset, outcome).  The finished
    cell's metric snapshot is merged into ``context.metrics`` and counted
    in ``sweep.cells``; a cell with an ``ERROR`` outcome is also counted
    in ``sweep.errors``.
    """
    memory_budget = memory_budget or MemoryBudget()
    deadline = deadline or Deadline()
    dataset = dataset or graph_a.name
    context = ExecutionContext.resolve(context)
    params = instance_params(graph_a, graph_b, queries_a, queries_b, iterations)
    record_params: dict[str, object] = {
        "n_a": params.n_a,
        "n_b": params.n_b,
        "m_a": params.m_a,
        "m_b": params.m_b,
        "q_a": params.q_a,
        "q_b": params.q_b,
        "k": iterations,
    }
    if solver_options:
        record_params.update(solver_options)
    with context.tracer.span("sweep.cell") as cell_span:
        cell_span.set_attribute("cell", cell_key(spec.name, dataset, record_params))
        cell_span.set_attribute("algorithm", spec.name)
        cell_span.set_attribute("dataset", dataset)
        record = _execute_cell(
            spec, graph_a, graph_b, queries_a, queries_b, iterations,
            memory_budget, deadline, dataset, params, record_params,
            context, solver_options=solver_options,
        )
        cell_span.set_attribute("outcome", record.outcome.value)
        if record.metrics:
            context.metrics.merge_snapshot(record.metrics)
        context.metrics.increment("sweep.cells")
        if record.outcome is Outcome.ERROR:
            context.metrics.increment("sweep.errors")
        return record


def _execute_cell(
    spec: AlgorithmSpec,
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray,
    queries_b: np.ndarray,
    iterations: int,
    memory_budget: MemoryBudget,
    deadline: Deadline,
    dataset: str,
    params: InstanceParams,
    record_params: dict[str, object],
    sweep: ExecutionContext,
    solver_options: dict[str, object] | None = None,
) -> RunRecord:
    """One gated, measured cell (structured vetoes become records)."""
    solver_options = solver_options or {}
    time_units, space_bytes = predict_cost(spec.cost_model, params)
    predicted_seconds = time_units / spec.units_per_second
    predicted_bytes = space_bytes * spec.working_set_factor
    record = RunRecord(
        algorithm=spec.name,
        dataset=dataset,
        outcome=Outcome.OK,
        predicted_seconds=predicted_seconds,
        predicted_bytes=predicted_bytes,
        params=dict(record_params),
    )
    try:
        memory_budget.check(predicted_bytes, spec.name)
        deadline.check_predicted(predicted_seconds, spec.name)
    except MemoryBudgetExceeded as exc:
        record.outcome = Outcome.OOM
        record.note = str(exc)
        return record
    except DeadlineExceeded as exc:
        record.outcome = Outcome.TIMEOUT
        record.note = str(exc)
        return record

    stopwatch = Stopwatch()
    context = ExecutionContext(
        deadline=deadline.arm(), memory=memory_budget.ledger(),
        tracer=sweep.tracer, slow_queries=sweep.slow_queries,
    )
    try:
        with MemoryTracker() as tracker:
            with stopwatch:
                spec.run(
                    graph_a, graph_b, queries_a, queries_b, iterations,
                    context, **solver_options,
                )
    except DeadlineExceeded as exc:
        record.outcome = Outcome.TIMEOUT
        record.note = str(exc)
        record.metrics = exc.metrics or context.snapshot()
        return record
    except MemoryBudgetExceeded as exc:
        # The live ledger caught a working set the predictive model missed
        # (e.g. GSim+'s dense rank-cap fallback).
        record.outcome = Outcome.OOM
        record.note = str(exc)
        record.metrics = exc.metrics or context.snapshot()
        return record
    except TreeSizeLimitExceeded as exc:
        # NED's k-adjacent trees blew past their cap — the paper reports
        # this as NED being "unresponsive".
        record.outcome = Outcome.TIMEOUT
        record.note = str(exc)
        record.metrics = context.snapshot()
        return record
    except BudgetExceeded as exc:
        # Remaining structured interruptions (e.g. cancellation).
        record.outcome = Outcome.ERROR
        record.note = str(exc)
        record.metrics = exc.metrics or context.snapshot()
        return record
    except MemoryError as exc:  # pragma: no cover - defensive
        record.outcome = Outcome.OOM
        record.note = str(exc)
        record.metrics = context.snapshot()
        return record
    except ZeroDivisionError as exc:
        # Degenerate instance (e.g. an edgeless G_B sample): the similarity
        # iterate collapsed.  Record rather than crash the whole figure.
        record.outcome = Outcome.ERROR
        record.note = str(exc)
        record.metrics = context.snapshot()
        return record
    record.seconds = stopwatch.elapsed
    record.memory_bytes = float(tracker.peak_bytes)
    record.metrics = context.snapshot()
    return record


@dataclass(frozen=True)
class CellTask:
    """One independent cell of a sweep, ready to hand to :func:`run_cells`."""

    spec: AlgorithmSpec
    graph_a: Graph
    graph_b: Graph
    queries_a: np.ndarray
    queries_b: np.ndarray
    iterations: int
    dataset: str = ""


def run_cells(
    tasks: "list[CellTask]", config: ExperimentConfig
) -> list[RunRecord]:
    """Run a sweep's cells one after another, in task order.

    Each cell goes through :func:`run_algorithm` under one ``sweep.run``
    span on ``config.context``'s tracer.  Cells run serially because
    tracemalloc is process-global: each cell's peak is its own only when
    no other cell allocates beside it.
    """
    context = ExecutionContext.resolve(config.context)
    # Precision / recompression are GSim+ knobs; baseline cells keep
    # their default keys (and behaviour) in mixed sweeps.
    solver_options = config.solver_options()
    with context.tracer.span("sweep.run") as root:
        root.set_attribute("cells", len(tasks))
        return [
            run_algorithm(
                task.spec,
                task.graph_a,
                task.graph_b,
                task.queries_a,
                task.queries_b,
                task.iterations,
                memory_budget=config.memory_budget,
                deadline=config.deadline,
                dataset=task.dataset,
                context=context,
                solver_options=solver_options if task.spec.name == "GSim+" else None,
            )
            for task in tasks
        ]
