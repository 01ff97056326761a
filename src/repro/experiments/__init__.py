"""Experiment harness regenerating every figure and table of the paper.

* :mod:`repro.experiments.guards` — resource guards turning the paper's
  "crashed" / "did not finish within one day" outcomes into deterministic,
  recorded events.
* :mod:`repro.experiments.runner` — the algorithm registry and the
  measured-run machinery shared by all drivers.
* :mod:`repro.experiments.figures` — drivers for Figures 2-8.
* :mod:`repro.experiments.tables` — the §5.2.3 accuracy table.
* :mod:`repro.experiments.ablations` — design-choice ablations from
  DESIGN.md §5.
* :mod:`repro.experiments.report` — plain-text rendering of result tables.
"""

from repro.experiments.guards import (
    Deadline,
    DeadlineExceeded,
    MemoryBudget,
    MemoryBudgetExceeded,
)
from repro.experiments.report import render_records, render_table
from repro.experiments.runner import (
    ALGORITHMS,
    AlgorithmSpec,
    ExperimentConfig,
    Outcome,
    RunRecord,
    cell_key,
    run_algorithm,
)

__all__ = [
    "ALGORITHMS",
    "AlgorithmSpec",
    "Deadline",
    "DeadlineExceeded",
    "ExperimentConfig",
    "MemoryBudget",
    "MemoryBudgetExceeded",
    "Outcome",
    "RunRecord",
    "cell_key",
    "render_records",
    "render_table",
    "run_algorithm",
]
