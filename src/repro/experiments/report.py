"""Plain-text rendering of experiment results.

The paper presents its evaluation as log-scale line plots; in a terminal
library the equivalent deliverable is an aligned table whose rows are the
plot series.  ``render_records`` pivots a list of
:class:`repro.experiments.runner.RunRecord` into such a table, showing
measured seconds / memory for OK cells and ``OOM`` / ``>1day`` markers for
vetoed ones — the textual twin of the paper's missing data points.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.experiments.runner import Outcome, RunRecord
from repro.utils.memory import format_bytes

__all__ = ["render_records", "render_table"]

_FAIL_LABELS = {
    Outcome.OOM: "OOM",
    Outcome.TIMEOUT: ">1day",
    Outcome.ERROR: "ERR",
}


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence[str]], title: str = ""
) -> str:
    """Render an aligned monospace table.

    >>> print(render_table(["k", "time"], [["2", "12ms"], ["10", "35ms"]]))
    k  | time
    ---+-----
    2  | 12ms
    10 | 35ms
    """
    materialised = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in materialised:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _format_seconds(value: float) -> str:
    if value < 1e-3:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def _cell(record: RunRecord, metric: str) -> str:
    if record.outcome is not Outcome.OK:
        return _FAIL_LABELS[record.outcome]
    if metric == "time":
        assert record.seconds is not None
        return _format_seconds(record.seconds)
    if metric == "memory":
        assert record.memory_bytes is not None
        return format_bytes(record.memory_bytes)
    raise ValueError(f"unknown metric {metric!r}")


def render_records(
    records: Iterable[RunRecord],
    column_key: str = "dataset",
    metric: str = "time",
    title: str = "",
) -> str:
    """Pivot records into an ``algorithm x column_key`` table.

    Parameters
    ----------
    column_key:
        ``"dataset"`` or the name of an entry in ``record.params`` (e.g.
        ``"k"``, ``"n_b"``, ``"q_a"``) to use as the sweep axis.
    metric:
        ``"time"`` or ``"memory"``.
    """
    record_list = list(records)
    algorithms: list[str] = []
    columns: list[str] = []
    cells: dict[tuple[str, str], str] = {}
    for record in record_list:
        if column_key == "dataset":
            column = record.dataset
        else:
            column = str(record.params.get(column_key, "?"))
        if record.algorithm not in algorithms:
            algorithms.append(record.algorithm)
        if column not in columns:
            columns.append(column)
        cells[(record.algorithm, column)] = _cell(record, metric)
    headers = ["algorithm"] + columns
    rows = [
        [name] + [cells.get((name, column), "-") for column in columns]
        for name in algorithms
    ]
    return render_table(headers, rows, title=title)
