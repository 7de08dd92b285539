"""Experiment-harness utilities shared by the benchmark scripts.

Benchmarks print the same rows/series the paper's tables and figures
report; :class:`ResultTable` renders them as aligned plain text (and
markdown for EXPERIMENTS.md), :class:`Timer` measures wall-clock query
times for the Appendix B.2 experiments, and :func:`time_knn_batch` runs a
query workload through :func:`repro.core.batch.knn_batch` under the
timer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.errors import InvalidParameterError


@dataclass
class ResultTable:
    """A printable experiment result table.

    Example
    -------
    >>> table = ResultTable("Table 5a", ["|D|", "eta", "MB"])
    >>> table.add_row([1000, 923, 10.6])
    >>> print(table.render())  # doctest: +SKIP
    """

    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)

    def add_row(self, values: Iterable[Any]) -> None:
        """Append one row; must match the column count."""
        row = list(values)
        if len(row) != len(self.columns):
            raise InvalidParameterError(
                f"row has {len(row)} values but table has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(row)

    @staticmethod
    def _format(value: Any) -> str:
        if isinstance(value, float):
            if value == 0 or 0.001 <= abs(value) < 100_000:
                return f"{value:.3f}".rstrip("0").rstrip(".")
            return f"{value:.3e}"
        return str(value)

    def render(self) -> str:
        """Aligned plain-text rendering."""
        cells = [self.columns] + [
            [self._format(v) for v in row] for row in self.rows
        ]
        widths = [
            max(len(row[i]) for row in cells) for i in range(len(self.columns))
        ]
        lines = [self.title, "-" * len(self.title)]
        for j, row in enumerate(cells):
            lines.append(
                "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            )
            if j == 0:
                lines.append("  ".join("=" * w for w in widths))
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """GitHub-markdown rendering for EXPERIMENTS.md."""
        lines = [f"**{self.title}**", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(self._format(v) for v in row) + " |")
        return "\n".join(lines)


class Timer:
    """Context-manager wall-clock timer.

    Re-enterable: ``seconds`` is the most recent ``with`` block's
    duration, ``total_seconds`` and ``entries`` accumulate over every
    finished block — so one timer can meter a loop of measured sections.

    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.seconds >= 0
    True
    >>> with t:
    ...     _ = sum(range(1000))
    >>> t.entries
    2
    >>> t.total_seconds >= t.seconds
    True
    """

    def __init__(self) -> None:
        self.seconds: float = 0.0
        self.total_seconds: float = 0.0
        self.entries: int = 0
        self._start: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self._start
        self.total_seconds += self.seconds
        self.entries += 1

    def as_row(self) -> dict:
        """JSON-serialisable summary for run records and result tables."""
        return {
            "seconds": self.seconds,
            "total_seconds": self.total_seconds,
            "entries": self.entries,
        }


def time_knn_batch(
    index,
    queries,
    k: int,
    p: float | None = None,
    *,
    metrics: Sequence[float] | None = None,
    engine: str = "flat",
    telemetry=None,
):
    """Run ``knn_batch`` under a wall-clock timer.

    Returns ``(BatchKnnResult, seconds)``; used by the benchmark scripts
    so scalar/flat comparisons all time the identical call path.
    ``telemetry`` is forwarded to :func:`repro.core.batch.knn_batch`.
    """
    from repro.core.batch import knn_batch

    with Timer() as timer:
        result = knn_batch(
            index,
            queries,
            k,
            p=p,
            metrics=metrics,
            engine=engine,
            telemetry=telemetry,
        )
    return result, timer.seconds
