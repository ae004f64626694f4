"""Shared result types and rendering for the experiment modules.

Every experiment module exposes ``run(traces=None, scale=None, seed=0)``
returning either a :class:`TableResult` (for the paper's tables) or a
:class:`FigureResult` (for its figures — rendered as the numeric series
behind the plot, since this is a terminal harness).  Both render to
fixed-width text in the shape of the paper's artifact so measured and
published values can be compared side by side.

Figure experiments that replay per-(trace, side) level points declare
those points as :class:`~repro.specs.SystemSpec` values via
:func:`level_point_specs` and evaluate them through the engine with
:func:`run_point_specs` — the same declarative currency the grid and
batch sweeps use, so a figure's points run on the kernels, fan out over
workers, and hit the result store point by point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

__all__ = [
    "Series",
    "FigureResult",
    "TableResult",
    "format_value",
    "level_point_specs",
    "run_point_specs",
    "run_point_columns",
]


def level_point_specs(
    traces,
    config,
    structure=None,
    sides: Sequence[str] = ("i", "d"),
    classify: bool = False,
    warmup: int = 0,
) -> List:
    """SystemSpecs for every (side, trace) level point, in nested order.

    Ordering is ``for side in sides: for trace in traces``.  *traces*
    may mix workload specs and spec-built traces; a hand-made trace
    raises :class:`~repro.common.errors.ConfigurationError` (see
    :meth:`~repro.specs.SystemSpec.for_level`).
    """
    from ..specs import SystemSpec

    return [
        SystemSpec.for_level(
            trace, config, side=side, structure=structure,
            classify=classify, warmup=warmup,
        )
        for side in sides
        for trace in traces
    ]


def run_point_specs(specs, jobs: Optional[int] = None) -> List:
    """LevelSummaries for spec points, via the engine (inline at ``jobs=1``)."""
    from .engine import LevelJob, run_jobs

    return run_jobs([LevelJob(spec) for spec in specs], jobs=jobs)


def run_point_columns(traces, config, structures, side: str = "d") -> List[List]:
    """One column of LevelSummaries per structure, each in trace order.

    *structures* holds structure specs (None is the bare baseline); all
    ``len(structures) * len(traces)`` points run as one engine batch.
    """
    traces = list(traces)
    specs = [
        spec
        for structure in structures
        for spec in level_point_specs(traces, config, structure=structure, sides=(side,))
    ]
    summaries = run_point_specs(specs)
    n = len(traces)
    return [summaries[k * n:(k + 1) * n] for k in range(len(structures))]

Value = Union[int, float, str]


def format_value(value: Value, width: int = 0) -> str:
    """Format a cell: floats to 3 significant places, right-aligned."""
    if isinstance(value, float):
        text = f"{value:.3f}" if abs(value) < 100 else f"{value:.1f}"
    else:
        text = str(value)
    return text.rjust(width) if width else text


@dataclass
class Series:
    """One line on a figure: a label plus aligned x/y vectors."""

    label: str
    x: Sequence[Value]
    y: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"series {self.label!r}: x has {len(self.x)} points, y has {len(self.y)}"
            )

    def point(self, x_value: Value) -> float:
        """The y value at a given x (KeyError if absent)."""
        for xv, yv in zip(self.x, self.y):
            if xv == x_value:
                return yv
        raise KeyError(f"series {self.label!r} has no point at x={x_value!r}")


@dataclass
class TableResult:
    """A reproduced table: headers, rows, and free-form notes."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[Value]]
    notes: List[str] = field(default_factory=list)

    def column(self, header: str) -> List[Value]:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def row_by_key(self, key: Value) -> List[Value]:
        """Row whose first cell equals *key* (KeyError if absent)."""
        for row in self.rows:
            if row[0] == key:
                return row
        raise KeyError(f"{self.experiment_id}: no row keyed {key!r}")

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        formatted_rows = []
        for row in self.rows:
            cells = [format_value(cell) for cell in row]
            widths = [max(w, len(c)) for w, c in zip(widths, cells)]
            formatted_rows.append(cells)
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(h.rjust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for cells in formatted_rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


@dataclass
class FigureResult:
    """A reproduced figure: named series over a shared x axis."""

    experiment_id: str
    title: str
    xlabel: str
    ylabel: str
    series: List[Series]
    notes: List[str] = field(default_factory=list)

    def get(self, label: str) -> Series:
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(f"{self.experiment_id}: no series {label!r}")

    @property
    def labels(self) -> List[str]:
        return [series.label for series in self.series]

    def as_table(self) -> TableResult:
        """Transpose the series into one column per series."""
        x_values = list(self.series[0].x) if self.series else []
        rows: List[List[Value]] = []
        for i, x_value in enumerate(x_values):
            row: List[Value] = [x_value]
            for series in self.series:
                row.append(series.y[i] if i < len(series.y) else "")
            rows.append(row)
        return TableResult(
            experiment_id=self.experiment_id,
            title=self.title,
            headers=[self.xlabel] + [s.label for s in self.series],
            rows=rows,
            notes=list(self.notes) + [f"ylabel: {self.ylabel}"],
        )

    def render(self) -> str:
        return self.as_table().render()
