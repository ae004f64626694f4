"""Figure 3-3: conflict misses removed by miss caching.

Percent of conflict misses removed by miss caches of 1..15 entries
backing the baseline 4KB caches, per benchmark and as the paper's
equal-weight average, for both the instruction and data sides.  Thanks
to the LRU stack property the full sweep costs one simulation per
benchmark per side (see :mod:`repro.experiments.sweeps`).

Paper landmarks: a 2-entry miss cache removes 25% of data-cache conflict
misses on average (13% of all data misses), 4 entries remove 36% (18%
overall), and the payoff flattens beyond 4; instruction-side removal is
much weaker because instruction conflicts span more lines than a small
miss cache holds.
"""

from __future__ import annotations

from typing import List, Optional

from ..common.config import CacheConfig
from .base import FigureResult, Series
from .sweeps import batch_entry_sweeps
from .workloads import suite

__all__ = ["run", "entry_sweep_figure"]

ENTRIES = list(range(0, 16))


def entry_sweep_figure(
    experiment_id: str,
    title: str,
    kind: str,
    traces,
    notes: List[str],
) -> FigureResult:
    """Shared driver for Figures 3-3 and 3-5 (only the structure differs).

    *kind* is the :func:`~repro.experiments.sweeps.batch_entry_sweeps`
    structure kind (``"miss"`` or ``"victim"``).  Routing through the
    batch helper means the figure inherits its execution modes: inline
    by default, fanned out with ``REPRO_JOBS > 1``, memoized point by
    point when a result store is active.
    """
    traces = list(traces)
    config = CacheConfig(4096, 16)
    sides = (("i", "L1 I-cache"), ("d", "L1 D-cache"))
    sweeps = batch_entry_sweeps(
        traces, config, kind=kind, sides=[side for side, _ in sides],
        max_entries=max(ENTRIES),
    )
    sweep_iter = iter(sweeps)
    series: List[Series] = []
    for _, side_label in sides:
        contributing: List[List[float]] = []
        for trace in traces:
            sweep = next(sweep_iter)
            curve = [sweep.percent_of_conflicts_removed(k) for k in ENTRIES]
            series.append(Series(f"{side_label} {trace.name}", ENTRIES, curve))
            # The paper's equal-weight average includes every benchmark
            # that *has* conflict misses — even one the structure fails
            # to help — and skips only those with nothing to remove
            # (linpack/liver instruction caches).
            if sweep.conflict_misses > 0:
                contributing.append(curve)
        if contributing:
            average = [
                sum(curve[i] for curve in contributing) / len(contributing)
                for i in range(len(ENTRIES))
            ]
        else:
            average = [0.0] * len(ENTRIES)
        series.append(Series(f"{side_label} average", ENTRIES, average))
    return FigureResult(
        experiment_id=experiment_id,
        title=title,
        xlabel="entries",
        ylabel="percent of conflict misses removed",
        series=series,
        notes=notes,
    )


def run(scale: Optional[int] = None, seed: int = 0) -> FigureResult:
    return entry_sweep_figure(
        "figure_3_3",
        "Conflict misses removed by miss caching (4KB caches, 16B lines)",
        "miss",
        suite(scale, seed),
        notes=[
            "paper: 2-entry MC removes 25% of data conflicts on average, 4-entry 36%;",
            "little gain beyond 4 entries; instruction side far weaker",
        ],
    )
