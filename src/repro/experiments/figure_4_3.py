"""Figure 4-3: sequential (single) stream buffer performance.

Cumulative percent of misses removed by a four-entry single stream
buffer as a function of how many lines it is allowed to prefetch past
the allocating miss, for the baseline 4KB instruction and data caches.
Paper landmarks: the instruction side reaches ~72% total removal while
the data side stalls near 25%; most instruction streams break by the
6th successive line, while linpack's data stream keeps going (its
misses are one long sequential sweep) and liver's does not (its streams
are interleaved, flushing a single buffer).
"""

from __future__ import annotations

from typing import List, Optional

from ..common.config import CacheConfig
from .base import FigureResult, Series
from .sweeps import batch_run_sweeps
from .workloads import suite

__all__ = ["run", "run_length_figure", "RUN_LENGTHS"]

RUN_LENGTHS = list(range(0, 17))


def run_length_figure(
    experiment_id: str,
    title: str,
    traces,
    ways: int,
    notes: List[str],
) -> FigureResult:
    """Shared driver for Figures 4-3 (1-way) and 4-5 (4-way).

    Sweeps go through :func:`~repro.experiments.sweeps.batch_run_sweeps`
    so the figure inherits its execution modes: inline by default,
    fanned out with ``REPRO_JOBS > 1``, memoized point by point when a
    result store is active.
    """
    traces = list(traces)
    config = CacheConfig(4096, 16)
    sides = (("i", "L1 I-cache"), ("d", "L1 D-cache"))
    sweeps = batch_run_sweeps(
        traces, config, sides=[side for side, _ in sides],
        ways=ways, max_run=max(RUN_LENGTHS),
    )
    sweep_iter = iter(sweeps)
    series: List[Series] = []
    for _, side_label in sides:
        curves: List[List[float]] = []
        for trace in traces:
            sweep = next(sweep_iter)
            curve = [sweep.percent_removed(k) for k in RUN_LENGTHS]
            if sweep.total_misses > 0:
                curves.append(curve)
            series.append(Series(f"{side_label} {trace.name}", RUN_LENGTHS, curve))
        if curves:
            average = [
                sum(curve[i] for curve in curves) / len(curves)
                for i in range(len(RUN_LENGTHS))
            ]
        else:
            average = [0.0] * len(RUN_LENGTHS)
        series.append(Series(f"{side_label} average", RUN_LENGTHS, average))
    return FigureResult(
        experiment_id=experiment_id,
        title=title,
        xlabel="length of stream run (lines prefetched past the miss)",
        ylabel="cumulative percent of misses removed",
        series=series,
        notes=notes,
    )


def run(scale: Optional[int] = None, seed: int = 0) -> FigureResult:
    return run_length_figure(
        "figure_4_3",
        "Sequential stream buffer performance (4KB caches, 16B lines)",
        suite(scale, seed),
        ways=1,
        notes=[
            "paper: single buffer removes 72% of I-misses but only 25% of D-misses;",
            "linpack's sequential data keeps streaming, liver's interleaved data does not",
        ],
    )
