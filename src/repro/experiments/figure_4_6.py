"""Figure 4-6: stream buffer performance vs. cache size.

Average percent of misses removed by single and four-way stream buffers
(16-byte lines) as the backing cache grows from 1KB to 128KB, for both
sides.  Paper landmarks: instruction-side removal is remarkably flat
across cache sizes; single-buffer data-side removal *improves* with
cache size (from ~15% at 1KB to ~35% at 128KB) because bigger caches
absorb the scattered traffic, leaving the long sequential streams as the
surviving misses.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..common.config import CacheConfig
from ..specs import MultiWayStreamBufferSpec, StreamBufferSpec
from .base import FigureResult, Series, level_point_specs, run_point_specs
from .workloads import suite

__all__ = ["run", "CACHE_SIZES_KB"]

CACHE_SIZES_KB = [1, 2, 4, 8, 16, 32, 64, 128]

#: (series label, side, buffer) for each curve of Figures 4-6 and 4-7.
CURVES = (
    ("single, I-cache", "i", StreamBufferSpec(4)),
    ("single, D-cache", "d", StreamBufferSpec(4)),
    ("4-way, I-cache", "i", MultiWayStreamBufferSpec(4, 4)),
    ("4-way, D-cache", "d", MultiWayStreamBufferSpec(4, 4)),
)


def _average_removal(summaries) -> float:
    percents = [
        100.0 * s.removed_misses / s.demand_misses for s in summaries if s.demand_misses
    ]
    return sum(percents) / len(percents) if percents else 0.0


def removal_curves(traces, configs: Sequence[CacheConfig], x_values) -> List[Series]:
    """Average percent of misses removed, per :data:`CURVES` entry and config.

    Every (config, curve, trace) point goes to the engine as one batch.
    """
    traces = list(traces)
    specs = [
        spec
        for config in configs
        for _, side, buffer in CURVES
        for spec in level_point_specs(traces, config, structure=buffer, sides=(side,))
    ]
    summaries = iter(run_point_specs(specs))
    curves: List[List[float]] = [[] for _ in CURVES]
    for _ in configs:
        for values in curves:
            values.append(_average_removal([next(summaries) for _ in traces]))
    return [
        Series(label, x_values, values) for (label, _, _), values in zip(CURVES, curves)
    ]


def run(scale: Optional[int] = None, seed: int = 0) -> FigureResult:
    configs = [CacheConfig(size_kb * 1024, 16) for size_kb in CACHE_SIZES_KB]
    return FigureResult(
        experiment_id="figure_4_6",
        title="Stream buffer performance vs. cache size (16B lines)",
        xlabel="cache size (KB)",
        ylabel="percent of misses removed (avg over benchmarks)",
        series=removal_curves(suite(scale, seed), configs, CACHE_SIZES_KB),
        notes=[
            "paper: I-side flat across sizes; single-buffer D-side improves with size",
            "(15% at 1KB to 35% at 128KB)",
        ],
    )
