"""Figure 3-1: percentage of misses due to conflicts (4KB I and D, 16B).

Runs the 3C classifier alongside each baseline L1 and reports, per
benchmark and per side, the share of misses that a fully-associative
equal-capacity cache would have avoided.  The paper's suite averages are
29% for the instruction cache and 39% for the data cache; met shows "by
far the highest ratio" on the data side.
"""

from __future__ import annotations

from typing import Optional

from ..common.config import CacheConfig
from ..common.stats import percent
from .base import FigureResult, Series, level_point_specs, run_point_specs
from .workloads import suite

__all__ = ["run"]

PAPER_AVERAGE_I = 29.0
PAPER_AVERAGE_D = 39.0


def run(scale: Optional[int] = None, seed: int = 0) -> FigureResult:
    traces = suite(scale, seed)
    config = CacheConfig(4096, 16)
    names = [trace.name for trace in traces]
    summaries = run_point_specs(level_point_specs(traces, config, classify=True))
    i_pct = [percent(s.conflict_misses, s.demand_misses) for s in summaries[: len(traces)]]
    d_pct = [percent(s.conflict_misses, s.demand_misses) for s in summaries[len(traces):]]
    names.append("average")
    i_pct.append(sum(i_pct) / len(i_pct))
    d_pct.append(sum(d_pct) / len(d_pct))
    return FigureResult(
        experiment_id="figure_3_1",
        title="Conflict misses, 4KB I and D caches, 16B lines",
        xlabel="benchmark",
        ylabel="percent of misses due to conflicts",
        series=[
            Series("L1 I-cache", names, i_pct),
            Series("L1 D-cache", names, d_pct),
        ],
        notes=[
            f"paper averages: I {PAPER_AVERAGE_I:.0f}%, D {PAPER_AVERAGE_D:.0f}%",
            "paper: met has by far the highest data conflict ratio",
        ],
    )
