"""Table 1-1 meets Figure 5-1: speedup vs. miss cost.

The paper's opening argument is a trend: miss cost grew from 0.6
instruction times (VAX 11/780) to a projected 140+, so "the greatest
leverage on system performance will be obtained by improving the memory
hierarchy" (§2).  This experiment closes the loop by running the §5
improved system across that whole trend — scaling the L1/L2 miss
penalties from VAX-era to the paper's baseline and beyond — and
reporting the average speedup the victim cache + stream buffers buy at
each point.

At sub-instruction miss costs the structures are pointless; at the
paper's 24/320 they roughly double performance; at the projected
140-instruction-class costs they are worth ~3x.  The trend *is* the
paper's thesis.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..common.config import baseline_system
from ..hierarchy.performance import evaluate_performance
from .base import TableResult
from .figure_5_1 import base_and_improved
from .workloads import suite

__all__ = ["run", "PENALTY_POINTS"]

#: (label, l1 penalty, l2 penalty) — the Table 1-1 trajectory mapped
#: onto the baseline's two-level hierarchy (L2 at the baseline's
#: 320/24 ratio, rounded).
PENALTY_POINTS = [
    ("VAX-class", 1, 8),
    ("Titan-class", 6, 80),
    ("half baseline", 12, 160),
    ("paper baseline", 24, 320),
    ("double baseline", 48, 640),
    ("projected '?'", 96, 1280),
]


def run(scale: Optional[int] = None, seed: int = 0) -> TableResult:
    # Miss counts do not depend on the penalties, so simulate once per
    # benchmark and re-price the same results at every penalty point.
    results = base_and_improved(suite(scale, seed))
    rows = []
    for label, l1_penalty, l2_penalty in PENALTY_POINTS:
        timing = replace(
            baseline_system().timing,
            l1_miss_penalty=l1_penalty,
            l2_miss_penalty=l2_penalty,
        )
        speedups = []
        base_potentials = []
        for base_result, improved_result in results:
            base_perf = evaluate_performance(base_result, timing)
            improved_perf = evaluate_performance(improved_result, timing)
            speedups.append(improved_perf.speedup_over(base_perf))
            base_potentials.append(base_perf.percent_of_potential)
        rows.append(
            [
                label,
                l1_penalty,
                l2_penalty,
                round(sum(base_potentials) / len(base_potentials), 1),
                round(sum(speedups) / len(speedups), 2),
            ]
        )
    return TableResult(
        experiment_id="ext_penalty_sweep",
        title="Table 1-1 meets Figure 5-1: improved-system speedup vs. miss cost",
        headers=[
            "era",
            "L1 penalty",
            "L2 penalty",
            "baseline % potential (avg)",
            "avg speedup",
        ],
        rows=rows,
        notes=[
            "same miss counts re-priced at each penalty point; the structures'",
            "value grows with miss cost - the paper's opening argument, closed",
        ],
    )
