"""Figure 5-1: improved system performance.

The paper's combined system: the baseline plus a four-entry data victim
cache, a (single, four-entry) instruction stream buffer, and a four-way
data stream buffer.  Reports, per benchmark, the percent of potential
performance for the base and improved systems, the speedup, and the
L1 miss-rate ratio.  Paper landmarks: the combination cuts the
first-level miss rate to less than half of baseline and yields an
average 143% performance improvement over the six benchmarks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..common.config import baseline_system
from ..common.stats import safe_div
from ..hierarchy.performance import evaluate_performance
from ..hierarchy.system import SystemResult
from ..specs import CompositeSpec, MultiWayStreamBufferSpec, StreamBufferSpec
from ..specs import SystemSpec, VictimCacheSpec
from .base import TableResult
from .engine import SystemJob, run_jobs
from .workloads import suite

__all__ = ["run", "IMPROVED_ISTRUCTURE", "IMPROVED_DSTRUCTURE", "base_and_improved"]

#: The §5 configuration: a four-entry instruction stream buffer; a
#: four-entry data victim cache plus a four-way data stream buffer.
IMPROVED_ISTRUCTURE = StreamBufferSpec(4)
IMPROVED_DSTRUCTURE = CompositeSpec((VictimCacheSpec(4), MultiWayStreamBufferSpec(4, 4)))


def base_and_improved(traces) -> List[Tuple[SystemResult, SystemResult]]:
    """``(base, improved)`` full-system results per trace, L2 prewarmed.

    Both systems of every trace run as one engine batch.
    """
    jobs = [
        SystemJob(SystemSpec.for_system(trace), *structures, prewarm_l2=True)
        for trace in traces
        for structures in ((None, None), (IMPROVED_ISTRUCTURE, IMPROVED_DSTRUCTURE))
    ]
    results = run_jobs(jobs)
    return list(zip(results[::2], results[1::2]))


def run(scale: Optional[int] = None, seed: int = 0) -> TableResult:
    traces = suite(scale, seed)
    timing = baseline_system().timing
    rows = []
    improvements = []
    miss_ratios = []
    for trace, (base_result, improved_result) in zip(traces, base_and_improved(traces)):
        base_perf = evaluate_performance(base_result, timing)
        improved_perf = evaluate_performance(improved_result, timing)
        speedup = improved_perf.speedup_over(base_perf)
        improvements.append(100.0 * (speedup - 1.0))
        base_l1_misses = (
            base_result.istats.misses_to_next_level + base_result.dstats.misses_to_next_level
        )
        improved_l1_misses = (
            improved_result.istats.misses_to_next_level
            + improved_result.dstats.misses_to_next_level
        )
        miss_ratio = safe_div(improved_l1_misses, base_l1_misses, default=1.0)
        miss_ratios.append(miss_ratio)
        rows.append(
            [
                trace.name,
                round(base_perf.percent_of_potential, 1),
                round(improved_perf.percent_of_potential, 1),
                round(speedup, 2),
                round(miss_ratio, 3),
            ]
        )
    rows.append(
        [
            "average",
            "",
            "",
            round(1.0 + sum(improvements) / len(improvements) / 100.0, 2),
            round(sum(miss_ratios) / len(miss_ratios), 3),
        ]
    )
    return TableResult(
        experiment_id="figure_5_1",
        title="Improved system performance: +data VC4, I stream buffer, 4-way data SB",
        headers=[
            "program",
            "base % potential",
            "improved % potential",
            "speedup",
            "L1 miss ratio (improved/base)",
        ],
        rows=rows,
        notes=[
            "paper: first-level misses reaching L2 cut to less than half of baseline;",
            "average performance improvement 143% (speedup 2.43) on its 24/320-cycle system",
        ],
    )
