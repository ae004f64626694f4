"""Figure 2-2: baseline design performance.

For each benchmark, the percentage of the machine's potential
performance actually achieved, and where the rest went: first-level
instruction misses, first-level data misses, and second-level misses.
The paper's observation — "most benchmarks lose over half of their
potential performance in first level cache misses" — is the quantity
checked here.
"""

from __future__ import annotations

from typing import Optional

from ..common.config import baseline_system
from ..hierarchy.performance import evaluate_performance
from ..specs import SystemSpec
from .base import FigureResult, Series
from .engine import SystemJob, run_jobs
from .workloads import suite

__all__ = ["run"]


def run(scale: Optional[int] = None, seed: int = 0) -> FigureResult:
    traces = suite(scale, seed)
    timing = baseline_system().timing
    names = []
    achieved = []
    lost_l1i = []
    lost_l1d = []
    lost_l2 = []
    results = run_jobs(
        [SystemJob(SystemSpec.for_system(trace), prewarm_l2=True) for trace in traces]
    )
    for trace, result in zip(traces, results):
        breakdown = evaluate_performance(result, timing).loss_breakdown()
        names.append(trace.name)
        achieved.append(breakdown["achieved"])
        lost_l1i.append(breakdown["l1i_misses"])
        lost_l1d.append(breakdown["l1d_misses"])
        lost_l2.append(breakdown["l2_misses"])
    return FigureResult(
        experiment_id="figure_2_2",
        title="Baseline design performance (percent of potential)",
        xlabel="benchmark",
        ylabel="percent of potential performance",
        series=[
            Series("achieved", names, achieved),
            Series("lost to L1 I-misses", names, lost_l1i),
            Series("lost to L1 D-misses", names, lost_l1d),
            Series("lost to L2 misses", names, lost_l2),
        ],
        notes=[
            "baseline: 24 instruction-time L1 miss penalty, 320 L2; L2 prewarmed",
            "(first-touch L2 misses are a trace-length artifact at synthetic scale);",
            "paper: most benchmarks lose over half their performance to L1 misses",
        ],
    )
