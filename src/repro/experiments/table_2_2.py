"""Table 2-2: baseline system first-level cache miss rates.

Replays each benchmark through the baseline system (split 4KB
direct-mapped L1s, 16-byte lines) and reports instruction and data miss
rates next to the paper's published values.  Calibration of the
synthetic workloads targeted these numbers; EXPERIMENTS.md records the
achieved deltas.
"""

from __future__ import annotations

from typing import Optional

from ..specs import SystemSpec
from .base import TableResult
from .engine import SystemJob, run_jobs
from .workloads import suite

__all__ = ["run", "PAPER_MISS_RATES"]

#: Table 2-2: (instruction, data) miss rates on the baseline system.
PAPER_MISS_RATES = {
    "ccom": (0.096, 0.120),
    "grr": (0.061, 0.062),
    "yacc": (0.028, 0.040),
    "met": (0.017, 0.039),
    "linpack": (0.000, 0.144),
    "liver": (0.000, 0.273),
}


def run(scale: Optional[int] = None, seed: int = 0) -> TableResult:
    traces = suite(scale, seed)
    results = run_jobs([SystemJob(SystemSpec.for_system(trace)) for trace in traces])
    rows = []
    for trace, result in zip(traces, results):
        paper_i, paper_d = PAPER_MISS_RATES[trace.name]
        rows.append(
            [
                trace.name,
                round(result.imiss_rate, 3),
                paper_i,
                round(result.dmiss_rate, 3),
                paper_d,
            ]
        )
    return TableResult(
        experiment_id="table_2_2",
        title="Baseline system first-level cache miss rates",
        headers=["program", "instr (ours)", "instr (paper)", "data (ours)", "data (paper)"],
        rows=rows,
        notes=["4KB direct-mapped split I/D caches, 16B lines"],
    )
