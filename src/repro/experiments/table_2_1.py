"""Table 2-1: test program characteristics.

Reports the reference counts of the synthetic suite in the paper's
layout (dynamic instructions, data references, total, program type),
plus the paper's data/instruction ratio next to the measured one — the
synthetic generators pace data references to hit the published ratio
exactly, so the two columns should agree to within rounding.
"""

from __future__ import annotations

from typing import Optional

from ..traces.registry import get_workload
from .base import TableResult
from .workloads import suite

__all__ = ["run"]

#: Table 2-1's dynamic counts, in millions of references.
PAPER_COUNTS_M = {
    "ccom": (31.5, 14.0, 45.5),
    "grr": (134.2, 59.2, 193.4),
    "yacc": (51.0, 16.7, 67.7),
    "met": (99.4, 50.3, 149.7),
    "linpack": (144.8, 40.7, 185.5),
    "liver": (23.6, 7.4, 31.0),
}


def run(scale: Optional[int] = None, seed: int = 0) -> TableResult:
    rows = []
    total_instr = total_data = 0
    for trace in suite(scale, seed):
        stats = trace.stats()
        spec = get_workload(trace.name)
        paper_instr, paper_data, _ = PAPER_COUNTS_M[trace.name]
        rows.append(
            [
                trace.name,
                stats.instructions,
                stats.data_references,
                stats.total_references,
                round(stats.data_per_instruction, 3),
                round(paper_data / paper_instr, 3),
                spec.program_type,
            ]
        )
        total_instr += stats.instructions
        total_data += stats.data_references
    rows.append(
        [
            "total",
            total_instr,
            total_data,
            total_instr + total_data,
            round(total_data / total_instr, 3) if total_instr else 0.0,
            round(186.3 / 484.5, 3),
            "",
        ]
    )
    return TableResult(
        experiment_id="table_2_1",
        title="Test program characteristics (synthetic suite)",
        headers=[
            "program",
            "dyn. instr.",
            "data refs",
            "total refs",
            "data/instr",
            "paper d/i",
            "program type",
        ],
        rows=rows,
        notes=[
            "paper traces were 23.6M-144.8M instructions; the synthetic suite keeps",
            "the same relative lengths at a Python-friendly scale",
        ],
    )
