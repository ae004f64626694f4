"""Figure 4-5: four-way stream buffer performance.

Same axes as Figure 4-3 with four stream buffers in parallel (LRU
allocation).  Paper landmarks: instruction-side performance is
virtually unchanged (a single buffer suffices for code), while data-side
removal nearly doubles to 43% overall, with liver — whose kernels
interleave several array streams — jumping from 7% to 60%.
"""

from __future__ import annotations

from typing import Optional

from .base import FigureResult
from .figure_4_3 import run_length_figure
from .workloads import suite

__all__ = ["run"]


def run(scale: Optional[int] = None, seed: int = 0) -> FigureResult:
    return run_length_figure(
        "figure_4_5",
        "Four-way stream buffer performance (4KB caches, 16B lines)",
        suite(scale, seed),
        ways=4,
        notes=[
            "paper: I-side unchanged vs. a single buffer; D-side removal nearly",
            "doubles to 43%, liver jumping from 7% to 60%",
        ],
    )
