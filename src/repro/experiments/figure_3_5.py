"""Figure 3-5: conflict misses removed by victim caching.

Identical axes to Figure 3-3 but with victim caches.  Paper landmarks:
victim caches of just one entry are already useful (miss caches need
two); every benchmark improves relative to miss caching; and the
benchmarks with long conflicting sequential streams (ccom, linpack)
improve the most relative to their miss-cache curves.
"""

from __future__ import annotations

from typing import Optional

from .base import FigureResult
from .figure_3_3 import entry_sweep_figure
from .workloads import suite

__all__ = ["run"]


def run(scale: Optional[int] = None, seed: int = 0) -> FigureResult:
    return entry_sweep_figure(
        "figure_3_5",
        "Conflict misses removed by victim caching (4KB caches, 16B lines)",
        "victim",
        suite(scale, seed),
        notes=[
            "paper: one-line victim caches are useful, unlike one-line miss caches;",
            "victim caching beats miss caching at every size",
        ],
    )
