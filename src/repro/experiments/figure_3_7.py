"""Figure 3-7: victim cache performance vs. data cache line size.

Average percent of data conflict misses removed by 1/2/4/15-entry victim
caches behind a 4KB data cache as the line size grows from 8B to 256B,
plus the conflict share of misses at each line size.  Paper landmarks:
longer lines mean more conflict misses, and an increasing share of them
is removable by the victim cache — systems with victim caches benefit
more from long lines than systems without.
"""

from __future__ import annotations

from typing import Optional

from ..common.config import CacheConfig
from .base import FigureResult
from .figure_3_6 import VC_ENTRIES, victim_curves
from .workloads import suite

__all__ = ["run", "LINE_SIZES", "VC_ENTRIES"]

LINE_SIZES = [8, 16, 32, 64, 128, 256]
CACHE_BYTES = 4096


def run(scale: Optional[int] = None, seed: int = 0) -> FigureResult:
    configs = [CacheConfig(CACHE_BYTES, line_size) for line_size in LINE_SIZES]
    series = victim_curves(suite(scale, seed), configs, LINE_SIZES)
    return FigureResult(
        experiment_id="figure_3_7",
        title="Victim cache performance vs. data cache line size (4KB cache)",
        xlabel="line size (bytes)",
        ylabel="percent of conflict misses removed (avg over benchmarks)",
        series=series,
        notes=[
            "paper: conflict misses rise with line size and a rising share of them",
            "is removable by the victim cache",
        ],
    )
