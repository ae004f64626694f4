"""Figure 4-7: stream buffer performance vs. line size.

Average percent of misses removed by single and four-way stream buffers
behind 4KB caches as the line size grows from 4B to 256B.  Paper
landmarks: data-side benefit collapses with line size (a single buffer
falls ~6.8x from 8B to 128B lines, a four-way buffer ~4.5x) because
widely distributed data make the *next* 128 bytes unlikely to be wanted;
instruction-side buffers hold up far better (still 40%+ at 128B), since
procedures are long and code is fetched sequentially.
"""

from __future__ import annotations

from typing import Optional

from ..common.config import CacheConfig
from .base import FigureResult
from .figure_4_6 import removal_curves
from .workloads import suite

__all__ = ["run", "LINE_SIZES"]

LINE_SIZES = [4, 8, 16, 32, 64, 128, 256]
CACHE_BYTES = 4096


def run(scale: Optional[int] = None, seed: int = 0) -> FigureResult:
    configs = [CacheConfig(CACHE_BYTES, line_size) for line_size in LINE_SIZES]
    return FigureResult(
        experiment_id="figure_4_7",
        title="Stream buffer performance vs. line size (4KB caches)",
        xlabel="line size (bytes)",
        ylabel="percent of misses removed (avg over benchmarks)",
        series=removal_curves(suite(scale, seed), configs, LINE_SIZES),
        notes=[
            "paper: D-side falls steeply with line size (6.8x single / 4.5x 4-way",
            "from 8B to 128B); I-side still removes 40%+ at 128B lines",
        ],
    )
