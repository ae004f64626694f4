"""Figure 3-6: victim cache performance vs. direct-mapped cache size.

Average percent of data-cache conflict misses removed by 1/2/4/15-entry
victim caches, as the data cache grows from 1KB to 128KB (16-byte lines
throughout), plus the percent of misses that are conflicts at each size
for reference.  Paper landmark: smaller direct-mapped caches benefit
most — the victim cache shrinks relative to the cache, and tight mapping
conflicts become rarer as sets multiply.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..common.config import CacheConfig
from ..common.stats import safe_div
from .base import FigureResult, Series
from .sweeps import batch_entry_sweeps
from .workloads import suite

__all__ = ["run", "CACHE_SIZES_KB", "VC_ENTRIES"]

CACHE_SIZES_KB = [1, 2, 4, 8, 16, 32, 64, 128]
VC_ENTRIES = [1, 2, 4, 15]


def victim_curves(traces, configs: Sequence[CacheConfig], x_values) -> List[Series]:
    """Data-side victim-cache removal curves over a sequence of geometries.

    One series per :data:`VC_ENTRIES` size — the average percent of
    conflict misses removed over benchmarks that have conflicts — plus
    the average conflict share of misses, each with one point per
    config.  Figures 3-6 and 3-7 differ only in the geometry axis.
    """
    removal_curves: List[List[float]] = [[] for _ in VC_ENTRIES]
    conflict_percent: List[float] = []
    for config in configs:
        sweeps = batch_entry_sweeps(
            traces, config, kind="victim", sides=("d",), max_entries=max(VC_ENTRIES)
        )
        per_entry: List[List[float]] = [[] for _ in VC_ENTRIES]
        conflict_shares: List[float] = []
        for sweep in sweeps:
            if sweep.conflict_misses == 0:
                continue
            for slot, entries in enumerate(VC_ENTRIES):
                per_entry[slot].append(sweep.percent_of_conflicts_removed(entries))
            conflict_shares.append(100.0 * safe_div(sweep.conflict_misses, sweep.total_misses))
        for slot in range(len(VC_ENTRIES)):
            values = per_entry[slot]
            removal_curves[slot].append(sum(values) / len(values) if values else 0.0)
        conflict_percent.append(
            sum(conflict_shares) / len(conflict_shares) if conflict_shares else 0.0
        )
    series = [
        Series(f"{entries}-entry victim cache", x_values, removal_curves[slot])
        for slot, entries in enumerate(VC_ENTRIES)
    ]
    series.append(Series("percent conflict misses", x_values, conflict_percent))
    return series


def run(scale: Optional[int] = None, seed: int = 0) -> FigureResult:
    configs = [CacheConfig(size_kb * 1024, 16) for size_kb in CACHE_SIZES_KB]
    series = victim_curves(suite(scale, seed), configs, CACHE_SIZES_KB)
    return FigureResult(
        experiment_id="figure_3_6",
        title="Victim cache performance vs. direct-mapped data cache size",
        xlabel="cache size (KB)",
        ylabel="percent of conflict misses removed (avg over benchmarks)",
        series=series,
        notes=["paper: smaller direct-mapped caches benefit the most from victim caching"],
    )
