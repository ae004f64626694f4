"""Figure 4-1: limited time for prefetch (ccom instruction stream).

For each classical prefetch scheme — prefetch always, prefetch on miss,
tagged prefetch — the cumulative share of useful prefetches that are
demanded within N instruction issues of being launched.  The paper's
point: with four-instruction lines, prefetched lines "must be received
within four instruction-times to keep up with the machine", far less
than the many-cycle second-level latency, which is what motivates stream
buffers launching prefetches well before a tag transition can occur.
"""

from __future__ import annotations

from typing import List, Optional

from ..buffers.prefetch import PrefetchingCache, PrefetchScheme
from ..common.config import CacheConfig
from .base import FigureResult, Series
from .workloads import suite

__all__ = ["run", "BUDGETS"]

BUDGETS = list(range(0, 26, 2))


def run(scale: Optional[int] = None, seed: int = 0) -> FigureResult:
    ccom = next(trace for trace in suite(scale, seed) if trace.name == "ccom")
    instruction_stream = ccom.instruction_addresses
    config = CacheConfig(4096, 16)
    shift = config.offset_bits
    series: List[Series] = []
    for scheme in (PrefetchScheme.ON_MISS, PrefetchScheme.TAGGED, PrefetchScheme.ALWAYS):
        cache = PrefetchingCache(config, scheme)
        for now, address in enumerate(instruction_stream):
            cache.access(address >> shift, now)
        curve = [cache.stats.percent_needed_within(budget) for budget in BUDGETS]
        series.append(Series(scheme.value, BUDGETS, curve))
    return FigureResult(
        experiment_id="figure_4_1",
        title="Limited time for prefetch: ccom I-cache, 16B lines",
        xlabel="instructions until prefetch returns",
        ylabel="percent of useful prefetches demanded within budget",
        series=series,
        notes=[
            "paper: most prefetched lines are needed within ~4 instruction-times",
            "(one 4-instruction line), long before a pipelined L2 can respond",
        ],
    )
