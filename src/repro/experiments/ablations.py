"""Ablations of the paper's design choices (DESIGN.md X-ABL).

Four questions the paper answers by construction, checked by measurement:

1. **Swap vs. copy on a victim-cache hit.**  The paper swaps (exclusive
   contents).  Keeping a copy instead duplicates lines, wasting entries
   exactly the way §3.2 says miss caching does.
2. **Victim cache vs. miss cache at equal size** — the paper's headline
   §3.2 claim, summarised per benchmark here.
3. **LRU vs. FIFO replacement in the victim cache.**  LRU is assumed
   throughout the paper.
4. **Head-only vs. all-entry comparators in a stream buffer.**  §4.1
   restricts matching to the head ("elements removed from the buffer
   must be removed strictly in sequence"); a full comparator lets the
   buffer skip over lines already in the cache — the quasi-sequential
   extension the paper leaves to future designs.
5. **DM + victim cache vs. 2-way set-associativity** — the alternative
   the paper rejects for cycle-time reasons; the miss-rate comparison
   shows how much of 2-way's benefit a 4-entry VC recovers.

All ablations run the data side of the baseline 4KB/16B cache.  The
structure columns are spec points run through the engine; the 2-way
set-associative comparison has no spec and replays on the interpreter.
"""

from __future__ import annotations

from typing import Optional

from ..caches.set_associative import SetAssociativeCache
from ..common.config import CacheConfig
from ..common.stats import percent
from ..specs import MissCacheSpec, StreamBufferSpec, VictimCacheSpec
from .base import TableResult, run_point_columns
from .runner import count_misses
from .workloads import suite

__all__ = ["run"]

CONFIG = CacheConfig(4096, 16)

#: The spec-expressible columns, in table order.
_STRUCTURES = (
    VictimCacheSpec(4),
    VictimCacheSpec(4, swap_on_hit=False),
    MissCacheSpec(4),
    VictimCacheSpec(4, policy="fifo"),
    StreamBufferSpec(4),
    StreamBufferSpec(4, head_only=False),
)


def _two_way_miss_reduction(addresses, direct_misses: int) -> float:
    """Percent of direct-mapped misses avoided by a 2-way cache."""
    misses = count_misses(SetAssociativeCache(CONFIG, ways=2), addresses, CONFIG.offset_bits)
    return percent(direct_misses - misses, direct_misses)


def run(scale: Optional[int] = None, seed: int = 0) -> TableResult:
    traces = suite(scale, seed)
    columns = run_point_columns(traces, CONFIG, _STRUCTURES)
    rows = []
    for trace, *results in zip(traces, *columns):
        misses = results[0].demand_misses
        rows.append(
            [trace.name]
            + [round(percent(r.removed_misses, r.demand_misses), 1) for r in results]
            + [round(_two_way_miss_reduction(trace.data_addresses, misses), 1)]
        )
    return TableResult(
        experiment_id="ablations",
        title="Design-choice ablations, data side (percent of misses removed/avoided)",
        headers=[
            "program",
            "VC4 swap",
            "VC4 copy",
            "MC4",
            "VC4 FIFO",
            "SB head-only",
            "SB full-cmp",
            "2-way assoc",
        ],
        rows=rows,
        notes=[
            "swap >= copy (exclusivity) and VC >= MC (paper SS3.2);",
            "VC4 LRU == VC4 FIFO exactly: a swap-mode victim cache never refreshes",
            "an entry in place (hits remove it), so recency order equals insertion order;",
            "full-comparator stream buffers edge out head-only ones;",
            "2-way associativity removes conflicts at a hit-time cost the paper rejects",
        ],
    )
