"""§3.5 extension: victim caches for second-level caches.

The paper defers this study ("work on obtaining victim cache performance
for multi-megabyte second-level caches is underway") because megabyte
caches need billions of trace references.  We run the scaled-down
equivalent its argument actually rests on: a second-level cache whose
*line size* is large (conflict misses grow with line size, §3.4/§3.5)
and whose capacity is several times the L1, fed by the L1 miss stream.
The paper also notes a first-level victim cache can reduce second-level
conflict misses, so both configurations are reported.

The L2 here is 64KB with 128-byte lines — the baseline ratio of L2 line
to L1 line (8x), at a capacity the synthetic traces can actually
exercise.
"""

from __future__ import annotations

from typing import List, Optional

from ..buffers.victim_cache import VictimCache
from ..common.config import CacheConfig
from ..common.stats import percent
from ..hierarchy.level import CacheLevel
from .base import TableResult
from .workloads import suite

__all__ = ["run", "L2_CONFIG"]

L1_CONFIG = CacheConfig(4096, 16)
L2_CONFIG = CacheConfig(64 * 1024, 128)


def _run_two_level(addresses: List[int], l1_victims: int, l2_victims: int):
    """Replay one side through L1 (+optional VC) into L2 (+optional VC)."""
    l1 = CacheLevel(L1_CONFIG, VictimCache(l1_victims) if l1_victims else None)
    l2 = CacheLevel(
        L2_CONFIG, VictimCache(l2_victims) if l2_victims else None, classify=True
    )
    l1_shift = L1_CONFIG.offset_bits
    l2_shift = L2_CONFIG.offset_bits
    for now, address in enumerate(addresses):
        outcome = l1.access_line(address >> l1_shift, now)
        if outcome.goes_to_next_level:
            l2.access_line(address >> l2_shift, now)
    return l1, l2


def run(scale: Optional[int] = None, seed: int = 0) -> TableResult:
    rows = []
    for trace in suite(scale, seed):
        addresses = trace.data_addresses
        _, l2_plain = _run_two_level(addresses, l1_victims=0, l2_victims=0)
        _, l2_vc = _run_two_level(addresses, l1_victims=0, l2_victims=4)
        _, l2_both = _run_two_level(addresses, l1_victims=4, l2_victims=4)
        base_misses = l2_plain.stats.demand_misses
        rows.append(
            [
                trace.name,
                base_misses,
                round(l2_plain.classifier.percent_conflict, 1),
                l2_vc.stats.removed_misses,
                round(percent(l2_vc.stats.removed_misses, base_misses), 1),
                l2_both.stats.removed_misses,
                round(
                    percent(
                        l2_both.stats.removed_misses, l2_both.stats.demand_misses
                    ),
                    1,
                ),
            ]
        )
    return TableResult(
        experiment_id="ext_l2_victim",
        title="Extension (SS3.5): victim caching behind a 64KB/128B-line L2 (data side)",
        headers=[
            "program",
            "L2 misses",
            "% conflict",
            "L2 VC4 removed",
            "% of base misses",
            "removed w/ L1 VC4 too",
            "% of its misses",
        ],
        rows=rows,
        notes=[
            "scaled-down stand-in for the paper's deferred multi-megabyte study;",
            "large L2 lines raise the conflict share, which a victim cache attacks",
        ],
    )
