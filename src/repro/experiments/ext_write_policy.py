"""§2 extension: write-through vs. write-back data caches.

The paper's §2 leaves the write-policy tradeoff unexamined while relying
on its bandwidth consequences (a write-through L1 must push every store
below — about one per 6–7 instructions — which is why the second-level
cache has to be pipelined).  This experiment quantifies the tradeoff on
the benchmark suite: demand miss rate and next-level traffic (in
transactions and in bytes per data reference) for both policies at the
baseline 4KB/16B geometry.
"""

from __future__ import annotations

from typing import Optional

from ..common.config import CacheConfig
from ..common.types import AccessKind
from ..hierarchy.write_policy import WritePolicy, WritePolicyCache
from .base import TableResult
from .workloads import suite

__all__ = ["run"]

CONFIG = CacheConfig(4096, 16)


def _run_policy(trace, policy: WritePolicy):
    cache = WritePolicyCache(CONFIG, policy)
    ifetch = int(AccessKind.IFETCH)
    for kind, address in trace:
        if kind == ifetch:
            continue
        cache.access(AccessKind(kind), address)
    return cache.finish()


def run(scale: Optional[int] = None, seed: int = 0) -> TableResult:
    rows = []
    for trace in suite(scale, seed):
        through = _run_policy(trace, WritePolicy.WRITE_THROUGH)
        back = _run_policy(trace, WritePolicy.WRITE_BACK)
        refs = max(1, through.accesses)
        rows.append(
            [
                trace.name,
                round(through.miss_rate, 3),
                round(back.miss_rate, 3),
                through.buffer_drains,
                round(100.0 * through.coalesced_stores / max(1, through.stores), 1),
                back.writebacks,
                round(through.bytes_to_next_level(CONFIG.line_size) / refs, 2),
                round(back.bytes_to_next_level(CONFIG.line_size) / refs, 2),
            ]
        )
    return TableResult(
        experiment_id="ext_write_policy",
        title="Extension (SS2): write-through (4-entry write buffer) vs. write-back D-cache",
        headers=[
            "program",
            "WT miss rate",
            "WB miss rate",
            "WT buffer drains",
            "WT coalesced %",
            "WB writebacks",
            "WT bytes/ref",
            "WB bytes/ref",
        ],
        rows=rows,
        notes=[
            "write-through pays store bandwidth continuously (mitigated by the",
            "coalescing write buffer); write-back pays per evicted dirty line;",
            "write-back's write-allocate also changes the miss rate slightly",
        ],
    )
