"""§5 extension: multiprogramming workloads.

The paper closes §5 with "the performance of victim caching and stream
buffers need[s] to be investigated for operating system execution and
for multiprogramming workloads", and Table 2-1's caption concedes "the
effects of multiprogramming have not been modeled in this work".

This experiment models the classic mechanism: several programs time-
share one processor, context-switching every *quantum* instructions.
Each process keeps its own (disjoint) address space, but they share the
physical caches, so every switch lets the incoming process evict the
outgoing one's working set.  Reported per quantum:

* the baseline data miss-rate inflation relative to running alone;
* how much a 4-entry victim cache and a 4-way stream buffer still
  remove — the paper's structures are *small*, so switches wipe them
  almost for free (they refill in a handful of misses), whereas the
  direct-mapped array pays the full re-warm cost.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..common.config import CacheConfig
from ..common.stats import percent, safe_div
from ..specs import build
from ..traces.trace import MaterializedTrace
from .base import TableResult, level_point_specs, run_point_specs
from .figure_5_1 import IMPROVED_DSTRUCTURE
from .runner import run_level
from .workloads import suite

__all__ = ["run", "interleave_processes", "QUANTA"]

CONFIG = CacheConfig(4096, 16)
QUANTA = [500, 2000, 10000]
#: Distinct high bits per process keep address spaces disjoint while
#: leaving cache index behaviour untouched.
_ASID_STRIDE = 1 << 40


def interleave_processes(
    streams: Sequence[List[int]], quantum: int
) -> List[int]:
    """Round-robin *quantum*-reference time slices of several processes.

    Each process's addresses are offset into a private address space
    (distinct ASID), the way distinct virtual address spaces land in one
    physically-indexed cache.  Processes that run out of references drop
    out; the schedule continues until all are drained.
    """
    cursors = [0] * len(streams)
    out: List[int] = []
    live = True
    while live:
        live = False
        for pid, stream in enumerate(streams):
            cursor = cursors[pid]
            if cursor >= len(stream):
                continue
            live = True
            chunk = stream[cursor : cursor + quantum]
            base = pid * _ASID_STRIDE
            out.extend(base + address for address in chunk)
            cursors[pid] = cursor + quantum
    return out


def _standalone_miss_rate(traces) -> float:
    summaries = run_point_specs(level_point_specs(traces, CONFIG, sides=("d",)))
    misses = sum(summary.demand_misses for summary in summaries)
    accesses = sum(summary.accesses for summary in summaries)
    return safe_div(misses, accesses)


def run(scale: Optional[int] = None, seed: int = 0) -> TableResult:
    traces = suite(scale, seed)
    # Three-way multiprogramming mix: compiler + CAD + numeric, the
    # classic timesharing blend.
    mix: List[MaterializedTrace] = [
        next(t for t in traces if t.name == "ccom"),
        next(t for t in traces if t.name == "met"),
        next(t for t in traces if t.name == "liver"),
    ]
    streams = [t.data_addresses for t in mix]
    alone = _standalone_miss_rate(mix)
    rows = []
    for quantum in QUANTA:
        interleaved = interleave_processes(streams, quantum)
        base = run_level(interleaved, CONFIG)
        base_rate = base.stats.miss_rate
        composite = build(IMPROVED_DSTRUCTURE)
        victim, stream_buffer = composite.members
        helped = run_level(interleaved, CONFIG, composite)
        rows.append(
            [
                quantum,
                round(base_rate, 4),
                round(base_rate / alone, 2),
                round(percent(victim.hits, helped.misses), 1),
                round(percent(stream_buffer.hits, helped.misses), 1),
                round(percent(helped.removed, helped.misses), 1),
            ]
        )
    rows.append(
        ["alone", round(alone, 4), 1.0, "", "", ""]
    )
    return TableResult(
        experiment_id="ext_multiprog",
        title="Extension (SS5): multiprogramming (ccom+met+liver share the D-cache)",
        headers=[
            "quantum (refs)",
            "D miss rate",
            "x standalone",
            "VC4 removed %",
            "4-way SB removed %",
            "total removed %",
        ],
        rows=rows,
        notes=[
            "context switches inflate the baseline miss rate (cold restarts);",
            "the helper structures refill in a few misses, so their benefit",
            "survives multiprogramming far better than the cache's warmth does",
        ],
    )
