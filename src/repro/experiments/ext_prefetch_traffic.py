"""Prefetch bandwidth accounting — the cost the paper leaves implicit.

§4.1 is careful about cache *pollution* (prefetched lines stay in the
buffer) but silent about *bandwidth*: every buffer allocation launches
``entries`` second-level fetches whether or not the stream continues,
and the paper's own data shows most data streams die within a few
lines.  This experiment measures the traffic amplification — prefetches
issued per miss actually removed — for the paper's 4-way data buffer,
and evaluates the classic remedy: an **allocation filter** that waits
for a second sequential miss before committing a buffer
(``StreamBuffer(allocation_filter=True)``).

Expected shape: on streaming codes (linpack, liver) the paper's design
is already efficient (~1.1 fetches per removed miss) and the filter is
free; on pointer/conflict codes (ccom, met) the unfiltered buffer
wastes an order of magnitude more bandwidth, and the filter trades a
little removal for most of that waste — except where the "streams" are
themselves conflict artifacts (met), which the filter rightly refuses
to chase.
"""

from __future__ import annotations

from typing import Optional

from ..buffers.stream_buffer import MultiWayStreamBuffer
from ..common.config import CacheConfig
from ..common.stats import percent, safe_div
from .base import TableResult
from .runner import run_level
from .workloads import suite

__all__ = ["run"]

CONFIG = CacheConfig(4096, 16)


def _measure(addresses, allocation_filter: bool):
    buffer = MultiWayStreamBuffer(ways=4, entries=4, allocation_filter=allocation_filter)
    run = run_level(addresses, CONFIG, buffer)
    removed = run.stats.removed_misses
    return (
        percent(removed, run.stats.demand_misses),
        buffer.prefetches_issued,
        safe_div(buffer.prefetches_issued, removed, default=float("inf")),
    )


def run(scale: Optional[int] = None, seed: int = 0) -> TableResult:
    rows = []
    for trace in suite(scale, seed):
        addresses = trace.data_addresses
        base_removed, base_issued, base_ratio = _measure(addresses, False)
        filt_removed, filt_issued, filt_ratio = _measure(addresses, True)
        rows.append(
            [
                trace.name,
                round(base_removed, 1),
                round(base_ratio, 1) if base_ratio != float("inf") else "inf",
                round(filt_removed, 1),
                round(filt_ratio, 1) if filt_ratio != float("inf") else "inf",
                round(100.0 * safe_div(base_issued - filt_issued, base_issued), 1),
            ]
        )
    return TableResult(
        experiment_id="ext_prefetch_traffic",
        title="Prefetch bandwidth: 4-way data stream buffer, with/without allocation filter",
        headers=[
            "program",
            "removed % (paper)",
            "fetches/removed",
            "removed % (filtered)",
            "fetches/removed",
            "traffic saved %",
        ],
        rows=rows,
        notes=[
            "the paper allocates on every miss; the filter waits for a second",
            "sequential miss, trading a little removal for most of the wasted",
            "second-level fetch bandwidth on non-streaming codes",
        ],
    )
