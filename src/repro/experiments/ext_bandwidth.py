"""§4.1 worked example: sequential fetch bandwidth vs. memory latency.

Reproduces the paper's arithmetic — with a 12-cycle pipelined fill
latency and a new request accepted every 4 cycles, a four-entry stream
buffer supplies sequential instructions at one per cycle while tagged
prefetch manages one every three cycles — and extends it across
latencies to check the §5 claim that "stream buffers can also tolerate
longer memory system latencies since they prefetch data much in advance
of other prefetch techniques".
"""

from __future__ import annotations

from typing import Optional

from ..hierarchy.bandwidth import bandwidth_sweep
from .base import TableResult

__all__ = ["run", "LATENCIES"]

LATENCIES = [4, 8, 12, 16, 24, 48]
ISSUE_INTERVAL = 4
INSTRUCTIONS_PER_LINE = 4


def run(scale: Optional[int] = None, seed: int = 0) -> TableResult:
    rows = []
    for point in bandwidth_sweep(
        LATENCIES,
        issue_interval=ISSUE_INTERVAL,
        instructions_per_line=INSTRUCTIONS_PER_LINE,
        buffer_entries=4,
    ):
        rows.append(
            [
                point.latency,
                round(point.demand_cpi, 3),
                round(point.tagged_cpi, 3),
                round(point.stream_cpi, 3),
                round(point.tagged_cpi / point.stream_cpi, 2),
            ]
        )
    return TableResult(
        experiment_id="ext_bandwidth",
        title="SS4.1 worked example: sequential-fetch cycles/instruction vs. fill latency",
        headers=[
            "latency (cycles)",
            "demand CPI",
            "tagged CPI",
            "stream-buffer CPI",
            "tagged/stream",
        ],
        rows=rows,
        notes=[
            "pipelined interface: one request per 4 cycles; 4-instruction lines;",
            "paper's example at latency 12: stream buffer 1.0 CPI vs tagged 3.0;",
            "the stream buffer holds 1.0 CPI until latency exceeds what 4",
            "outstanding requests can cover, then degrades gracefully",
        ],
    )
