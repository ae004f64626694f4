"""§3.5 extension: inclusion violations in the hierarchy.

Measures the two inclusion observations of §3.5 on the data side, using
a 64KB L2 proxy (capacity the synthetic traces exercise):

1. with matched 16B lines everywhere and no victim cache, inclusion
   violations come only from L2 replacement racing L1 residency;
2. the baseline's 128B L2 lines violate inclusion on their own ("this
   violates inclusion as well");
3. adding a victim cache adds its own violations — swapped-in lines the
   L2 replaced long ago.

Reported per configuration: the fraction of (sampled) steps with at
least one unbacked upper-level line, the average number of unbacked
lines on violating steps, and the share of violations living in the
victim cache.
"""

from __future__ import annotations

from typing import Optional

from ..classify.inclusion import InclusionMonitor
from ..common.config import CacheConfig
from ..common.stats import safe_div
from .base import TableResult
from .workloads import suite

__all__ = ["run"]

L1 = CacheConfig(4096, 16)
L2_MATCHED = CacheConfig(64 * 1024, 16)
L2_WIDE = CacheConfig(64 * 1024, 128)
SAMPLE = 8

_CONFIGS = [
    ("16B L2 lines, no VC", L2_MATCHED, 0),
    ("128B L2 lines, no VC", L2_WIDE, 0),
    ("128B L2 lines, VC4", L2_WIDE, 4),
]


def run(scale: Optional[int] = None, seed: int = 0) -> TableResult:
    traces = suite(scale, seed)
    rows = []
    for label, l2_config, victim_entries in _CONFIGS:
        total_steps = 0
        violating = 0
        line_steps = 0
        vc_line_steps = 0
        peak = 0
        for trace in traces:
            monitor = InclusionMonitor(L1, l2_config, victim_entries, SAMPLE)
            report = monitor.run(trace.data_addresses)
            total_steps += report.accesses
            violating += report.steps_with_violation
            line_steps += report.violating_line_steps
            vc_line_steps += report.victim_cache_violations
            peak = max(peak, report.peak_violations)
        rows.append(
            [
                label,
                round(100.0 * safe_div(violating, total_steps), 1),
                round(safe_div(line_steps, violating), 1),
                peak,
                round(100.0 * safe_div(vc_line_steps, line_steps), 1),
            ]
        )
    return TableResult(
        experiment_id="ext_inclusion",
        title="Extension (SS3.5): inclusion violations, data side (64KB L2 proxy)",
        headers=[
            "configuration",
            "% steps violated",
            "avg unbacked lines",
            "peak",
            "% of violations in VC",
        ],
        rows=rows,
        notes=[
            "SS3.5: victim caches violate inclusion - and so do the baseline's",
            "8-16x larger L2 lines; violations are lines a snoop filter at the",
            "L2 could not see (sampled every 8 references)",
        ],
    )
