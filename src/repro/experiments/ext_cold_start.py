"""Methodology check: cold-start share of the measured miss rates.

The paper's traces run 23M-145M instructions, so compulsory (first-
reference) misses are a negligible share of its Table 2-2 rates; the
synthetic traces are ~500x shorter, so some of each measured rate is
cold start.  This experiment quantifies it by measuring every benchmark
twice: cold (as Table 2-2 does) and steady-state (the first third of
the trace replayed as warm-up, counters reset, remainder measured).

The delta column is the honest error bar on the calibration; the
steady-state conflict share shows that the *conflict* behaviour — what
the paper's structures attack — is not a cold-start artifact.
"""

from __future__ import annotations

from typing import Optional

from ..common.config import CacheConfig
from ..common.stats import percent
from ..specs import SystemSpec
from .base import TableResult, run_point_specs
from .workloads import suite

__all__ = ["run"]

CONFIG = CacheConfig(4096, 16)


def run(scale: Optional[int] = None, seed: int = 0) -> TableResult:
    traces = suite(scale, seed)
    specs = [
        SystemSpec.for_level(trace, CONFIG, classify=True, warmup=warmup)
        for trace in traces
        for warmup in (0, len(trace.data_addresses) // 3)
    ]
    summaries = run_point_specs(specs)
    rows = []
    for trace, cold, warm in zip(traces, summaries[::2], summaries[1::2]):
        cold_rate = cold.miss_rate
        warm_rate = warm.miss_rate
        rows.append(
            [
                trace.name,
                round(cold_rate, 4),
                round(warm_rate, 4),
                round(100.0 * (cold_rate - warm_rate) / max(1e-12, cold_rate), 1),
                round(percent(cold.conflict_misses, cold.demand_misses), 1),
                round(percent(warm.conflict_misses, warm.demand_misses), 1),
            ]
        )
    return TableResult(
        experiment_id="ext_cold_start",
        title="Methodology: cold vs. steady-state data miss rates (warm-up = first third)",
        headers=[
            "program",
            "cold rate",
            "steady rate",
            "cold-start share %",
            "cold confl %",
            "steady confl %",
        ],
        rows=rows,
        notes=[
            "the paper's 10^8-instruction traces amortize cold start to noise;",
            "at synthetic scale this table is the error bar on Table 2-2's",
            "reproduction, and shows conflict shares survive steady state",
        ],
    )
