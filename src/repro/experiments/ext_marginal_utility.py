"""§3.1's area argument: misses removed per bit of storage.

The paper justifies the miss cache with marginal utility: "since
doubling the data cache size results in a 32% reduction in misses ...
each additional line in the first level cache reduces the number of
misses by approximately 0.13%.  Although the miss cache requires more
area per bit of storage than lines in the data cache, each line in a
two line miss cache effects a 50 times larger marginal improvement in
the miss rate."

This experiment redoes that arithmetic on the synthetic suite: the
suite-average percent-miss reduction per *line of storage* for (a)
growing the data cache 4KB → 8KB (256 extra lines), (b) each entry of a
miss cache, and (c) each entry of a victim cache — and the resulting
"times larger marginal improvement" ratio the paper quotes as ~50x.
"""

from __future__ import annotations

from typing import Optional

from ..common.config import CacheConfig
from ..common.stats import average_percent_reduction
from .base import TableResult, level_point_specs, run_point_specs
from .sweeps import batch_entry_sweeps
from .workloads import suite

__all__ = ["run"]

SMALL = CacheConfig(4096, 16)
BIG = CacheConfig(8192, 16)


def run(scale: Optional[int] = None, seed: int = 0) -> TableResult:
    traces = suite(scale, seed)
    names = [trace.name for trace in traces]
    small = run_point_specs(level_point_specs(traces, SMALL, sides=("d",)))
    big = run_point_specs(level_point_specs(traces, BIG, sides=("d",)))
    doubling_pairs = [(s.demand_misses, b.demand_misses) for s, b in zip(small, big)]
    mc_sweeps = dict(
        zip(names, batch_entry_sweeps(traces, SMALL, kind="miss", sides=("d",), max_entries=4))
    )
    vc_sweeps = dict(
        zip(names, batch_entry_sweeps(traces, SMALL, kind="victim", sides=("d",), max_entries=4))
    )

    doubling_reduction = average_percent_reduction(doubling_pairs)
    extra_lines = BIG.num_lines - SMALL.num_lines
    per_cache_line = doubling_reduction / extra_lines

    rows = [
        [
            "double cache 4KB->8KB",
            extra_lines,
            round(doubling_reduction, 1),
            round(per_cache_line, 4),
            1.0,
        ]
    ]
    for label, sweeps in (("miss cache", mc_sweeps), ("victim cache", vc_sweeps)):
        for entries in (1, 2, 4):
            pairs = [
                (sweep.total_misses, sweep.total_misses - sweep.removed(entries))
                for sweep in sweeps.values()
            ]
            reduction = average_percent_reduction(pairs)
            per_line = reduction / entries
            rows.append(
                [
                    f"{label}, {entries} entr.",
                    entries,
                    round(reduction, 1),
                    round(per_line, 4),
                    round(per_line / per_cache_line, 1),
                ]
            )
    return TableResult(
        experiment_id="ext_marginal_utility",
        title="SS3.1's area argument: percent-miss reduction per line of storage (data side)",
        headers=[
            "option",
            "lines added",
            "avg % miss reduction",
            "% per line",
            "x cache line",
        ],
        rows=rows,
        notes=[
            "paper: doubling 4KB->8KB removes 32% of misses (~0.13% per line),",
            "while each of two miss-cache lines is worth ~50x a plain cache line;",
            "the ratio column reproduces that marginal-utility comparison",
        ],
    )
