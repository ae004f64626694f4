"""Is a stream-buffer hit really one cycle?  (§4.1's caveat, tested.)

The paper's figures charge every removed miss one cycle, while §4.1
concedes that a demanded line may not have returned from the pipelined
second level yet.  This experiment runs the §5 improved system twice
per benchmark:

* the **aggregate** model (counts x penalties, one cycle per removed
  miss) — what Figure 5-1 uses;
* the **timeline** model, with stream buffers modelling availability
  against a real cycle clock (12-cycle fills, one request per 4
  cycles) — removed misses now pay any remaining fill time.

The gap between the two CPIs is exactly the cost of the paper's
one-cycle assumption.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..common.config import baseline_system
from ..common.stats import percent, safe_div
from ..hierarchy.performance import evaluate_performance
from ..hierarchy.timeline import TimelineSimulator
from ..specs import CompositeSpec, build
from .base import TableResult
from .figure_5_1 import IMPROVED_DSTRUCTURE, IMPROVED_ISTRUCTURE, base_and_improved
from .workloads import suite

__all__ = ["run"]


def run(scale: Optional[int] = None, seed: int = 0) -> TableResult:
    traces = suite(scale, seed)
    timing = baseline_system().timing
    # The timeline half: the same structures with the stream buffers
    # modelling availability (the specs' default 12-cycle fills and
    # 4-cycle issue interval are the baseline timing's).
    victim_cache, data_streams = IMPROVED_DSTRUCTURE.members
    timeline_istructure = replace(IMPROVED_ISTRUCTURE, model_availability=True)
    timeline_dstructure = CompositeSpec(
        (victim_cache, replace(data_streams, model_availability=True))
    )
    rows = []
    for trace, (_, aggregate_result) in zip(traces, base_and_improved(traces)):
        aggregate = evaluate_performance(aggregate_result, timing)

        timeline = TimelineSimulator(
            iaugmentation=build(timeline_istructure), daugmentation=build(timeline_dstructure)
        )
        timeline.prewarm_l2(trace)
        timeline_result = timeline.run(trace)

        removed = (
            timeline.ilevel.stats.removed_misses + timeline.dlevel.stats.removed_misses
        )
        rows.append(
            [
                trace.name,
                round(aggregate.cycles_per_instruction, 3),
                round(timeline_result.cycles_per_instruction, 3),
                timeline_result.availability_stall_cycles,
                round(
                    safe_div(timeline_result.availability_stall_cycles, removed), 2
                ),
                round(
                    percent(
                        timeline_result.cycles - aggregate.total_time,
                        aggregate.total_time,
                    ),
                    1,
                ),
            ]
        )
    return TableResult(
        experiment_id="ext_timing_fidelity",
        title="SS4.1 caveat: one-cycle removed misses vs. real availability stalls",
        headers=[
            "program",
            "aggregate CPI",
            "timeline CPI",
            "avail. stalls",
            "stalls / removed miss",
            "CPI gap %",
        ],
        rows=rows,
        notes=[
            "improved SS5 system both times; timeline stream buffers model the",
            "pipelined L2 (12-cycle fills, one request per 4 cycles), so a head",
            "demanded before its fill returns pays the remaining cycles",
        ],
    )
