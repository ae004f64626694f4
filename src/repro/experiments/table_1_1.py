"""Table 1-1: the increasing cost of cache misses.

Analytic, not simulated: for each machine generation the miss cost in
cycles is the main-memory access time divided by the cycle time, and the
miss cost in instruction times is that divided by cycles-per-instruction.
The paper's point is the multiplicative blow-up from faster cycles and
lower CPI; the "?" row is its projected 1,000-MIPS-class machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .base import TableResult

__all__ = ["MachineGeneration", "MACHINES", "run"]


@dataclass(frozen=True)
class MachineGeneration:
    """One row of Table 1-1."""

    name: str
    cycles_per_instruction: float
    cycle_time_ns: float
    memory_time_ns: float

    @property
    def miss_cost_cycles(self) -> float:
        return self.memory_time_ns / self.cycle_time_ns

    @property
    def miss_cost_instructions(self) -> float:
        return self.miss_cost_cycles * (1.0 / self.cycles_per_instruction)


#: The paper's three generations: the VAX 11/780, the WRL Titan, and the
#: projected future machine.
MACHINES: List[MachineGeneration] = [
    MachineGeneration("VAX 11/780", cycles_per_instruction=10.0, cycle_time_ns=200.0, memory_time_ns=1200.0),
    MachineGeneration("WRL Titan", cycles_per_instruction=1.4, cycle_time_ns=45.0, memory_time_ns=540.0),
    MachineGeneration("?", cycles_per_instruction=0.5, cycle_time_ns=4.0, memory_time_ns=280.0),
]

#: Paper-reported miss costs in instruction times, for comparison.
PAPER_MISS_COST_INSTR = {"VAX 11/780": 0.6, "WRL Titan": 8.6, "?": 140.0}


def run(scale: Optional[int] = None, seed: int = 0) -> TableResult:
    rows = []
    for machine in MACHINES:
        rows.append(
            [
                machine.name,
                machine.cycles_per_instruction,
                machine.cycle_time_ns,
                machine.memory_time_ns,
                machine.miss_cost_cycles,
                machine.miss_cost_instructions,
                PAPER_MISS_COST_INSTR[machine.name],
            ]
        )
    return TableResult(
        experiment_id="table_1_1",
        title="The increasing cost of cache misses",
        headers=[
            "machine",
            "cycles/instr",
            "cycle (ns)",
            "mem (ns)",
            "miss (cycles)",
            "miss (instr)",
            "paper (instr)",
        ],
        rows=rows,
        notes=["analytic: miss cost = mem time / cycle time; instr cost = cycles x IPC"],
    )
