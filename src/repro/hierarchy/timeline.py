"""Cycle-approximate timeline simulation.

The aggregate model (:mod:`repro.hierarchy.performance`) charges every
removed miss exactly one cycle — the paper's assumption.  That is only
true when the stream buffer's head has actually *returned* from the
pipelined second level by the time it is demanded (§4.1 is explicit
that it may not have).  The timeline simulator replays a trace with a
real cycle clock: instruction issue advances it, miss penalties advance
it, and stream buffers built with ``model_availability=True`` report
not-ready stalls against it.

Comparing the two models per benchmark
(:mod:`repro.experiments.ext_timing_fidelity`) quantifies how much the
one-cycle assumption flatters the results — the honest answer to "is a
stream-buffer hit really free?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from ..buffers.base import L1Augmentation
from ..common.config import SystemConfig
from ..common.stats import safe_div
from ..common.types import AccessKind, AccessOutcome
from .system import MemorySystem

__all__ = ["TimelineResult", "TimelineSimulator"]


@dataclass
class TimelineResult:
    """Cycle accounting from one timeline replay."""

    instructions: int = 0
    data_references: int = 0
    cycles: int = 0
    #: Cycles spent on full L1 miss penalties.
    l1_penalty_cycles: int = 0
    #: Additional cycles on demand L2 misses.
    l2_penalty_cycles: int = 0
    #: One-cycle reloads of removed misses.
    removed_miss_cycles: int = 0
    #: Not-yet-returned stream-buffer head stalls (the honest part).
    availability_stall_cycles: int = 0

    @property
    def cycles_per_instruction(self) -> float:
        return safe_div(self.cycles, self.instructions, default=1.0)

    @property
    def percent_of_potential(self) -> float:
        return 100.0 * safe_div(self.instructions, self.cycles, default=1.0)


class TimelineSimulator:
    """Replay a trace against a real cycle clock.

    The clock advances one cycle per issued instruction, plus the
    memory-system penalties of the access that instruction (or its data
    reference) makes.  Stream buffers attached to either side should be
    constructed with ``model_availability=True`` so their prefetch
    completion times are measured against this clock; the simulator
    works with any augmentation either way.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        iaugmentation: Optional[L1Augmentation] = None,
        daugmentation: Optional[L1Augmentation] = None,
    ):
        # The clock runs over a MemorySystem's levels, L2 and prefetch
        # wiring (the drain-after-demand order included), so the two
        # models see identical L2 contents and the system's L2 counters
        # hold this replay's traffic.
        self.system = MemorySystem(config, iaugmentation, daugmentation)
        self.config = self.system.config
        self.ilevel = self.system.ilevel
        self.dlevel = self.system.dlevel
        self._ishift = self.config.icache.offset_bits
        self._dshift = self.config.dcache.offset_bits
        self._l2_shift = self.config.l2.offset_bits
        self.result = TimelineResult()
        self.now = 0

    def prewarm_l2(self, trace: Iterable[Tuple[int, int]]) -> int:
        """Preload the L2 footprint (see :meth:`MemorySystem.prewarm_l2`)."""
        return self.system.prewarm_l2(trace)

    def run(self, trace: Iterable[Tuple[int, int]]) -> TimelineResult:
        timing = self.config.timing
        result = self.result
        system = self.system
        for kind, byte_address in trace:
            if kind == AccessKind.IFETCH:
                result.instructions += 1
                self.now += 1
                level, shift = self.ilevel, self._ishift
            else:
                result.data_references += 1
                level, shift = self.dlevel, self._dshift
            stalls_before = level.stats.stream_stall_cycles
            outcome = level.access_line(byte_address >> shift, self.now)
            if outcome is AccessOutcome.MISS:
                penalty = timing.l1_miss_penalty
                result.l1_penalty_cycles += penalty
                if not system._l2_demand(byte_address >> self._l2_shift):
                    result.l2_penalty_cycles += timing.l2_miss_penalty
                    penalty += timing.l2_miss_penalty
                self.now += penalty
            elif outcome.is_removed_miss:
                stall = level.stats.stream_stall_cycles - stalls_before
                result.removed_miss_cycles += timing.removed_miss_penalty
                result.availability_stall_cycles += stall
                self.now += timing.removed_miss_penalty + stall
            if system._pending_prefetches:
                system._drain_prefetches()
        result.cycles = self.now
        return result
