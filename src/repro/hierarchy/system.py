"""The paper's two-level baseline memory system (Figure 2-1).

Split 4KB direct-mapped L1 instruction and data caches feed a shared
direct-mapped 1MB L2 with 128-byte lines.  Either L1 may carry an
augmentation (miss cache, victim cache, stream buffer, or a composite);
stream-buffer prefetches are routed through the L2 so its contents stay
honest, but only *demand* L2 misses stall the processor — prefetch
traffic rides the pipelined interface the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterable, Iterator, Optional, Tuple

from ..buffers.base import CompositeAugmentation, L1Augmentation
from ..buffers.stream_buffer import MultiWayStreamBuffer, StreamBuffer
from ..buffers.stride import MultiWayStrideBuffer, StrideStreamBuffer
from ..caches.direct_mapped import DirectMappedCache
from ..common.config import SystemConfig, baseline_system
from ..common.stats import safe_div
from ..common.types import AccessKind, AccessOutcome
from ..telemetry.core import current as _telemetry_scope
from .level import CacheLevel, LevelStats

__all__ = ["L2Stats", "SystemResult", "MemorySystem"]


class L2Stats:
    """Second-level cache counters, split demand vs. prefetch traffic."""

    __slots__ = ("demand_accesses", "demand_misses", "prefetch_accesses", "prefetch_misses")

    def __init__(self) -> None:
        self.demand_accesses = 0
        self.demand_misses = 0
        self.prefetch_accesses = 0
        self.prefetch_misses = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-int snapshot of every counter (telemetry record shape)."""
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, L2Stats):
            return NotImplemented
        return all(getattr(self, slot) == getattr(other, slot) for slot in self.__slots__)

    def __hash__(self) -> int:
        """Value hash consistent with ``__eq__``.

        Defining ``__eq__`` alone sets ``__hash__`` to None, which made
        instances unhashable and broke set/dict membership of result
        summaries.  The hash is value-based over mutable counters — as
        with any mutable value type, do not mutate an instance while a
        hash-based container holds it.
        """
        return hash(tuple(getattr(self, slot) for slot in self.__slots__))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{slot}={getattr(self, slot)}" for slot in self.__slots__)
        return f"L2Stats({fields})"


@dataclass
class SystemResult:
    """Everything a single trace run produces."""

    instructions: int
    data_references: int
    istats: LevelStats
    dstats: LevelStats
    l2stats: L2Stats

    @property
    def total_references(self) -> int:
        return self.instructions + self.data_references

    @property
    def imiss_rate(self) -> float:
        """Instruction misses per instruction (Table 2-2's 'instr' column)."""
        return safe_div(self.istats.demand_misses, self.instructions)

    @property
    def dmiss_rate(self) -> float:
        """Data misses per data reference (Table 2-2's 'data' column)."""
        return safe_div(self.dstats.demand_misses, self.data_references)

    @property
    def effective_imiss_rate(self) -> float:
        return safe_div(self.istats.misses_to_next_level, self.instructions)

    @property
    def effective_dmiss_rate(self) -> float:
        return safe_div(self.dstats.misses_to_next_level, self.data_references)


class MemorySystem:
    """Trace-driven simulator of the baseline two-level hierarchy."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        iaugmentation: Optional[L1Augmentation] = None,
        daugmentation: Optional[L1Augmentation] = None,
        classify: bool = False,
    ):
        self.config = config if config is not None else baseline_system()
        self.ilevel = CacheLevel(self.config.icache, iaugmentation, classify, name="L1I")
        self.dlevel = CacheLevel(self.config.dcache, daugmentation, classify, name="L1D")
        self.l2 = DirectMappedCache(self.config.l2)
        self.l2stats = L2Stats()
        self._l2_shift = self.config.l2.offset_bits
        self._ishift = self.config.icache.offset_bits
        self._dshift = self.config.dcache.offset_bits
        self.instructions = 0
        self.data_references = 0
        # Prefetches issued while servicing a miss are queued and sent
        # to the L2 *after* the demand fetch, matching the §4.1 order
        # (the demand line goes out first, prefetches stream behind it).
        self._pending_prefetches: list = []
        # True only when at least one stream buffer was wired to the L2;
        # lets the per-reference loop skip the pending-queue check for
        # the (common) augmentation-free and non-prefetching systems.
        self._has_prefetch_sinks = False
        self._wire_prefetch_sinks(iaugmentation, self._ishift)
        self._wire_prefetch_sinks(daugmentation, self._dshift)

    # -- construction helpers ---------------------------------------------------

    def _wire_prefetch_sinks(self, augmentation: Optional[L1Augmentation], l1_shift: int) -> None:
        """Route every prefetching buffer's fetches through the L2 tag store."""
        shift_to_l2 = self._l2_shift - l1_shift

        def sink(l1_line: int) -> None:
            self._pending_prefetches.append(l1_line >> shift_to_l2)

        for buffer in _prefetching_buffers(augmentation):
            if buffer.fetch_sink is None:
                buffer.fetch_sink = sink
                self._has_prefetch_sinks = True

    # -- simulation --------------------------------------------------------------

    def access(self, kind: int, byte_address: int) -> AccessOutcome:
        """Simulate one reference; *kind* is an :class:`AccessKind` value."""
        if kind == AccessKind.IFETCH:
            self.instructions += 1
            outcome = self.ilevel.access_line(byte_address >> self._ishift, self.instructions)
        else:
            self.data_references += 1
            outcome = self.dlevel.access_line(byte_address >> self._dshift, self.instructions)
        if outcome is AccessOutcome.MISS:
            self._l2_demand(byte_address >> self._l2_shift)
        if self._has_prefetch_sinks and self._pending_prefetches:
            self._drain_prefetches()
        return outcome

    def run(self, trace: Iterable[Tuple[int, int]]) -> SystemResult:
        """Run a whole trace of ``(kind, byte_address)`` pairs.

        Semantically ``for pair in trace: self.access(*pair)``, but with
        the per-reference work inlined and every attribute the loop needs
        bound to a local: this loop is the simulator's hottest path, and
        the L2 demand handling plus the level dispatch dominate the cost
        of a full-system replay.

        When a telemetry scope is active
        (:func:`repro.telemetry.core.activate`) the run reports its wall
        time and counters to it; the disabled path costs one global read
        per *run*, never anything per reference.
        """
        scope = _telemetry_scope()
        started = perf_counter() if scope is not None else 0.0
        ilevel_access = self.ilevel.access_line
        dlevel_access = self.dlevel.access_line
        ishift = self._ishift
        dshift = self._dshift
        l2_shift = self._l2_shift
        l2_access = self.l2.access
        l2_fill = self.l2.fill
        l2stats = self.l2stats
        l2_prefetch = self._l2_prefetch
        pending = self._pending_prefetches
        has_sinks = self._has_prefetch_sinks
        ifetch = int(AccessKind.IFETCH)
        miss = AccessOutcome.MISS
        instructions = self.instructions
        data_references = self.data_references
        demand_accesses = l2stats.demand_accesses
        demand_misses = l2stats.demand_misses
        try:
            for kind, byte_address in trace:
                if kind == ifetch:
                    instructions += 1
                    outcome = ilevel_access(byte_address >> ishift, instructions)
                else:
                    data_references += 1
                    outcome = dlevel_access(byte_address >> dshift, instructions)
                if outcome is miss:
                    demand_accesses += 1
                    l2_line = byte_address >> l2_shift
                    if not l2_access(l2_line):
                        demand_misses += 1
                        l2_fill(l2_line)
                if has_sinks and pending:
                    for l2_line in pending:
                        l2_prefetch(l2_line)
                    pending.clear()
        finally:
            self.instructions = instructions
            self.data_references = data_references
            l2stats.demand_accesses = demand_accesses
            l2stats.demand_misses = demand_misses
        result = self.result()
        if scope is not None:
            scope.observe_system_run(result, perf_counter() - started)
        return result

    def result(self) -> SystemResult:
        return SystemResult(
            instructions=self.instructions,
            data_references=self.data_references,
            istats=self.ilevel.stats,
            dstats=self.dlevel.stats,
            l2stats=self.l2stats,
        )

    def prewarm_l2(self, trace: Iterable[Tuple[int, int]]) -> int:
        """Preload the L2 with every line a trace touches (no statistics).

        The paper's traces run 23M-485M instructions, so first-touch L2
        misses are amortized to noise; at synthetic-trace scale they
        would dominate the §2/§5 performance figures.  Prewarming models
        the same steady state: compulsory L2 misses vanish, while L2
        capacity and conflict behaviour (and everything about the L1s)
        is unchanged.  Returns the number of distinct L2 lines loaded.
        """
        loaded = 0
        for _, byte_address in trace:
            line = byte_address >> self._l2_shift
            if not self.l2.access(line):
                self.l2.fill(line)
                loaded += 1
        return loaded

    def reset(self) -> None:
        self.ilevel.reset()
        self.dlevel.reset()
        self.l2.clear()
        self.l2stats = L2Stats()
        self.instructions = 0
        self.data_references = 0
        self._pending_prefetches.clear()

    # -- L2 traffic ---------------------------------------------------------------

    def _l2_demand(self, l2_line: int) -> bool:
        """Demand-fetch one L2 line; True on an L2 hit."""
        self.l2stats.demand_accesses += 1
        if self.l2.access(l2_line):
            return True
        self.l2stats.demand_misses += 1
        self.l2.fill(l2_line)
        return False

    def _l2_prefetch(self, l2_line: int) -> None:
        self.l2stats.prefetch_accesses += 1
        if not self.l2.access(l2_line):
            self.l2stats.prefetch_misses += 1
            self.l2.fill(l2_line)

    def _drain_prefetches(self) -> None:
        """Send the prefetches queued behind a demand fetch to the L2."""
        for l2_line in self._pending_prefetches:
            self._l2_prefetch(l2_line)
        self._pending_prefetches.clear()


def _prefetching_buffers(augmentation: Optional[L1Augmentation]) -> Iterator[L1Augmentation]:
    """Every single-way buffer that fetches from the L2, at any nesting."""
    if augmentation is None:
        return
    stack = [augmentation]
    while stack:
        node = stack.pop()
        if isinstance(node, (StreamBuffer, StrideStreamBuffer)):
            yield node
        elif isinstance(node, (MultiWayStreamBuffer, MultiWayStrideBuffer)):
            stack.extend(node.way_buffers())
        elif isinstance(node, CompositeAugmentation):
            stack.extend(node.members)
