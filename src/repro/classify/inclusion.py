"""Multi-level inclusion monitoring (paper §3.5, after Baer & Wang).

§3.5 makes two observations about inclusion — the property that every
line in an upper-level cache is also present in the level below it:

* "One interesting aspect of victim caches is that they violate
  inclusion properties in cache hierarchies."  A victim-cache hit swaps
  a line into L1 that the L2 may long since have replaced.
* "However, the line size of the second level cache in the baseline
  design is 8 to 16 times larger than the first-level cache line sizes,
  so this violates inclusion as well."  (A 128B L2 line can be evicted
  while several of its 16B fragments still live in L1.)

:class:`InclusionMonitor` watches an L1 (plus optional victim cache) and
an L2 and counts, at every step, how many upper-level lines have no
backing L2 line — making both §3.5 claims measurable
(:mod:`repro.experiments.ext_inclusion`).

Inclusion matters for multiprocessor snooping: an invalidation filtered
by the L2 must be able to assume nothing above it holds the line, so
every violation is a line a snoop filter would miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..buffers.victim_cache import VictimCache
from ..caches.direct_mapped import DirectMappedCache
from ..common.config import CacheConfig
from ..common.errors import ConfigurationError
from ..common.stats import safe_div
from ..common.types import AccessOutcome
from ..hierarchy.level import CacheLevel

__all__ = ["InclusionReport", "InclusionMonitor"]

_HIT = AccessOutcome.HIT
_MISS = AccessOutcome.MISS


@dataclass
class InclusionReport:
    """Violation statistics accumulated over one run."""

    accesses: int = 0
    #: Accesses after which at least one upper line lacked L2 backing.
    steps_with_violation: int = 0
    #: Sum over steps of unbacked upper lines (intensity, not just rate).
    violating_line_steps: int = 0
    #: Peak number of simultaneously unbacked upper lines.
    peak_violations: int = 0
    #: Violations observed inside the victim cache specifically.
    victim_cache_violations: int = 0

    @property
    def violation_rate(self) -> float:
        """Fraction of steps on which inclusion did not hold."""
        return safe_div(self.steps_with_violation, self.accesses)


class InclusionMonitor:
    """Drive an L1(+VC)/L2 pair and measure inclusion violations."""

    def __init__(
        self,
        l1_config: CacheConfig,
        l2_config: CacheConfig,
        victim_entries: int = 0,
        sample_interval: int = 1,
    ):
        if sample_interval < 1:
            raise ConfigurationError("sample_interval must be >= 1")
        if l2_config.line_size < l1_config.line_size:
            raise ConfigurationError("L2 line size must be >= L1 line size")
        self.l1_config = l1_config
        self.l2_config = l2_config
        self.victim = VictimCache(victim_entries) if victim_entries else None
        self.level = CacheLevel(l1_config, self.victim)
        self.l2 = DirectMappedCache(l2_config)
        self._l1_shift = l1_config.offset_bits
        self._l2_shift = l2_config.offset_bits
        #: log2 of the L1 lines per L2 line.
        self._fragment_bits = self._l2_shift - self._l1_shift
        #: Sampling every step is exact and cheap: the unbacked L1 count
        #: is kept up to date line by line as residency changes, and only
        #: the few victim-cache lines are recounted.  A sampling interval
        #: > 1 still trades temporal resolution for speed (the rate
        #: estimate stays unbiased for stationary behaviour).
        self.sample_interval = sample_interval
        self._since_sample = 0
        self._l1_unbacked = 0
        #: Victim-cache lines lacking L2 backing as of the last count; a
        #: plain L1 hit leaves the victim cache and the L2 alone, so the
        #: count stays exact until some other outcome happens.
        self._victim_unbacked = 0
        self._victim_moved = False
        self.report = InclusionReport()

    def access(self, byte_address: int) -> None:
        line = byte_address >> self._l1_shift
        cache = self.level.cache
        evicted = cache.resident_at(cache.index_of(line))
        outcome = self.level.access_line(line)
        if outcome is not _HIT:
            # The L1 set traded *evicted* for *line*; judge both against
            # the L2 as it stands before this step's L2 fill.
            self._l1_unbacked += self._unbacked(line)
            if evicted is not None:
                self._l1_unbacked -= self._unbacked(evicted)
            self._victim_moved = True
            if outcome is _MISS:
                self._fill_l2(byte_address >> self._l2_shift)
        self._since_sample += 1
        if self._since_sample >= self.sample_interval:
            self._since_sample = 0
            self._observe()

    def run(self, byte_addresses: Iterable[int]) -> InclusionReport:
        for address in byte_addresses:
            self.access(address)
        return self.report

    # -- internals --------------------------------------------------------------

    def _unbacked(self, l1_line: int) -> bool:
        return not self.l2.probe(l1_line >> self._fragment_bits)

    def _resident_fragments(self, l2_line: int) -> int:
        """How many L1 lines inside *l2_line* the L1 holds."""
        first = l2_line << self._fragment_bits
        probe = self.level.cache.probe
        return sum(1 for line in range(first, first + (1 << self._fragment_bits)) if probe(line))

    def _fill_l2(self, l2_line: int) -> None:
        """Fill the L2 and move the L1 lines of the lines it swapped."""
        l2 = self.l2
        displaced = l2.resident_at(l2.index_of(l2_line))
        if displaced == l2_line:
            return
        l2.fill(l2_line)
        if displaced is not None:
            self._l1_unbacked += self._resident_fragments(displaced)
        self._l1_unbacked -= self._resident_fragments(l2_line)

    def _observe(self) -> None:
        self.report.accesses += 1
        if self._victim_moved and self.victim is not None:
            self._victim_moved = False
            self._victim_unbacked = sum(
                1 for line in self.victim.resident_lines() if self._unbacked(line)
            )
        unbacked, victim_unbacked = self._l1_unbacked, self._victim_unbacked
        total = unbacked + victim_unbacked
        if total:
            self.report.steps_with_violation += 1
            self.report.violating_line_steps += total
            self.report.victim_cache_violations += victim_unbacked
            if total > self.report.peak_violations:
                self.report.peak_violations = total
