"""Victim caching (paper §3.2).

Victim caching is miss caching with a better replacement rule, suggested
to Jouppi by Alan Eustace: instead of loading the small fully-associative
cache with the *requested* line, load it with the *victim* line evicted
from the direct-mapped cache.  On an L1 miss that hits in the victim
cache, the direct-mapped line and the victim-cache line are *swapped*.

The consequence is an exclusivity invariant — no line is ever resident in
both the direct-mapped cache and the victim cache — so even a one-entry
victim cache is useful, and a victim cache of ``k`` entries captures
twice the conflicting working set a miss cache of ``k`` entries can
(one set of conflicting lines lives in L1, the other in the victim
cache, trading places as execution alternates).
"""

from __future__ import annotations

from typing import Optional

from ..caches.fully_associative import FullyAssociativeCache, ReplacementPolicy
from ..common.stats import Histogram
from ..common.types import AccessOutcome
from .base import L1Augmentation, MISS_LOOKUP, MissLookup

__all__ = ["VictimCache"]

_SATISFIED = MissLookup(True, AccessOutcome.VICTIM_HIT, 0)


class VictimCache(L1Augmentation):
    """A fully-associative LRU victim cache of *entries* lines.

    With ``swap_on_hit=True`` (the paper's design) a hit removes the line
    from the victim cache — it moves into L1, and the displaced L1 line
    arrives via :meth:`on_l1_fill`.  Setting it to False keeps a copy in
    the victim cache instead, an ablation that breaks exclusivity and is
    measured in :mod:`repro.experiments.ablations`.

    As with :class:`~repro.buffers.miss_cache.MissCache`, the insertion
    stream (L1 victims) does not depend on the victim cache's size, so a
    depth histogram from one large run reproduces the whole Figure 3-5
    entry sweep.
    """

    def __init__(
        self,
        entries: int,
        track_depths: bool = False,
        swap_on_hit: bool = True,
        policy: ReplacementPolicy = ReplacementPolicy.LRU,
    ):
        self.name = f"victim_cache[{entries}]"
        self.entries = entries
        self.swap_on_hit = swap_on_hit
        self._store = FullyAssociativeCache(entries, policy)
        self.hits = 0
        self.lookups = 0
        self.hit_depths: Optional[Histogram] = Histogram() if track_depths else None

    def lookup_on_miss(self, line_addr: int, now: int) -> MissLookup:
        self.lookups += 1
        if self.hit_depths is not None:
            depth = self._store.depth_of(line_addr)
            if depth is not None:
                self.hit_depths.add(depth)
        if self._store.probe(line_addr):
            self.hits += 1
            if self.swap_on_hit:
                # The line migrates into the direct-mapped cache; the L1
                # victim will be inserted by on_l1_fill, completing the swap.
                self._store.invalidate(line_addr)
            else:
                self._store.access(line_addr)
            return _SATISFIED
        return MISS_LOOKUP

    def on_l1_fill(self, line_addr: int, victim: Optional[int], now: int) -> None:
        # Victim caching saves the line thrown out of the direct-mapped
        # cache.  A cold L1 set evicts nothing, so nothing is inserted.
        if victim is not None:
            self._store.fill(victim)

    def reset(self) -> None:
        self._store.clear()
        self.hits = 0
        self.lookups = 0
        if self.hit_depths is not None:
            self.hit_depths = Histogram()

    def contains(self, line_addr: int) -> bool:
        """Probe without side effects (testing aid)."""
        return self._store.probe(line_addr)

    def occupancy(self) -> int:
        return self._store.occupancy()

    def resident_lines(self):
        """Iterate resident lines (used by the exclusivity property test)."""
        return self._store.resident_lines()
