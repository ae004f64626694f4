"""Miss caching (paper §3.1).

A miss cache is a small (2–5 entry) fully-associative cache between the
first-level cache and its refill path.  On an L1 miss the data returned
from the second level is written both into the direct-mapped array *and*
into the miss cache, replacing the least recently used entry.  An L1 miss
whose address hits in the miss cache is serviced in one cycle instead of
paying the full off-chip penalty.

Because the requested line is loaded into both structures, every line in
the miss cache is (initially) a duplicate of a line in the L1 cache —
the observation that motivates victim caching (§3.2).
"""

from __future__ import annotations

from typing import Optional

from ..caches.fully_associative import FullyAssociativeCache, ReplacementPolicy
from ..common.stats import Histogram
from ..common.types import AccessOutcome
from .base import L1Augmentation, MISS_LOOKUP, MissLookup

__all__ = ["MissCache"]

_SATISFIED = MissLookup(True, AccessOutcome.MISS_CACHE_HIT, 0)


class MissCache(L1Augmentation):
    """A fully-associative LRU miss cache of *entries* lines.

    The optional stack-depth histogram (:attr:`hit_depths`) records, for
    every hit, the LRU depth at which the line was found.  Fed the same
    miss stream, a miss cache of ``k`` entries hits exactly the lookups
    whose depth is ``< k``, so a single run with a large miss cache
    yields the whole Figure 3-3 size sweep (see
    :mod:`repro.experiments.sweeps`).
    """

    def __init__(
        self,
        entries: int,
        track_depths: bool = False,
        policy: ReplacementPolicy = ReplacementPolicy.LRU,
    ):
        self.name = f"miss_cache[{entries}]"
        self.entries = entries
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
        if self._store.access(line_addr):
            self.hits += 1
            return _SATISFIED
        return MISS_LOOKUP

    def on_l1_fill(self, line_addr: int, victim: Optional[int], now: int) -> None:
        # Miss caching loads the *requested* line; the L1 victim is
        # simply discarded.  fill() refreshes LRU state when the line is
        # already resident (the miss-cache-hit case).
        self._store.fill(line_addr)

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
