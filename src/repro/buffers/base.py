"""Interface between a first-level cache and its helper structures.

The paper's structures all live *behind* the L1 cache, outside the
critical path (§2): they are consulted only when the direct-mapped array
misses, and updated when it is refilled.  The :class:`L1Augmentation`
interface captures that contract.  The cache level
(:class:`repro.hierarchy.level.CacheLevel`) drives it as follows for each
access to line ``L`` at cycle ``now``:

1. L1 hit  → ``on_l1_hit(L, now)``; done.
2. L1 miss → ``lookup_on_miss(L, now)``; the augmentation reports whether
   it can supply the line in one cycle and how many extra stall cycles
   (if it models availability).
3. The L1 array is refilled with ``L`` regardless of where the data came
   from, evicting ``victim`` → ``on_l1_fill(L, victim, now)``.

Because step 3 happens on *every* miss, the direct-mapped array's state
evolution is completely independent of the augmentation — exactly the
property §3 relies on and which the single-pass sweeps exploit.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..common.types import AccessOutcome

__all__ = ["MissLookup", "L1Augmentation", "NullAugmentation", "CompositeAugmentation"]


@dataclass(frozen=True)
class MissLookup:
    """Result of consulting an augmentation about an L1 miss."""

    #: True when the structure supplies the line (a "removed" miss).
    satisfied: bool
    #: What the outcome should be recorded as when satisfied.
    outcome: AccessOutcome = AccessOutcome.MISS
    #: Extra stall cycles beyond the one-cycle reload (stream buffers
    #: whose head has been requested but not yet returned by the
    #: pipelined L2; zero when availability is not modelled).
    stall_cycles: int = 0


#: Shared "nothing helped" lookup result.
MISS_LOOKUP = MissLookup(False, AccessOutcome.MISS, 0)


class L1Augmentation(abc.ABC):
    """A structure attached to the refill path of a first-level cache."""

    #: Human-readable name used in reports.
    name: str = "augmentation"

    def on_l1_hit(self, line_addr: int, now: int) -> None:
        """Called for every L1 hit.  Most structures ignore hits."""

    @abc.abstractmethod
    def lookup_on_miss(self, line_addr: int, now: int) -> MissLookup:
        """Consult the structure about an L1 miss and update its state."""

    def on_l1_fill(self, line_addr: int, victim: Optional[int], now: int) -> None:
        """Called after the L1 array is refilled (victim may be None)."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Restore pristine state between simulation runs."""


class NullAugmentation(L1Augmentation):
    """The baseline: a bare direct-mapped cache with no helpers."""

    name = "none"

    def lookup_on_miss(self, line_addr: int, now: int) -> MissLookup:
        return MISS_LOOKUP

    def reset(self) -> None:
        pass


class CompositeAugmentation(L1Augmentation):
    """Several structures behind one cache, as in the §5 combined system.

    Every member observes every miss (so each keeps the state it would
    have alone), and the recorded outcome is the *first* member that
    satisfied the miss.  The number of misses satisfied by more than one
    member is tracked in :attr:`overlap_hits`, which is precisely the
    victim-cache/stream-buffer overlap statistic quoted in §5.
    """

    name = "composite"

    def __init__(self, members: Sequence[L1Augmentation]):
        if not members:
            raise ValueError("CompositeAugmentation needs at least one member")
        self.members: List[L1Augmentation] = list(members)
        self.overlap_hits = 0
        self.total_misses = 0

    def on_l1_hit(self, line_addr: int, now: int) -> None:
        for member in self.members:
            member.on_l1_hit(line_addr, now)

    def lookup_on_miss(self, line_addr: int, now: int) -> MissLookup:
        self.total_misses += 1
        results = [member.lookup_on_miss(line_addr, now) for member in self.members]
        satisfied = [r for r in results if r.satisfied]
        if len(satisfied) > 1:
            self.overlap_hits += 1
        if satisfied:
            return satisfied[0]
        return MISS_LOOKUP

    def on_l1_fill(self, line_addr: int, victim: Optional[int], now: int) -> None:
        for member in self.members:
            member.on_l1_fill(line_addr, victim, now)

    def reset(self) -> None:
        self.overlap_hits = 0
        self.total_misses = 0
        for member in self.members:
            member.reset()
