"""Single-pass multi-size sweep evaluators.

The entry-count sweeps of Figures 3-3 and 3-5 would naively cost one
full simulation per size per benchmark per side.  Two properties of the
paper's structures eliminate that cost:

* The L1 array is refilled on **every** miss, so its state evolution —
  and hence the miss stream and victim stream — is independent of the
  helper structure (§3.1/§3.2, and the contract of
  :class:`~repro.buffers.base.L1Augmentation`).
* Miss and victim caches are fully-associative **LRU**, so they obey the
  LRU stack property: fed the same insertion stream, the k-entry cache
  holds exactly the top-k of the LRU stack.

Therefore one run with a large structure that records the LRU stack
depth of every hit yields the hit count of *every* smaller size: a
k-entry structure captures exactly the hits at depths ``< k``.  The
equivalence with independent per-size simulation is verified by property
tests (``tests/test_sweep_equivalence.py``).

Stream-buffer run sweeps (Figures 4-3/4-5) follow the paper directly:
one unbounded-run simulation records, for every buffer hit, the line's
offset from the allocating miss; the cumulative histogram *is* the
"misses removed vs. lines the buffer may prefetch" curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..buffers.miss_cache import MissCache
from ..buffers.stream_buffer import MultiWayStreamBuffer, StreamBuffer
from ..buffers.victim_cache import VictimCache
from ..common.config import CacheConfig
from .base import level_point_specs
from .runner import run_level

__all__ = [
    "EntrySweep",
    "miss_cache_sweep",
    "victim_cache_sweep",
    "RunLengthSweep",
    "stream_buffer_run_sweep",
    "batch_entry_sweeps",
    "batch_run_sweeps",
]


@dataclass
class EntrySweep:
    """Result of a single-pass miss/victim-cache size sweep."""

    #: Baseline direct-mapped demand misses (independent of the helper).
    total_misses: int
    #: Baseline conflict misses (3C classification).
    conflict_misses: int
    #: hits_by_entries[k] = misses removed by a k-entry structure,
    #: for k = 0 .. max_entries (index 0 is always 0).
    hits_by_entries: List[int]

    def removed(self, entries: int) -> int:
        return self.hits_by_entries[entries]

    def percent_of_conflicts_removed(self, entries: int) -> float:
        if self.conflict_misses == 0:
            return 0.0
        return 100.0 * self.hits_by_entries[entries] / self.conflict_misses

    def percent_of_misses_removed(self, entries: int) -> float:
        if self.total_misses == 0:
            return 0.0
        return 100.0 * self.hits_by_entries[entries] / self.total_misses


def _entry_sweep(
    byte_addresses: Sequence[int],
    config: CacheConfig,
    structure,
    max_entries: int,
) -> EntrySweep:
    run = run_level(byte_addresses, config, structure, classify=True)
    depths = structure.hit_depths
    assert depths is not None
    hits_by_entries = [depths.count_at_most(k - 1) if k else 0 for k in range(max_entries + 1)]
    return EntrySweep(
        total_misses=run.misses,
        conflict_misses=run.conflicts,
        hits_by_entries=hits_by_entries,
    )


def miss_cache_sweep(
    byte_addresses: Sequence[int], config: CacheConfig, max_entries: int = 15
) -> EntrySweep:
    """Figure 3-3's sweep: miss caches of 1..max_entries entries."""
    structure = MissCache(max_entries + 1, track_depths=True)
    return _entry_sweep(byte_addresses, config, structure, max_entries)


def victim_cache_sweep(
    byte_addresses: Sequence[int], config: CacheConfig, max_entries: int = 15
) -> EntrySweep:
    """Figure 3-5's sweep: victim caches of 1..max_entries entries."""
    structure = VictimCache(max_entries + 1, track_depths=True)
    return _entry_sweep(byte_addresses, config, structure, max_entries)


@dataclass
class RunLengthSweep:
    """Result of a stream-buffer run-length sweep."""

    total_misses: int
    #: removed_by_run[k] = buffer hits at run offsets <= k (cumulative),
    #: for k = 0 .. max_run.
    removed_by_run: List[int]

    def percent_removed(self, run_length: int) -> float:
        if self.total_misses == 0:
            return 0.0
        return 100.0 * self.removed_by_run[run_length] / self.total_misses


def stream_buffer_run_sweep(
    byte_addresses: Sequence[int],
    config: CacheConfig,
    ways: int = 1,
    entries: int = 4,
    max_run: int = 16,
) -> RunLengthSweep:
    """Figures 4-3/4-5: cumulative misses removed vs. stream-run length.

    As in the paper, a single unbounded-run simulation is histogrammed
    by the offset of each buffer hit from its allocating miss.
    """
    if ways == 1:
        buffer = StreamBuffer(entries=entries, track_run_offsets=True)
    else:
        buffer = MultiWayStreamBuffer(ways=ways, entries=entries, track_run_offsets=True)
    run = run_level(byte_addresses, config, buffer)
    offsets = buffer.run_offsets
    assert offsets is not None
    removed = [offsets.count_at_most(k) for k in range(max_run + 1)]
    return RunLengthSweep(total_misses=run.misses, removed_by_run=removed)


# -- engine-backed batch evaluation ------------------------------------------
#
# One figure evaluates a sweep per (benchmark, side) — a dozen
# independent simulations.  These helpers describe the whole batch as
# picklable engine jobs: inline at jobs=1, fanned out over worker
# processes otherwise, and memoized point by point by an active result
# store.  The single-sweep functions above stay the reference
# interpreter the python backend runs.


def batch_entry_sweeps(
    traces,
    config: CacheConfig,
    kind: str = "miss",
    sides: Sequence[str] = ("i", "d"),
    max_entries: int = 15,
    jobs=None,
) -> List[EntrySweep]:
    """Entry sweeps for every (side, trace) pair, in nested order.

    Results are ordered ``for side in sides: for trace in traces`` —
    the iteration order of Figures 3-3/3-5.  Every trace needs a
    workload spec: a hand-made one raises
    :class:`~repro.common.errors.ConfigurationError`.
    """
    from .engine import EntrySweepJob, run_jobs

    job_list = [
        EntrySweepJob(system=system, kind=kind, max_entries=max_entries)
        for system in level_point_specs(traces, config, sides=sides)
    ]
    return run_jobs(job_list, jobs=jobs)


def batch_run_sweeps(
    traces,
    config: CacheConfig,
    sides: Sequence[str] = ("i", "d"),
    ways: int = 1,
    entries: int = 4,
    max_run: int = 16,
    jobs=None,
) -> List[RunLengthSweep]:
    """Stream-buffer run sweeps for every (side, trace) pair, nested order.

    Ordering and spec requirements match :func:`batch_entry_sweeps`.
    """
    from .engine import RunSweepJob, run_jobs

    job_list = [
        RunSweepJob(system=system, ways=ways, entries=entries, max_run=max_run)
        for system in level_point_specs(traces, config, sides=sides)
    ]
    return run_jobs(job_list, jobs=jobs)
