"""Sequential stream buffers (paper §4.1).

A stream buffer is a FIFO queue of (tag, available-bit, data-line)
entries allocated on an L1 miss.  It prefetches successive lines starting
*after* the miss target; prefetched lines live in the buffer, not the
cache, so useless prefetches never pollute the cache.  Only the head of
the queue has a tag comparator, and entries must be consumed strictly in
sequence: an L1 miss that matches the head moves that line into the cache
in one cycle and the freed slot prefetches the next sequential line; an
L1 miss that does not match the head flushes the buffer and re-allocates
it at the new miss address — even if the requested line is further down
the queue.

Availability timing models the paper's pipelined second-level interface
(§4.1's example: a 12-cycle fill latency with a new request accepted
every 4 cycles).  When enabled, a head match whose line has not yet
returned stalls for the remaining cycles rather than counting as a free
hit; when disabled (the default, as in the paper's miss-removal figures)
a head match always supplies the line.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from ..common.errors import ConfigurationError
from ..common.stats import Histogram
from ..common.types import AccessOutcome
from .base import L1Augmentation, MISS_LOOKUP, MissLookup

__all__ = ["StreamBuffer", "MultiWayStreamBuffer"]


class StreamBuffer(L1Augmentation):
    """A single sequential stream buffer of *entries* slots.

    Parameters
    ----------
    entries:
        Queue depth (the paper uses four).
    max_run:
        Maximum number of lines the buffer may prefetch after the
        allocating miss, or None for unbounded.  Figures 4-3/4-5 plot
        miss removal as a function of this quantity; following the
        paper, the experiments run unbounded and read the whole sweep
        off :attr:`run_offsets`.
    track_run_offsets:
        Record, for each buffer hit, the line's offset from the
        allocating miss (1 = the first prefetched line).
    model_availability / fill_latency / issue_interval:
        Enable the pipelined-L2 timing model described above.
    fetch_sink:
        Optional callable invoked with each prefetched line address; the
        memory system uses it to route prefetches through the L2 cache.
    head_only:
        The paper's simple design matches the head slot only.  Setting
        this False gives every slot a comparator (hits may skip ahead,
        dropping earlier entries) — an ablation discussed as an obvious
        extension and measured in :mod:`repro.experiments.ablations`.
    allocation_filter:
        The paper allocates on *every* miss, so isolated misses waste a
        whole buffer's worth of prefetch bandwidth.  With the filter on,
        a miss only *arms* the buffer; allocation waits for a second
        miss to the next sequential line (the classic follow-up fix,
        later literature's "allocation filter").  Trades one extra
        unremoved miss per stream for far less useless traffic —
        measured in :mod:`repro.experiments.ext_prefetch_traffic`.
    """

    def __init__(
        self,
        entries: int = 4,
        max_run: Optional[int] = None,
        track_run_offsets: bool = False,
        model_availability: bool = False,
        fill_latency: int = 12,
        issue_interval: int = 4,
        fetch_sink: Optional[Callable[[int], None]] = None,
        head_only: bool = True,
        allocation_filter: bool = False,
    ):
        if entries < 1:
            raise ConfigurationError(f"entries must be >= 1, got {entries}")
        if max_run is not None and max_run < 0:
            raise ConfigurationError(f"max_run must be >= 0, got {max_run}")
        self.name = f"stream_buffer[{entries}]"
        self.entries = entries
        self.max_run = max_run
        self.model_availability = model_availability
        self.fill_latency = fill_latency
        self.issue_interval = issue_interval
        self.fetch_sink = fetch_sink
        self.head_only = head_only
        self.allocation_filter = allocation_filter
        #: Line that would confirm a sequential stream (filter armed).
        self._armed_at: Optional[int] = None
        # Queue of (line_addr, ready_time); ready_time is 0 when
        # availability is not modelled.
        self._queue: Deque[Tuple[int, int]] = deque()
        self._next_line = 0
        self._run_origin: Optional[int] = None
        self._prefetched_in_run = 0
        self._next_issue_time = 0
        self.hits = 0
        self.lookups = 0
        self.allocations = 0
        self.prefetches_issued = 0
        self.stall_cycles_total = 0
        self.run_offsets: Optional[Histogram] = Histogram() if track_run_offsets else None

    # -- L1Augmentation interface ------------------------------------------

    def lookup_on_miss(self, line_addr: int, now: int) -> MissLookup:
        self.lookups += 1
        hit_position = self._match(line_addr)
        if hit_position is None:
            if self.allocation_filter and line_addr != self._armed_at:
                # First miss of a potential stream: arm only.
                self._queue.clear()
                self._armed_at = line_addr + 1
                return MISS_LOOKUP
            self._armed_at = None
            self._allocate(line_addr, now)
            return MISS_LOOKUP
        # A full-comparator buffer may match below the head; the skipped
        # entries are discarded (they were for lines the stream jumped over).
        for _ in range(hit_position):
            self._queue.popleft()
        matched_line, ready_time = self._queue.popleft()
        assert matched_line == line_addr
        self.hits += 1
        if self.run_offsets is not None and self._run_origin is not None:
            self.run_offsets.add(line_addr - self._run_origin)
        stall = 0
        if self.model_availability and ready_time > now:
            stall = ready_time - now
            self.stall_cycles_total += stall
        self._top_up(now)
        return MissLookup(True, AccessOutcome.STREAM_HIT, stall)

    def reset(self) -> None:
        self._queue.clear()
        self._armed_at = None
        self._run_origin = None
        self._prefetched_in_run = 0
        self._next_issue_time = 0
        self.hits = 0
        self.lookups = 0
        self.allocations = 0
        self.prefetches_issued = 0
        self.stall_cycles_total = 0
        if self.run_offsets is not None:
            self.run_offsets = Histogram()

    # -- internals ----------------------------------------------------------

    def _match(self, line_addr: int) -> Optional[int]:
        """Position of *line_addr* in the queue, respecting head_only."""
        if not self._queue:
            return None
        if self.head_only:
            return 0 if self._queue[0][0] == line_addr else None
        for position, (line, _) in enumerate(self._queue):
            if line == line_addr:
                return position
        return None

    def _allocate(self, miss_line: int, now: int) -> None:
        """Flush and begin prefetching successive lines after *miss_line*.

        The missed line itself arrives through the normal refill path;
        the buffer starts at the next sequential line (§4.1: "lines
        after the line requested on the miss are placed in the buffer").
        """
        self._queue.clear()
        self._run_origin = miss_line
        self._next_line = miss_line + 1
        self._prefetched_in_run = 0
        self.allocations += 1
        # The demand miss itself occupies the first slot of the pipelined
        # interface; prefetch requests stream out behind it.
        self._next_issue_time = now + self.issue_interval
        while len(self._queue) < self.entries and self._run_allows_more():
            self._issue_prefetch()

    def _top_up(self, now: int) -> None:
        if self._next_issue_time < now + self.issue_interval:
            self._next_issue_time = now + self.issue_interval
        while len(self._queue) < self.entries and self._run_allows_more():
            self._issue_prefetch()

    def _run_allows_more(self) -> bool:
        return self.max_run is None or self._prefetched_in_run < self.max_run

    def _issue_prefetch(self) -> None:
        ready_time = 0
        if self.model_availability:
            ready_time = self._next_issue_time + self.fill_latency
            self._next_issue_time += self.issue_interval
        self._queue.append((self._next_line, ready_time))
        if self.fetch_sink is not None:
            self.fetch_sink(self._next_line)
        self._next_line += 1
        self._prefetched_in_run += 1
        self.prefetches_issued += 1

    # -- introspection (testing aids) ----------------------------------------

    def buffered_lines(self) -> List[int]:
        return [line for line, _ in self._queue]

    def head_line(self) -> Optional[int]:
        return self._queue[0][0] if self._queue else None


class MultiWayStreamBuffer(L1Augmentation):
    """Several stream buffers in parallel with LRU allocation (§4.2).

    On an L1 miss the heads of all ways are compared; a match consumes
    from that way and marks it most recently used.  A miss that hits in
    no way clears the least recently *hit* way and re-allocates it at the
    miss address, letting the structure follow several interleaved
    sequential streams (the paper uses four ways for the data side).

    Two rules settle the corner cases, and the numpy kernel
    (:func:`repro.kernels.assist._multi_way_stream_hits`) relies on both:

    * when several ways hold the matching line, the least recently used
      of them is consumed and the more recently used duplicates survive;
    * a way whose ``max_run`` is used up keeps its place in the LRU
      order as a dead way (it matches nothing) until it becomes the
      least recently used way and is re-allocated.
    """

    def __init__(
        self,
        ways: int = 4,
        entries: int = 4,
        max_run: Optional[int] = None,
        track_run_offsets: bool = False,
        model_availability: bool = False,
        fill_latency: int = 12,
        issue_interval: int = 4,
        fetch_sink: Optional[Callable[[int], None]] = None,
        head_only: bool = True,
        allocation_filter: bool = False,
    ):
        if ways < 1:
            raise ConfigurationError(f"ways must be >= 1, got {ways}")
        self.name = f"stream_buffer[{ways}x{entries}]"
        self.ways = ways
        self._buffers = [
            StreamBuffer(
                entries=entries,
                max_run=max_run,
                track_run_offsets=track_run_offsets,
                model_availability=model_availability,
                fill_latency=fill_latency,
                issue_interval=issue_interval,
                fetch_sink=fetch_sink,
                head_only=head_only,
                allocation_filter=allocation_filter,
            )
            for _ in range(ways)
        ]
        # LRU order of ways: index 0 is least recently used/hit.
        self._lru_order = list(range(ways))
        self.hits = 0
        self.lookups = 0

    def lookup_on_miss(self, line_addr: int, now: int) -> MissLookup:
        self.lookups += 1
        for way in self._lru_order:
            buffer = self._buffers[way]
            if buffer._match(line_addr) is not None:
                result = buffer.lookup_on_miss(line_addr, now)
                assert result.satisfied
                self.hits += 1
                self._touch(way)
                return result
        victim_way = self._lru_order[0]
        # With allocation filtering, a sequential miss must reach the way
        # that armed on its predecessor, or confirmation never happens.
        for way, buffer in enumerate(self._buffers):
            if buffer.allocation_filter and buffer._armed_at == line_addr:
                victim_way = way
                break
        # _allocate via a full lookup so the chosen way's counters stay
        # coherent with its own view of the miss stream.
        self._buffers[victim_way].lookup_on_miss(line_addr, now)
        self._touch(victim_way)
        return MISS_LOOKUP

    def reset(self) -> None:
        for buffer in self._buffers:
            buffer.reset()
        self._lru_order = list(range(self.ways))
        self.hits = 0
        self.lookups = 0

    def _touch(self, way: int) -> None:
        self._lru_order.remove(way)
        self._lru_order.append(way)

    # -- aggregated introspection ---------------------------------------------

    @property
    def run_offsets(self) -> Optional[Histogram]:
        """Merged run-offset histogram across all ways (or None)."""
        merged: Optional[Histogram] = None
        for buffer in self._buffers:
            if buffer.run_offsets is None:
                return None
            if merged is None:
                merged = Histogram()
            merged.merge(buffer.run_offsets)
        return merged

    @property
    def prefetches_issued(self) -> int:
        return sum(b.prefetches_issued for b in self._buffers)

    @property
    def stall_cycles_total(self) -> int:
        return sum(b.stall_cycles_total for b in self._buffers)

    def way_buffers(self) -> List[StreamBuffer]:
        """The underlying per-way buffers (testing aid)."""
        return list(self._buffers)
