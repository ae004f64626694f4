"""Stride stream buffers — the paper's §5 future work.

§4.1 concedes the limitation: "If an array is accessed in the
non-unit-stride direction (and the other dimensions have non-trivial
extents) then a stream buffer as presented here will be of little
benefit", and §5 lists non-unit and mixed stride access patterns as
future work.  This module implements the natural extension the paper
gestures at (later literature calls it a stride prefetcher): a stream
buffer that *learns its stride from the miss stream* instead of
assuming +1.

Allocation works in two steps.  A miss that matches no buffer records a
pending ``last_miss``; the next miss within ``max_stride`` lines of it
fixes the stride (which may be negative, and is 1 for ordinary
sequential streams), and the buffer starts prefetching ``miss + k*stride``.
After that it behaves exactly like the paper's FIFO buffer: only the
head is matched, entries are consumed strictly in sequence, and a
non-matching miss eventually steals the least recently used way.

With ``ways=1`` and unit stride this degenerates to §4.1's single
sequential buffer; the equivalence is pinned by tests.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from ..common.errors import ConfigurationError
from ..common.stats import Histogram
from ..common.types import AccessOutcome
from .base import L1Augmentation, MISS_LOOKUP, MissLookup

__all__ = ["StrideStreamBuffer", "MultiWayStrideBuffer"]

_SATISFIED = MissLookup(True, AccessOutcome.STREAM_HIT, 0)


class StrideStreamBuffer(L1Augmentation):
    """A single stream buffer with a learned (possibly non-unit) stride.

    Parameters
    ----------
    entries:
        Queue depth, as in the sequential buffer.
    max_stride:
        Largest |stride| (in lines) accepted when pairing two misses
        into a stream.  Misses further apart than this re-arm the
        detector instead of fixing a stride.
    min_stride:
        Smallest |stride| accepted; 1 accepts sequential streams.
    fetch_sink:
        Optional callable receiving each prefetched line address.
    """

    def __init__(
        self,
        entries: int = 4,
        max_stride: int = 256,
        min_stride: int = 1,
        track_run_offsets: bool = False,
        fetch_sink: Optional[Callable[[int], None]] = None,
    ):
        if entries < 1:
            raise ConfigurationError(f"entries must be >= 1, got {entries}")
        if min_stride < 1 or max_stride < min_stride:
            raise ConfigurationError(
                f"need 1 <= min_stride <= max_stride, got {min_stride}..{max_stride}"
            )
        self.name = f"stride_buffer[{entries}]"
        self.entries = entries
        self.max_stride = max_stride
        self.min_stride = min_stride
        self.fetch_sink = fetch_sink
        self._queue: Deque[int] = deque()
        self.stride: Optional[int] = None
        self._next_line = 0
        self._last_miss: Optional[int] = None
        self._hits_this_run = 0
        self.hits = 0
        self.lookups = 0
        self.allocations = 0
        self.prefetches_issued = 0
        self.run_offsets: Optional[Histogram] = Histogram() if track_run_offsets else None

    # -- L1Augmentation interface ------------------------------------------

    def lookup_on_miss(self, line_addr: int, now: int) -> MissLookup:
        self.lookups += 1
        if self._queue and self._queue[0] == line_addr:
            self._queue.popleft()
            self.hits += 1
            self._hits_this_run += 1
            if self.run_offsets is not None:
                self.run_offsets.add(self._hits_this_run)
            self._top_up()
            return _SATISFIED
        self._observe_miss(line_addr)
        return MISS_LOOKUP

    def reset(self) -> None:
        self._queue.clear()
        self.stride = None
        self._last_miss = None
        self._hits_this_run = 0
        self.hits = 0
        self.lookups = 0
        self.allocations = 0
        self.prefetches_issued = 0
        if self.run_offsets is not None:
            self.run_offsets = Histogram()

    # -- internals ------------------------------------------------------------

    def _observe_miss(self, line_addr: int) -> None:
        """Two-miss stride detection, then allocation.

        A repeat miss on the *same* line (delta 0 — a mapping conflict
        re-fetching a line the stream already passed) neither confirms
        nor refutes the stride, so an active stream is re-armed from the
        same point instead of being torn down.
        """
        self._queue.clear()
        self._hits_this_run = 0
        if self._last_miss is not None:
            delta = line_addr - self._last_miss
            if delta == 0 and self.stride is not None:
                self._allocate(line_addr, self.stride)
                return
            if self.min_stride <= abs(delta) <= self.max_stride:
                self._allocate(line_addr, delta)
                self._last_miss = line_addr
                return
        self.stride = None
        self._last_miss = line_addr

    def _allocate(self, miss_line: int, stride: int) -> None:
        self.stride = stride
        self._next_line = miss_line + stride
        self.allocations += 1
        self._top_up()

    def _top_up(self) -> None:
        if self.stride is None:
            return
        while len(self._queue) < self.entries:
            line = self._next_line
            if line < 0:
                # A negative stride walked off the bottom of memory.
                break
            self._queue.append(line)
            if self.fetch_sink is not None:
                self.fetch_sink(line)
            self._next_line += self.stride
            self.prefetches_issued += 1

    # -- introspection -----------------------------------------------------------

    def buffered_lines(self) -> List[int]:
        return list(self._queue)

    def head_line(self) -> Optional[int]:
        return self._queue[0] if self._queue else None


class MultiWayStrideBuffer(L1Augmentation):
    """Several stride buffers in parallel with LRU allocation.

    The multi-way arrangement matters even more here than in §4.2: a
    column-major sweep of several matrices produces interleaved
    constant-stride miss streams, each of which needs its own detector.
    A miss that hits no head is fed to the least recently *hit* way,
    whose detector pairs it with that way's previous miss.
    """

    def __init__(
        self,
        ways: int = 4,
        entries: int = 4,
        max_stride: int = 256,
        min_stride: int = 1,
        track_run_offsets: bool = False,
        fetch_sink: Optional[Callable[[int], None]] = None,
    ):
        if ways < 1:
            raise ConfigurationError(f"ways must be >= 1, got {ways}")
        self.name = f"stride_buffer[{ways}x{entries}]"
        self.ways = ways
        self._buffers = [
            StrideStreamBuffer(
                entries=entries,
                max_stride=max_stride,
                min_stride=min_stride,
                track_run_offsets=track_run_offsets,
                fetch_sink=fetch_sink,
            )
            for _ in range(ways)
        ]
        self._lru_order = list(range(ways))
        self.hits = 0
        self.lookups = 0

    def lookup_on_miss(self, line_addr: int, now: int) -> MissLookup:
        self.lookups += 1
        for way in self._lru_order:
            buffer = self._buffers[way]
            if buffer.head_line() == line_addr:
                result = buffer.lookup_on_miss(line_addr, now)
                assert result.satisfied
                self.hits += 1
                self._touch(way)
                return result
        victim_way = self._pick_observer(line_addr)
        self._buffers[victim_way].lookup_on_miss(line_addr, now)
        self._touch(victim_way)
        return MISS_LOOKUP

    def _pick_observer(self, line_addr: int) -> int:
        """Choose which way should absorb an unmatched miss.

        Interleaved streams would defeat plain LRU allocation: each
        way's stride detector would pair misses from *different*
        streams.  Instead, the miss goes to the way whose previous miss
        is nearest (within the stride window) — almost certainly the
        same stream — and only falls back to the least recently used
        way when no way is plausibly related.
        """
        best_way: Optional[int] = None
        best_delta = 0
        for way, buffer in enumerate(self._buffers):
            if buffer._last_miss is None:
                continue
            delta = abs(line_addr - buffer._last_miss)
            if (delta == 0 or buffer.min_stride <= delta <= buffer.max_stride) and (
                best_way is None or delta < best_delta
            ):
                best_way = way
                best_delta = delta
        if best_way is not None:
            return best_way
        return self._lru_order[0]

    def reset(self) -> None:
        for buffer in self._buffers:
            buffer.reset()
        self._lru_order = list(range(self.ways))
        self.hits = 0
        self.lookups = 0

    def _touch(self, way: int) -> None:
        self._lru_order.remove(way)
        self._lru_order.append(way)

    def way_buffers(self) -> List[StrideStreamBuffer]:
        return list(self._buffers)

    @property
    def prefetches_issued(self) -> int:
        return sum(b.prefetches_issued for b in self._buffers)
