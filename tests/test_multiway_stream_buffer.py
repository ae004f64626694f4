"""Unit tests for the multi-way stream buffer (paper §4.2)."""

import pytest

from repro.buffers.stream_buffer import MultiWayStreamBuffer, StreamBuffer
from repro.common.config import CacheConfig
from repro.common.errors import ConfigurationError
from repro.common.types import AccessOutcome
from repro.hierarchy.level import CacheLevel


class TestConstruction:
    def test_rejects_zero_ways(self):
        with pytest.raises(ConfigurationError):
            MultiWayStreamBuffer(ways=0)

    def test_name_reflects_shape(self):
        assert MultiWayStreamBuffer(ways=4, entries=4).name == "stream_buffer[4x4]"


class TestInterleavedStreams:
    def test_follows_four_interleaved_streams(self):
        """§4.2's motivation: interleaved streams flush a single buffer
        but are tracked concurrently by four."""
        bases = (1000, 2000, 3000, 4000)
        pattern = []
        for offset in range(30):
            for base in bases:
                pattern.append(base + offset)

        multi = MultiWayStreamBuffer(ways=4, entries=4)
        hits = sum(1 for line in pattern if multi.lookup_on_miss(line, 0).satisfied)
        # Everything after the four allocating misses hits.
        assert hits == len(pattern) - 4

        single = StreamBuffer(entries=4)
        single.reset()
        single_hits = sum(
            1 for line in pattern if single.lookup_on_miss(line, 0).satisfied
        )
        assert single_hits == 0  # flushed on every alternation

    def test_lru_way_allocation(self):
        multi = MultiWayStreamBuffer(ways=2, entries=2)
        multi.lookup_on_miss(100, 0)  # way A <- stream 100
        multi.lookup_on_miss(200, 1)  # way B <- stream 200
        multi.lookup_on_miss(101, 2)  # hit in A; A becomes MRU
        multi.lookup_on_miss(300, 3)  # allocates LRU way (B)
        assert multi.lookup_on_miss(102, 4).satisfied  # A survived
        assert multi.lookup_on_miss(301, 5).satisfied  # new stream lives
        assert not multi.lookup_on_miss(201, 6).satisfied  # B's stream gone

    def test_duplicate_heads_consume_the_lru_way(self):
        """Two ways allocated at the same miss share a head; the LRU one
        is consumed and the MRU duplicate survives."""
        multi = MultiWayStreamBuffer(ways=2, entries=2, track_run_offsets=True)
        first, second = multi.way_buffers()
        multi.lookup_on_miss(100, 0)  # way 0 <- 101, 102
        multi.lookup_on_miss(100, 1)  # no head match: way 1 <- 101, 102
        assert first.head_line() == second.head_line() == 101
        assert multi.lookup_on_miss(101, 2).satisfied
        assert first.head_line() == 102  # way 0 was LRU: consumed
        assert second.head_line() == 101  # the MRU duplicate survived
        assert multi.lookup_on_miss(101, 3).satisfied  # ...and still hits
        assert second.head_line() == 102
        assert multi.run_offsets.counts == {1: 2}

    def test_exhausted_way_keeps_its_lru_slot(self):
        """A way whose max_run is used up stays dead in its LRU slot; a
        new stream reallocates the true LRU way, not the dead one."""
        multi = MultiWayStreamBuffer(ways=2, entries=4, max_run=1)
        first, second = multi.way_buffers()
        multi.lookup_on_miss(100, 0)  # way 0 <- 101
        multi.lookup_on_miss(200, 1)  # way 1 <- 201
        assert multi.lookup_on_miss(101, 2).satisfied  # way 0 exhausted, MRU
        assert first.buffered_lines() == []
        assert not multi.lookup_on_miss(102, 3).satisfied  # dead way matches nothing
        # The miss to 102 reallocated way 1 (the LRU), so way 0 is dead
        # and now LRU; the next new stream takes its slot.
        assert second.buffered_lines() == [103]
        assert first.buffered_lines() == []
        assert multi.lookup_on_miss(103, 4).satisfied
        assert not multi.lookup_on_miss(300, 5).satisfied
        assert first.buffered_lines() == [301]

    def test_hit_reports_stream_outcome(self):
        multi = MultiWayStreamBuffer(ways=2, entries=2)
        multi.lookup_on_miss(50, 0)
        result = multi.lookup_on_miss(51, 1)
        assert result.satisfied
        assert result.outcome is AccessOutcome.STREAM_HIT

    def test_counters(self):
        multi = MultiWayStreamBuffer(ways=2, entries=2)
        multi.lookup_on_miss(50, 0)
        multi.lookup_on_miss(51, 1)
        multi.lookup_on_miss(99, 2)
        assert multi.lookups == 3
        assert multi.hits == 1

    def test_reset(self):
        multi = MultiWayStreamBuffer(ways=2, entries=2, track_run_offsets=True)
        multi.lookup_on_miss(50, 0)
        multi.lookup_on_miss(51, 1)
        multi.reset()
        assert multi.hits == 0 and multi.lookups == 0
        assert multi.run_offsets.total() == 0
        assert all(not buf.buffered_lines() for buf in multi.way_buffers())


class TestAggregation:
    def test_run_offsets_merge_across_ways(self):
        multi = MultiWayStreamBuffer(ways=2, entries=2, track_run_offsets=True)
        multi.lookup_on_miss(100, 0)
        multi.lookup_on_miss(200, 1)
        multi.lookup_on_miss(101, 2)
        multi.lookup_on_miss(201, 3)
        assert multi.run_offsets.counts == {1: 2}

    def test_run_offsets_none_when_untracked(self):
        multi = MultiWayStreamBuffer(ways=2, entries=2)
        assert multi.run_offsets is None

    def test_prefetch_count_aggregates(self):
        multi = MultiWayStreamBuffer(ways=2, entries=3)
        multi.lookup_on_miss(100, 0)
        multi.lookup_on_miss(200, 1)
        assert multi.prefetches_issued == 6

    def test_one_way_equals_single_buffer(self, l1_config):
        import random

        rng = random.Random(11)
        pattern = [rng.randrange(2048) for _ in range(1500)]
        single_level = CacheLevel(l1_config, StreamBuffer(entries=4))
        multi_level = CacheLevel(l1_config, MultiWayStreamBuffer(ways=1, entries=4))
        for line in pattern:
            single_level.access_line(line)
            multi_level.access_line(line)
        assert (
            single_level.stats.outcomes == multi_level.stats.outcomes
        )


class TestInstructionSideEquivalence:
    def test_multiway_barely_beats_single_on_code(self, small_by_name):
        """§4.2: 'the performance on the instruction stream remains
        virtually unchanged' with a multi-way buffer."""
        config = CacheConfig(4096, 16)
        stream = small_by_name["ccom"].instruction_addresses
        results = {}
        for label, buffer in (
            ("single", StreamBuffer(4)),
            ("multi", MultiWayStreamBuffer(4, 4)),
        ):
            level = CacheLevel(config, buffer)
            for address in stream:
                level.access_line(address >> 4)
            results[label] = level.stats.removed_misses
        assert results["multi"] >= results["single"]
        assert results["multi"] <= results["single"] * 1.25
