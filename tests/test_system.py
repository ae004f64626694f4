"""Unit tests for the two-level MemorySystem."""

import pytest

from repro.buffers.base import CompositeAugmentation
from repro.buffers.stream_buffer import MultiWayStreamBuffer, StreamBuffer
from repro.buffers.victim_cache import VictimCache
from repro.common.config import CacheConfig, SystemConfig, baseline_system
from repro.common.types import IFETCH, LOAD, STORE, AccessOutcome
from repro.hierarchy.system import L2Stats, MemorySystem
from repro.hierarchy.timeline import TimelineSimulator
from repro.specs import (
    CompositeSpec,
    MultiWayStrideBufferSpec,
    StrideBufferSpec,
    VictimCacheSpec,
    build,
)


class TestRouting:
    def test_ifetch_goes_to_icache(self):
        system = MemorySystem()
        system.access(IFETCH, 0x1000)
        assert system.instructions == 1
        assert system.data_references == 0
        assert system.ilevel.stats.accesses == 1
        assert system.dlevel.stats.accesses == 0

    def test_loads_and_stores_go_to_dcache(self):
        system = MemorySystem()
        system.access(LOAD, 0x1000)
        system.access(STORE, 0x1000)
        assert system.data_references == 2
        assert system.dlevel.stats.accesses == 2

    def test_split_caches_do_not_interfere(self):
        system = MemorySystem()
        system.access(IFETCH, 0x1000)
        assert system.access(LOAD, 0x1000) is AccessOutcome.MISS
        assert system.access(IFETCH, 0x1000) is AccessOutcome.HIT


class TestL2:
    def test_l1_miss_reaches_l2(self):
        system = MemorySystem()
        system.access(LOAD, 0x2000)
        assert system.l2stats.demand_accesses == 1
        assert system.l2stats.demand_misses == 1

    def test_l1_hit_does_not_touch_l2(self):
        system = MemorySystem()
        system.access(LOAD, 0x2000)
        system.access(LOAD, 0x2000)
        assert system.l2stats.demand_accesses == 1

    def test_l2_line_granularity(self):
        # Two L1 lines inside one 128B L2 line: second L1 miss hits L2.
        system = MemorySystem()
        system.access(LOAD, 0x2000)
        system.access(LOAD, 0x2000 + 64)
        assert system.l2stats.demand_accesses == 2
        assert system.l2stats.demand_misses == 1

    def test_removed_miss_does_not_touch_l2(self):
        system = MemorySystem(daugmentation=VictimCache(2))
        system.access(LOAD, 0)
        system.access(LOAD, 4096)   # evicts line 0 into VC
        demand_before = system.l2stats.demand_accesses
        assert system.access(LOAD, 0) is AccessOutcome.VICTIM_HIT
        assert system.l2stats.demand_accesses == demand_before

    def test_prewarm_l2(self):
        system = MemorySystem()
        trace = [(int(LOAD), 0x2000), (int(LOAD), 0x9000)]
        loaded = system.prewarm_l2(trace)
        assert loaded == 2
        system.access(LOAD, 0x2000)
        assert system.l2stats.demand_misses == 0
        assert system.l2stats.demand_accesses == 1


class TestStreamBufferPrefetchRouting:
    def test_prefetches_counted_as_l2_prefetch_traffic(self):
        system = MemorySystem(daugmentation=StreamBuffer(entries=4))
        system.access(LOAD, 0x4000)
        assert system.l2stats.prefetch_accesses > 0

    def test_multiway_buffers_also_wired(self):
        system = MemorySystem(daugmentation=MultiWayStreamBuffer(ways=2, entries=2))
        system.access(LOAD, 0x4000)
        assert system.l2stats.prefetch_accesses == 2

    def test_composite_members_wired(self):
        aug = CompositeAugmentation([VictimCache(2), StreamBuffer(entries=4)])
        system = MemorySystem(daugmentation=aug)
        system.access(LOAD, 0x4000)
        assert system.l2stats.prefetch_accesses == 4

    def test_prefetched_line_hits_l2_later(self):
        """A demand miss on a previously stream-prefetched line finds it
        resident in the L2 (prefetches keep L2 contents honest)."""
        system = MemorySystem(daugmentation=StreamBuffer(entries=4))
        system.access(LOAD, 0)          # prefetches L1 lines 1..4 through L2
        system.access(LOAD, 0x8000)     # flush the buffer far away
        before = system.l2stats.demand_misses
        system.access(LOAD, 0x8000 + 4096)  # same L1 set churn
        system.access(LOAD, 16)         # L1 line 1, L2 line 0: already loaded
        assert system.l2stats.demand_misses == before + 1  # only the 0x8000+4096 line


STRIDE_STRUCTURES = [
    StrideBufferSpec(4),
    MultiWayStrideBufferSpec(4, 4),
    CompositeSpec((VictimCacheSpec(4), MultiWayStrideBufferSpec(4, 4))),
]


def _prefetches_issued(structure):
    members = getattr(structure, "members", [structure])
    return sum(getattr(member, "prefetches_issued", 0) for member in members)


class TestStridePrefetchRouting:
    """Stride buffers fetch through the L2 like stream buffers do."""

    @pytest.mark.parametrize("spec", STRIDE_STRUCTURES, ids=lambda spec: spec.kind)
    def test_every_stride_prefetch_reaches_the_l2(self, spec, small_by_name):
        structure = build(spec)
        result = MemorySystem(daugmentation=structure).run(small_by_name["ccom"])
        assert _prefetches_issued(structure) > 0
        assert result.l2stats.prefetch_accesses == _prefetches_issued(structure)

    @pytest.mark.parametrize("spec", STRIDE_STRUCTURES, ids=lambda spec: spec.kind)
    def test_timeline_l2_sees_stride_prefetches(self, spec, small_by_name):
        structure = build(spec)
        timeline = TimelineSimulator(daugmentation=structure)
        timeline.run(small_by_name["ccom"])
        assert _prefetches_issued(structure) > 0
        assert timeline.system.l2stats.prefetch_accesses == _prefetches_issued(structure)


class TestRunAndResult:
    def test_run_counts_match_trace(self, small_by_name):
        trace = small_by_name["ccom"]
        system = MemorySystem()
        result = system.run(trace)
        stats = trace.stats()
        assert result.instructions == stats.instructions
        assert result.data_references == stats.data_references
        assert result.total_references == len(trace)

    def test_miss_rates_are_per_side(self):
        system = MemorySystem()
        system.access(IFETCH, 0)
        system.access(IFETCH, 0)
        system.access(LOAD, 0)
        result = system.result()
        assert result.imiss_rate == pytest.approx(0.5)
        assert result.dmiss_rate == pytest.approx(1.0)

    def test_effective_rates_discount_removed_misses(self):
        system = MemorySystem(daugmentation=VictimCache(2))
        system.access(LOAD, 0)
        system.access(LOAD, 4096)
        system.access(LOAD, 0)  # removed miss
        result = system.result()
        assert result.dmiss_rate == pytest.approx(1.0)
        assert result.effective_dmiss_rate == pytest.approx(2 / 3)

    def test_reset(self, small_by_name):
        system = MemorySystem()
        system.run(small_by_name["yacc"])
        system.reset()
        assert system.instructions == 0
        assert system.l2stats.demand_accesses == 0
        assert system.ilevel.stats.accesses == 0


def _same_counters(a: MemorySystem, b: MemorySystem) -> None:
    """Assert two systems agree on every externally visible counter."""
    assert a.instructions == b.instructions
    assert a.data_references == b.data_references
    assert a.ilevel.stats == b.ilevel.stats
    assert a.dlevel.stats == b.dlevel.stats
    assert a.l2stats == b.l2stats


class TestAccessRunParity:
    """``run()`` inlines ``access()``; the two must stay interchangeable."""

    def _pairs(self, small_by_name):
        return list(small_by_name["ccom"])

    def test_run_matches_pure_access_loop(self, small_by_name):
        pairs = self._pairs(small_by_name)
        via_access = MemorySystem()
        for kind, address in pairs:
            via_access.access(kind, address)
        via_run = MemorySystem()
        via_run.run(pairs)
        _same_counters(via_access, via_run)

    def test_interleaving_access_and_run_matches(self, small_by_name):
        pairs = self._pairs(small_by_name)
        third = len(pairs) // 3
        reference = MemorySystem()
        reference.run(pairs)
        mixed = MemorySystem()
        for kind, address in pairs[:third]:
            mixed.access(kind, address)
        mixed.run(pairs[third : 2 * third])
        for kind, address in pairs[2 * third :]:
            mixed.access(kind, address)
        _same_counters(reference, mixed)

    def test_interleaving_with_stream_buffer_matches(self, small_by_name):
        # Stream buffers exercise the pending-prefetch queue both paths
        # must drain identically.
        pairs = self._pairs(small_by_name)
        half = len(pairs) // 2
        reference = MemorySystem(daugmentation=StreamBuffer(entries=4))
        reference.run(pairs)
        mixed = MemorySystem(daugmentation=StreamBuffer(entries=4))
        mixed.run(pairs[:half])
        for kind, address in pairs[half:]:
            mixed.access(kind, address)
        _same_counters(reference, mixed)

    def test_raising_iterator_writes_back_counters(self, small_by_name):
        pairs = self._pairs(small_by_name)
        prefix = len(pairs) // 2

        def raising_trace():
            for pair in pairs[:prefix]:
                yield pair
            raise RuntimeError("trace source died")

        clean = MemorySystem()
        clean.run(pairs[:prefix])
        broken = MemorySystem()
        with pytest.raises(RuntimeError, match="trace source died"):
            broken.run(raising_trace())
        # The finally write-back must leave every counter exactly where a
        # clean run over the same prefix leaves it.
        _same_counters(clean, broken)

    def test_access_continues_consistently_after_mid_run_raise(self):
        def raising_trace():
            yield (int(LOAD), 0x2000)
            yield (int(IFETCH), 0x100)
            raise ValueError("boom")

        system = MemorySystem()
        with pytest.raises(ValueError):
            system.run(raising_trace())
        assert system.instructions == 1
        assert system.data_references == 1
        assert system.l2stats.demand_accesses == 2
        # The system remains usable and consistent via access().
        assert system.access(LOAD, 0x2000) is AccessOutcome.HIT
        assert system.data_references == 2
        assert system.l2stats.demand_accesses == 2


class TestL2StatsHashability:
    def test_equal_instances_hash_equal(self):
        assert L2Stats() == L2Stats()
        assert hash(L2Stats()) == hash(L2Stats())

    def test_usable_in_hash_containers(self):
        a, b = L2Stats(), L2Stats()
        b.demand_accesses = 7
        assert a != b
        assert len({a, b}) == 2
        assert {a: "baseline"}[L2Stats()] == "baseline"


class TestConfigVariants:
    def test_custom_config_respected(self):
        config = SystemConfig(
            icache=CacheConfig(1024, 16),
            dcache=CacheConfig(2048, 32),
        )
        system = MemorySystem(config)
        assert system.ilevel.cache.num_lines == 64
        assert system.dlevel.cache.num_lines == 64

    def test_default_is_baseline(self):
        assert MemorySystem().config == baseline_system()
