"""Tests for the §3.5 inclusion monitor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers.victim_cache import VictimCache
from repro.caches.direct_mapped import DirectMappedCache
from repro.classify.inclusion import InclusionMonitor, InclusionReport
from repro.common.config import CacheConfig
from repro.common.errors import ConfigurationError
from repro.common.types import AccessOutcome
from repro.hierarchy.level import CacheLevel

L1 = CacheConfig(256, 16)          # 16 lines
L2_MATCHED = CacheConfig(1024, 16)
L2_WIDE = CacheConfig(1024, 64)


class TestConstruction:
    def test_rejects_smaller_l2_lines(self):
        with pytest.raises(ConfigurationError):
            InclusionMonitor(CacheConfig(256, 32), CacheConfig(1024, 16))

    def test_rejects_bad_sample_interval(self):
        with pytest.raises(ConfigurationError):
            InclusionMonitor(L1, L2_MATCHED, sample_interval=0)


class TestMatchedLines:
    def test_direct_mapped_matched_lines_preserve_inclusion(self):
        """With matched line sizes and L2 index bits a superset of L1's,
        a fill that evicts X from the L2 has already evicted X from L1
        on the same access — no violation window."""
        import random

        rng = random.Random(1)
        monitor = InclusionMonitor(L1, L2_MATCHED)
        report = monitor.run(rng.randrange(1 << 16) for _ in range(3000))
        assert report.steps_with_violation == 0


class TestWideLines:
    def test_wide_l2_lines_violate_inclusion(self):
        """§3.5: the baseline's larger L2 lines violate inclusion —
        evicting one L2 line can orphan several resident L1 lines."""
        # Touch four 16B L1 lines inside one 64B L2 line, then evict
        # that L2 line with a conflicting access that maps to a
        # *different* L1 set (so the L1 lines stay resident).
        monitor = InclusionMonitor(L1, L2_WIDE)
        for offset in range(0, 64, 16):
            monitor.access(offset)              # L2 line 0; L1 lines 0..3
        monitor.access(1024 + 64)               # L2 set 1? compute: line (1088>>6)=17 % 16 = 1
        monitor.access(1024)                    # L2 line 16 -> set 0: evicts L2 line 0, L1 set 0
        report = monitor.report
        assert report.steps_with_violation > 0
        # L1 lines 1,2,3 (offsets 16,32,48) remain resident, unbacked.
        assert report.peak_violations >= 3


class TestVictimCacheViolations:
    def test_victim_cache_adds_violations(self):
        """§3.5: victim caches violate inclusion — the victim cache can
        hold lines whose L2 line has been replaced."""
        monitor = InclusionMonitor(L1, L2_MATCHED, victim_entries=4)
        monitor.access(0)          # L1 line 0, L2 line 0
        monitor.access(256)        # same L1 set: 0 evicted into the VC
        # Now churn the L2 set holding line 0: L2 has 64 sets (1024/16),
        # line 0 -> set 0; line 64 -> set 0.
        monitor.access(64 * 16)    # wait: byte address for L2 line 64
        report = monitor.report
        # Line 0 sits in the VC; once its L2 copy is replaced the VC
        # holds an unbacked line.
        assert report.victim_cache_violations > 0

    def test_report_rates(self):
        monitor = InclusionMonitor(L1, L2_MATCHED)
        monitor.access(0)
        report = monitor.report
        assert report.accesses == 1
        assert 0.0 <= report.violation_rate <= 1.0


class TestSampling:
    def test_sampling_reduces_observations(self):
        import random

        rng = random.Random(2)
        addresses = [rng.randrange(1 << 14) for _ in range(1000)]
        dense = InclusionMonitor(L1, L2_WIDE, sample_interval=1)
        sparse = InclusionMonitor(L1, L2_WIDE, sample_interval=10)
        dense.run(addresses)
        sparse.run(iter(addresses))
        assert dense.report.accesses == 1000
        assert sparse.report.accesses == 100


def rescan_report(addresses, l1_config, l2_config, victim_entries, sample_interval):
    """The inclusion report by brute force: rescan every upper line each sample."""
    victim = VictimCache(victim_entries) if victim_entries else None
    level = CacheLevel(l1_config, victim)
    l2 = DirectMappedCache(l2_config)
    shift = l2_config.offset_bits - l1_config.offset_bits
    report = InclusionReport()
    for step, address in enumerate(addresses, start=1):
        if level.access(address) is AccessOutcome.MISS:
            l2.access_and_fill(address >> l2_config.offset_bits)
        if step % sample_interval:
            continue
        in_l1 = sum(1 for line in level.cache.resident_lines() if not l2.probe(line >> shift))
        in_vc = 0 if victim is None else sum(
            1 for line in victim.resident_lines() if not l2.probe(line >> shift)
        )
        report.accesses += 1
        if in_l1 + in_vc:
            report.steps_with_violation += 1
            report.violating_line_steps += in_l1 + in_vc
            report.victim_cache_violations += in_vc
            report.peak_violations = max(report.peak_violations, in_l1 + in_vc)
    return report


class TestIncrementalCountMatchesRescan:
    """The monitor keeps its unbacked-line count up to date as lines move;
    on any stream it must report what a full rescan every step reports."""

    # A 4KB address window over a 16-line L1: hits, conflicts, victim
    # swaps and L2 replacements all happen within a few hundred steps.
    streams = st.lists(st.integers(0, 4095), max_size=400)

    @settings(deadline=None, max_examples=60)
    @given(
        addresses=streams,
        sample_interval=st.sampled_from([1, 8]),
        victim_entries=st.sampled_from([0, 4]),
        l2_config=st.sampled_from([CacheConfig(1024, 16), CacheConfig(1024, 128)]),
    )
    def test_report_equals_full_rescan(
        self, addresses, sample_interval, victim_entries, l2_config
    ):
        monitor = InclusionMonitor(L1, l2_config, victim_entries, sample_interval)
        assert monitor.run(addresses) == rescan_report(
            addresses, L1, l2_config, victim_entries, sample_interval
        )
