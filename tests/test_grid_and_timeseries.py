"""Tests for the grid-sweep and time-series analysis tools."""

import pytest

from repro.buffers.victim_cache import VictimCache
from repro.common.config import CacheConfig
from repro.common.errors import ConfigurationError
from repro.experiments.grid import GridSpec, default_structures, sweep_grid
from repro.experiments.timeseries import miss_rate_series, removal_rate_series
from repro.specs import SpecError, StreamBufferSpec, VictimCacheSpec

CONFIG = CacheConfig(4096, 16)


class TestGridSpec:
    def test_default_structures_cover_the_paper(self):
        assert set(default_structures()) == {"none", "vc4", "sb1x4", "sb4x4"}

    def test_num_points(self):
        spec = GridSpec(cache_sizes_kb=[4, 8], line_sizes=[16, 32, 64])
        assert spec.num_points == 2 * 3 * 4

    def test_rejects_empty_axis(self):
        with pytest.raises(ConfigurationError):
            GridSpec(cache_sizes_kb=[])
        with pytest.raises(ConfigurationError):
            GridSpec(structures={})

    def test_rejects_non_spec_structure(self):
        with pytest.raises(SpecError, match="vc2"):
            GridSpec(structures={"vc2": lambda: VictimCache(2)})


class TestSweepGrid:
    @pytest.fixture(scope="class")
    def table(self, small_suite):
        spec = GridSpec(
            cache_sizes_kb=[2, 8],
            line_sizes=[16],
            structures={"none": None, "vc2": VictimCacheSpec(2)},
        )
        return sweep_grid(small_suite[:2], spec)

    def test_row_count(self, table):
        assert len(table.rows) == 2 * 2 * 1 * 2  # traces x sizes x lines x structures

    def test_bigger_cache_never_higher_baseline_rate(self, table):
        for trace_name in {row[0] for row in table.rows}:
            rates = {
                row[1]: row[4]
                for row in table.rows
                if row[0] == trace_name and row[3] == "none"
            }
            assert rates[8] <= rates[2] + 1e-9

    def test_baseline_removes_nothing(self, table):
        for row in table.rows:
            if row[3] == "none":
                assert row[5] == 0.0

    def test_effective_rate_at_most_miss_rate(self, table):
        for row in table.rows:
            assert row[6] <= row[4] + 1e-9

    def test_instruction_side(self, small_suite):
        spec = GridSpec(structures={"sb": StreamBufferSpec(4)})
        table = sweep_grid(small_suite[:1], spec, side="i")
        assert len(table.rows) == 1
        assert table.rows[0][5] > 0.0

    def test_warmup_passthrough(self, small_suite):
        spec = GridSpec(structures={"none": None}, warmup=500)
        cold_spec = GridSpec(structures={"none": None})
        warm = sweep_grid(small_suite[:1], spec)
        cold = sweep_grid(small_suite[:1], cold_spec)
        assert warm.rows[0][4] <= cold.rows[0][4] * 1.2


class TestTimeSeries:
    def test_interval_count(self):
        addresses = [i * 16 for i in range(100)]
        series = miss_rate_series(addresses, CONFIG, interval=30)
        assert len(series.y) == 4  # 30+30+30+10
        assert series.x == [0, 30, 60, 90]

    def test_rejects_bad_interval(self):
        with pytest.raises(ConfigurationError):
            miss_rate_series([0], CONFIG, interval=0)

    def test_cold_then_warm_phases_visible(self):
        # Two passes over a cache-resident set: first interval all
        # misses, second all hits.
        addresses = [i * 16 for i in range(50)] * 2
        series = miss_rate_series(addresses, CONFIG, interval=50)
        assert series.y == [1.0, 0.0]

    def test_rates_bounded(self, small_by_name):
        addresses = small_by_name["liver"].data_addresses
        series = miss_rate_series(addresses, CONFIG, interval=400)
        assert all(0.0 <= y <= 1.0 for y in series.y)

    def test_removal_series(self):
        # Alternating conflict pair: after warmup the VC removes all.
        addresses = [0, 4096] * 50
        series = removal_rate_series(
            addresses, CONFIG, VictimCache(1), interval=20
        )
        assert series.y[-1] == 1.0

    def test_empty_trace(self):
        series = miss_rate_series([], CONFIG)
        assert series.y == []

    def test_custom_label(self):
        series = miss_rate_series([0], CONFIG, label="mine")
        assert series.label == "mine"
