"""Unit tests for the system performance model (Figures 2-2 / 5-1)."""

import pytest

from repro.common.config import TimingConfig
from repro.common.types import IFETCH, LOAD
from repro.hierarchy.performance import SystemPerformance, evaluate_performance
from repro.hierarchy.system import MemorySystem


def make_perf(**overrides):
    defaults = dict(
        instructions=1000,
        l1i_miss_time=0,
        l1d_miss_time=0,
        l2_miss_time=0,
        removed_miss_time=0,
        stall_time=0,
    )
    defaults.update(overrides)
    return SystemPerformance(**defaults)


class TestArithmetic:
    def test_perfect_machine(self):
        perf = make_perf()
        assert perf.total_time == 1000
        assert perf.percent_of_potential == 100.0
        assert perf.cycles_per_instruction == 1.0
        assert perf.memory_time == 0

    def test_total_time_sums_components(self):
        perf = make_perf(l1i_miss_time=240, l1d_miss_time=120, l2_miss_time=640,
                         removed_miss_time=10, stall_time=5)
        assert perf.total_time == 1000 + 240 + 120 + 640 + 10 + 5

    def test_percent_of_potential(self):
        perf = make_perf(l1i_miss_time=1000)
        assert perf.percent_of_potential == 50.0

    def test_speedup_over(self):
        fast = make_perf()
        slow = make_perf(l1i_miss_time=1000)
        assert fast.speedup_over(slow) == pytest.approx(2.0)
        assert slow.speedup_over(fast) == pytest.approx(0.5)

    def test_loss_breakdown_sums_to_100(self):
        perf = make_perf(l1i_miss_time=300, l1d_miss_time=200, l2_miss_time=100,
                         removed_miss_time=50, stall_time=25)
        breakdown = perf.loss_breakdown()
        assert sum(breakdown.values()) == pytest.approx(100.0)

    def test_zero_instructions(self):
        perf = make_perf(instructions=0)
        assert perf.percent_of_potential == 100.0
        assert perf.cycles_per_instruction == 1.0


class TestEvaluateFromSimulation:
    def test_miss_costs_applied(self):
        timing = TimingConfig()
        system = MemorySystem()
        # 1 instruction (i-miss -> L2 miss), 1 load (d-miss -> L2 miss)
        system.access(IFETCH, 0x10000)
        system.access(LOAD, 0x90000)
        perf = evaluate_performance(system.result(), timing)
        assert perf.instructions == 1
        assert perf.l1i_miss_time == 24
        assert perf.l1d_miss_time == 24
        assert perf.l2_miss_time == 2 * 320
        assert perf.removed_miss_time == 0

    def test_removed_misses_cost_one_cycle(self):
        from repro.buffers.victim_cache import VictimCache

        timing = TimingConfig()
        system = MemorySystem(daugmentation=VictimCache(2))
        system.access(LOAD, 0)
        system.access(LOAD, 4096)
        system.access(LOAD, 0)  # victim hit
        perf = evaluate_performance(system.result(), timing)
        assert perf.removed_miss_time == 1
        assert perf.l1d_miss_time == 2 * 24

    def test_custom_penalties(self):
        timing = TimingConfig(l1_miss_penalty=10, l2_miss_penalty=100)
        system = MemorySystem()
        system.access(LOAD, 0)
        perf = evaluate_performance(system.result(), timing)
        assert perf.l1d_miss_time == 10
        assert perf.l2_miss_time == 100

    def test_improvement_direction_matches_paper(self, small_by_name):
        """Adding the paper's structures must never slow the machine."""
        from repro.experiments.figure_5_1 import IMPROVED_DSTRUCTURE, IMPROVED_ISTRUCTURE
        from repro.specs import build

        timing = TimingConfig()
        trace = small_by_name["met"]
        base = evaluate_performance(MemorySystem().run(trace), timing)
        improved_system = MemorySystem(
            iaugmentation=build(IMPROVED_ISTRUCTURE), daugmentation=build(IMPROVED_DSTRUCTURE)
        )
        improved = evaluate_performance(improved_system.run(trace), timing)
        assert improved.speedup_over(base) > 1.0
