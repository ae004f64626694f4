"""Tests for the §5 extension experiments: matcol, stride, multiprogramming,
write policy, and the ASCII plotter."""

import pytest

from repro.experiments import ext_multiprog, ext_stride, ext_write_policy
from repro.experiments.base import FigureResult, Series
from repro.experiments.ext_multiprog import interleave_processes
from repro.experiments.plotting import plot_figure, render_ascii_chart
from repro.traces.registry import EXTENSION_NAMES, build_trace, get_workload
from tests.conftest import SMALL_SCALE


class TestMatcolWorkload:
    def test_registered_as_extension(self):
        assert "matcol" in EXTENSION_NAMES
        spec = get_workload("matcol")
        assert "stride" in spec.program_type

    def test_not_in_paper_suite(self):
        from repro.traces.registry import BENCHMARK_NAMES

        assert "matcol" not in BENCHMARK_NAMES

    def test_deterministic(self):
        a = list(build_trace("matcol", scale=600, seed=2))
        b = list(build_trace("matcol", scale=600, seed=2))
        assert a == b

    def test_column_sweep_is_non_unit_stride(self):
        from repro.traces.synthetic.matcol import ROW_BYTES, _column_major_sweep

        sweep = _column_major_sweep()
        first = next(sweep)
        second = next(sweep)
        assert second - first == ROW_BYTES
        assert ROW_BYTES // 16 >= 8  # many cache lines per step


class TestExtStride:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_stride.run(scale=SMALL_SCALE)

    def test_matcol_row_first(self, result):
        assert result.rows[0][0] == "matcol (non-unit)"

    def test_stride_buffer_wins_on_matcol(self, result):
        row = result.rows[0]
        seq4, stride4 = row[3], row[5]
        assert stride4 > 2.5 * max(1.0, seq4)

    def test_stride_buffer_no_collapse_on_suite(self, result):
        for row in result.rows[1:]:
            seq1, stride1 = row[2], row[4]
            assert stride1 >= seq1 - 12.0, row[0]


class TestInterleaveProcesses:
    def test_round_robin_quanta(self):
        streams = [[1, 2, 3, 4], [10, 20, 30, 40]]
        out = interleave_processes(streams, quantum=2)
        base = 1 << 40
        assert out == [1, 2, base + 10, base + 20, 3, 4, base + 30, base + 40]

    def test_uneven_lengths_drain(self):
        streams = [[1], [10, 20, 30]]
        out = interleave_processes(streams, quantum=2)
        base = 1 << 40
        assert out == [1, base + 10, base + 20, base + 30]

    def test_address_spaces_disjoint(self):
        streams = [[0, 1], [0, 1], [0, 1]]
        out = interleave_processes(streams, quantum=10)
        assert len(set(out)) == 6

    def test_total_preserved(self, small_suite):
        streams = [t.data_addresses for t in small_suite[:2]]
        out = interleave_processes(streams, quantum=777)
        assert len(out) == sum(len(s) for s in streams)


class TestExtMultiprog:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_multiprog.run(scale=SMALL_SCALE)

    def test_alone_row_last(self, result):
        assert result.rows[-1][0] == "alone"

    def test_switching_inflates_miss_rate(self, result):
        alone = result.rows[-1][1]
        shortest_quantum = result.rows[0][1]
        assert shortest_quantum >= alone

    def test_inflation_shrinks_with_quantum(self, result):
        inflations = [row[2] for row in result.rows[:-1]]
        assert inflations == sorted(inflations, reverse=True)

    def test_helpers_still_remove_misses(self, result):
        for row in result.rows[:-1]:
            assert row[5] > 10.0  # total removed %


class TestExtWritePolicy:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_write_policy.run(scale=SMALL_SCALE)

    def test_write_through_moves_more_bytes(self, result):
        for row in result.rows:
            assert row[6] > row[7], row[0]

    def test_rates_are_rates(self, result):
        for row in result.rows:
            assert 0.0 <= row[1] <= 1.0
            assert 0.0 <= row[2] <= 1.0


class TestPlotting:
    @pytest.fixture
    def figure(self):
        return FigureResult(
            experiment_id="f",
            title="t",
            xlabel="x",
            ylabel="percent",
            series=[
                Series("rising average", [1, 2, 3, 4], [0.0, 10.0, 20.0, 30.0]),
                Series("flat average", [1, 2, 3, 4], [15.0, 15.0, 15.0, 15.0]),
                Series("detail", [1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0]),
            ],
        )

    def test_chart_contains_axes_and_legend(self, figure):
        text = render_ascii_chart(figure.series, width=30, height=8, title="demo")
        assert "demo" in text
        assert "+--" in text
        assert "A = rising average" in text

    def test_plot_figure_defaults_to_averages(self, figure):
        text = plot_figure(figure, width=30, height=8)
        assert "rising average" in text
        assert "detail" not in text

    def test_plot_figure_label_filter(self, figure):
        text = plot_figure(figure, only_labels=["detail"])
        assert "A = detail" in text

    def test_empty_series(self):
        assert render_ascii_chart([]) == "(no data)"

    def test_constant_zero_series(self):
        text = render_ascii_chart([Series("z", [1, 2], [0.0, 0.0])], width=10, height=4)
        assert "A = z" in text

    def test_real_experiment_plots(self):
        from repro.experiments import figure_4_6

        figure = figure_4_6.run(scale=SMALL_SCALE)
        text = plot_figure(figure)
        assert "single, I-cache" in text


class TestInjectInterrupts:
    def test_burst_spliced_at_interval(self):
        from repro.experiments.ext_os import inject_interrupts

        user = [(0, i * 4) for i in range(100)]  # 100 ifetches
        mixed = inject_interrupts(user, interval_instructions=50)
        assert len(mixed) > len(user)
        # User references all survive, in order.
        survivors = [p for p in mixed if p[1] < 400]
        assert survivors == user

    def test_no_interrupts_when_interval_exceeds_trace(self):
        from repro.experiments.ext_os import inject_interrupts

        user = [(0, i * 4) for i in range(10)]
        assert inject_interrupts(user, interval_instructions=1000) == user

    def test_deterministic(self):
        from repro.experiments.ext_os import inject_interrupts

        user = [(0, i * 4) for i in range(500)]
        assert inject_interrupts(user, 100, seed=3) == inject_interrupts(user, 100, seed=3)

    def test_data_references_do_not_trigger(self):
        from repro.experiments.ext_os import inject_interrupts

        user = [(1, i * 4) for i in range(500)]  # loads only
        assert inject_interrupts(user, interval_instructions=50) == user


class TestExtOs:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ext_os

        return ext_os.run(scale=SMALL_SCALE)

    def test_inflation_monotone_in_interrupt_rate(self, result):
        d_inflations = [row[2] for row in result.rows[:-1]]
        assert d_inflations == sorted(d_inflations, reverse=True)

    def test_no_os_row_is_baseline(self, result):
        assert result.rows[-1][0] == "no OS"
        assert result.rows[-1][1] == 1.0

    def test_helpers_survive_interrupts(self, result):
        for row in result.rows[:-1]:
            assert row[3] > 30.0


class TestExtPenaltySweep:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ext_penalty_sweep

        return ext_penalty_sweep.run(scale=SMALL_SCALE)

    def test_speedup_monotone_in_miss_cost(self, result):
        speedups = [row[4] for row in result.rows]
        assert speedups == sorted(speedups)

    def test_baseline_potential_monotone_down(self, result):
        potentials = [row[3] for row in result.rows]
        assert potentials == sorted(potentials, reverse=True)

    def test_vax_class_is_near_pointless(self, result):
        assert result.rows[0][4] < 1.2

    def test_projected_era_is_dramatic(self, result):
        assert result.rows[-1][4] > 2.0
