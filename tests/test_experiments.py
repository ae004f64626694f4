"""Integration tests: every experiment module runs and is well-formed.

These run on the small shared suite; the *shape* assertions that need
statistical weight live in test_paper_claims.py.
"""

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.base import FigureResult, TableResult
from tests.conftest import SMALL_SCALE

BENCHES = ["ccom", "grr", "yacc", "met", "linpack", "liver"]


@pytest.fixture(scope="module")
def results():
    return {name: run(scale=SMALL_SCALE) for name, run in ALL_EXPERIMENTS.items()}


class TestAllExperiments:
    def test_registry_covers_every_paper_artifact(self):
        expected = {
            "table_1_1", "table_2_1", "table_2_2",
            "figure_2_2", "figure_3_1", "figure_3_3", "figure_3_5",
            "figure_3_6", "figure_3_7", "figure_4_1", "figure_4_3",
            "figure_4_5", "figure_4_6", "figure_4_7", "figure_5_1",
            "overlap_5", "ext_l2_victim", "ext_bandwidth", "ext_associativity", "ext_inclusion", "ext_stride", "ext_multiprog",
            "ext_write_policy", "ext_timing_fidelity", "ext_marginal_utility",
            "ext_cold_start", "ext_penalty_sweep", "ext_prefetch_traffic", "ext_os", "ablations",
            "ext_modern_workloads",
        }
        assert set(ALL_EXPERIMENTS) == expected

    @pytest.mark.parametrize("name", sorted(
        {"table_1_1", "table_2_1", "table_2_2", "figure_5_1", "overlap_5",
         "ext_l2_victim", "ext_bandwidth", "ext_associativity", "ext_inclusion", "ext_stride", "ext_multiprog",
         "ext_write_policy", "ext_timing_fidelity", "ext_marginal_utility",
         "ext_cold_start", "ext_penalty_sweep", "ext_prefetch_traffic", "ext_os", "ablations",
         "ext_modern_workloads"}
    ))
    def test_tables_are_tables(self, results, name):
        assert isinstance(results[name], TableResult)

    @pytest.mark.parametrize("name", sorted(
        {"figure_2_2", "figure_3_1", "figure_3_3", "figure_3_5", "figure_3_6",
         "figure_3_7", "figure_4_1", "figure_4_3", "figure_4_5", "figure_4_6",
         "figure_4_7"}
    ))
    def test_figures_are_figures(self, results, name):
        assert isinstance(results[name], FigureResult)

    def test_every_result_renders(self, results):
        for name, result in results.items():
            text = result.render()
            assert name in text
            assert len(text.splitlines()) >= 3


class TestTable11:
    def test_miss_cost_growth(self, results):
        table = results["table_1_1"]
        costs = table.column("miss (instr)")
        assert costs == sorted(costs)
        assert table.row_by_key("?")[5] == pytest.approx(140.0)

    def test_matches_paper_column(self, results):
        table = results["table_1_1"]
        for row in table.rows:
            assert row[5] == pytest.approx(row[6], rel=0.05)


class TestTable21:
    def test_all_benchmarks_plus_total(self, results):
        table = results["table_2_1"]
        assert [row[0] for row in table.rows] == BENCHES + ["total"]

    def test_ratios_match_paper(self, results):
        for row in results["table_2_1"].rows[:-1]:
            assert row[4] == pytest.approx(row[5], abs=0.01)

    def test_total_row_sums(self, results):
        table = results["table_2_1"]
        total = table.row_by_key("total")
        assert total[1] == sum(row[1] for row in table.rows[:-1])


class TestTable22:
    def test_rows_per_benchmark(self, results):
        assert [row[0] for row in results["table_2_2"].rows] == BENCHES

    def test_rates_are_rates(self, results):
        for row in results["table_2_2"].rows:
            assert 0.0 <= row[1] <= 1.0
            assert 0.0 <= row[3] <= 1.0


class TestFigure22:
    def test_breakdown_rows_sum_to_100(self, results):
        figure = results["figure_2_2"]
        for i in range(len(BENCHES)):
            total = sum(series.y[i] for series in figure.series)
            assert total == pytest.approx(100.0, abs=0.5)


class TestFigure31:
    def test_has_average_point(self, results):
        figure = results["figure_3_1"]
        assert figure.get("L1 D-cache").point("average") > 0

    def test_percentages_bounded(self, results):
        for series in results["figure_3_1"].series:
            assert all(0.0 <= y <= 100.0 for y in series.y)


class TestEntrySweepFigures:
    @pytest.mark.parametrize("name", ["figure_3_3", "figure_3_5"])
    def test_curves_monotone_in_entries(self, results, name):
        for series in results[name].series:
            assert all(b >= a - 1e-9 for a, b in zip(series.y, series.y[1:])), series.label

    @pytest.mark.parametrize("name", ["figure_3_3", "figure_3_5"])
    def test_zero_entries_removes_nothing(self, results, name):
        for series in results[name].series:
            assert series.y[0] == 0.0

    def test_average_series_present_for_both_sides(self, results):
        labels = results["figure_3_5"].labels
        assert "L1 I-cache average" in labels
        assert "L1 D-cache average" in labels


class TestRunLengthFigures:
    @pytest.mark.parametrize("name", ["figure_4_3", "figure_4_5"])
    def test_cumulative_curves_monotone(self, results, name):
        for series in results[name].series:
            assert all(b >= a - 1e-9 for a, b in zip(series.y, series.y[1:]))

    @pytest.mark.parametrize("name", ["figure_4_3", "figure_4_5"])
    def test_run_zero_removes_nothing(self, results, name):
        for series in results[name].series:
            assert series.y[0] == 0.0


class TestFigure41:
    def test_three_schemes(self, results):
        assert len(results["figure_4_1"].series) == 3

    def test_cumulative_distribution(self, results):
        for series in results["figure_4_1"].series:
            assert all(b >= a - 1e-9 for a, b in zip(series.y, series.y[1:]))
            assert all(0.0 <= y <= 100.0 for y in series.y)


class TestSweepFigures:
    def test_figure_3_6_x_axis(self, results):
        assert list(results["figure_3_6"].series[0].x) == [1, 2, 4, 8, 16, 32, 64, 128]

    def test_figure_3_7_x_axis(self, results):
        assert list(results["figure_3_7"].series[0].x) == [8, 16, 32, 64, 128, 256]

    def test_figure_4_6_series(self, results):
        assert len(results["figure_4_6"].series) == 4

    def test_figure_4_7_series(self, results):
        assert len(results["figure_4_7"].series) == 4


class TestFigure51:
    def test_average_row_present(self, results):
        table = results["figure_5_1"]
        assert table.rows[-1][0] == "average"

    def test_speedups_at_least_one(self, results):
        for row in results["figure_5_1"].rows[:-1]:
            assert row[3] >= 1.0

    def test_miss_ratio_below_one(self, results):
        for row in results["figure_5_1"].rows[:-1]:
            assert 0.0 <= row[4] <= 1.0


class TestAblationsAndExtensions:
    def test_ablation_rows(self, results):
        assert [row[0] for row in results["ablations"].rows] == BENCHES

    def test_overlap_percentages_bounded(self, results):
        for row in results["overlap_5"].rows:
            assert 0.0 <= row[5] <= 100.0

    def test_l2_victim_table_shape(self, results):
        table = results["ext_l2_victim"]
        assert len(table.rows) == 6
        assert len(table.headers) == 7
