"""Landmark assertions on the actual figure modules (claims-scale suite).

test_paper_claims.py verifies the underlying shapes through the sweep
machinery; these tests drive the *experiment modules themselves* — the
code a user runs — and pin the landmark features a reader would check
each figure against.
"""

import pytest

from repro.experiments import (
    figure_3_3,
    figure_3_5,
    figure_3_6,
    figure_3_7,
    figure_4_3,
    figure_4_5,
    figure_4_6,
    figure_4_7,
)
from tests.conftest import CLAIMS_SCALE


@pytest.fixture(scope="module")
def figures():
    return {
        "3_3": figure_3_3.run(scale=CLAIMS_SCALE),
        "3_5": figure_3_5.run(scale=CLAIMS_SCALE),
        "3_6": figure_3_6.run(scale=CLAIMS_SCALE),
        "3_7": figure_3_7.run(scale=CLAIMS_SCALE),
        "4_3": figure_4_3.run(scale=CLAIMS_SCALE),
        "4_5": figure_4_5.run(scale=CLAIMS_SCALE),
        "4_6": figure_4_6.run(scale=CLAIMS_SCALE),
        "4_7": figure_4_7.run(scale=CLAIMS_SCALE),
    }


class TestFigure33And35Landmarks:
    def test_victim_average_dominates_miss_average(self, figures):
        mc = figures["3_3"].get("L1 D-cache average")
        vc = figures["3_5"].get("L1 D-cache average")
        for entries in (1, 2, 4, 15):
            assert vc.point(entries) >= mc.point(entries)

    def test_one_entry_contrast(self, figures):
        assert figures["3_3"].get("L1 D-cache average").point(1) < 5.0
        assert figures["3_5"].get("L1 D-cache average").point(1) > 15.0

    def test_data_side_beats_instruction_side(self, figures):
        for fig in ("3_3", "3_5"):
            d = figures[fig].get("L1 D-cache average").point(4)
            i = figures[fig].get("L1 I-cache average").point(4)
            assert d > i

    def test_met_tops_the_data_curves(self, figures):
        met = figures["3_5"].get("L1 D-cache met").point(4)
        for name in ("ccom", "grr", "yacc", "linpack", "liver"):
            assert met >= figures["3_5"].get(f"L1 D-cache {name}").point(4)


class TestFigure36And37Landmarks:
    def test_benefit_declines_with_cache_size(self, figures):
        vc4 = figures["3_6"].get("4-entry victim cache")
        assert vc4.point(1) > vc4.point(128)
        assert vc4.point(4) > vc4.point(32)

    def test_conflict_share_declines_with_cache_size(self, figures):
        share = figures["3_6"].get("percent conflict misses")
        assert share.point(1) > share.point(128)

    def test_benefit_rises_with_line_size(self, figures):
        vc4 = figures["3_7"].get("4-entry victim cache")
        assert vc4.point(8) < vc4.point(64) < vc4.point(256)

    def test_conflict_share_rises_with_line_size(self, figures):
        share = figures["3_7"].get("percent conflict misses")
        assert share.point(8) < share.point(256)

    def test_more_entries_always_help(self, figures):
        for fig, x in (("3_6", 4), ("3_7", 32)):
            values = [
                figures[fig].get(f"{n}-entry victim cache").point(x)
                for n in (1, 2, 4, 15)
            ]
            assert values == sorted(values)


class TestFigure43And45Landmarks:
    def test_instruction_average_dwarfs_data_average(self, figures):
        i = figures["4_3"].get("L1 I-cache average").point(16)
        d = figures["4_3"].get("L1 D-cache average").point(16)
        assert i > 3 * d

    def test_multiway_lifts_data_not_instructions(self, figures):
        d_single = figures["4_3"].get("L1 D-cache average").point(16)
        d_multi = figures["4_5"].get("L1 D-cache average").point(16)
        i_single = figures["4_3"].get("L1 I-cache average").point(16)
        i_multi = figures["4_5"].get("L1 I-cache average").point(16)
        assert d_multi > 1.5 * d_single
        assert abs(i_multi - i_single) < 8.0

    def test_liver_jump_visible_in_the_figure(self, figures):
        single = figures["4_3"].get("L1 D-cache liver").point(16)
        multi = figures["4_5"].get("L1 D-cache liver").point(16)
        assert multi > 3 * max(1.0, single)


class TestFigure46And47Landmarks:
    def test_instruction_curve_flat_across_sizes(self, figures):
        curve = figures["4_6"].get("single, I-cache").y
        assert max(curve) - min(curve) < 20.0

    def test_single_data_curve_rises_with_size(self, figures):
        curve = figures["4_6"].get("single, D-cache")
        assert curve.point(128) > curve.point(1)

    def test_data_curves_fall_with_line_size(self, figures):
        for label in ("single, D-cache", "4-way, D-cache"):
            curve = figures["4_7"].get(label)
            assert curve.point(8) > 2 * curve.point(128)

    def test_instruction_curve_survives_long_lines(self, figures):
        curve = figures["4_7"].get("single, I-cache")
        assert curve.point(128) > 30.0
