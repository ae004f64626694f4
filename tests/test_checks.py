"""Tests for the runtime shape-check harness (--check)."""

import pytest

from repro.experiments.checks import (
    CheckOutcome,
    ShapeCheck,
    render_outcomes,
    run_checks,
)
from tests.conftest import CLAIMS_SCALE


@pytest.fixture(scope="module")
def outcomes():
    return run_checks(scale=CLAIMS_SCALE)


class TestRunChecks:
    def test_all_claims_pass_on_calibrated_suite(self, outcomes):
        failing = [o.check.check_id for o in outcomes if not o.passed]
        assert not failing, failing

    def test_every_check_has_detail(self, outcomes):
        for outcome in outcomes:
            assert outcome.detail

    def test_check_ids_unique(self, outcomes):
        ids = [o.check.check_id for o in outcomes]
        assert len(ids) == len(set(ids))

    def test_covers_the_headline_claims(self, outcomes):
        ids = {o.check.check_id for o in outcomes}
        assert {
            "victim_ge_miss",
            "vc1_useful",
            "sb_i_beats_d",
            "multiway_doubles_d",
            "combined_halves_misses",
        } <= ids


class TestRender:
    def test_render_shows_status_and_tally(self, outcomes):
        text = render_outcomes(outcomes)
        assert "[PASS]" in text
        assert f"{len(outcomes)}/{len(outcomes)} checks passed" in text

    def test_render_marks_failures(self):
        check = ShapeCheck("x", "claim", lambda d: False, lambda d: "why")
        text = render_outcomes([CheckOutcome(check, False, "why")])
        assert "[FAIL] x" in text
        assert "0/1 checks passed" in text


class TestRobustness:
    def test_broken_predicate_reports_not_crashes(self, monkeypatch):
        import repro.experiments.checks as checks_module

        def boom(data):
            raise RuntimeError("broken claim")

        broken = ShapeCheck("boom", "claim", boom, lambda d: "")
        monkeypatch.setattr(checks_module, "_CHECKS", [broken])
        outcomes = run_checks(scale=CLAIMS_SCALE)
        assert len(outcomes) == 1
        assert not outcomes[0].passed
        assert "RuntimeError" in outcomes[0].detail

    def test_cli_check_flag(self, capsys):
        from repro.experiments.cli import main

        code = main(["--check", "--scale", "15000"])
        out = capsys.readouterr().out
        assert "shape checks" in out
        assert code in (0, 1)
