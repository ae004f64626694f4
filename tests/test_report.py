"""Tests for the Markdown report generator."""

import pytest

from repro.experiments.report import generate_report, write_report
from tests.conftest import SMALL_SCALE


class TestGenerateReport:
    def test_selected_experiments_only(self):
        text = generate_report(["table_1_1"], scale=SMALL_SCALE)
        assert "## table_1_1" in text
        assert "## table_2_2" not in text

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="bogus"):
            generate_report(["bogus"], scale=SMALL_SCALE)

    def test_header_names_the_paper(self):
        # ext_modern_workloads builds seven traces of its own, more than
        # the memo keeps beside the suite; the header still reads the suite.
        text = generate_report(["table_1_1", "ext_modern_workloads"], scale=SMALL_SCALE)
        assert "Improving Direct-Mapped Cache Performance" in text
        assert "Suite: ccom, grr, yacc, met, linpack, liver (" in text
        assert " references total).\n" in text

    def test_figures_get_charts(self):
        text = generate_report(["figure_4_6"], scale=SMALL_SCALE)
        assert "A = single, I-cache" in text

    def test_charts_can_be_disabled(self):
        text = generate_report(
            ["figure_4_6"], scale=SMALL_SCALE, include_charts=False
        )
        assert "A = single, I-cache" not in text

    def test_tables_get_no_charts(self):
        text = generate_report(["table_1_1"], scale=SMALL_SCALE)
        assert "A = " not in text

    def test_code_fences_balanced(self):
        text = generate_report(["table_1_1", "figure_3_1"], scale=SMALL_SCALE)
        assert text.count("```") % 2 == 0


class TestWriteReport:
    def test_writes_file(self, tmp_path):
        path = write_report(
            tmp_path / "report.md", ["table_1_1"], scale=SMALL_SCALE
        )
        assert path.exists()
        assert "## table_1_1" in path.read_text()

    def test_cli_report_flag(self, tmp_path, capsys):
        from repro.experiments.cli import main

        target = tmp_path / "out.md"
        assert main(["table_1_1", "--report", str(target), "--scale", "300"]) == 0
        assert target.exists()
        assert "wrote report" in capsys.readouterr().out


def _fenced_blocks(text):
    """The contents of every ```text block of a report."""
    return [block.split("\n```")[0] for block in text.split("```text\n")[1:]]


def _without_timing(text):
    return [line for line in text.splitlines() if not line.startswith("*regenerated in ")]


class TestReportRoute:
    """``--report`` is the console run written to a file."""

    def test_workload_report_writes_the_console_table(self, tmp_path, capsys):
        from repro.experiments.cli import main

        argv = ["--workload", "zipfian", "--scale", "2000"]
        assert main(argv) == 0
        console = capsys.readouterr().out.split("\n[ext_modern_workloads in ")[0]
        target = tmp_path / "w.md"
        assert main(argv + ["--report", str(target)]) == 0
        text = target.read_text()
        assert "Workloads: zipfian." in text
        [table] = _fenced_blocks(text)
        assert table == console
        rows = table.splitlines()[3:]
        data_rows = [row for row in rows if not row.startswith("note:")]
        assert [row.split()[0] for row in data_rows] == ["zipfian"]

    def test_report_is_the_same_at_any_jobs(self, tmp_path):
        from repro.experiments.cli import main

        texts = []
        for jobs in ("1", "2"):
            target = tmp_path / f"jobs_{jobs}.md"
            argv = ["table_2_2", "figure_3_3", "ext_modern_workloads", "--scale", "2000",
                    "--jobs", jobs]
            assert main(argv + ["--report", str(target)]) == 0
            texts.append(_without_timing(target.read_text()))
        assert texts[0] == texts[1]

    def test_report_emits_one_run_record_per_module(self, tmp_path):
        from repro.experiments.cli import main
        from repro.telemetry.record import read_records

        metrics = tmp_path / "m.jsonl"
        argv = ["table_2_2", "figure_3_1", "--scale", "2000", "--report",
                str(tmp_path / "r.md"), "--emit-metrics", str(metrics)]
        assert main(argv) == 0
        records = list(read_records(str(metrics)))
        assert [record.run for record in records] == ["table_2_2", "figure_3_1"]


class TestReportHeader:
    """The suite header reads the trace memo and builds no trace."""

    def test_render_builds_no_trace(self):
        from repro.experiments.report import render_report
        from repro.experiments.workloads import held_workload, suite_specs

        text = render_report([], scale=1234, seed=7)
        assert "Suite: ccom, grr, yacc, met, linpack, liver.\n" in text
        assert all(held_workload(spec) is None for spec in suite_specs(1234, 7))
