"""Tests for the repro-trace command-line tool."""

import pytest

from repro.traces.cli import build_parser, main
from repro.traces.io import load_trace


class TestParser:
    def test_gen_args(self):
        args = build_parser().parse_args(["gen", "ccom", "-o", "x.trc", "--scale", "100"])
        assert args.command == "gen"
        assert args.workload == "ccom"
        assert args.scale == 100

    def test_gen_accepts_extension_workloads(self):
        args = build_parser().parse_args(["gen", "matcol", "-o", "x.trc"])
        assert args.workload == "matcol"

    def test_gen_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["gen", "bogus", "-o", "x.trc"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestGen:
    def test_writes_binary_trace(self, tmp_path, capsys):
        path = tmp_path / "met.trc"
        assert main(["gen", "met", "-o", str(path), "--scale", "500"]) == 0
        assert "wrote" in capsys.readouterr().out
        trace = load_trace(path)
        assert trace.stats().instructions == 500

    def test_seed_determinism(self, tmp_path):
        a = tmp_path / "a.trc"
        b = tmp_path / "b.trc"
        main(["gen", "liver", "-o", str(a), "--scale", "400", "--seed", "5"])
        main(["gen", "liver", "-o", str(b), "--scale", "400", "--seed", "5"])
        assert a.read_bytes() == b.read_bytes()

    def test_text_output_by_suffix(self, tmp_path):
        path = tmp_path / "t.din"
        main(["gen", "yacc", "-o", str(path), "--scale", "100"])
        assert path.read_text().splitlines()[0].startswith("0 ")


class TestStats:
    def test_reports_counts(self, tmp_path, capsys):
        path = tmp_path / "x.trc"
        main(["gen", "linpack", "-o", str(path), "--scale", "300"])
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "instructions:     300" in out
        assert "data/instr:" in out
        assert "footprint" in out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "none.trc")]) == 1
        assert "error:" in capsys.readouterr().err


class TestConvert:
    def test_roundtrip_binary_to_text(self, tmp_path):
        binary = tmp_path / "x.trc"
        text = tmp_path / "x.din"
        main(["gen", "grr", "-o", str(binary), "--scale", "200"])
        assert main(["convert", str(binary), str(text)]) == 0
        assert list(load_trace(binary)) == list(load_trace(text))

    def test_corrupt_source_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.trc"
        bad.write_bytes(b"garbage!")
        assert main(["convert", str(bad), str(tmp_path / "out.din")]) == 1
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    @pytest.fixture
    def trace_file(self, tmp_path):
        path = tmp_path / "met.trc"
        main(["gen", "met", "-o", str(path), "--scale", "1500"])
        return str(path)

    def test_baseline_only(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["simulate", trace_file]) == 0
        out = capsys.readouterr().out
        assert "baseline I miss rate" in out
        assert "with the requested structures" not in out

    def test_victim_and_stream(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["simulate", trace_file, "--victim", "4", "--stream", "4x4"]) == 0
        out = capsys.readouterr().out
        assert "misses removed" in out
        assert "speedup" in out

    def test_classify_breakdown(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["simulate", trace_file, "--classify"]) == 0
        out = capsys.readouterr().out
        assert "compulsory" in out and "conflict" in out

    def test_custom_geometry(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["simulate", trace_file, "--cache-kb", "8", "--line", "32"]) == 0
        assert "8KB direct-mapped, 32B lines" in capsys.readouterr().out

    def test_rejects_both_victim_and_miss_cache(self, trace_file, capsys):
        assert main(["simulate", trace_file, "--victim", "2", "--miss-cache", "2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_rejects_bad_stream_spec(self, trace_file, capsys):
        assert main(["simulate", trace_file, "--stream", "wat"]) == 1
        assert "WAYSxENTRIES" in capsys.readouterr().err

    def test_single_way_stream(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["simulate", trace_file, "--stream", "1x4"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_miss_cache_option(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["simulate", trace_file, "--miss-cache", "2"]) == 0
        assert "misses removed" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (
                ["--victim", "4", "--stream", "4x4"],
                """\
L1: 4KB direct-mapped, 16B lines (split I/D)
  baseline I miss rate: 0.1073
  baseline D miss rate: 0.0751
with the requested structures:
  I misses removed: 118 of 161
  D misses removed: 32 of 57
  modelled speedup (24/320-cycle penalties): 1.91x
""",
            ),
            (
                ["--miss-cache", "2", "--classify"],
                """\
L1: 4KB direct-mapped, 16B lines (split I/D)
  baseline I miss rate: 0.1073
  baseline D miss rate: 0.0751
  I misses: 161 (compulsory 111, capacity 0, conflict 50 = 31%)
  D misses: 57 (compulsory 43, capacity 0, conflict 14 = 25%)
with the requested structures:
  I misses removed: 0 of 161
  D misses removed: 4 of 57
  modelled speedup (24/320-cycle penalties): 1.01x
""",
            ),
        ],
    )
    def test_stdout_is_pinned(self, trace_file, capsys, flags, expected):
        capsys.readouterr()
        assert main(["simulate", trace_file, *flags]) == 0
        out = capsys.readouterr().out
        assert out == f"trace: {trace_file}  (2259 references)\n" + expected
