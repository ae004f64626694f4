"""Result store: correctness, corruption tolerance, zero-recompute warm runs."""

from __future__ import annotations

import json
import warnings

import pytest

from repro.common.config import CacheConfig
from repro.experiments.engine import (
    EntrySweepJob,
    LevelJob,
    LevelSummary,
    RunSweepJob,
    _store_key,
    run_jobs,
)
from repro.experiments.grid import GridSpec, sweep_grid
from repro.experiments.sweeps import EntrySweep, RunLengthSweep
from repro.experiments.workloads import materialized_trace
from repro.hierarchy.level import CacheLevel
from repro.specs import SystemSpec
from repro.store import (
    RESULT_SCHEMA_VERSION,
    ResultKey,
    ResultStore,
    current_store,
    set_store,
)

SCALE = 3_000


@pytest.fixture
def store(tmp_path, monkeypatch):
    """An activated store rooted in a temp dir, deactivated on teardown."""
    monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
    yield current_store()


@pytest.fixture
def no_store(monkeypatch):
    monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)


@pytest.fixture
def sim_counter(monkeypatch):
    """Count simulations: every interpreter replay builds a CacheLevel, and
    every vectorized replay calls the kernel's simulate_level."""
    counts = {"levels": 0}
    original = CacheLevel.__init__

    def counting(self, *args, **kwargs):
        counts["levels"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CacheLevel, "__init__", counting)
    from repro.kernels import numpy_backend

    kernel_original = numpy_backend.simulate_level

    def kernel_counting(*args, **kwargs):
        counts["levels"] += 1
        return kernel_original(*args, **kwargs)

    monkeypatch.setattr(numpy_backend, "simulate_level", kernel_counting)
    return counts


def level_job(name="ccom", side="d"):
    trace = materialized_trace(name, SCALE)
    return LevelJob(SystemSpec.for_level(trace, CacheConfig(4096, 16), side=side))


class TestResultKey:
    def test_digest_is_stable(self):
        a = ResultKey("LevelJob", "abc", "def", {"x": 1})
        b = ResultKey("LevelJob", "abc", "def", {"x": 1})
        assert a.digest() == b.digest()

    @pytest.mark.parametrize(
        "other",
        [
            ResultKey("EntrySweepJob", "abc", "def", {"x": 1}),
            ResultKey("LevelJob", "abd", "def", {"x": 1}),
            ResultKey("LevelJob", "abc", "dee", {"x": 1}),
            ResultKey("LevelJob", "abc", "def", {"x": 2}),
        ],
    )
    def test_every_component_perturbs_digest(self, other):
        base = ResultKey("LevelJob", "abc", "def", {"x": 1})
        assert base.digest() != other.digest()

    def test_job_keys_cover_all_parameters(self):
        job = level_job()
        sweep = EntrySweepJob(system=job.system, kind="victim", max_entries=7)
        run = RunSweepJob(system=job.system, ways=4, entries=2, max_run=8)
        digests = {_store_key(j).digest() for j in (job, sweep, run)}
        assert len(digests) == 3
        assert _store_key(sweep).extras == {"kind": "victim", "max_entries": 7}
        assert _store_key(run).extras == {"ways": 4, "entries": 2, "max_run": 8}


class TestRoundTrip:
    @pytest.mark.parametrize(
        "result",
        [
            LevelSummary(100, 10, 2, 8, stream_stall_cycles=5, conflict_misses=4),
            LevelSummary(100, 10, 0, 10),
            EntrySweep(total_misses=50, conflict_misses=20, hits_by_entries=[0, 3, 5]),
            RunLengthSweep(total_misses=40, removed_by_run=[0, 1, 2, 2]),
        ],
    )
    def test_exact_round_trip(self, tmp_path, result):
        store = ResultStore(tmp_path)
        key = ResultKey("LevelJob", "s", "t", {})
        store.put(key, result)
        loaded, nbytes = store.get(key)
        assert loaded == result
        assert type(loaded) is type(result)
        assert nbytes > 0

    def test_missing_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(ResultKey("LevelJob", "s", "t", {})) == (None, 0)


class TestCorruptionTolerance:
    def entry_path(self, store, key):
        return store._entry_path(key)

    @pytest.mark.parametrize(
        "garbage",
        [
            b"",  # truncated to nothing
            b"{not json",  # syntactically broken
            b'"a bare string"',  # wrong top-level shape
            b'{"result_schema": 1, "key": {}, "result": {"type": "Nope", "fields": {}}}',
            b'{"result_schema": 1}',  # missing sections
        ],
    )
    def test_damaged_entry_reads_as_miss(self, tmp_path, garbage):
        store = ResultStore(tmp_path)
        key = ResultKey("LevelJob", "s", "t", {})
        store.put(key, LevelSummary(1, 1, 0, 1))
        self.entry_path(store, key).write_bytes(garbage)
        assert store.get(key) == (None, 0)

    def test_corrupt_entry_degrades_to_recompute(self, store, sim_counter):
        job = level_job()
        first = run_jobs([job])
        key = _store_key(job)
        self.entry_path(store, key).write_bytes(b"{broken")
        before = sim_counter["levels"]
        again = run_jobs([job])  # recomputes and rewrites the entry
        assert again == first
        assert sim_counter["levels"] > before
        assert store.get(key)[0] == first[0]  # healed by the rewrite

    def test_schema_version_bump_invalidates(self, store, monkeypatch):
        job = level_job()
        first = run_jobs([job])
        import repro.store.core as core

        monkeypatch.setattr(core, "RESULT_SCHEMA_VERSION", RESULT_SCHEMA_VERSION + 1)
        assert store.get(_store_key(job)) == (None, 0)
        run_jobs([job])  # repopulates under the new version directory
        stats = store.stats()
        assert stats.entries == 1 and stats.stale_entries == 1
        # Back on the original version, the old entry still serves...
        monkeypatch.setattr(core, "RESULT_SCHEMA_VERSION", RESULT_SCHEMA_VERSION)
        assert store.get(_store_key(job))[0] == first[0]
        # ...and gc drops the now-superseded bumped entry.
        assert store.gc() == 1
        assert store.stats().stale_entries == 0

    def test_tampered_key_payload_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = ResultKey("LevelJob", "s", "t", {})
        store.put(key, LevelSummary(1, 1, 0, 1))
        path = self.entry_path(store, key)
        payload = json.loads(path.read_bytes())
        payload["key"]["spec_hash"] = "tampered"
        path.write_bytes(json.dumps(payload).encode())
        assert store.get(key) == (None, 0)


class TestWarmRunsAreZeroSim:
    def test_warm_batch_runs_no_simulations(self, store, sim_counter):
        jobs = [level_job("ccom"), level_job("ccom", side="i"), level_job("liver")]
        cold = run_jobs(jobs)
        before = sim_counter["levels"]
        warm = run_jobs(jobs)
        assert warm == cold
        assert sim_counter["levels"] == before

    def test_warm_equals_cold_serial_across_modes(self, tmp_path, monkeypatch, small_suite):
        spec = GridSpec(cache_sizes_kb=[2, 4], line_sizes=[16])
        traces = small_suite[:2]
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        cold_serial = sweep_grid(traces, spec, side="d", jobs=1)
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "grid-store"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # store-routed serial must not warn
            populated = sweep_grid(traces, spec, side="d", jobs=1)
        warm_parallel = sweep_grid(traces, spec, side="d", jobs=4)
        assert populated.rows == cold_serial.rows
        assert warm_parallel.rows == cold_serial.rows

    def test_warm_grid_is_zero_sim(self, store, sim_counter, small_suite):
        spec = GridSpec(cache_sizes_kb=[2], line_sizes=[16])
        traces = small_suite[:2]
        cold = sweep_grid(traces, spec, side="i", jobs=1)
        before = sim_counter["levels"]
        warm = sweep_grid(traces, spec, side="i", jobs=1)
        assert warm.rows == cold.rows
        assert sim_counter["levels"] == before

    def test_store_off_by_default(self, no_store, sim_counter):
        job = level_job()
        run_jobs([job])
        before = sim_counter["levels"]
        run_jobs([job])
        assert sim_counter["levels"] > before  # no memoization without a store


class TestCliIntegration:
    def test_warm_cli_run_is_zero_sim_and_identical(
        self, tmp_path, monkeypatch, capsys, sim_counter
    ):
        from repro.experiments.cli import main

        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "cli-store"))
        argv = ["figure_3_3", "--scale", "2000"]
        assert main(argv) == 0
        cold_out = capsys.readouterr().out
        before = sim_counter["levels"]
        assert main(argv) == 0
        warm_out = capsys.readouterr().out
        assert sim_counter["levels"] == before

        def rows(text):
            return [line for line in text.splitlines() if not line.startswith("[")]

        assert rows(warm_out) == rows(cold_out)

    def test_store_subcommand(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.cli import main

        root = tmp_path / "cmd-store"
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        assert main(["store", "stats"]) == 2  # no store configured
        capsys.readouterr()
        assert main(["store", "stats", "--result-store", str(root)]) == 0
        assert "current entries: 0" in capsys.readouterr().out
        ResultStore(root).put(ResultKey("LevelJob", "s", "t", {}), LevelSummary(1, 1, 0, 1))
        assert main(["store", "stats", "--result-store", str(root)]) == 0
        assert "current entries: 1" in capsys.readouterr().out
        assert main(["store", "clear", "--result-store", str(root)]) == 0
        assert "removed 1 entries" in capsys.readouterr().out

    def test_result_store_flag_sets_environment(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.cli import main
        import os

        monkeypatch.setenv("REPRO_RESULT_STORE", "")  # restore on teardown
        root = tmp_path / "flag-store"
        assert main(["figure_3_3", "--scale", "2000", "--result-store", str(root)]) == 0
        capsys.readouterr()
        assert os.environ["REPRO_RESULT_STORE"] == str(root)
        assert ResultStore(root).stats().entries > 0


class TestTelemetry:
    def test_record_carries_store_traffic(self, store):
        from repro.telemetry import core as telemetry
        from repro.telemetry.record import build_run_record, validate_record

        job = level_job()
        run_jobs([job])  # populate outside any scope
        scope = telemetry.activate()
        try:
            run_jobs([job])  # warm: one hit
            run_jobs([level_job("liver")])  # cold: one miss
        finally:
            telemetry.deactivate()
        assert scope.sections["store"]["hits"] == 1
        assert scope.sections["store"]["misses"] == 1
        assert scope.sections["store"]["bytes_read"] > 0
        record = build_run_record(scope, run="t", config=None, wall_time_s=0.1)
        payload = record.as_dict()
        validate_record(payload)
        assert payload["store"] == {
            "hits": 1,
            "misses": 1,
            "bytes_read": scope.sections["store"]["bytes_read"],
        }

    def test_records_without_store_field_still_validate(self, no_store):
        from repro.telemetry import core as telemetry
        from repro.telemetry.record import build_run_record, validate_record

        scope = telemetry.MetricsScope()
        record = build_run_record(scope, run="t", config=None, wall_time_s=0.1)
        payload = record.as_dict()
        assert payload["store"] == {}
        payload.pop("store")  # a record from an older emitter
        validate_record(payload)

    def test_progress_reports_store_hits(self, store):
        from repro.telemetry.core import JobProgress

        job = level_job()
        run_jobs([job])
        beats = []
        run_jobs([job], progress=beats.append)
        assert beats and isinstance(beats[-1], JobProgress)
        assert beats[-1].store_hits == 1
        assert "from store" in str(beats[-1])


#: Experiment modules whose every simulation point is an engine job.
ENGINE_MODULES = [
    "figure_3_1",
    "figure_3_3",
    "figure_3_6",
    "figure_3_7",
    "figure_4_3",
    "figure_4_6",
    "figure_4_7",
    "ext_stride",
    "ext_cold_start",
    "ext_marginal_utility",
    "ablations",
    "checks",
]


def _run_module(name, scale):
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.checks import _measurements
    from repro.experiments.workloads import suite

    if name == "checks":
        return _measurements(suite(scale, 0))
    return ALL_EXPERIMENTS[name](scale=scale)


class TestEngineRoutedModules:
    """Modules routed through the engine: one result on every backend and a
    warm store rerun that simulates nothing."""

    @pytest.mark.parametrize("name", ENGINE_MODULES)
    def test_backends_agree_and_warm_rerun_is_all_hits(self, name, tmp_path, monkeypatch):
        from repro.kernels import ENV_BACKEND, PYTHON
        from repro.telemetry import scoped

        scale = 1_500
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        monkeypatch.setenv(ENV_BACKEND, PYTHON)
        reference = _run_module(name, scale)

        monkeypatch.delenv(ENV_BACKEND)
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
        cold = _run_module(name, scale)
        assert repr(cold) == repr(reference)

        with scoped() as scope:
            warm = _run_module(name, scale)
        assert repr(warm) == repr(reference)
        jobs = sum(batch.n_jobs for batch in scope.job_batches)
        assert jobs > 0
        assert scope.level_runs == 0
        assert scope.sections["store"]["hits"] == jobs
        assert scope.sections["store"]["misses"] == 0
