"""Tests for the run-telemetry subsystem.

The contract: telemetry is disabled by default and costs (next to)
nothing when disabled — simulation results are bit-identical with and
without an active scope; when a scope is active, every simulation,
engine batch, and pool fallback executed under it is observed — the
same observations on every kernel backend; run records round-trip
through JSON Lines and are schema-validated.
"""

import json
import warnings

import pytest

from repro.common.config import CacheConfig, baseline_system
from repro.common.errors import ConfigurationError
from repro.common.types import IFETCH, LOAD
from repro.experiments.engine import EntrySweepJob, LevelJob, RunSweepJob, run_jobs
from repro.experiments.runner import run_level
from repro.experiments.sweeps import batch_entry_sweeps, batch_run_sweeps
from repro.hierarchy.system import MemorySystem
from repro.kernels import ENV_BACKEND, NUMPY, PYTHON
from repro.specs import SystemSpec, VictimCacheSpec, WorkloadSpec
from repro.telemetry import (
    MetricsScope,
    ParallelFallbackWarning,
    append_record,
    build_run_record,
    config_hash,
    read_records,
    record_fallback,
    scoped,
    validate_record,
)
from repro.telemetry import core as telemetry_core
from repro.traces.registry import build_trace
from repro.traces.trace import trace_from_pairs

SCALE = 800
CONFIG = CacheConfig(4096, 16)


@pytest.fixture(scope="module")
def trace():
    return build_trace("ccom", SCALE).materialize()


@pytest.fixture(autouse=True)
def no_leaked_scope():
    """Every test starts and ends with telemetry disabled."""
    telemetry_core.deactivate()
    yield
    assert telemetry_core.current() is None, "test leaked an active telemetry scope"
    telemetry_core.deactivate()


class TestMerge:
    def test_merge_folds_every_observation(self, trace):
        with scoped() as outer:
            MemorySystem().run(trace)
            record_fallback_quietly("outer")
        with scoped() as inner:
            MemorySystem().run(trace)
            run_level(trace.data_addresses, CONFIG)
            inner.record_job_batch("LevelJob", 1, 1, 0.5)
            record_fallback_quietly("inner")
        scalars = ("system_runs", "level_runs", "references", "sim_wall_time")
        expected = {name: getattr(outer, name) + getattr(inner, name) for name in scalars}
        before = outer.sections["l1i"]["accesses"]
        outer.merge(inner)
        assert {name: getattr(outer, name) for name in scalars} == expected
        assert (outer.system_runs, outer.level_runs) == (2, 1)
        assert outer.sections["l1i"]["accesses"] == 2 * before
        assert outer.sections["level"] == inner.sections["level"]
        assert [batch.kind for batch in outer.job_batches] == ["LevelJob"]
        assert [event.component for event in outer.fallbacks] == ["outer", "inner"]

    def test_merge_adds_no_section_the_other_scope_lacks(self):
        into, other = MetricsScope(), MetricsScope()
        other.add("store", {"hits": 1})
        into.merge(other)
        into.merge(MetricsScope())
        assert into.sections == {"store": {"hits": 1}}


def record_fallback_quietly(component):
    with pytest.warns(ParallelFallbackWarning):
        record_fallback(component, "because", stacklevel=2)


class TestScopeLifecycle:
    def test_disabled_by_default(self):
        assert telemetry_core.current() is None
        assert not telemetry_core.enabled()

    def test_scoped_activates_and_deactivates(self):
        with scoped() as scope:
            assert telemetry_core.current() is scope
        assert telemetry_core.current() is None

    def test_leaving_a_nested_scope_restores_the_outer_one(self):
        with scoped() as outer:
            with scoped() as inner:
                assert telemetry_core.current() is inner
            assert telemetry_core.current() is outer
        assert telemetry_core.current() is None

    def test_deactivated_on_exception(self):
        with pytest.raises(RuntimeError):
            with scoped():
                raise RuntimeError("boom")
        assert telemetry_core.current() is None


class TestZeroOverheadDisabledPath:
    def test_system_results_identical_with_and_without_scope(self, trace):
        plain = MemorySystem().run(trace)
        with scoped():
            observed = MemorySystem().run(trace)
        assert plain.istats == observed.istats
        assert plain.dstats == observed.dstats
        assert plain.l2stats == observed.l2stats

    def test_disabled_run_observes_nothing(self, trace):
        scope = MetricsScope()
        MemorySystem().run(trace)  # no scope active
        assert scope.system_runs == 0
        assert scope.references == 0

    def test_record_fallback_without_scope_only_warns(self):
        with pytest.warns(ParallelFallbackWarning):
            record_fallback("unit-test", "because", stacklevel=2)
        # No scope to record into: nothing to assert beyond "did not raise".


class TestSimulationObservation:
    def test_system_run_observed(self, trace):
        with scoped() as scope:
            result = MemorySystem().run(trace)
        assert scope.system_runs == 1
        assert scope.references == result.total_references
        assert scope.sections["l1i"]["accesses"] == result.istats.accesses
        assert scope.sections["l1d"]["accesses"] == result.dstats.accesses
        assert scope.sections["l2"]["demand_accesses"] == result.l2stats.demand_accesses
        assert scope.sim_wall_time > 0.0
        assert scope.references_per_sec > 0.0

    def test_level_run_observed(self, trace):
        with scoped() as scope:
            run = run_level(trace.stream("d"), CONFIG)
        assert scope.level_runs == 1
        assert scope.references == run.stats.accesses
        assert scope.sections["level"]["accesses"] == run.stats.accesses

    def test_observations_aggregate(self, trace):
        with scoped() as scope:
            MemorySystem().run(trace)
            MemorySystem().run(trace)
        assert scope.system_runs == 2
        # Two identical runs double every counter.
        single = MemorySystem().run(trace)
        assert scope.sections["l1i"]["accesses"] == 2 * single.istats.accesses


class TestEngineObservation:
    def test_run_jobs_records_batch(self, trace):
        key = WorkloadSpec.of(trace)
        jobs = [
            LevelJob(SystemSpec.for_level(key, CONFIG, side="d")),
            LevelJob(SystemSpec.for_level(key, CONFIG, side="i")),
        ]
        with scoped() as scope:
            run_jobs(jobs, jobs=1)
        assert len(scope.job_batches) == 1
        batch = scope.job_batches[0]
        assert batch.kind == "LevelJob"
        assert batch.n_jobs == 2
        assert batch.workers == 1

    def test_run_jobs_parallel_progress_heartbeats(self, trace):
        key = WorkloadSpec.of(trace)
        jobs = [LevelJob(SystemSpec.for_level(key, CONFIG, side=side)) for side in ("i", "d")]
        updates = []
        results = run_jobs(jobs, jobs=2, progress=updates.append, heartbeat=0.05)
        assert len(results) == 2
        assert updates, "parallel run must emit at least one progress heartbeat"
        final = updates[-1]
        assert final.done == final.total == 2
        assert "jobs done" in str(final)

    @pytest.mark.parametrize("ways", [1, 4])
    def test_sweep_jobs_observed_identically_on_both_backends(self, trace, monkeypatch, ways):
        """Kernel sweep jobs record the same level observations as the interpreter."""
        jobs = [
            EntrySweepJob(SystemSpec.for_level(trace, CONFIG, side=side), kind=kind)
            for side in ("i", "d")
            for kind in ("miss", "victim")
        ] + [RunSweepJob(SystemSpec.for_level(trace, CONFIG, side="d"), ways=ways)]
        observed = {}
        for backend in (PYTHON, NUMPY):
            monkeypatch.setenv(ENV_BACKEND, backend)
            with scoped() as scope:
                run_jobs(jobs, jobs=1)
            observed[backend] = scope
        python, numpy = observed[PYTHON], observed[NUMPY]
        assert python.level_runs == numpy.level_runs == len(jobs)
        assert python.references == numpy.references > 0
        assert python.sections["level"] == numpy.sections["level"]


class TestFallbackPropagation:
    """An unkeyed trace is a typed error that names the reason, not a fallback."""

    def _toy_trace(self):
        pairs = [(int(IFETCH), 16 * i) for i in range(32)] + [
            (int(LOAD), 4096 + 16 * i) for i in range(32)
        ]
        return trace_from_pairs("toy", pairs)

    def test_batch_entry_sweeps_records_reason(self):
        with scoped() as scope:
            with pytest.raises(ConfigurationError, match="'toy' is hand-made"):
                batch_entry_sweeps([self._toy_trace()], CONFIG, kind="miss", jobs=2)
        assert scope.fallbacks == []
        assert scope.level_runs == 0

    def test_batch_run_sweeps_records_reason(self):
        with scoped() as scope:
            with pytest.raises(ConfigurationError, match="no workload spec"):
                batch_run_sweeps([self._toy_trace()], CONFIG, jobs=2)
        assert scope.fallbacks == []

    def test_no_fallback_when_serial_requested(self, trace):
        with scoped() as scope:
            with warnings.catch_warnings():
                warnings.simplefilter("error", ParallelFallbackWarning)
                batch_entry_sweeps([trace], CONFIG, kind="miss", jobs=1)
        assert scope.fallbacks == []

    def test_no_fallback_for_registry_traces(self, trace):
        with scoped() as scope:
            with warnings.catch_warnings():
                warnings.simplefilter("error", ParallelFallbackWarning)
                batch_entry_sweeps([trace], CONFIG, kind="victim", jobs=2)
        assert scope.fallbacks == []


class TestRunRecords:
    def _record(self, scope=None):
        return build_run_record(
            scope if scope is not None else MetricsScope(),
            run="unit",
            config=baseline_system(),
            wall_time_s=1.25,
            jobs=2,
            scale=SCALE,
            seed=0,
        )

    def test_record_validates(self):
        validate_record(self._record().as_dict())

    def test_json_roundtrip(self, tmp_path, trace):
        with scoped() as scope:
            MemorySystem().run(trace)
        record = self._record(scope)
        path = str(tmp_path / "runs.jsonl")
        append_record(path, record)
        append_record(path, record)
        loaded = list(read_records(path))
        assert loaded == [record, record]
        assert loaded[0].l1i == record.l1i

    def test_mode_follows_jobs(self):
        scope = MetricsScope()
        serial = build_run_record(scope, "x", baseline_system(), 0.1, jobs=1)
        parallel = build_run_record(scope, "x", baseline_system(), 0.1, jobs=4)
        assert serial.mode == "serial"
        assert parallel.mode == "parallel"

    def test_fallbacks_reach_the_record(self):
        scope = MetricsScope()
        scope.record_fallback("sweep_grid", "toy trace")
        record = self._record(scope)
        assert record.engine["fallbacks"] == [
            {"component": "sweep_grid", "reason": "toy trace"}
        ]

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda d: d.pop("references"),
            lambda d: d.update(mode="warp"),
            lambda d: d.update(schema_version=99),
            lambda d: d.update(l1i={"accesses": "many"}),
            lambda d: d.update(references=True),
        ],
    )
    def test_validation_rejects_bad_payloads(self, mutation):
        payload = self._record().as_dict()
        mutation(payload)
        with pytest.raises(ValueError):
            validate_record(payload)

    def test_config_hash_stable_and_sensitive(self):
        assert config_hash(baseline_system()) == config_hash(baseline_system())
        assert config_hash(CacheConfig(4096, 16)) != config_hash(CacheConfig(8192, 16))

    def test_record_embeds_replayable_spec(self):
        spec = SystemSpec(trace=None, structure=VictimCacheSpec(4, policy="fifo"))
        record = build_run_record(
            MetricsScope(), "unit", baseline_system(), 0.1, spec=spec
        )
        validate_record(record.as_dict())
        assert record.config_hash == config_hash(spec)
        # The record alone suffices to rebuild the exact configuration.
        assert SystemSpec.from_dict(record.spec) == spec

    def test_spec_hash_supersedes_config(self):
        spec = SystemSpec(trace=None)
        with_spec = build_run_record(MetricsScope(), "x", baseline_system(), 0.1, spec=spec)
        without = build_run_record(MetricsScope(), "x", baseline_system(), 0.1)
        assert with_spec.config_hash == config_hash(spec)
        assert with_spec.config_hash != without.config_hash

    def test_read_records_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            list(read_records(str(path)))


class TestCliEmitMetrics:
    def test_one_record_per_run_serial(self, tmp_path, capsys):
        from repro.experiments.cli import main

        path = str(tmp_path / "metrics.jsonl")
        assert main(["table_2_1", "figure_3_3", "--scale", "300", "--emit-metrics", path]) == 0
        capsys.readouterr()
        records = list(read_records(path))
        assert [r.run for r in records] == ["table_2_1", "figure_3_3"]
        for record in records:
            validate_record(json.loads(record.to_json()))
            assert record.mode == "serial"
            assert record.scale == 300
            # Schema v2: every CLI record embeds a replayable config spec.
            assert SystemSpec.from_dict(record.spec).config == baseline_system()
        # figure_3_3 simulates; its record carries references and counters.
        assert records[1].references > 0
        assert records[1].level_runs > 0

    def test_one_record_per_run_parallel(self, tmp_path, capsys):
        from repro.experiments.cli import main

        path = str(tmp_path / "metrics.jsonl")
        assert main(
            ["table_2_1", "table_1_1", "--scale", "300", "--jobs", "2", "--emit-metrics", path]
        ) == 0
        capsys.readouterr()
        records = list(read_records(path))
        assert [r.run for r in records] == ["table_2_1", "table_1_1"]
        for record in records:
            assert record.mode == "parallel"
            assert record.jobs == 2
            assert record.engine["job_batches"], "parallel record must carry the batch stats"

    def test_parallel_records_count_their_workers_batches(self, tmp_path, capsys):
        """Each module runs under a scope of its own, inline or in a pool
        worker: a ``--jobs 2`` record holds exactly what that module's
        record holds when it runs alone at ``--jobs 1``."""
        from repro.experiments.cli import main
        from repro.telemetry.record import COUNTER_SECTIONS

        def run(names, jobs, store):
            path = str(tmp_path / f"{store}.jsonl")
            argv = names + ["--scale", "1500", "--jobs", str(jobs), "--emit-metrics", path,
                            "--result-store", str(tmp_path / store)]
            assert main(argv) == 0
            return list(read_records(path))

        def observed(record):
            fields = ("references", "system_runs", "level_runs") + COUNTER_SECTIONS
            return {name: getattr(record, name) for name in fields}

        names = ["table_2_2", "figure_5_1"]
        alone = [run([name], 1, name)[0] for name in names]
        together = run(names, 2, "both")
        capsys.readouterr()
        assert [record.run for record in together] == names
        assert [r.system_runs for r in alone] == [6, 12]
        assert [sum(r.backends.values()) for r in alone] == [6, 12]
        assert [observed(r) for r in together] == [observed(r) for r in alone]

    def test_workload_pool_records_count_worker_simulations(self, tmp_path, capsys, monkeypatch):
        """A ``--workload`` run fans its level jobs over ``run_jobs``'s pool:
        each worker's observations reach the record, as at ``--jobs 1``."""
        from repro.experiments.cli import main

        # No result store; and the CLI exports --jobs for a --workload
        # run, so the patch restores REPRO_JOBS afterwards.
        monkeypatch.setenv("REPRO_RESULT_STORE", "")
        monkeypatch.setenv("REPRO_JOBS", "1")

        def run(jobs):
            path = str(tmp_path / f"jobs{jobs}.jsonl")
            argv = ["--workload", "zipfian", "--workload", "tenant_mix", "--scale", "1500",
                    "--jobs", str(jobs), "--emit-metrics", path]
            assert main(argv) == 0
            (record,) = read_records(path)
            return record

        serial, pooled = run(1), run(2)
        capsys.readouterr()
        assert serial.level_runs > 0 and serial.references > 0
        assert (pooled.references, pooled.level_runs, pooled.level) == (
            serial.references, serial.level_runs, serial.level
        )

    def test_no_metrics_file_without_flag(self, tmp_path, capsys):
        from repro.experiments.cli import main

        assert main(["table_1_1", "--scale", "300"]) == 0
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []


class TestEveryProducerOneRecord:
    """One record built through every producer, each section pinned exactly.

    The producers are a full-system run, a single-level replay, an engine
    batch over a result store (one hit, one miss), a batch under an
    injected crash (one retry) mixing vector and miss-replay jobs, and
    the serving daemon.  Each decides its own section; the record copies
    them unchanged.
    """

    SERVING_KEYS = [
        "requests", "warm_hits", "cold_misses", "coalesced",
        "rejected", "failed", "streams", "negative_hits",
        "deadline_expired", "breaker_fastfail", "breaker_opens",
        "store_errors", "degraded_serves", "drain_rejects",
    ]

    @staticmethod
    def _interpreted_level(system):
        """The level counters of one spec point, replayed on the interpreter."""
        run = run_level(
            system.trace.trace().stream(system.side),
            system.cache_config,
            system.build_structure(),
            classify=system.classify,
            warmup=system.warmup,
        )
        return run.stats.as_dict()

    def test_every_section_of_one_record(self, trace, tmp_path, monkeypatch):
        from repro.experiments import engine, faults
        from repro.experiments.engine import _store_key
        from repro.specs import MultiWayStreamBufferSpec
        from repro.store import current_store

        monkeypatch.delenv(ENV_BACKEND, raising=False)
        monkeypatch.delenv(faults.ENV_FAULT_PLAN, raising=False)
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
        store = current_store()
        key = WorkloadSpec.of(trace)
        cached = LevelJob(SystemSpec.for_level(key, CONFIG, side="d"))
        fresh = LevelJob(
            SystemSpec.for_level(key, CONFIG, side="d", structure=VictimCacheSpec(entries=4))
        )
        replayed = LevelJob(
            SystemSpec.for_level(
                key,
                CONFIG,
                side="d",
                structure=MultiWayStreamBufferSpec(ways=2, entries=3, model_availability=True),
            )
        )
        vector = LevelJob(SystemSpec.for_level(key, CONFIG, side="i"))
        run_jobs([cached])  # populate the store outside any scope
        monkeypatch.delenv(engine.ENV_RETRIES, raising=False)
        monkeypatch.setattr(engine, "BACKOFF_BASE", 0.0)

        with scoped() as scope:
            system = MemorySystem().run(trace)
            level = run_level(trace.stream("d"), CONFIG)
            run_jobs([cached, fresh], jobs=1)
            monkeypatch.setenv(faults.ENV_FAULT_PLAN, "crash@0")
            run_jobs([replayed, vector], jobs=1)
            monkeypatch.delenv(faults.ENV_FAULT_PLAN)
            record = build_run_record(scope, "every-producer", baseline_system(), 0.5)

        payload = json.loads(record.to_json())
        validate_record(payload)
        assert payload["system_runs"] == 1
        assert payload["level_runs"] == 4
        assert payload["l1i"] == system.istats.as_dict()
        assert payload["l1d"] == system.dstats.as_dict()
        assert payload["l2"] == system.l2stats.as_dict()
        expected_level = dict(level.stats.as_dict())
        for job in (fresh, replayed, vector):
            for name, count in self._interpreted_level(job.system).items():
                expected_level[name] = expected_level.get(name, 0) + count
        assert payload["level"] == expected_level
        assert [
            {k: v for k, v in batch.items() if k != "elapsed_s"}
            for batch in payload["engine"]["job_batches"]
        ] == [
            {"kind": "LevelJob", "n_jobs": 2, "workers": 1},
            {"kind": "LevelJob", "n_jobs": 2, "workers": 1},
        ]
        assert payload["engine"]["fallbacks"] == []
        assert payload["store"] == {
            "hits": 1,
            "misses": 3,
            "bytes_read": store.get(_store_key(cached))[1],
        }
        assert payload["resilience"] == {
            "retries": 1,
            "timeouts": 0,
            "pool_rebuilds": 0,
            "poisoned_jobs": 0,
        }
        assert payload["backends"] == {"numpy": 2, "miss-replay": 1}
        assert payload["serving"] == {}
        assert payload["workloads"] == []

    def test_zero_traffic_daemon_reports_every_serving_counter(self, tmp_path, monkeypatch):
        import asyncio

        from repro.serve.daemon import CacheAdvisorDaemon, ServeConfig

        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
        metrics = str(tmp_path / "serve.jsonl")

        async def session():
            daemon = CacheAdvisorDaemon(ServeConfig(port=0, emit_metrics=metrics))
            await daemon.start()
            try:
                return daemon.stats_payload()
            finally:
                await daemon.aclose()

        stats = asyncio.run(session())
        assert list(stats["serving"]) == self.SERVING_KEYS
        assert stats["serving"] == dict.fromkeys(self.SERVING_KEYS, 0)
        (record,) = read_records(metrics)
        assert record.serving == dict.fromkeys(self.SERVING_KEYS, 0)
        assert record.store == record.resilience == record.backends == {}
