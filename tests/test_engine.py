"""Tests for the parallel experiment engine.

The contract under test: a parallel run (``jobs > 1``) must be
row-for-row and byte-for-byte identical to the serial run at the same
seed, jobs must stay picklable, and anything the engine cannot describe
(a hand-made trace, a structure without a spec) is rejected with a typed
:class:`ConfigurationError` rather than silently taking another route.
"""

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro import telemetry
from repro.buffers.stream_buffer import StreamBuffer
from repro.buffers.victim_cache import VictimCache
from repro.common.config import CacheConfig
from repro.common.errors import ConfigurationError
from repro.experiments import ALL_EXPERIMENTS, engine
from repro.experiments.engine import (
    EntrySweepJob,
    ExperimentJob,
    LevelJob,
    RunSweepJob,
    SystemJob,
    default_jobs,
    execute_job,
    resolve_jobs,
    result_memo,
    run_experiments,
    run_jobs,
    validate_jobs,
)
from repro.specs import (
    NamedWorkloadSpec,
    SpecError,
    SystemSpec,
    VictimCacheSpec,
    WorkloadSpec,
    parse_structure_code,
)
from repro.telemetry.core import ParallelFallbackWarning
from repro.experiments.grid import GridSpec, sweep_grid
from repro.experiments.sweeps import (
    batch_entry_sweeps,
    batch_run_sweeps,
    victim_cache_sweep,
)
from repro.experiments.workloads import materialized_workload, suite
from repro.traces.trace import trace_from_pairs

SCALE = 1_500
CONFIG = CacheConfig(4096, 16)


@pytest.fixture(scope="module")
def tiny_suite():
    return suite(SCALE, 0)


class TestTraceKey:
    """Trace identity: the workload spec a job carries to its worker."""

    def test_of_registry_trace_roundtrips(self, tiny_suite):
        for trace in tiny_suite:
            key = WorkloadSpec.of(trace)
            assert isinstance(key, NamedWorkloadSpec)
            assert key.name == trace.name
            assert list(key.trace()) == list(trace)

    def test_of_handmade_trace_is_none(self):
        trace = trace_from_pairs("toy", [(0, 0), (1, 16)])
        assert WorkloadSpec.of(trace) is None

    def test_memoized_per_process(self):
        key = NamedWorkloadSpec("ccom", SCALE, 0)
        assert materialized_workload(key) is materialized_workload(key)


class TestStructureSpecs:
    """The CLI/serve short codes parse into specs, and jobs carrying specs pickle."""

    def test_unknown_spec_raises(self):
        with pytest.raises(ConfigurationError, match="structure spec"):
            parse_structure_code("warp9")

    def test_jobs_are_picklable(self):
        key = NamedWorkloadSpec("ccom", SCALE, 0)
        for job in (
            LevelJob(SystemSpec.for_level(key, CONFIG, side="d", structure=VictimCacheSpec(4))),
            LevelJob(
                SystemSpec.for_level(
                    key, CONFIG, side="d", structure=VictimCacheSpec(4, policy="fifo")
                )
            ),
            EntrySweepJob(SystemSpec.for_level(key, CONFIG, side="i"), kind="victim"),
            RunSweepJob(SystemSpec.for_level(key, CONFIG, side="d"), ways=4),
            ExperimentJob("figure_3_3", SCALE, 0),
        ):
            assert pickle.loads(pickle.dumps(job)) == job

    def test_jobs_require_a_trace_reference(self):
        with pytest.raises(ConfigurationError, match="trace"):
            LevelJob(SystemSpec(trace=None))


class TestJobsResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        assert resolve_jobs(None) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert default_jobs() == 4
        assert resolve_jobs(None) == 4
        assert resolve_jobs(2) == 2  # explicit beats the environment

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigurationError, match="REPRO_JOBS"):
            default_jobs()

    def test_floor_is_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-3) == 1


class TestJobsValidation:
    """CLI-boundary validation: reject rather than silently clamp."""

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ConfigurationError, match="--jobs"):
            validate_jobs(0)
        with pytest.raises(ConfigurationError, match="--jobs"):
            validate_jobs(-2)

    def test_passes_valid_values_through(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert validate_jobs(1) == 1
        assert validate_jobs(8) == 8
        assert validate_jobs(None) == 1  # falls back to default_jobs()

    def test_none_resolves_via_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert validate_jobs(None) == 3

    def test_malformed_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigurationError, match="REPRO_JOBS"):
            validate_jobs(None)

    def test_cli_rejects_bad_jobs_flag(self, capsys):
        from repro.experiments.cli import main

        assert main(["table_1_1", "--jobs", "0"]) == 2
        err = capsys.readouterr().err
        assert "--jobs" in err

    def test_cli_rejects_malformed_env(self, monkeypatch, capsys):
        from repro.experiments.cli import main

        monkeypatch.setenv("REPRO_JOBS", "many")
        assert main(["table_1_1", "--scale", "300"]) == 2
        err = capsys.readouterr().err
        assert "REPRO_JOBS" in err


class TestFallbackSurfacing:
    """Nothing the engine cannot run takes a silent second route: it is a typed error."""

    def _toy_traces(self):
        pairs = [(0, 16 * i) for i in range(64)] + [(1, 4096 + 16 * i) for i in range(64)]
        return [trace_from_pairs("toy", pairs)]

    def test_grid_warns_on_handmade_trace(self):
        spec = GridSpec(cache_sizes_kb=[4], line_sizes=[16])
        for jobs in (1, 4):
            with pytest.raises(ConfigurationError, match="'toy' is hand-made"):
                sweep_grid(self._toy_traces(), spec, side="d", jobs=jobs)

    def test_grid_warns_on_undescribable_structure(self):
        # The structure axis takes specs only; a factory is rejected up front.
        with pytest.raises(SpecError, match="sb-sink"):
            GridSpec(
                cache_sizes_kb=[4],
                line_sizes=[16],
                structures={"sb-sink": lambda: StreamBuffer(4)},
            )

    def test_grid_runs_non_default_specs_in_parallel(self, tiny_suite):
        import warnings

        spec = GridSpec(
            cache_sizes_kb=[4],
            line_sizes=[16],
            structures={"vc4-fifo": VictimCacheSpec(4, policy="fifo")},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", ParallelFallbackWarning)
            sweep_grid(tiny_suite[:1], spec, side="d", jobs=2)

    def test_batch_sweeps_warn_on_handmade_trace(self):
        for jobs in (1, 2):
            with pytest.raises(ConfigurationError, match="'toy' is hand-made"):
                batch_entry_sweeps(self._toy_traces(), CONFIG, kind="miss", jobs=jobs)
            with pytest.raises(ConfigurationError, match="'toy' is hand-made"):
                batch_run_sweeps(self._toy_traces(), CONFIG, jobs=jobs)

    def test_serial_request_never_warns(self, tiny_suite):
        import warnings

        spec = GridSpec(cache_sizes_kb=[4], line_sizes=[16])
        with warnings.catch_warnings():
            warnings.simplefilter("error", ParallelFallbackWarning)
            sweep_grid(tiny_suite[:1], spec, side="d", jobs=1)
            batch_entry_sweeps(tiny_suite[:1], CONFIG, kind="victim", jobs=1)

    def test_parallel_registry_traces_never_warn(self, tiny_suite):
        import warnings

        spec = GridSpec(cache_sizes_kb=[4], line_sizes=[16])
        with warnings.catch_warnings():
            warnings.simplefilter("error", ParallelFallbackWarning)
            sweep_grid(tiny_suite[:1], spec, side="d", jobs=2)


class TestLevelJobEquivalence:
    def test_summary_matches_inline_run(self, tiny_suite):
        from repro.experiments.runner import run_level

        trace = tiny_suite[0]
        job = LevelJob(
            SystemSpec.for_level(
                trace, CONFIG, side="d", structure=VictimCacheSpec(4), classify=True
            )
        )
        summary = execute_job(job)
        run = run_level(trace.stream("d"), CONFIG, VictimCache(4), classify=True)
        assert summary.accesses == run.stats.accesses
        assert summary.demand_misses == run.stats.demand_misses
        assert summary.removed_misses == run.stats.removed_misses
        assert summary.misses_to_next_level == run.stats.misses_to_next_level
        assert summary.conflict_misses == run.conflicts

    def test_run_jobs_parallel_order_and_values(self, tiny_suite):
        jobs = [
            LevelJob(SystemSpec.for_level(trace, CONFIG, side=side, structure=structure))
            for trace in tiny_suite[:3]
            for side in ("i", "d")
            for structure in (None, VictimCacheSpec(4))
        ]
        serial = run_jobs(jobs, jobs=1)
        parallel = run_jobs(jobs, jobs=4)
        assert serial == parallel


class TestSweepGridDeterminism:
    def test_parallel_grid_identical_to_serial(self, tiny_suite):
        spec = GridSpec(cache_sizes_kb=[4, 8], line_sizes=[16, 32])
        serial = sweep_grid(tiny_suite, spec, side="d", jobs=1)
        parallel = sweep_grid(tiny_suite, spec, side="d", jobs=4)
        assert serial.headers == parallel.headers
        assert serial.rows == parallel.rows
        assert serial.render() == parallel.render()

    def test_handmade_traces_fall_back_to_serial(self):
        """A hand-made trace has no serial route left; the engine names why."""
        pairs = [(0, 16 * i) for i in range(64)] + [(1, 4096 + 16 * i) for i in range(64)]
        traces = [trace_from_pairs("toy", pairs)]
        spec = GridSpec(cache_sizes_kb=[4], line_sizes=[16])
        for jobs in (1, 4):
            with pytest.raises(ConfigurationError, match="run_level"):
                sweep_grid(traces, spec, side="d", jobs=jobs)

    def test_undescribable_structure_falls_back(self):
        """A live structure is not a grid axis value; only specs are."""
        with pytest.raises(SpecError, match="must be a StructureSpec"):
            GridSpec(
                cache_sizes_kb=[4],
                line_sizes=[16],
                structures={"sb-sink": StreamBuffer(4, fetch_sink=lambda line: None)},
            )

    def test_non_default_spec_grid_parallel_identical_to_serial(self, tiny_suite):
        spec = GridSpec(
            cache_sizes_kb=[4],
            line_sizes=[16],
            structures={
                "vc4-noswap": VictimCacheSpec(4, swap_on_hit=False),
                "vc4-fifo": VictimCacheSpec(4, policy="fifo"),
            },
        )
        serial = sweep_grid(tiny_suite[:2], spec, side="d", jobs=1)
        parallel = sweep_grid(tiny_suite[:2], spec, side="d", jobs=4)
        assert serial.rows == parallel.rows


class TestSweepJobValidation:
    """Bad sweep-job parameters fail at construction on every backend."""

    SYSTEM = SystemSpec.for_level(NamedWorkloadSpec("ccom", SCALE, 0), CONFIG)

    def test_entry_sweep_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            EntrySweepJob(self.SYSTEM, kind="bogus")

    def test_entry_sweep_rejects_negative_max_entries(self):
        with pytest.raises(ConfigurationError, match="max_entries"):
            EntrySweepJob(self.SYSTEM, max_entries=-1)

    def test_run_sweep_rejects_zero_ways(self):
        with pytest.raises(ConfigurationError, match="ways"):
            RunSweepJob(self.SYSTEM, ways=0)

    def test_run_sweep_rejects_zero_entries(self):
        with pytest.raises(ConfigurationError, match="entries"):
            RunSweepJob(self.SYSTEM, entries=0)

    def test_run_sweep_rejects_negative_max_run(self):
        with pytest.raises(ConfigurationError, match="max_run"):
            RunSweepJob(self.SYSTEM, max_run=-1)

    def test_batch_entry_sweeps_rejects_unknown_kind(self, tiny_suite):
        with pytest.raises(ConfigurationError, match="kind"):
            batch_entry_sweeps(tiny_suite[:1], CONFIG, kind="bogus")

    def test_zero_bounds_are_valid(self):
        sweep = execute_job(EntrySweepJob(self.SYSTEM, max_entries=0))
        assert sweep.hits_by_entries == [0]
        runs = execute_job(RunSweepJob(self.SYSTEM, max_run=0))
        assert len(runs.removed_by_run) == 1


class TestBatchSweeps:
    def test_batch_entry_sweeps_match_loop(self, tiny_suite):
        batch = batch_entry_sweeps(tiny_suite, CONFIG, kind="victim", jobs=4)
        inline = [
            victim_cache_sweep(trace.stream(side), CONFIG, 15)
            for side in ("i", "d")
            for trace in tiny_suite
        ]
        assert batch == inline

    def test_batch_run_sweeps_serial_parallel_equal(self, tiny_suite):
        serial = batch_run_sweeps(tiny_suite[:3], CONFIG, ways=4, jobs=1)
        parallel = batch_run_sweeps(tiny_suite[:3], CONFIG, ways=4, jobs=4)
        assert serial == parallel


def four_points(name):
    """Four design points on one trace: bare, vc4, a victim sweep, a run sweep."""
    workload = NamedWorkloadSpec(name, SCALE, 0)
    system = SystemSpec.for_level(workload, CONFIG, side="d")
    assisted = SystemSpec.for_level(workload, CONFIG, side="d", structure=VictimCacheSpec(4))
    return [
        LevelJob(system),
        LevelJob(assisted),
        EntrySweepJob(system, kind="victim"),
        RunSweepJob(system, ways=4),
    ]


def interleaved_points(names):
    """Every trace's four points, the traces interleaved in submission order."""
    return [job for points in zip(*map(four_points, names)) for job in points]


class TestTraceGroupedPool:
    """A pool batch hands each trace's pending jobs to one worker as one
    task, so one worker builds each trace's kernel products."""

    NAMES = ("ccom", "grr", "yacc")

    @pytest.fixture(autouse=True)
    def no_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)

    @staticmethod
    def count_tasks(monkeypatch):
        """Record each task the parent hands a process pool."""
        tasks = []
        original = ProcessPoolExecutor.submit

        def counting(self, fn, *args, **kwargs):
            tasks.append(args)
            return original(self, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", counting)
        return tasks

    def test_one_task_per_trace(self, monkeypatch):
        tasks = self.count_tasks(monkeypatch)
        run_jobs(interleaved_points(self.NAMES), jobs=2)
        assert [len(members) for members, *_ in tasks] == [4, 4, 4]

    def test_results_equal_inline_point_for_point(self):
        jobs = interleaved_points(self.NAMES)
        inline = run_jobs(jobs, jobs=1)
        parallel = run_jobs(jobs, jobs=2)
        assert len(parallel) == len(jobs) == 12
        for index, (pooled, alone) in enumerate(zip(parallel, inline)):
            assert pooled == alone, f"point {index} ({jobs[index]}) differs"

    def test_store_filled_by_the_pool_equals_one_filled_inline(self, tmp_path, monkeypatch):
        contents = {}
        for workers in (1, 2):
            root = tmp_path / f"store-{workers}"
            monkeypatch.setenv("REPRO_RESULT_STORE", str(root))
            run_jobs(interleaved_points(self.NAMES), jobs=workers)
            contents[workers] = {
                path.relative_to(root): path.read_bytes() for path in root.rglob("*.json")
            }
        assert len(contents[1]) == 12
        assert contents[2] == contents[1]

    def test_single_trace_batch_runs_inline(self, monkeypatch):
        tasks = self.count_tasks(monkeypatch)
        jobs = four_points("ccom")
        with telemetry.scoped() as scope:
            results = run_jobs(jobs, jobs=2)
        assert tasks == []
        assert [batch.workers for batch in scope.job_batches] == [1]
        assert results == run_jobs(jobs, jobs=1)


class TestNonForkPool:
    """Under a start method other than fork, pool workers inherit no
    trace memo: each builds the traces of the tasks it runs on demand."""

    SCRIPT = textwrap.dedent(
        """
        import multiprocessing

        multiprocessing.set_start_method("spawn")

        from repro.common.config import CacheConfig
        from repro.experiments.engine import EntrySweepJob, LevelJob, RunSweepJob, run_jobs
        from repro.specs import NamedWorkloadSpec, SystemSpec, VictimCacheSpec

        config = CacheConfig(4096, 16)
        jobs = []
        # Three traces of four points each: the pool runs one task per
        # trace, so two workers share three multi-job tasks.
        for name in ("ccom", "grr", "linpack"):
            workload = NamedWorkloadSpec(name, 1500, 0)
            system = SystemSpec.for_level(workload, config, side="d")
            assisted = SystemSpec.for_level(
                workload, config, side="d", structure=VictimCacheSpec(4)
            )
            jobs += [
                LevelJob(system),
                LevelJob(assisted),
                EntrySweepJob(system, kind="victim"),
                RunSweepJob(system, ways=4),
            ]
        parallel = run_jobs(jobs, jobs=2)
        assert parallel == run_jobs(jobs, jobs=1), "spawn pool results differ"
        print("spawn pool matches inline:", len(parallel), "jobs")
        """
    )

    @staticmethod
    def run_script(script, *args):
        repo = Path(__file__).resolve().parents[1]
        env = {
            key: value for key, value in os.environ.items()
            if key not in ("REPRO_RESULT_STORE", "REPRO_JOBS")
        }
        env["PYTHONPATH"] = str(repo / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script, *args],
            capture_output=True, text=True, env=env, cwd=repo, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_spawn_pool_matches_inline(self):
        assert "spawn pool matches inline: 12 jobs" in self.run_script(self.SCRIPT)

    STORE_SCRIPT = textwrap.dedent(
        """
        import multiprocessing
        import sys

        multiprocessing.set_start_method("spawn")

        from repro import telemetry
        from repro.common.config import CacheConfig
        from repro.experiments import workloads
        from repro.experiments.engine import EntrySweepJob, LevelJob, run_jobs
        from repro.specs import NamedWorkloadSpec, SystemSpec, VictimCacheSpec
        from repro.store import set_store

        config = CacheConfig(4096, 16)
        jobs = []
        for name in ("ccom", "grr", "linpack"):
            workload = NamedWorkloadSpec(name, 1500, 0)
            system = SystemSpec.for_level(workload, config, side="d")
            assisted = SystemSpec.for_level(
                workload, config, side="d", structure=VictimCacheSpec(4)
            )
            jobs += [LevelJob(system), LevelJob(assisted), EntrySweepJob(system, kind="victim")]
        inline = run_jobs(jobs, jobs=1)
        # The store is named in the environment only: spawned workers
        # find it there, key each job from the trace they build, and
        # read it.  The second pass keys from the fingerprints the
        # workers sent back; the third forgets them, so workers key it.
        store = set_store(sys.argv[1])
        traffic = []
        for forget in (False, False, True):
            if forget:
                workloads._FINGERPRINTS.clear()
            with telemetry.scoped() as scope:
                assert run_jobs(jobs, jobs=2) == inline, "spawn pool results differ"
            traffic.append((scope.sections["store"]["hits"], scope.sections["store"]["misses"]))
        n = len(jobs)
        assert traffic == [(0, n), (n, 0), (n, 0)], traffic
        assert store.stats().entries == n
        print("spawn pool with a store matches inline:", n, "jobs")
        """
    )

    def test_spawn_pool_keys_jobs_against_the_environment_store(self, tmp_path):
        output = self.run_script(self.STORE_SCRIPT, str(tmp_path / "store"))
        assert "spawn pool with a store matches inline: 9 jobs" in output

    EXPERIMENTS = textwrap.dedent(
        """
        import json
        import multiprocessing
        import sys

        multiprocessing.set_start_method(sys.argv[1])

        from repro import telemetry
        from repro.experiments.engine import run_experiments

        with telemetry.scoped() as scope:
            outcomes = run_experiments(["table_2_2", "figure_5_1"], scale=1500, jobs=2)
        print(json.dumps({
            "results": [repr(outcome.result) for outcome in outcomes],
            "sections": scope.sections,
            "scalars": [scope.references, scope.system_runs, scope.level_runs],
        }))
        """
    )

    def test_experiment_workers_report_alike_under_fork_and_spawn(self):
        """Each worker runs its module under a fresh result map and scope,
        whatever the start method, and the parent merges what it counted."""
        fork, spawn = (
            json.loads(self.run_script(self.EXPERIMENTS, method).splitlines()[-1])
            for method in ("fork", "spawn")
        )
        assert fork == spawn
        assert sum(fork["sections"]["backends"].values()) == 18  # 6 + 12 SystemJobs
        references, system_runs, level_runs = fork["scalars"]
        l1i, l1d = fork["sections"]["l1i"], fork["sections"]["l1d"]
        assert (system_runs, level_runs) == (18, 0)
        assert references == l1i["accesses"] + l1d["accesses"]


class TestExperimentDeterminism:
    #: A table, a single-pass sweep figure, and a full-system experiment —
    #: one of each major experiment shape.
    NAMES = ["table_2_1", "figure_3_3", "figure_2_2"]

    def test_parallel_experiments_render_identically(self):
        serial = run_experiments(self.NAMES, scale=SCALE, jobs=1)
        parallel = run_experiments(self.NAMES, scale=SCALE, jobs=4)
        assert [o.name for o in parallel] == self.NAMES
        for ser, par in zip(serial, parallel):
            assert ser.result.render() == par.result.render()

    def test_cli_jobs_flag_output_identical(self, capsys):
        from repro.experiments.cli import main

        assert main(["table_2_1", "--scale", "300", "--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert main(["table_2_1", "--scale", "300", "--jobs", "1"]) == 0
        serial_out = capsys.readouterr().out

        def strip_timing(text):
            return [line for line in text.splitlines() if not line.startswith("[")]

        assert strip_timing(parallel_out) == strip_timing(serial_out)


class TestExperimentScopes:
    """Every experiment job hands back the whole scope its module ran under."""

    NAMES = ["table_2_2", "figure_3_3", "figure_5_1"]
    SCALARS = ("references", "system_runs", "level_runs")

    @pytest.fixture(autouse=True)
    def no_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)

    def merged(self, jobs):
        with telemetry.scoped() as scope:
            outcomes = run_experiments(self.NAMES, scale=SCALE, jobs=jobs)
        return scope, outcomes

    def test_a_scope_merges_alike_inline_and_in_a_pool(self):
        (inline, _), (pooled, _) = self.merged(1), self.merged(2)
        assert pooled.sections == inline.sections
        for name in self.SCALARS:
            assert getattr(pooled, name) == getattr(inline, name)
        assert inline.system_runs == 18 and inline.level_runs == 12

    def test_each_outcome_holds_its_own_module_only(self):
        scope, outcomes = self.merged(2)
        for name in self.SCALARS:
            assert getattr(scope, name) == sum(getattr(o.metrics, name) for o in outcomes)
        table, sweep, figure = (o.metrics for o in outcomes)
        assert "level" not in table.sections and "l1i" not in sweep.sections
        assert (table.system_runs, sweep.level_runs, figure.system_runs) == (6, 12, 12)
        assert [b.kind for b in scope.job_batches][-1] == "ExperimentJob"
        assert all(o.metrics.job_batches[-1] is scope.job_batches[-1] for o in outcomes)


def _worker_result_map():
    return engine._RESULT_MEMO


class TestResultMemo:
    """One ``run_experiments`` call runs each distinct engine job once."""

    #: Three modules that all submit ``base_and_improved``'s 12 SystemJobs.
    NAMES = ["figure_5_1", "ext_penalty_sweep", "ext_timing_fidelity"]

    @pytest.fixture(autouse=True)
    def no_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)

    @staticmethod
    def count_executions(monkeypatch):
        calls = Counter()
        original = engine.execute_job

        def counted(job):
            calls[job] += 1
            return original(job)

        monkeypatch.setattr(engine, "execute_job", counted)
        return calls

    def test_each_distinct_job_runs_once_per_call(self, monkeypatch):
        calls = self.count_executions(monkeypatch)
        for name in self.NAMES:
            run_experiments([name], scale=SCALE, jobs=1)
        submitted = sum(n for job, n in calls.items() if isinstance(job, SystemJob))
        calls.clear()
        run_experiments(self.NAMES, scale=SCALE, jobs=1)
        system_jobs = [job for job in calls if isinstance(job, SystemJob)]
        assert len(system_jobs) == 12 and submitted == 36
        assert set(calls.values()) == {1}

    def test_shared_call_matches_each_module_alone(self):
        together = run_experiments(self.NAMES, scale=SCALE, jobs=1)
        alone = [run_experiments([name], scale=SCALE, jobs=1)[0] for name in self.NAMES]
        assert [repr(o.result) for o in together] == [repr(o.result) for o in alone]

    def test_map_answers_add_no_store_traffic_or_counters(self, monkeypatch, tmp_path):
        """With a store, each distinct key reaches it once per call, and a
        module answered from the map adds no simulation counters."""
        counted = ("store", "backends", "l1i", "l1d", "l2", "level")

        def sections(names, store):
            monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / store))
            with telemetry.scoped() as scope:
                run_experiments(names, scale=SCALE, jobs=1)
            return {name: scope.sections.get(name) for name in counted}

        alone = sections(["figure_5_1"], "alone")
        cold = sections(["figure_5_1", "ext_penalty_sweep"], "shared")
        assert cold["store"] == {"hits": 0, "misses": 12, "bytes_read": 0}
        assert cold == alone
        warm = sections(["figure_5_1", "ext_penalty_sweep"], "shared")
        assert warm["store"]["hits"] == 12 and warm["store"]["misses"] == 0
        assert warm["backends"] is warm["l1i"] is warm["l2"] is None

    def test_batch_inside_a_block_answers_from_memory(self):
        jobs = [LevelJob(SystemSpec.for_level(NamedWorkloadSpec(name, SCALE), CONFIG))
                for name in ("ccom", "grr")]
        updates = []
        with result_memo():
            first = run_jobs(jobs)
            again = run_jobs(jobs, progress=updates.append)
        assert [a is b for a, b in zip(first, again)] == [True, True]
        assert (updates[-1].done, updates[-1].store_hits) == (2, 2)
        assert run_jobs(jobs)[0] is not first[0]  # the map closed with the block

    def test_fork_workers_start_without_the_parents_map(self):
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        with result_memo():
            assert engine._RESULT_MEMO == {}
            with ProcessPoolExecutor(1, mp_context=context) as pool:
                assert pool.submit(_worker_result_map).result() is None

    def test_no_module_mutates_a_shared_result(self, monkeypatch):
        """Map answers are shared, not copied: every module must leave a
        result it gets back as the engine handed it over."""

        class SnapshotMap(dict):
            def __init__(self):
                super().__init__()
                self.snapshots = {}

            def __setitem__(self, job, result):
                self.snapshots.setdefault(job, pickle.dumps(result))
                super().__setitem__(job, result)

        shared = SnapshotMap()
        monkeypatch.setattr(engine, "_RESULT_MEMO", shared)
        run_experiments(list(ALL_EXPERIMENTS), scale=SCALE, jobs=1)
        assert len(shared) > 500
        assert [job for job, result in shared.items()
                if pickle.dumps(result) != shared.snapshots[job]] == []


class TestSuiteBuildBeforePool:
    """The parent builds the suite before a pool only when workers fork."""

    @pytest.mark.parametrize("method, builds", [("fork", 1), ("spawn", 0)])
    def test_parent_builds_the_suite_only_for_fork_workers(self, monkeypatch, method, builds):
        built = []
        monkeypatch.setattr(engine, "suite", lambda *args: built.append(args))
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda: method)
        run_experiments(["table_1_1", "table_2_1"], scale=SCALE, jobs=2)
        assert len(built) == builds
