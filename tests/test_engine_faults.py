"""Tests for the engine's resilience layer, driven by fault injection.

The contract under test: transient failures retry and succeed, permanent
failures surface as :class:`JobFailedError` *after* the rest of the
batch completed and was flushed, a dead worker never takes the batch
down (the pool is rebuilt and only unfinished jobs re-run), a hung job
is cut short by ``--job-timeout``, a deterministic input error fails on
its first attempt, and an interrupted run resumes from the result store
with zero re-simulations of flushed work.

Every other failure here is injected through :mod:`repro.experiments.faults`,
so the schedule is deterministic: ``crash@2x*`` means job 2 fails on
every attempt, on any machine, every time.  Retry settings come from
``REPRO_RETRIES``/``REPRO_JOB_TIMEOUT`` and the engine's constants.
"""

import contextlib
import os
import time
from collections import Counter

import pytest

from repro.common.config import CacheConfig
from repro.common.errors import ConfigurationError, UnknownWorkloadError
from repro.experiments import engine, faults
from repro.experiments.engine import (
    JobFailedError,
    LevelJob,
    run_jobs,
    validate_job_timeout,
    validate_retries,
)
from repro.experiments.grid import GridSpec, sweep_grid
from repro.experiments.workloads import materialized_trace, suite
from repro.hierarchy.level import CacheLevel
from repro.specs import NamedWorkloadSpec, SystemSpec, parse_structure_code
from repro.store import current_store
from repro.store.core import ResultStore, StoreWriteWarning
from repro.telemetry import core as telemetry
from repro.telemetry.core import JobProgress, ParallelFallbackWarning
from repro.telemetry.record import build_run_record, validate_record

SCALE = 1_500
CONFIG = CacheConfig(4096, 16)


@pytest.fixture(autouse=True)
def clean_fault_plan(monkeypatch):
    """No fault plan leaks between tests (in-process or via environment)."""
    monkeypatch.delenv(faults.ENV_FAULT_PLAN, raising=False)
    faults.set_plan(None)
    yield
    faults.set_plan(None)


@pytest.fixture(autouse=True)
def fast_retries(monkeypatch):
    """Default retries (2), no timeout, and no real backoff sleeps."""
    monkeypatch.delenv(engine.ENV_JOB_TIMEOUT, raising=False)
    monkeypatch.delenv(engine.ENV_RETRIES, raising=False)
    monkeypatch.setattr(engine, "BACKOFF_BASE", 0.0)


@pytest.fixture
def no_retry(monkeypatch):
    monkeypatch.setenv(engine.ENV_RETRIES, "0")


@pytest.fixture
def store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
    yield current_store()


@pytest.fixture
def no_store(monkeypatch):
    monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)


@pytest.fixture
def sim_counter(monkeypatch):
    """Count simulations: every interpreter replay builds a CacheLevel, and
    every vectorized bare-level point runs simulate_level_summary."""
    counts = {"levels": 0}
    original = CacheLevel.__init__

    def counting(self, *args, **kwargs):
        counts["levels"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CacheLevel, "__init__", counting)
    try:
        from repro.kernels import numpy_backend
    except ImportError:
        pass
    else:
        kernel_original = numpy_backend.simulate_level_summary

        def kernel_counting(*args, **kwargs):
            counts["levels"] += 1
            return kernel_original(*args, **kwargs)

        monkeypatch.setattr(numpy_backend, "simulate_level_summary", kernel_counting)
    return counts


def level_jobs(count=4, side="d"):
    names = ("ccom", "grr", "yacc", "met", "linpack", "liver")[:count]
    return [
        LevelJob(SystemSpec.for_level(materialized_trace(name, SCALE), CONFIG, side=side))
        for name in names
    ]


class TestFaultPlanParsing:
    def test_actions_and_fields(self):
        plan = faults.parse_plan("crash@3x2, kill@5x*, hang@2:7.5, corrupt@0")
        assert [c.action for c in plan.clauses] == ["crash", "kill", "hang", "corrupt"]
        assert plan.clauses[0] == faults.FaultClause("crash", 3, count=2)
        assert plan.clauses[1].count == faults.ALWAYS
        assert plan.clauses[2].seconds == 7.5

    def test_attempt_windows(self):
        clause = faults.parse_plan("crash@3x2").clauses[0]
        assert clause.applies(3, 0) and clause.applies(3, 1)
        assert not clause.applies(3, 2)
        assert not clause.applies(4, 0)
        always = faults.parse_plan("kill@1x*").clauses[0]
        assert always.applies(1, 99)

    @pytest.mark.parametrize(
        "text",
        ["explode@1", "crash", "crash@", "crash@-1", "crash@1x0", "crash@1xq", "hang@1:soon"],
    )
    def test_malformed_plans_rejected(self, text):
        with pytest.raises(ConfigurationError):
            faults.parse_plan(text)

    def test_env_plan_reaches_maybe_inject(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULT_PLAN, "crash@7")
        with pytest.raises(faults.InjectedFault):
            faults.maybe_inject(7, 0)
        assert faults.maybe_inject(7, 1) is None
        assert faults.maybe_inject(6, 0) is None

    def test_no_plan_is_a_noop(self):
        assert faults.maybe_inject(0, 0) is None


class TestValidators:
    def test_job_timeout_rejects_non_positive(self):
        for bad in (0, -1, -0.5):
            with pytest.raises(ConfigurationError):
                validate_job_timeout(bad)
        assert validate_job_timeout(1.5) == 1.5

    def test_retries_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            validate_retries(-1)
        assert validate_retries(0) == 0

    def test_env_values_resolved_and_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "2.5")
        monkeypatch.setenv("REPRO_RETRIES", "4")
        assert validate_job_timeout(None) == 2.5
        assert validate_retries(None) == 4
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "soon")
        with pytest.raises(ConfigurationError):
            validate_job_timeout(None)
        monkeypatch.setenv("REPRO_RETRIES", "-2")
        with pytest.raises(ConfigurationError):
            validate_retries(None)


class TestSerialResilience:
    def test_retry_then_succeed(self, no_store):
        jobs = level_jobs(2)
        clean = run_jobs(jobs)
        faults.set_plan("crash@0x2")
        assert run_jobs(jobs) == clean

    def test_retry_exhaustion_raises_after_finishing_batch(self, no_store, store):
        jobs = level_jobs(4)
        faults.set_plan("crash@1x*")
        with pytest.raises(JobFailedError) as excinfo:
            run_jobs(jobs)
        assert [f.index for f in excinfo.value.failures] == [1]
        assert "injected crash" in str(excinfo.value)
        # The three healthy jobs were still executed and checkpointed.
        assert store.stats().entries == 3

    def test_corrupt_payload_is_retried(self, no_store, monkeypatch):
        jobs = level_jobs(1)
        clean = run_jobs(jobs)
        faults.set_plan("corrupt@0x1")
        assert run_jobs(jobs) == clean
        faults.set_plan("corrupt@0x*")
        monkeypatch.setenv(engine.ENV_RETRIES, "0")
        with pytest.raises(JobFailedError) as excinfo:
            run_jobs(jobs)
        assert "corrupt result payload" in excinfo.value.failures[0].reason

    def test_serial_timeout_cuts_hung_job(self, no_store, no_retry, monkeypatch):
        jobs = level_jobs(2)
        faults.set_plan("hang@0:30")
        monkeypatch.setenv(engine.ENV_JOB_TIMEOUT, "0.3")
        with pytest.raises(JobFailedError) as excinfo:
            run_jobs(jobs)
        assert "timed out after 0.3s" in excinfo.value.failures[0].reason

    def test_inline_experiments_are_bounded_per_engine_job(
        self, no_store, no_retry, monkeypatch
    ):
        """Inline, the ceiling bounds the engine jobs a module runs, not the
        module: a module slower than the ceiling still completes."""
        from repro.experiments import ALL_EXPERIMENTS, run_experiments

        def slow(traces=None, scale=None, seed=0):
            time.sleep(0.5)
            return ALL_EXPERIMENTS["table_1_1"](traces, scale, seed)

        monkeypatch.setitem(ALL_EXPERIMENTS, "slow", slow)
        monkeypatch.setenv(engine.ENV_JOB_TIMEOUT, "0.2")
        [outcome] = run_experiments(["slow"], scale=SCALE, jobs=1)
        assert outcome.elapsed >= 0.5

    def test_interrupt_preserves_flushed_results(self, store, no_retry):
        jobs = level_jobs(4)
        faults.set_plan("interrupt@2")
        with pytest.raises(KeyboardInterrupt):
            run_jobs(jobs)
        # Jobs 0 and 1 completed before the injected Ctrl-C and survive.
        assert store.stats().entries == 2

    def test_retries_recorded_on_scope(self, no_store):
        faults.set_plan("crash@0x1")
        with telemetry.scoped() as scope:
            run_jobs(level_jobs(1))
        assert scope.sections["resilience"]["retries"] == 1
        record = build_run_record(scope, run="x", config=None, wall_time_s=0.1)
        payload = record.as_dict()
        validate_record(payload)
        assert payload["resilience"]["retries"] == 1


class TestPoolResilience:
    def test_dead_worker_recovers(self, no_store, monkeypatch):
        jobs = level_jobs(4)
        clean = run_jobs(jobs)
        monkeypatch.setenv(faults.ENV_FAULT_PLAN, "kill@1x1")
        with telemetry.scoped() as scope:
            assert run_jobs(jobs, jobs=2) == clean
        assert scope.sections["resilience"]["pool_rebuilds"] >= 1

    def test_poison_job_is_isolated(self, store, monkeypatch):
        jobs = level_jobs(4)
        monkeypatch.setenv(faults.ENV_FAULT_PLAN, "kill@1x*")
        with telemetry.scoped() as scope:
            with pytest.raises(JobFailedError) as excinfo:
                run_jobs(jobs, jobs=2)
        assert [f.index for f in excinfo.value.failures] == [1]
        assert "poison" in excinfo.value.failures[0].reason
        assert scope.sections["resilience"]["poisoned_jobs"] == 1
        # The other three jobs completed despite the repeated pool kills.
        assert store.stats().entries == 3

    def test_pool_timeout_reclaims_hung_worker(self, no_store, monkeypatch):
        jobs = level_jobs(2)
        clean = run_jobs(jobs)
        monkeypatch.setenv(faults.ENV_FAULT_PLAN, "hang@0x1:30")
        monkeypatch.setenv(engine.ENV_JOB_TIMEOUT, "0.5")
        with telemetry.scoped() as scope:
            assert run_jobs(jobs, jobs=2) == clean
        assert scope.sections["resilience"]["timeouts"] >= 1

    def test_repeated_breakage_falls_back_to_serial(self, no_store, monkeypatch):
        jobs = level_jobs(2)
        clean = run_jobs(jobs)
        monkeypatch.setenv(faults.ENV_FAULT_PLAN, "kill@0x1,kill@1x1")
        monkeypatch.setenv(engine.ENV_RETRIES, "5")
        monkeypatch.setattr(engine, "MAX_POOL_REBUILDS", 0)
        # One break exhausts the rebuild budget; the remainder must finish
        # serially (in-process, where `kill` raises instead of exiting)
        # with the fallback surfaced, not swallowed.
        with pytest.warns(ParallelFallbackWarning, match="pool broke"):
            assert run_jobs(jobs, jobs=2) == clean


def grouped_jobs(names=("ccom", "grr", "yacc")):
    """Four points per trace, trace after trace: a pool runs four-job tasks."""
    return [
        LevelJob(
            SystemSpec.for_level(
                NamedWorkloadSpec(name, SCALE, 0), CONFIG, side="d",
                structure=parse_structure_code(code),
            )
        )
        for name in names
        for code in (None, "mc4", "vc4", "sb4")
    ]


@pytest.fixture
def executions(tmp_path, monkeypatch):
    """Count job executions in every process: fork workers inherit the
    patch and append to one log that the parent reads back."""
    log = tmp_path / "executions.log"
    original = engine.execute_job

    def logged(job):
        with open(log, "a") as handle:
            handle.write(repr(job) + "\n")
        return original(job)

    monkeypatch.setattr(engine, "execute_job", logged)
    return lambda: Counter(log.read_text().splitlines() if log.exists() else [])


class TestTraceGroupFaults:
    """A pool task runs every job of one trace, but resilience stays per
    job: a fault in one member costs that member alone."""

    FAULTY = 5  # the second job of the second trace's task

    @staticmethod
    def resilience(**counts):
        return dict(dict.fromkeys(engine._RESILIENCE_COUNTERS, 0), **counts)

    @pytest.mark.parametrize("action", ["crash", "corrupt"])
    def test_failed_member_alone_is_retried(self, no_store, executions, monkeypatch, action):
        jobs = grouped_jobs()
        clean = run_jobs(jobs)
        monkeypatch.setenv(faults.ENV_FAULT_PLAN, f"{action}@{self.FAULTY}x1")
        before = executions()
        with telemetry.scoped() as scope:
            assert run_jobs(jobs, jobs=2) == clean
        assert scope.sections["resilience"] == self.resilience(retries=1)
        # The fault fires before the job runs: every job ran exactly once.
        assert executions() - before == Counter(map(repr, jobs))

    def test_hung_member_times_out_alone(self, no_store, executions, monkeypatch):
        jobs = grouped_jobs()
        clean = run_jobs(jobs)
        monkeypatch.setenv(faults.ENV_FAULT_PLAN, f"hang@{self.FAULTY}x1:30")
        monkeypatch.setenv(engine.ENV_JOB_TIMEOUT, "1")
        before = executions()
        with telemetry.scoped() as scope:
            assert run_jobs(jobs, jobs=2) == clean
        # Cut in its worker: no pool was forfeited, no sibling re-ran.
        assert scope.sections["resilience"] == self.resilience(retries=1, timeouts=1)
        assert executions() - before == Counter(map(repr, jobs))

    def test_task_past_its_ceiling_reruns_job_by_job(self, no_store, monkeypatch):
        """A hang the worker's ceiling cannot cut forfeits its task's pool;
        the task's jobs then run one per task, so the hung one alone is
        charged the timeout."""
        jobs = grouped_jobs()
        clean = run_jobs(jobs)
        monkeypatch.setattr(engine, "_serial_deadline", lambda seconds: contextlib.nullcontext())
        monkeypatch.setenv(faults.ENV_FAULT_PLAN, f"hang@{self.FAULTY}x1:30")
        monkeypatch.setenv(engine.ENV_JOB_TIMEOUT, "0.3")
        with telemetry.scoped() as scope:
            assert run_jobs(jobs, jobs=2) == clean
        assert scope.sections["resilience"] == self.resilience(retries=1, timeouts=2)

    def test_dead_worker_in_a_group_recovers(self, no_store, monkeypatch):
        jobs = grouped_jobs()
        clean = run_jobs(jobs)
        monkeypatch.setenv(faults.ENV_FAULT_PLAN, f"kill@{self.FAULTY}x1")
        with telemetry.scoped() as scope:
            assert run_jobs(jobs, jobs=2) == clean
        assert scope.sections["resilience"]["pool_rebuilds"] >= 1

    def test_poison_member_is_isolated(self, store, monkeypatch):
        jobs = grouped_jobs()
        monkeypatch.setenv(faults.ENV_FAULT_PLAN, f"kill@{self.FAULTY}x*")
        with telemetry.scoped() as scope:
            with pytest.raises(JobFailedError) as excinfo:
                run_jobs(jobs, jobs=2)
        (failure,) = excinfo.value.failures
        assert failure.index == self.FAULTY
        assert "poison" in failure.reason
        assert scope.sections["resilience"]["poisoned_jobs"] == 1
        # Every other point of every task completed and was checkpointed.
        assert store.stats().entries == len(jobs) - 1


def unknown_workload_job():
    """A job that passes construction but raises a ReproError when run."""
    missing = NamedWorkloadSpec("no-such-workload", SCALE, 0)
    return LevelJob(SystemSpec.for_level(missing, CONFIG, side="d"))


class TestDeterministicErrors:
    """A job that raises a ReproError (a bad spec, an out-of-range trace,
    an unknown workload) would raise it again on every attempt: it fails
    on the first one, without retries or backoff."""

    def test_inline_batch_fails_on_first_attempt(self, no_store, monkeypatch):
        attempts = []
        real = engine.execute_job

        def counting(job):
            attempts.append(job)
            return real(job)

        monkeypatch.setattr(engine, "execute_job", counting)
        jobs = [level_jobs(1)[0], unknown_workload_job()]
        with telemetry.scoped() as scope:
            with pytest.raises(JobFailedError) as excinfo:
                run_jobs(jobs)
        (failure,) = excinfo.value.failures
        assert failure.index == 1
        assert UnknownWorkloadError.__name__ in failure.reason
        assert len(attempts) == 2  # one per job: the bad one was not retried
        assert "resilience" not in scope.sections

    def test_pool_batch_fails_on_first_attempt(self, no_store):
        jobs = level_jobs(2) + [unknown_workload_job()]
        with telemetry.scoped() as scope:
            with pytest.raises(JobFailedError) as excinfo:
                run_jobs(jobs, jobs=2)
        assert [f.index for f in excinfo.value.failures] == [2]
        assert UnknownWorkloadError.__name__ in excinfo.value.failures[0].reason
        assert "resilience" not in scope.sections

    def test_injected_crash_still_retries(self, no_store):
        faults.set_plan("crash@0x1")
        with telemetry.scoped() as scope:
            run_jobs(level_jobs(1))
        assert scope.sections["resilience"]["retries"] == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unbuildable_trace_under_a_store_fails_its_own_job(self, store, workers):
        """A store key needs the trace's fingerprint, and the task that
        runs a job builds the trace to take it: a trace that cannot be
        built fails its own job, typed and unretried, and its sibling is
        still run and checkpointed."""
        jobs = [level_jobs(1)[0], unknown_workload_job()]
        with telemetry.scoped() as scope:
            with pytest.raises(JobFailedError) as excinfo:
                run_jobs(jobs, jobs=workers)
        (failure,) = excinfo.value.failures
        assert failure.index == 1
        assert UnknownWorkloadError.__name__ in failure.reason
        assert "resilience" not in scope.sections  # no retry
        assert store.stats().entries == 1


class TestOffMainThreadTimeout:
    """Regression: ``--job-timeout`` off the main thread (the serve
    daemon runs inline jobs under executor threads) must degrade to the
    watchdog path — ``signal.signal`` raises ``ValueError`` there, and
    before the watchdog existed such jobs simply ran unbounded."""

    @staticmethod
    def run_in_thread(fn):
        import threading

        box = {}

        def target():
            try:
                box["value"] = fn()
            except BaseException as exc:
                box["error"] = exc

        worker = threading.Thread(target=target)
        worker.start()
        worker.join(30)
        assert not worker.is_alive(), "threaded run_jobs call never returned"
        if "error" in box:
            raise box["error"]
        return box["value"]

    @pytest.fixture(autouse=True)
    def fresh_watchdog_warning(self, monkeypatch):
        monkeypatch.setattr(engine, "_WATCHDOG_WARNED", False)

    def test_hung_job_times_out_with_a_recorded_warning(self, no_store, no_retry, monkeypatch):
        import warnings

        jobs = level_jobs(2)
        faults.set_plan("hang@0:5")
        monkeypatch.setenv(engine.ENV_JOB_TIMEOUT, "0.3")

        def call():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with telemetry.scoped() as scope:
                    with pytest.raises(JobFailedError) as excinfo:
                        run_jobs(jobs)
            return excinfo.value, caught, scope

        error, caught, scope = self.run_in_thread(call)
        # The hung job timed out instead of running unbounded (or
        # crashing the batch with signal's ValueError)...
        assert [f.index for f in error.failures] == [0]
        assert "timed out after 0.3s" in error.failures[0].reason
        # ...and the degraded enforcement is surfaced, not silent.
        assert any(
            issubclass(w.category, RuntimeWarning) and "watchdog" in str(w.message)
            for w in caught
        )
        assert any(event.component == "serial_deadline" for event in scope.fallbacks)

    def test_clean_jobs_pass_results_through_the_watchdog(self, no_store, no_retry, monkeypatch):
        jobs = level_jobs(2)
        clean = run_jobs(jobs)  # main thread, no deadline
        monkeypatch.setenv(engine.ENV_JOB_TIMEOUT, "30.0")
        with pytest.warns(RuntimeWarning, match="watchdog"):
            assert self.run_in_thread(lambda: run_jobs(jobs)) == clean


class TestCheckpointResume:
    def test_crash_then_resume_matches_clean_serial_run(
        self, tmp_path, monkeypatch, sim_counter, no_retry
    ):
        """The acceptance scenario: crash at job N, rerun, identical rows."""
        traces = suite(SCALE, 0)[:2]
        spec = GridSpec(
            cache_sizes_kb=(4,),
            line_sizes=(16,),
            structures={"base": None, "vc4": parse_structure_code("vc4")},
        )
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        reference = sweep_grid(traces, spec, jobs=1)

        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
        faults.set_plan("crash@2x*")
        with pytest.raises(JobFailedError):
            sweep_grid(traces, spec, jobs=1)
        assert current_store().stats().entries == 3  # jobs 0, 1, 3 flushed

        faults.set_plan(None)
        before = sim_counter["levels"]
        with telemetry.scoped() as scope:
            resumed = sweep_grid(traces, spec, jobs=1)
        assert resumed.rows == reference.rows
        store_section = scope.sections["store"]
        assert store_section["hits"] == 3 and store_section["misses"] == 1
        # Exactly the one unfinished point simulated, nothing re-ran.
        assert sim_counter["levels"] - before == 1

    def test_fully_warm_resume_is_zero_sim(self, store, sim_counter):
        jobs = level_jobs(3)
        run_jobs(jobs)
        before = sim_counter["levels"]
        assert run_jobs(jobs) == run_jobs(jobs)
        assert sim_counter["levels"] == before


class TestStoreFailureTolerance:
    def test_unwritable_store_warns_once_and_continues(self, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_RESULT_STORE", str(blocker / "store"))
        jobs = level_jobs(2)
        with pytest.warns(StoreWriteWarning, match="not writable"):
            first = run_jobs(jobs)
        # Second batch: degraded silently, results still correct.
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", StoreWriteWarning)
            assert run_jobs(jobs) == first

    def test_gc_removes_orphaned_tmp_files(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        fan = store._version_dir() / "ab"
        fan.mkdir(parents=True)
        (fan / ".tmp-dead1.json").write_text("{")
        (fan / ".tmp-dead2.json").write_text("")
        stats = store.stats()
        assert stats.orphaned_tmp == 2
        assert "orphaned tmp:    2" in stats.render()
        assert store.gc() == 2
        assert store.stats().orphaned_tmp == 0
        assert not fan.exists()  # pruned once empty


class TestCLIValidation:
    def run_main(self, argv):
        from repro.experiments.cli import main

        return main(argv)

    @pytest.mark.parametrize("argv", [["--job-timeout", "0"], ["--job-timeout", "-3"]])
    def test_non_positive_timeout_exits_2(self, argv, capsys):
        assert self.run_main(argv) == 2
        assert "--job-timeout must be positive" in capsys.readouterr().err

    def test_negative_retries_exits_2(self, capsys):
        assert self.run_main(["--retries", "-1"]) == 2
        assert "--retries must be at least 0" in capsys.readouterr().err

    def test_malformed_env_retries_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RETRIES", "many")
        assert self.run_main(["--list"]) == 2
        assert "REPRO_RETRIES" in capsys.readouterr().err

    def test_resume_without_store_exits_2(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        assert self.run_main(["--resume", "--list"]) == 2
        assert "--resume requires a result store" in capsys.readouterr().err

    def test_resume_with_store_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
        assert self.run_main(["--resume", "--list"]) == 0

    def test_flags_exported_to_environment(self, monkeypatch, capsys):
        """Workers read the flags from the environment while the run lasts."""
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "")  # empty reads as unset
        monkeypatch.setenv("REPRO_RETRIES", "")
        seen = {}

        def recording_run(names, **kwargs):
            seen.update(
                (key, os.environ[key]) for key in ("REPRO_JOB_TIMEOUT", "REPRO_RETRIES")
            )
            return []

        monkeypatch.setattr(engine, "run_experiments", recording_run)
        assert self.run_main(["--job-timeout", "9.5", "--retries", "3", "table_1_1"]) == 0
        assert seen == {"REPRO_JOB_TIMEOUT": "9.5", "REPRO_RETRIES": "3"}

    def test_main_leaves_the_environment_as_it_found_it(self, tmp_path, monkeypatch, capsys):
        for key in ("REPRO_JOBS", "REPRO_RESULT_STORE", "REPRO_JOB_TIMEOUT", "REPRO_RETRIES"):
            monkeypatch.delenv(key, raising=False)
        before = dict(os.environ)
        argv = [
            "--workload", "zipfian", "--jobs", "2", "--result-store", str(tmp_path / "store"),
            "--retries", "1", "--job-timeout", "60", "--backend", "python",
        ]
        assert self.run_main(argv) == 0
        assert "ext_modern_workloads" in capsys.readouterr().out
        assert dict(os.environ) == before
        assert current_store() is None


class TestHeartbeatFields:
    def test_progress_reports_resilience_activity(self, no_store):
        faults.set_plan("crash@0x1")
        beats = []
        run_jobs(level_jobs(1), progress=beats.append)
        assert beats and beats[-1].done == 1
        assert beats[-1].retries == 1

    def test_jobprogress_renders_additive_fields(self):
        text = str(JobProgress(3, 8, 1.0, store_hits=2, retries=1, recoveries=1, backend="numpy"))
        assert "jobs done" in text
        assert "[1 retried]" in text and "[1 pool rebuilds]" in text and "[numpy]" in text


@pytest.mark.skipif(
    not os.environ.get("REPRO_CHAOS"), reason="chaos tests run with REPRO_CHAOS=1"
)
class TestChaos:
    """CI chaos mode: a noisy fault schedule over a real parallel grid."""

    def test_grid_survives_mixed_faults(self, tmp_path, monkeypatch):
        traces = suite(SCALE, 0)[:3]
        spec = GridSpec(
            cache_sizes_kb=(2, 4),
            line_sizes=(16,),
            structures={"base": None, "vc4": parse_structure_code("vc4")},
        )
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        reference = sweep_grid(traces, spec, jobs=1)
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
        monkeypatch.setenv(faults.ENV_FAULT_PLAN, "crash@0x2,kill@3x1,corrupt@5x1")
        monkeypatch.setenv(engine.ENV_RETRIES, "3")
        chaotic = sweep_grid(traces, spec, jobs=2)
        assert chaotic.rows == reference.rows
