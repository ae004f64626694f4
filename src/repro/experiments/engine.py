"""Parallel experiment engine: picklable simulation jobs over a process pool.

Trace-driven cache studies are embarrassingly parallel: every
``(trace, cache geometry, helper structure)`` point is an independent
simulation, and the repo runs hundreds of them per full reproduction.
This module turns each point into a small picklable *job* — workload
name, scale, seed, side, geometry, and a declarative structure spec —
and fans jobs out over a :class:`~concurrent.futures.ProcessPoolExecutor`:

* **One build per trace per process** — a batch pins its distinct
  traces in the process memo (:func:`repro.experiments.workloads.pinned_workloads`)
  for its whole length, so no job rebuilds a trace another job already
  built, and store keys read each trace's remembered fingerprint instead
  of rebuilding the trace to hash it.  Fork-based workers inherit the
  pinned memo copy-on-write; spawn-based ones receive packed buffers
  through shared memory, or build on demand through the same memo.
* **Deterministic ordering** — results always come back in job-submission
  order, so a parallel run is row-for-row identical to a serial one.
* **Inline execution** — with ``jobs=1`` (the default, or via the
  ``REPRO_JOBS`` environment variable) everything runs in the calling
  process; no pool, no pickling, byte-identical results.

Job kinds
---------

=================== ===================================================
:class:`LevelJob`    one single-level replay → :class:`LevelSummary`
:class:`EntrySweepJob`  one single-pass miss/victim-cache size sweep →
                     :class:`~repro.experiments.sweeps.EntrySweep`
:class:`RunSweepJob` one stream-buffer run-length sweep →
                     :class:`~repro.experiments.sweeps.RunLengthSweep`
:class:`ExperimentJob`  one whole experiment module →
                     :class:`ExperimentOutcome`
=================== ===================================================

Each job carries a :class:`~repro.specs.SystemSpec` — a frozen,
picklable description of trace, geometry, and helper structure — so
*every* registered structure configuration fans out, default options or
not.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..common.errors import ConfigurationError
from ..common.stats import percent, safe_div
from ..kernels import (
    MISS_REPLAY,
    NUMPY,
    PYTHON,
    default_backend,
    kernel_mode,
    select_backend,
)
from ..specs import NamedWorkloadSpec, SystemSpec, WorkloadSpec, spec_hash
from ..store import ResultKey, current_store
from ..telemetry.core import JobProgress, ProgressCallback, record_fallback
from ..telemetry.core import current as _telemetry_scope
from .base import FigureResult, TableResult
from .runner import run_level
from .sweeps import (
    miss_cache_sweep,
    stream_buffer_run_sweep,
    victim_cache_sweep,
)
from .workloads import BENCHMARK_NAMES, pinned_workloads, suite

__all__ = [
    "LevelJob",
    "LevelSummary",
    "EntrySweepJob",
    "RunSweepJob",
    "ExperimentJob",
    "ExperimentOutcome",
    "ResilienceOptions",
    "JobFailure",
    "JobFailedError",
    "ENV_JOB_TIMEOUT",
    "ENV_RETRIES",
    "default_jobs",
    "resolve_jobs",
    "validate_jobs",
    "default_resilience",
    "resolve_resilience",
    "validate_job_timeout",
    "validate_retries",
    "execute_job",
    "run_jobs",
    "run_experiments",
]


# -- jobs ---------------------------------------------------------------------


_ENTRY_SWEEP_KINDS = ("miss", "victim")


def _require_trace(system: SystemSpec, job_kind: str) -> None:
    if system.trace is None:
        raise ConfigurationError(
            f"{job_kind} needs a SystemSpec with a trace reference; "
            "config-only specs cannot be executed"
        )


def _require_at_least(job_kind: str, name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigurationError(
            f"{job_kind}: {name} must be an integer >= {minimum}, got {value!r}"
        )


@dataclass(frozen=True)
class LevelJob:
    """One single-level replay: a :class:`~repro.specs.SystemSpec` point.

    The spec's trace names the workload, its ``side``/geometry pick the
    stream and cache, and its structure spec — *any* registered
    structure, default options or not — is rebuilt in the worker.
    """

    system: SystemSpec

    def __post_init__(self) -> None:
        _require_trace(self.system, "LevelJob")


@dataclass(frozen=True)
class LevelSummary:
    """Picklable statistics of one :class:`LevelJob` replay."""

    accesses: int
    demand_misses: int
    removed_misses: int
    misses_to_next_level: int
    stream_stall_cycles: int = 0
    #: Only populated when the job ran with ``classify=True``.
    conflict_misses: Optional[int] = None

    @property
    def miss_rate(self) -> float:
        return safe_div(self.demand_misses, self.accesses)

    @property
    def effective_miss_rate(self) -> float:
        return safe_div(self.misses_to_next_level, self.accesses)

    @property
    def percent_removed(self) -> float:
        return percent(self.removed_misses, self.demand_misses)


@dataclass(frozen=True)
class EntrySweepJob:
    """One single-pass miss/victim-cache entry sweep (Figures 3-3/3-5).

    The sweep builds its own depth-tracking structure, so the system
    spec contributes trace, side, and geometry only (its ``structure``
    field is ignored).
    """

    system: SystemSpec
    kind: str = "miss"  # "miss" | "victim"
    max_entries: int = 15

    def __post_init__(self) -> None:
        _require_trace(self.system, "EntrySweepJob")
        if self.kind not in _ENTRY_SWEEP_KINDS:
            raise ConfigurationError(
                f"entry-sweep kind must be one of {', '.join(_ENTRY_SWEEP_KINDS)}; "
                f"got {self.kind!r}"
            )
        _require_at_least("EntrySweepJob", "max_entries", self.max_entries, 0)


@dataclass(frozen=True)
class RunSweepJob:
    """One stream-buffer run-length sweep (Figures 4-3/4-5).

    As with :class:`EntrySweepJob`, the sweep builds its own
    offset-tracking buffer; the system spec contributes trace, side,
    and geometry.
    """

    system: SystemSpec
    ways: int = 1
    entries: int = 4
    max_run: int = 16

    def __post_init__(self) -> None:
        _require_trace(self.system, "RunSweepJob")
        _require_at_least("RunSweepJob", "ways", self.ways, 1)
        _require_at_least("RunSweepJob", "entries", self.entries, 1)
        _require_at_least("RunSweepJob", "max_run", self.max_run, 0)


@dataclass(frozen=True)
class ExperimentJob:
    """One whole experiment module run at a given scale and seed."""

    name: str
    scale: Optional[int] = None
    seed: int = 0


@dataclass(frozen=True)
class ExperimentOutcome:
    """Result of an :class:`ExperimentJob`, with worker-side timing."""

    name: str
    result: Union[TableResult, FigureResult]
    elapsed: float


Job = Union[LevelJob, EntrySweepJob, RunSweepJob, ExperimentJob]


# -- execution ----------------------------------------------------------------


def execute_job(job: Job):
    """Run one job in the current process and return its picklable result.

    ``LevelJob``s are backend-dispatched: when
    :func:`repro.kernels.select_backend` picks numpy (the spec has a
    kernel mode, ``REPRO_BACKEND`` not forcing ``python``),
    structure-free specs run the vectorized direct-mapped kernel and
    structure-carrying specs run the assist kernel (vector or
    miss-replay mode per :func:`repro.kernels.kernel_mode`).  Sweep jobs
    dispatch on the request alone: their depth- and offset-tracking
    structures always resolve in vector mode.  All backends return
    identical results, so dispatch is invisible to callers and to the
    result store.
    """
    if isinstance(job, LevelJob):
        system = job.system
        if select_backend(system) == NUMPY:
            if system.structure is not None:
                from ..kernels.assist import simulate_assist_summary

                return simulate_assist_summary(system)
            from ..kernels.numpy_backend import simulate_level_summary

            return simulate_level_summary(system)
        addresses = system.trace.trace().stream(system.side)
        run = run_level(
            addresses,
            system.cache_config,
            system.build_structure(),
            classify=system.classify,
            warmup=system.warmup,
        )
        stats = run.stats
        return LevelSummary(
            accesses=stats.accesses,
            demand_misses=stats.demand_misses,
            removed_misses=stats.removed_misses,
            misses_to_next_level=stats.misses_to_next_level,
            stream_stall_cycles=stats.stream_stall_cycles,
            conflict_misses=run.conflicts if system.classify else None,
        )
    if isinstance(job, EntrySweepJob):
        system = job.system
        if default_backend() == NUMPY:
            from ..kernels.assist import entry_sweep_summary

            return entry_sweep_summary(system, job.kind, job.max_entries)
        addresses = system.trace.trace().stream(system.side)
        sweep_fn = {"miss": miss_cache_sweep, "victim": victim_cache_sweep}[job.kind]
        return sweep_fn(addresses, system.cache_config, job.max_entries)
    if isinstance(job, RunSweepJob):
        system = job.system
        if default_backend() == NUMPY:
            from ..kernels.assist import run_length_sweep_summary

            return run_length_sweep_summary(
                system, job.ways, job.entries, job.max_run
            )
        addresses = system.trace.trace().stream(system.side)
        return stream_buffer_run_sweep(
            addresses,
            system.cache_config,
            ways=job.ways,
            entries=job.entries,
            max_run=job.max_run,
        )
    if isinstance(job, ExperimentJob):
        # Local import: the experiment registry lives in the package
        # __init__, which itself imports this module.
        from . import ALL_EXPERIMENTS

        started = time.time()
        result = ALL_EXPERIMENTS[job.name](traces=None, scale=job.scale, seed=job.seed)
        return ExperimentOutcome(name=job.name, result=result, elapsed=time.time() - started)
    raise TypeError(f"not an engine job: {job!r}")


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1 = serial)."""
    raw = os.environ.get("REPRO_JOBS", "")
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigurationError(f"REPRO_JOBS must be an integer, got {raw!r}") from None


def resolve_jobs(jobs: Optional[int]) -> int:
    """Explicit job count, or the ``REPRO_JOBS`` default when None."""
    return default_jobs() if jobs is None else max(1, jobs)


def validate_jobs(jobs: Optional[int]) -> int:
    """CLI-boundary job-count validation.

    Library callers go through :func:`resolve_jobs`, which clamps
    nonsense to 1 so programmatic sweeps never explode; user-typed input
    deserves a loud error instead of a silently ignored flag.  Raises
    :class:`ConfigurationError` for ``jobs < 1`` and (via
    :func:`default_jobs`) for a malformed ``REPRO_JOBS`` value.
    """
    if jobs is None:
        return default_jobs()
    if jobs < 1:
        raise ConfigurationError(f"--jobs must be at least 1, got {jobs}")
    return jobs


# -- resilience ---------------------------------------------------------------

ENV_JOB_TIMEOUT = "REPRO_JOB_TIMEOUT"
ENV_RETRIES = "REPRO_RETRIES"


@dataclass(frozen=True)
class ResilienceOptions:
    """Per-batch failure-handling knobs for :func:`run_jobs`.

    ``job_timeout`` is a wall-clock ceiling per job attempt (None = no
    limit); ``retries`` bounds how many times one job is re-attempted
    after a transient failure, timeout, or corrupt payload.  Retries back
    off exponentially from ``backoff_base`` (with jitter, capped at
    ``backoff_cap``).  ``max_pool_rebuilds`` bounds how many times a
    broken process pool is rebuilt before the batch degrades to serial
    execution; ``poison_strikes`` is how many times one job may be seen
    breaking the pool single-handedly before it is excluded as poison.
    """

    job_timeout: Optional[float] = None
    retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    max_pool_rebuilds: int = 5
    poison_strikes: int = 2


def _env_job_timeout() -> Optional[float]:
    raw = os.environ.get(ENV_JOB_TIMEOUT, "")
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(f"{ENV_JOB_TIMEOUT} must be a number, got {raw!r}") from None
    if value <= 0:
        raise ConfigurationError(f"{ENV_JOB_TIMEOUT} must be positive, got {raw!r}")
    return value


def _env_retries() -> int:
    raw = os.environ.get(ENV_RETRIES, "")
    if not raw:
        return 2
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(f"{ENV_RETRIES} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ConfigurationError(f"{ENV_RETRIES} must be at least 0, got {raw!r}")
    return value


def default_resilience() -> ResilienceOptions:
    """Batch resilience from ``REPRO_JOB_TIMEOUT``/``REPRO_RETRIES``."""
    return ResilienceOptions(job_timeout=_env_job_timeout(), retries=_env_retries())


def resolve_resilience(resilience: Optional[ResilienceOptions]) -> ResilienceOptions:
    """Explicit options, or the environment-derived default when None."""
    return default_resilience() if resilience is None else resilience


def validate_job_timeout(value: Optional[float]) -> Optional[float]:
    """CLI-boundary ``--job-timeout`` validation (reject, don't clamp).

    Raises :class:`ConfigurationError` for non-positive values and (via
    the environment fallback) for a malformed ``REPRO_JOB_TIMEOUT``.
    """
    if value is None:
        return _env_job_timeout()
    if value <= 0:
        raise ConfigurationError(f"--job-timeout must be positive, got {value:g}")
    return value


def validate_retries(value: Optional[int]) -> int:
    """CLI-boundary ``--retries`` validation (reject, don't clamp)."""
    if value is None:
        return _env_retries()
    if value < 0:
        raise ConfigurationError(f"--retries must be at least 0, got {value}")
    return value


@dataclass(frozen=True)
class JobFailure:
    """One job the engine gave up on: its submission index and why."""

    index: int
    reason: str


class JobFailedError(RuntimeError):
    """Raised when one or more jobs of a batch failed permanently.

    Raised *after* every other job of the batch has completed and been
    flushed to the result store, so a failed sweep loses only the failed
    points — rerunning with the same store resumes from the checkpoint.
    """

    def __init__(self, failures: Sequence[JobFailure]) -> None:
        self.failures = list(failures)
        detail = "; ".join(f"job {f.index}: {f.reason}" for f in self.failures)
        super().__init__(
            f"{len(self.failures)} job(s) failed permanently "
            f"(completed jobs were checkpointed): {detail}"
        )


def _shm_warm_worker(descriptors: Tuple) -> None:
    """Worker initializer: rebuild packed traces from shared memory.

    Each descriptor names one shared-memory segment holding a trace's
    packed buffers; attaching is two ``memcpy`` calls instead of a full
    synthetic-generator replay.  Failures degrade gracefully — a trace
    that cannot be attached is rebuilt on demand by the first job that
    needs it, through the normal workload memo — but never silently: the
    degradation and its cause are warned on the worker's stderr so a
    slow spawn-platform pool can be diagnosed.
    """
    from ..traces.packed import attach_shared_trace
    from .workloads import seed_materialized_workload

    for descriptor in descriptors:
        try:
            trace = attach_shared_trace(descriptor)
        except Exception as exc:
            warnings.warn(
                f"shared-memory attach failed for trace {descriptor.memo_key!r} "
                f"({exc!r}); this worker rebuilds it from its generator instead",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        seed_materialized_workload(descriptor.memo_key, trace)


def _pool_setup(trace_keys: Tuple[WorkloadSpec, ...]):
    """``(initializer, initargs, segments, degraded)`` for a batch's pool.

    Fork-based platforms need no initializer: workers inherit the
    parent's trace memo, pins included, so a worker builds only the
    traces the parent has not, each at most once.  On spawn/forkserver
    platforms each worker would replay every synthetic generator from
    scratch; instead the parent materializes once, lays the packed
    buffers out in shared memory, and workers attach-and-copy.  The
    caller must pass *segments* to
    :func:`~repro.traces.packed.release_shared_segments` after the pool
    has shut down.  *degraded* is None, or the reason shared-memory
    delivery was unavailable and workers build traces on demand instead
    (surfaced in progress heartbeats rather than swallowed).
    """
    import multiprocessing

    if not trace_keys or multiprocessing.get_start_method() == "fork":
        return None, (), [], None
    from ..traces.packed import PackedTrace, share_packed_traces

    entries = []
    for key in trace_keys:
        trace = key.trace()
        if not isinstance(trace, PackedTrace):
            return (
                None, (), [],
                f"trace {key.label!r} is not packed; workers build traces on demand",
            )
        entries.append((key, trace))
    try:
        descriptors, segments = share_packed_traces(entries)
    except Exception as exc:
        return (
            None, (), [],
            f"shared memory unavailable ({exc!r}); workers build traces on demand",
        )
    return _shm_warm_worker, (tuple(descriptors),), segments, None


def _distinct_trace_keys(jobs: Iterable[Job]) -> Tuple[WorkloadSpec, ...]:
    seen = {}
    for job in jobs:
        system = getattr(job, "system", None)
        key = system.trace if isinstance(system, SystemSpec) else None
        if isinstance(key, WorkloadSpec):
            seen[key] = None
    return tuple(seen)


def _store_key(job: Job) -> Optional[ResultKey]:
    """Result-store key for a job, or None for uncacheable jobs.

    Only jobs whose full configuration is captured by a trace-bearing
    :class:`~repro.specs.SystemSpec` plus the job's own scalar
    parameters are cacheable.  :class:`ExperimentJob` is not — a whole
    experiment module is an open-ended computation — but the engine
    batches *inside* it hit the store individually.
    """
    system = getattr(job, "system", None)
    if not isinstance(system, SystemSpec) or not isinstance(system.trace, WorkloadSpec):
        return None
    if isinstance(job, LevelJob):
        extras = {}
    elif isinstance(job, EntrySweepJob):
        extras = {"kind": job.kind, "max_entries": job.max_entries}
    elif isinstance(job, RunSweepJob):
        extras = {"ways": job.ways, "entries": job.entries, "max_run": job.max_run}
    else:
        return None
    return ResultKey(
        job_kind=type(job).__name__,
        spec_hash=spec_hash(system),
        trace_fingerprint=system.trace.fingerprint(),
        extras=extras,
    )


def _batch_kind(job_list: Sequence[Job]) -> str:
    kinds = {type(job).__name__ for job in job_list}
    return kinds.pop() if len(kinds) == 1 else "mixed"


def _job_backend(job: Job) -> Optional[str]:
    """The backend label one job will execute on, or None when opaque.

    ``python`` and ``numpy`` as before; assist jobs that run the
    interpreter structure over the compressed miss stream are labelled
    ``miss-replay`` so heartbeats and run records show the split.
    Sweep jobs always run vector mode on numpy.  Experiment jobs are
    opaque here — their inner batches dispatch (and count) per job
    themselves.
    """
    if isinstance(job, (EntrySweepJob, RunSweepJob)):
        return default_backend()
    if not isinstance(job, LevelJob):
        return None
    backend = select_backend(job.system)
    if backend == NUMPY and kernel_mode(job.system) == MISS_REPLAY:
        return MISS_REPLAY
    return backend


def _backend_counts(job_list: Sequence[Job]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for job in job_list:
        backend = _job_backend(job)
        if backend is not None:
            counts[backend] = counts.get(backend, 0) + 1
    return counts


def _backend_note(counts: Dict[str, int]) -> str:
    """Heartbeat label: one backend name, or a ``numpy:3 python:5`` split."""
    if not counts:
        return ""
    if len(counts) == 1:
        return next(iter(counts))
    return " ".join(f"{name}:{counts[name]}" for name in sorted(counts))


def _guarded_execute(job: Job, index: int, attempt: int):
    """Run one job with the fault harness consulted first.

    Module-level (hence picklable by reference) so it can be submitted
    to pool workers; with no fault plan configured the guard is one
    cached environment check per job.
    """
    from . import faults

    injected = faults.maybe_inject(index, attempt)
    if injected is not None:
        return injected
    return execute_job(job)


class _Pending:
    """Book-keeping for one not-yet-completed job of a batch."""

    __slots__ = ("slot", "index", "job", "key", "attempts", "strikes", "started")

    def __init__(self, slot: int, job: Job, key: Optional[ResultKey]) -> None:
        self.slot = slot          # result-list position == submission index
        self.index = slot         # fault-plan identity (stable across retries)
        self.job = job
        self.key = key
        self.attempts = 0         # failed attempts so far
        self.strikes = 0          # times seen breaking the pool single-handedly
        self.started: Optional[float] = None  # first observed running (monotonic)


#: Per-batch fault-recovery counters, under their run-record names.
_RESILIENCE_COUNTERS = ("retries", "timeouts", "pool_rebuilds", "poisoned_jobs")


class _Reporter:
    """Progress heartbeats: on completion-count change and every *heartbeat*s."""

    def __init__(
        self,
        progress: Optional[ProgressCallback],
        heartbeat: float,
        total: int,
        store_hits: int,
        stats: Dict[str, int],
        note: Optional[str],
        backend: str = "",
    ) -> None:
        self.progress = progress
        self.heartbeat = heartbeat
        self.total = total
        self.store_hits = store_hits
        self.stats = stats
        self.note = note or ""
        self.backend = backend
        self.completed = store_hits
        self.started = time.perf_counter()
        self._last_count = -1
        self._last_time = self.started

    def report(self, force: bool = False) -> None:
        if self.progress is None:
            return
        now = time.perf_counter()
        if not force and self.completed == self._last_count:
            if now - self._last_time < self.heartbeat:
                return
        self.progress(
            JobProgress(
                self.completed,
                self.total,
                now - self.started,
                self.store_hits,
                retries=self.stats["retries"],
                recoveries=self.stats["pool_rebuilds"],
                note=self.note,
                backend=self.backend,
            )
        )
        self._last_count = self.completed
        self._last_time = now


def _backoff_delay(opts: ResilienceOptions, failed_attempts: int) -> float:
    """Exponential backoff with jitter: base * 2^(n-1) * U[0.5, 1), capped."""
    if opts.backoff_base <= 0.0:
        return 0.0
    delay = opts.backoff_base * (2.0 ** max(0, failed_attempts - 1))
    return min(opts.backoff_cap, delay) * (0.5 + random.random() / 2.0)


class _JobTimeoutError(Exception):
    """Internal: a serial job attempt exceeded the wall-clock ceiling."""


@contextmanager
def _serial_deadline(seconds: Optional[float]):
    """Enforce a wall-clock ceiling on an inline job via ``SIGALRM``.

    Only armed when a timeout is configured and the platform has
    ``setitimer``; callers must be on the main thread (``signal.signal``
    raises ``ValueError`` anywhere else) — :func:`_execute_with_deadline`
    routes non-main-thread execution to the watchdog path instead.
    """
    if not seconds or not hasattr(signal, "setitimer"):
        yield
        return

    def _on_alarm(signum, frame):
        raise _JobTimeoutError()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


#: One warning per process when inline timeouts degrade to the watchdog.
_WATCHDOG_WARNED = False


def _watchdog_execute(job: Job, index: int, attempt: int, seconds: float):
    """Thread-watchdog deadline for inline jobs off the main thread.

    ``SIGALRM`` only works on the main thread — ``signal.signal`` raises
    ``ValueError`` anywhere else — so an inline job running under an
    executor thread (the serve daemon's request path) cannot use
    :func:`_serial_deadline`.  Instead the job runs in a daemonic helper
    thread that is *abandoned* on timeout, mirroring the pool-abandon
    path for worker processes: the stuck attempt keeps running to
    oblivion but the caller gets its :class:`_JobTimeoutError` (and
    retry) on schedule instead of a crash or an unbounded wait.  The
    degradation is warned once per process and recorded on the active
    telemetry scope.
    """
    global _WATCHDOG_WARNED
    if not _WATCHDOG_WARNED:
        _WATCHDOG_WARNED = True
        warnings.warn(
            "job timeouts are enforced off the main thread by a watchdog "
            "thread (SIGALRM is main-thread-only); a timed-out inline job "
            "is abandoned, not interrupted",
            RuntimeWarning,
            stacklevel=3,
        )
    scope = _telemetry_scope()
    if scope is not None:
        scope.record_fallback(
            "serial_deadline",
            "SIGALRM unavailable off the main thread; using watchdog-thread timeouts",
        )
    box: List = []

    def _target() -> None:
        try:
            box.append((True, _guarded_execute(job, index, attempt)))
        except BaseException as exc:  # delivered to the submitting thread
            box.append((False, exc))

    worker = threading.Thread(target=_target, daemon=True, name="repro-job-watchdog")
    worker.start()
    worker.join(seconds)
    if not box and worker.is_alive():
        raise _JobTimeoutError()
    worker.join()
    succeeded, value = box[0]
    if succeeded:
        return value
    raise value


def _execute_with_deadline(job: Job, index: int, attempt: int, seconds: Optional[float]):
    """Run one inline job under the configured wall-clock ceiling.

    Main thread: ``SIGALRM`` interrupts the attempt in place.  Any other
    thread: the watchdog path above.  No ceiling configured: plain
    execution.
    """
    if not seconds:
        return _guarded_execute(job, index, attempt)
    if threading.current_thread() is threading.main_thread():
        with _serial_deadline(seconds):
            return _guarded_execute(job, index, attempt)
    return _watchdog_execute(job, index, attempt, seconds)


def _is_corrupt(outcome) -> bool:
    from .faults import CorruptPayload

    return isinstance(outcome, CorruptPayload)


def _run_serial(
    entries: List[_Pending],
    opts: ResilienceOptions,
    stats: Dict[str, int],
    failures: List[JobFailure],
    complete,
) -> None:
    """Inline execution with retries and (best-effort) timeouts.

    A ``KeyboardInterrupt`` propagates immediately — results completed
    so far were already flushed through *complete*, so an interrupted
    run resumes from the store.
    """
    for entry in entries:
        while True:
            reason = None
            try:
                outcome = _execute_with_deadline(
                    entry.job, entry.index, entry.attempts, opts.job_timeout
                )
                if _is_corrupt(outcome):
                    reason = "corrupt result payload"
            except _JobTimeoutError:
                stats["timeouts"] += 1
                reason = f"timed out after {opts.job_timeout:g}s"
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
            if reason is None:
                complete(entry, outcome)
                break
            entry.attempts += 1
            if entry.attempts > opts.retries:
                failures.append(JobFailure(entry.index, reason))
                break
            stats["retries"] += 1
            time.sleep(_backoff_delay(opts, entry.attempts))


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting for stuck or dead workers."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    # A hung worker ignores shutdown (it never returns to the call
    # queue), so terminate outstanding worker processes directly.
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass


def _drain_pool(
    pool: ProcessPoolExecutor,
    batch: List[_Pending],
    remaining: List[_Pending],
    opts: ResilienceOptions,
    stats: Dict[str, int],
    failures: List[JobFailure],
    complete,
    reporter: _Reporter,
    sequential: bool,
) -> Tuple[str, Optional[_Pending]]:
    """Drain one pool generation; returns ``(status, culprit)``.

    Status is ``"done"`` (every batch entry completed, failed out, or —
    sequentially — was processed), ``"broke"`` (a worker died and the
    pool is unusable; *culprit* is the responsible entry when it can be
    attributed, i.e. in sequential mode), or ``"abandoned"`` (a job
    exceeded its timeout; the pool was torn down to reclaim the stuck
    worker).  Transient job failures are retried *within* the pool;
    entries leave *remaining* only on completion or permanent failure.
    """
    queue = list(batch) if sequential else []
    active: Dict = {}
    tick = reporter.heartbeat
    if opts.job_timeout is not None:
        tick = max(0.02, min(tick, opts.job_timeout / 5.0))

    def submit(entry: _Pending) -> bool:
        entry.started = None
        try:
            future = pool.submit(_guarded_execute, entry.job, entry.index, entry.attempts)
        except Exception:  # pool already broken or shut down
            return False
        active[future] = entry
        return True

    def fail_or_retry(entry: _Pending, reason: str, pause: bool = True) -> None:
        entry.attempts += 1
        if entry.attempts > opts.retries:
            failures.append(JobFailure(entry.index, reason))
            remaining.remove(entry)
            return
        stats["retries"] += 1
        if pause:
            time.sleep(_backoff_delay(opts, entry.attempts))
        if not submit(entry):
            raise BrokenProcessPool("pool broke while re-submitting a retried job")

    try:
        seeds = queue[:1] if sequential else batch
        for entry in list(seeds):
            if sequential:
                queue.remove(entry)
            if not submit(entry):
                # Submission failure means the pool was already dead;
                # the entry being submitted is not to blame.
                _abandon_pool(pool)
                return "broke", None
        while active:
            done, _ = wait(set(active), timeout=tick, return_when=FIRST_COMPLETED)
            now = time.monotonic()
            for future in done:
                entry = active.pop(future)
                exc = future.exception()
                if isinstance(exc, BrokenProcessPool):
                    _abandon_pool(pool)
                    return "broke", entry if sequential else None
                if exc is not None:
                    fail_or_retry(entry, f"{type(exc).__name__}: {exc}")
                    continue
                outcome = future.result()
                if _is_corrupt(outcome):
                    fail_or_retry(entry, "corrupt result payload")
                    continue
                remaining.remove(entry)
                complete(entry, outcome)
            # Start the per-job clock at first observed execution and
            # enforce the wall-clock ceiling.  A timed-out job forfeits
            # the whole pool: there is no way to cancel a running task,
            # so the stuck worker is terminated and survivors re-run.
            for future, entry in list(active.items()):
                if not future.running():
                    continue
                if entry.started is None:
                    entry.started = now
                elif opts.job_timeout is not None and now - entry.started > opts.job_timeout:
                    stats["timeouts"] += 1
                    entry.attempts += 1
                    if entry.attempts > opts.retries:
                        failures.append(
                            JobFailure(
                                entry.index, f"timed out after {opts.job_timeout:g}s"
                            )
                        )
                        remaining.remove(entry)
                    else:
                        stats["retries"] += 1
                    _abandon_pool(pool)
                    return "abandoned", None
            if sequential and not active and queue:
                entry = queue.pop(0)
                if entry in remaining and not submit(entry):
                    _abandon_pool(pool)
                    return "broke", None
            reporter.report()
    except BrokenProcessPool:
        _abandon_pool(pool)
        return "broke", None
    except KeyboardInterrupt:
        # Orderly interrupt: reclaim workers, keep everything already
        # flushed.  The store checkpoint makes the run resumable.
        _abandon_pool(pool)
        raise
    return "done", None


def _execute_entries(
    entries: List[_Pending],
    workers: int,
    opts: ResilienceOptions,
    store,
    stats: Dict[str, int],
    progress: Optional[ProgressCallback],
    heartbeat: float,
    total: int,
    store_hits: int,
    pool_env: Optional[Tuple] = None,
    note: Optional[str] = None,
    backend: str = "",
) -> Tuple[Dict[int, object], List[JobFailure]]:
    """Execute pending entries with retries, timeouts, and pool recovery.

    Returns ``(results_by_slot, permanent_failures)``.  Every completed
    result is flushed to *store* (when active and the entry is cacheable)
    *as it completes*, so a crash, hang, or interrupt later in the batch
    never loses finished work.
    """
    results: Dict[int, object] = {}
    failures: List[JobFailure] = []
    reporter = _Reporter(progress, heartbeat, total, store_hits, stats, note, backend)

    def complete(entry: _Pending, outcome) -> None:
        results[entry.slot] = outcome
        if store is not None and entry.key is not None:
            store.put(entry.key, outcome)
        reporter.completed += 1
        reporter.report()

    remaining = list(entries)
    if workers > 1 and pool_env is not None:
        initializer, initargs = pool_env
        pool_breaks = 0
        careful = False
        while remaining and pool_breaks <= opts.max_pool_rebuilds:
            batch = list(remaining)
            pool = ProcessPoolExecutor(
                max_workers=1 if careful else min(workers, len(batch)),
                initializer=initializer,
                initargs=initargs,
            )
            status, culprit = "done", None
            try:
                status, culprit = _drain_pool(
                    pool, batch, remaining, opts, stats, failures,
                    complete, reporter, sequential=careful,
                )
            finally:
                if status == "done":
                    pool.shutdown()
            if status == "broke":
                pool_breaks += 1
                stats["pool_rebuilds"] += 1
                if culprit is not None and culprit in remaining:
                    # Sequential mode pins the blame: the job that was
                    # alone in flight when the pool died is the culprit.
                    culprit.strikes += 1
                    culprit.attempts += 1
                    if culprit.strikes >= opts.poison_strikes:
                        failures.append(
                            JobFailure(
                                culprit.index,
                                f"excluded as poison: worker process died "
                                f"{culprit.strikes} times running this job",
                            )
                        )
                        stats["poisoned_jobs"] += 1
                        remaining.remove(culprit)
                        careful = False
                else:
                    # Batch breakage cannot be attributed; after a second
                    # breakage, probe jobs one at a time to find the
                    # poison without punishing innocent bystanders.
                    careful = pool_breaks >= 2
        if remaining:
            record_fallback(
                "run_jobs",
                f"process pool broke {pool_breaks} times; "
                f"finishing {len(remaining)} job(s) serially",
                stacklevel=4,
            )
    _run_serial(remaining, opts, stats, failures, complete)
    return results, failures


def _record_batch(
    scope,
    kind: str,
    n_jobs: int,
    workers: int,
    started: float,
    resilience: Dict[str, int],
    traffic: Optional[Dict[str, int]] = None,
    backends: Optional[Dict[str, int]] = None,
) -> None:
    """Fold one finished batch into the active telemetry *scope*.

    The batch's counts already sit under their run-record names; this
    decides only which sections the batch adds: ``store`` when the store
    was consulted at all, ``resilience`` when any recovery happened, and
    ``backends`` when anything was dispatched.
    """
    scope.record_job_batch(kind, n_jobs, workers, time.perf_counter() - started)
    if traffic is not None and (traffic["hits"] or traffic["misses"]):
        scope.add("store", traffic)
    if any(resilience.values()):
        scope.add("resilience", resilience)
    if backends:
        scope.add("backends", backends)


def run_jobs(
    job_list: Sequence[Job],
    jobs: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    heartbeat: float = 5.0,
    resilience: Optional[ResilienceOptions] = None,
) -> List:
    """Execute jobs, returning results in submission order.

    ``jobs=1`` (or ``REPRO_JOBS`` unset) runs everything inline; with
    more workers the jobs fan out over a process pool whose workers each
    cache the traces they need.  *progress* receives a
    :class:`~repro.telemetry.core.JobProgress` heartbeat on every
    completion change and at least every *heartbeat* seconds.  When a
    telemetry scope is active, the batch's job count, worker count, wall
    time, and resilience counters are recorded.

    When a result store is active (``REPRO_RESULT_STORE`` or
    ``--result-store``), each cacheable job is looked up before dispatch
    and its result flushed back **as it completes** — not at batch end —
    so an interrupted or crashed batch keeps every finished point and a
    rerun (or ``--resume``) continues where it stopped.

    *resilience* (default: from ``REPRO_JOB_TIMEOUT``/``REPRO_RETRIES``)
    governs per-job timeouts, bounded retry with exponential backoff,
    broken-pool recovery, and poison-job exclusion; jobs that still fail
    raise :class:`JobFailedError` *after* the rest of the batch has
    completed and been flushed.
    """
    job_list = list(job_list)
    opts = resolve_resilience(resilience)
    store = current_store()
    scope = _telemetry_scope()
    started = time.perf_counter() if scope is not None else 0.0

    # Pin the batch's traces for its whole length: store keys and jobs
    # then build each trace at most once in this process, however many
    # distinct traces the batch has.
    with pinned_workloads(_distinct_trace_keys(job_list)):
        # Consult the store first: hits fill their result slots directly,
        # misses become pending entries whose computed results are flushed
        # back — and merged — in submission order.
        results: List = [None] * len(job_list)
        entries: List[_Pending] = []
        traffic = {"hits": 0, "misses": 0, "bytes_read": 0}
        for index, job in enumerate(job_list):
            key = _store_key(job) if store is not None else None
            if key is not None:
                cached, nbytes = store.get(key)
                if cached is not None:
                    results[index] = cached
                    traffic["hits"] += 1
                    traffic["bytes_read"] += nbytes
                    continue
                traffic["misses"] += 1
            entries.append(_Pending(index, job, key))
        hits = traffic["hits"]

        workers = min(resolve_jobs(jobs), len(entries)) if entries else 1
        stats = dict.fromkeys(_RESILIENCE_COUNTERS, 0)
        failures: List[JobFailure] = []
        # Backend selection is decided up front from the pending specs (store
        # hits never re-simulate, so they are not counted), surfaced in every
        # heartbeat and folded into the run record.
        backends = _backend_counts([entry.job for entry in entries])
        backend_note = _backend_note(backends)
        if not entries:
            if progress is not None and hits:
                # Fully warm batch: one summary heartbeat instead of silence.
                progress(JobProgress(hits, len(job_list), 0.0, hits))
            computed: Dict[int, object] = {}
        elif workers <= 1:
            computed, failures = _execute_entries(
                entries, 1, opts, store, stats, progress, heartbeat, len(job_list), hits,
                backend=backend_note,
            )
        else:
            if backends.keys() - {PYTHON}:
                # Load the kernels (and numpy) before forking, so workers
                # inherit them instead of each importing numpy again.
                from ..kernels import assist  # noqa: F401
            initializer, initargs, segments, note = _pool_setup(
                _distinct_trace_keys([entry.job for entry in entries])
            )
            try:
                computed, failures = _execute_entries(
                    entries, workers, opts, store, stats, progress, heartbeat,
                    len(job_list), hits, pool_env=(initializer, initargs), note=note,
                    backend=backend_note,
                )
            finally:
                if segments:
                    from ..traces.packed import release_shared_segments

                    release_shared_segments(segments)

    for slot, outcome in computed.items():
        results[slot] = outcome

    if scope is not None and job_list:
        _record_batch(
            scope, _batch_kind(job_list), len(job_list), workers, started, stats,
            traffic=traffic, backends=backends,
        )
    if failures:
        raise JobFailedError(failures)
    return results


def run_experiments(
    names: Sequence[str],
    scale: Optional[int] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    heartbeat: float = 5.0,
    resilience: Optional[ResilienceOptions] = None,
) -> List[ExperimentOutcome]:
    """Run whole experiment modules, optionally in parallel.

    Results come back in the order of *names* regardless of which worker
    finished first, so the rendered output of a parallel run is
    identical to the serial one.  *progress* behaves as in
    :func:`run_jobs`: a heartbeat per completion change and at least
    every *heartbeat* seconds of pool time.  Experiment modules are not
    store-cacheable, but retries, timeouts, and broken-pool recovery
    (*resilience*) apply exactly as in :func:`run_jobs`.
    """
    job_list = [ExperimentJob(name, scale, seed) for name in names]
    opts = resolve_resilience(resilience)
    entries = [_Pending(index, job, None) for index, job in enumerate(job_list)]
    workers = min(resolve_jobs(jobs), len(job_list)) if job_list else 1
    scope = _telemetry_scope()
    started = time.perf_counter() if scope is not None else 0.0
    stats = dict.fromkeys(_RESILIENCE_COUNTERS, 0)
    failures: List[JobFailure] = []
    if workers <= 1:
        computed, failures = _execute_entries(
            entries, 1, opts, None, stats, progress, heartbeat, len(job_list), 0
        )
    else:
        # Build the suite once in the parent before forking, pinned:
        # fork-based workers then share the materialized traces
        # copy-on-write for the whole run, and spawn-based ones receive
        # the packed buffers through shared memory via the initializer
        # (or build on demand when shared memory is unavailable).
        suite_keys = tuple(NamedWorkloadSpec(name, scale, seed) for name in BENCHMARK_NAMES)
        with pinned_workloads(suite_keys):
            suite(scale, seed)
            initializer, initargs, segments, note = _pool_setup(suite_keys)
            try:
                computed, failures = _execute_entries(
                    entries, workers, opts, None, stats, progress, heartbeat,
                    len(job_list), 0, pool_env=(initializer, initargs), note=note,
                )
            finally:
                if segments:
                    from ..traces.packed import release_shared_segments

                    release_shared_segments(segments)
    if scope is not None and job_list:
        _record_batch(scope, "ExperimentJob", len(job_list), workers, started, stats)
    if failures:
        raise JobFailedError(failures)
    return [computed[index] for index in range(len(job_list))]
