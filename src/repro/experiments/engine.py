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
  pinned memo copy-on-write; under any other start method a worker
  builds each trace it needs on demand, once, through the same memo.
* **Deterministic ordering** — results always come back in job-submission
  order, so a parallel run is row-for-row identical to a serial one.
* **One run per distinct job per call** — inside a :func:`result_memo`
  block (every :func:`run_experiments` call opens one) a job equal to
  one already answered is answered from memory: no simulation, no store
  traffic.
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
:class:`SystemJob`   one full two-level replay →
                     :class:`~repro.hierarchy.system.SystemResult`
:class:`ExperimentJob`  one whole experiment module →
                     :class:`ExperimentOutcome`
=================== ===================================================

Each job carries a :class:`~repro.specs.SystemSpec` — a frozen,
picklable description of trace, geometry, and helper structure — so
*every* registered structure configuration fans out, default options or
not.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import threading
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..common.errors import ConfigurationError, ReproError
from ..common.stats import percent, safe_div
from ..hierarchy.system import MemorySystem
from ..kernels import (
    MISS_REPLAY,
    NUMPY,
    PYTHON,
    default_backend,
    kernel_mode,
    select_backend,
)
from ..specs import NamedWorkloadSpec, SpecError, StructureSpec, SystemSpec, WorkloadSpec
from ..specs import build, spec_hash
from ..store import ResultKey, current_store
from ..telemetry.core import JobProgress, ProgressCallback, record_fallback, scoped
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
    "SystemJob",
    "ExperimentJob",
    "ExperimentOutcome",
    "JobFailure",
    "JobFailedError",
    "ENV_JOB_TIMEOUT",
    "ENV_RETRIES",
    "default_jobs",
    "resolve_jobs",
    "validate_jobs",
    "validate_job_timeout",
    "validate_retries",
    "execute_job",
    "result_memo",
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
class SystemJob:
    """One full two-level replay (Figures 2-2 and 5-1).

    The system spec contributes trace and :class:`SystemConfig`; each
    L1 side carries its own structure spec (None = bare), rebuilt in
    the worker.  ``prewarm_l2`` preloads the L2 with the trace's
    footprint first (see :meth:`MemorySystem.prewarm_l2`).  A spec that
    sets a single-level field (``structure``, ``warmup``, ``classify``)
    is rejected rather than silently ignored.
    """

    system: SystemSpec
    istructure: Optional[StructureSpec] = None
    dstructure: Optional[StructureSpec] = None
    prewarm_l2: bool = False

    def __post_init__(self) -> None:
        _require_trace(self.system, "SystemJob")
        if self.system.structure is not None or self.system.warmup or self.system.classify:
            raise ConfigurationError(
                "SystemJob takes per-side istructure/dstructure; its SystemSpec "
                "must leave structure, warmup and classify unset"
            )
        for structure in (self.istructure, self.dstructure):
            if structure is not None and not isinstance(structure, StructureSpec):
                raise SpecError(f"SystemJob structures must be StructureSpecs, got {structure!r}")


@dataclass(frozen=True)
class ExperimentJob:
    """One whole experiment module run at a given scale and seed.

    With ``metrics`` set, the module runs under a telemetry scope of its
    own whose counter sections come back on the outcome, so a parent
    process can merge what its pool workers counted.
    """

    name: str
    scale: Optional[int] = None
    seed: int = 0
    metrics: bool = False


@dataclass(frozen=True)
class ExperimentOutcome:
    """Result of an :class:`ExperimentJob`, with worker-side timing.

    ``sections`` holds the module's telemetry counter sections (section
    -> counter -> count) when its job asked for ``metrics``.
    """

    name: str
    result: Union[TableResult, FigureResult]
    elapsed: float
    sections: Dict[str, Dict[str, int]] = field(default_factory=dict)


Job = Union[LevelJob, EntrySweepJob, RunSweepJob, SystemJob, ExperimentJob]


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
    structures always resolve in vector mode.  ``SystemJob``s run the
    bare-system kernel on numpy when neither side has a structure, and
    :class:`MemorySystem` otherwise.  All backends return
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
    if isinstance(job, SystemJob):
        trace = job.system.trace.trace()
        if default_backend() == NUMPY and job.istructure is None and job.dstructure is None:
            from ..kernels.numpy_backend import simulate_system

            return simulate_system(trace, job.system.config, prewarm_l2=job.prewarm_l2)
        memory = MemorySystem(job.system.config, build(job.istructure), build(job.dstructure))
        if job.prewarm_l2:
            memory.prewarm_l2(trace)
        return memory.run(trace)
    if isinstance(job, ExperimentJob):
        # Local import: the experiment registry lives in the package
        # __init__, which itself imports this module.
        from . import ALL_EXPERIMENTS

        run = ALL_EXPERIMENTS[job.name]
        sections: Dict[str, Dict[str, int]] = {}
        started = time.perf_counter()
        with result_memo():
            if job.metrics:
                with scoped() as scope:
                    result = run(traces=None, scale=job.scale, seed=job.seed)
                sections = scope.sections
            else:
                result = run(traces=None, scale=job.scale, seed=job.seed)
        return ExperimentOutcome(job.name, result, time.perf_counter() - started, sections)
    raise TypeError(f"not an engine job: {job!r}")


# -- the result map -----------------------------------------------------------

#: The open :func:`result_memo` block's map from job to result, or None.
_RESULT_MEMO: Optional[Dict[Job, object]] = None


def _forget_result_memo() -> None:
    global _RESULT_MEMO
    _RESULT_MEMO = None


if hasattr(os, "register_at_fork"):
    # A result map belongs to the process that opened it: a fork worker
    # starts without one, exactly like a worker under any other start
    # method, so what a worker runs never depends on the start method.
    os.register_at_fork(after_in_child=_forget_result_memo)


@contextmanager
def result_memo() -> Iterator[None]:
    """Answer repeated engine jobs from memory until the block exits.

    Inside the block every :func:`run_jobs` batch looks each job up by
    value (jobs are frozen dataclasses) before the result store, and
    remembers every result it computes or reads from the store, so a job
    an earlier batch answered never runs or reaches the store again.  A job
    answered from memory counts like a store hit in progress heartbeats
    and adds no simulation counters and no store traffic.  Answers are
    shared, not copied: callers treat results as read-only.  Blocks nest
    (an inner block shares the outer map); a batch outside any block
    never hashes a job.
    """
    global _RESULT_MEMO
    if _RESULT_MEMO is not None:
        yield
        return
    _RESULT_MEMO = {}
    try:
        yield
    finally:
        _RESULT_MEMO = None


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

#: A job attempt's wall-clock ceiling in seconds (unset = no limit) and
#: how many times a failed job is re-attempted (default 2).  Each batch
#: reads both once; the CLIs' ``--job-timeout``/``--retries`` set them.
ENV_JOB_TIMEOUT = "REPRO_JOB_TIMEOUT"
ENV_RETRIES = "REPRO_RETRIES"

#: Retry backoff: ``BACKOFF_BASE * 2^(n-1)`` seconds after the n-th
#: failed attempt, jittered, capped at ``BACKOFF_CAP``.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0
#: Broken-pool rebuilds before a batch finishes its remaining jobs serially.
MAX_POOL_REBUILDS = 5
#: Times one job may break the pool single-handedly before it is
#: excluded as poison.
POISON_STRIKES = 2


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


def _distinct_trace_keys(jobs: Iterable[Job]) -> Tuple[WorkloadSpec, ...]:
    seen = {}
    for job in jobs:
        system = getattr(job, "system", None)
        key = system.trace if isinstance(system, SystemSpec) else None
        if isinstance(key, WorkloadSpec):
            seen[key] = None
    return tuple(seen)


def _store_key(job: Job, fingerprint: Optional[str] = None) -> Optional[ResultKey]:
    """Result-store key for a job, or None for uncacheable jobs.

    Only jobs whose full configuration is captured by a trace-bearing
    :class:`~repro.specs.SystemSpec` plus the job's own
    parameters are cacheable.  :class:`ExperimentJob` is not — a whole
    experiment module is an open-ended computation — but the engine
    batches *inside* it hit the store individually.  A caller that
    already holds the trace's *fingerprint* passes it in.
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
    elif isinstance(job, SystemJob):
        extras = {
            "istructure": None if job.istructure is None else job.istructure.as_dict(),
            "dstructure": None if job.dstructure is None else job.dstructure.as_dict(),
            "prewarm_l2": job.prewarm_l2,
        }
    else:
        return None
    return ResultKey(
        job_kind=type(job).__name__,
        spec_hash=spec_hash(system),
        trace_fingerprint=fingerprint or system.trace.fingerprint(),
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
    Sweep jobs always run vector mode on numpy; system jobs run numpy
    only structure-free (see :func:`execute_job`).  Experiment jobs are
    opaque here — their inner batches dispatch (and count) per job
    themselves.
    """
    if isinstance(job, (EntrySweepJob, RunSweepJob)):
        return default_backend()
    if isinstance(job, SystemJob):
        return default_backend() if job.istructure is None and job.dstructure is None else PYTHON
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

    __slots__ = ("index", "job", "key", "attempts", "strikes", "started")

    def __init__(self, index: int, job: Job, key: Optional[ResultKey]) -> None:
        self.index = index        # submission index: result slot and fault-plan identity
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
        backend: str = "",
    ) -> None:
        self.progress = progress
        self.heartbeat = heartbeat
        self.total = total
        self.store_hits = store_hits
        self.stats = stats
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
                backend=self.backend,
            )
        )
        self._last_count = self.completed
        self._last_time = now


def _backoff_delay(failed_attempts: int) -> float:
    """Exponential backoff with jitter: base * 2^(n-1) * U[0.5, 1), capped."""
    if BACKOFF_BASE <= 0.0:
        return 0.0
    delay = BACKOFF_BASE * (2.0 ** max(0, failed_attempts - 1))
    return min(BACKOFF_CAP, delay) * (0.5 + random.random() / 2.0)


def _count_failure(
    entry: _Pending,
    reason: str,
    permanent: bool,
    retries: int,
    stats: Dict[str, int],
    failures: List[JobFailure],
) -> bool:
    """Count one failed attempt of *entry*; True when it should run again.

    A *permanent* failure — the job raised a :class:`ReproError`, a
    deterministic input error another attempt would only repeat — and a
    job out of retries become a :class:`JobFailure` instead.
    """
    entry.attempts += 1
    if permanent or entry.attempts > retries:
        failures.append(JobFailure(entry.index, reason))
        return False
    stats["retries"] += 1
    return True


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
    job_timeout: Optional[float],
    retries: int,
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
            reason, permanent = None, False
            try:
                outcome = _execute_with_deadline(
                    entry.job, entry.index, entry.attempts, job_timeout
                )
                if _is_corrupt(outcome):
                    reason = "corrupt result payload"
            except _JobTimeoutError:
                stats["timeouts"] += 1
                reason = f"timed out after {job_timeout:g}s"
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
                permanent = isinstance(exc, ReproError)
            if reason is None:
                complete(entry, outcome)
                break
            if not _count_failure(entry, reason, permanent, retries, stats, failures):
                break
            time.sleep(_backoff_delay(entry.attempts))


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
    job_timeout: Optional[float],
    retries: int,
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
    if job_timeout is not None:
        tick = max(0.02, min(tick, job_timeout / 5.0))

    def submit(entry: _Pending) -> bool:
        entry.started = None
        try:
            future = pool.submit(_guarded_execute, entry.job, entry.index, entry.attempts)
        except Exception:  # pool already broken or shut down
            return False
        active[future] = entry
        return True

    def fail_or_retry(entry: _Pending, reason: str, permanent: bool = False) -> None:
        if not _count_failure(entry, reason, permanent, retries, stats, failures):
            remaining.remove(entry)
            return
        time.sleep(_backoff_delay(entry.attempts))
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
                    fail_or_retry(
                        entry, f"{type(exc).__name__}: {exc}", isinstance(exc, ReproError)
                    )
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
                elif job_timeout is not None and now - entry.started > job_timeout:
                    stats["timeouts"] += 1
                    reason = f"timed out after {job_timeout:g}s"
                    if not _count_failure(entry, reason, False, retries, stats, failures):
                        remaining.remove(entry)
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
    job_timeout: Optional[float],
    retries: int,
    store,
    stats: Dict[str, int],
    progress: Optional[ProgressCallback],
    heartbeat: float,
    total: int,
    store_hits: int,
    backend: str = "",
) -> Tuple[Dict[int, object], List[JobFailure]]:
    """Execute pending entries with retries, timeouts, and pool recovery.

    ``workers > 1`` runs them on a process pool (rebuilt when it breaks),
    and whatever the pool could not finish runs inline.  Returns
    ``(results_by_index, permanent_failures)``.  Every completed
    result is flushed to *store* (when active and the entry is cacheable)
    *as it completes*, so a crash, hang, or interrupt later in the batch
    never loses finished work.
    """
    results: Dict[int, object] = {}
    failures: List[JobFailure] = []
    reporter = _Reporter(progress, heartbeat, total, store_hits, stats, backend)

    def complete(entry: _Pending, outcome) -> None:
        results[entry.index] = outcome
        if store is not None and entry.key is not None:
            store.put(entry.key, outcome)
        reporter.completed += 1
        reporter.report()

    remaining = list(entries)
    if workers > 1:
        pool_breaks = 0
        careful = False
        while remaining and pool_breaks <= MAX_POOL_REBUILDS:
            batch = list(remaining)
            pool = ProcessPoolExecutor(max_workers=1 if careful else min(workers, len(batch)))
            status, culprit = "done", None
            try:
                status, culprit = _drain_pool(
                    pool, batch, remaining, job_timeout, retries, stats, failures,
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
                    if culprit.strikes >= POISON_STRIKES:
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
    _run_serial(remaining, job_timeout, retries, stats, failures, complete)
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
    rerun (or ``--resume``) continues where it stopped.  Inside a
    :func:`result_memo` block the in-memory result map is consulted
    before the store.

    ``REPRO_JOB_TIMEOUT``/``REPRO_RETRIES``, read once per batch, govern
    per-job timeouts and bounded retry with exponential backoff; a job
    that raises a :class:`~repro.common.errors.ReproError` fails on its
    first attempt.  A broken pool is rebuilt and a job that keeps
    breaking it is excluded as poison.  Jobs that still fail raise
    :class:`JobFailedError` *after* the rest of the batch has completed
    and been flushed.
    """
    job_list = list(job_list)
    job_timeout, retries = _env_job_timeout(), _env_retries()
    store = current_store()
    scope = _telemetry_scope()
    started = time.perf_counter() if scope is not None else 0.0
    memo = _RESULT_MEMO

    # Pin the batch's traces for its whole length: store keys and jobs
    # then build each trace at most once in this process, however many
    # distinct traces the batch has.
    with pinned_workloads(_distinct_trace_keys(job_list)):
        # Consult the result map, then the store: answers fill their
        # result slots directly, misses become pending entries whose
        # computed results are flushed back — and merged — in
        # submission order.
        results: List = [None] * len(job_list)
        entries: List[_Pending] = []
        traffic = {"hits": 0, "misses": 0, "bytes_read": 0}
        for index, job in enumerate(job_list):
            if memo is not None:
                known = memo.get(job)
                if known is not None:
                    results[index] = known
                    continue
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
        # Everything answered without simulating, map answers included.
        hits = len(job_list) - len(entries)

        workers = min(resolve_jobs(jobs), len(entries)) if entries else 1
        stats = dict.fromkeys(_RESILIENCE_COUNTERS, 0)
        failures: List[JobFailure] = []
        # Backend selection is decided up front from the pending specs (store
        # hits never re-simulate, so they are not counted), surfaced in every
        # heartbeat and folded into the run record.
        backends = _backend_counts([entry.job for entry in entries])
        if not entries:
            if progress is not None and hits:
                # Fully warm batch: one summary heartbeat instead of silence.
                progress(JobProgress(hits, len(job_list), 0.0, hits))
            computed: Dict[int, object] = {}
        else:
            if workers > 1 and backends.keys() - {PYTHON}:
                # Load the kernels (and numpy) before forking, so workers
                # inherit them instead of each importing numpy again.
                from ..kernels import assist  # noqa: F401
            computed, failures = _execute_entries(
                entries, workers, job_timeout, retries, store, stats, progress,
                heartbeat, len(job_list), hits, backend=_backend_note(backends),
            )

    for index, outcome in computed.items():
        results[index] = outcome
    if memo is not None:
        for job, result in zip(job_list, results):
            if result is not None:
                memo[job] = result

    if scope is not None and job_list:
        _record_batch(
            scope, _batch_kind(job_list), len(job_list), workers, started, stats,
            traffic=traffic, backends=backends,
        )
    if failures:
        raise JobFailedError(failures)
    return results


def _forks_workers() -> bool:
    """True when a process pool here would start its workers by fork."""
    return multiprocessing.get_start_method() == "fork"


def run_experiments(
    names: Sequence[str],
    scale: Optional[int] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    heartbeat: float = 5.0,
) -> List[ExperimentOutcome]:
    """Run whole experiment modules, optionally in parallel.

    Results come back in the order of *names* regardless of which worker
    finished first, so the rendered output of a parallel run is
    identical to the serial one.  *progress* behaves as in
    :func:`run_jobs`: a heartbeat per completion change and at least
    every *heartbeat* seconds of pool time.  Experiment modules are not
    store-cacheable, but retries, timeouts, and broken-pool recovery
    apply exactly as in :func:`run_jobs`.

    The call does each piece of work once per process.  It holds a
    :func:`result_memo` open, so each distinct engine job runs once per
    call inline (once per module in a pool worker), and it pins the
    six-trace suite for its whole length, so no module's other traces
    evict it.  Before a fork pool the parent builds the suite, for the
    workers to inherit; workers under any other start method build what
    they need.  With a telemetry scope active, pool workers send their
    counter sections back and the scope merges them.
    """
    scope = _telemetry_scope()
    workers = min(resolve_jobs(jobs), len(names)) if names else 1
    metrics = scope is not None and workers > 1
    job_list = [ExperimentJob(name, scale, seed, metrics) for name in names]
    job_timeout, retries = _env_job_timeout(), _env_retries()
    entries = [_Pending(index, job, None) for index, job in enumerate(job_list)]
    started = time.perf_counter() if scope is not None else 0.0
    stats = dict.fromkeys(_RESILIENCE_COUNTERS, 0)
    suite_keys = tuple(NamedWorkloadSpec(name, scale, seed) for name in BENCHMARK_NAMES)
    with pinned_workloads(suite_keys), result_memo():
        if workers > 1 and _forks_workers():
            suite(scale, seed)
        computed, failures = _execute_entries(
            entries, workers, job_timeout, retries, None, stats, progress, heartbeat,
            len(job_list), 0,
        )
    if scope is not None and job_list:
        if metrics:
            for outcome in computed.values():
                for section, counts in outcome.sections.items():
                    scope.add(section, counts)
        _record_batch(scope, "ExperimentJob", len(job_list), workers, started, stats)
    if failures:
        raise JobFailedError(failures)
    return [computed[index] for index in range(len(job_list))]
