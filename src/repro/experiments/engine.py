"""Parallel experiment engine: picklable simulation jobs over a process pool.

Trace-driven cache studies are embarrassingly parallel: every
``(trace, cache geometry, helper structure)`` point is an independent
simulation, and the repo runs hundreds of them per full reproduction.
This module turns each point into a small picklable *job* — workload
name, scale, seed, side, geometry, and a declarative structure spec —
and fans jobs out over a :class:`~concurrent.futures.ProcessPoolExecutor`:

* **One build per trace, where it is simulated** — a pool task holds
  every pending job of one trace, and its worker builds the trace,
  fingerprints it to key the jobs' store lookups, and simulates them.
  The parent keys only traces whose fingerprint it already knows, so a
  warm batch builds nothing.  A batch pins its traces in the process
  memo (:func:`repro.experiments.workloads.pinned_workloads`) for its
  whole length, so no job rebuilds a trace another job already built.
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
from dataclasses import dataclass
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
from ..telemetry.core import (
    JobBatchStats,
    JobProgress,
    MetricsScope,
    ProgressCallback,
    record_fallback,
    scoped,
)
from ..telemetry.core import current as _telemetry_scope
from . import faults
from .base import FigureResult, TableResult
from .runner import run_level
from .sweeps import (
    miss_cache_sweep,
    stream_buffer_run_sweep,
    victim_cache_sweep,
)
from .workloads import (
    BENCHMARK_NAMES,
    known_fingerprint,
    pinned_workloads,
    remember_fingerprint,
    suite,
)

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

    @classmethod
    def of(cls, stats, conflict_misses: Optional[int] = None) -> "LevelSummary":
        """The summary of a run's :class:`~repro.hierarchy.level.LevelStats`."""
        return cls(
            accesses=stats.accesses,
            demand_misses=stats.demand_misses,
            removed_misses=stats.removed_misses,
            misses_to_next_level=stats.misses_to_next_level,
            stream_stall_cycles=stats.stream_stall_cycles,
            conflict_misses=conflict_misses,
        )

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

    ``workloads`` drives a workload-aware module (one whose ``run``
    takes ``workloads``) with these specs instead of its defaults.
    """

    name: str
    scale: Optional[int] = None
    seed: int = 0
    workloads: Optional[Tuple[WorkloadSpec, ...]] = None


@dataclass(frozen=True)
class ExperimentOutcome:
    """Result of an :class:`ExperimentJob`, with worker-side timing.

    ``metrics`` is the telemetry scope the module ran under, inline or
    in a pool worker: its simulations, job batches and fallbacks.
    """

    name: str
    result: Union[TableResult, FigureResult]
    elapsed: float
    metrics: MetricsScope


Job = Union[LevelJob, EntrySweepJob, RunSweepJob, SystemJob, ExperimentJob]


# -- execution ----------------------------------------------------------------


def execute_job(job: Job):
    """Run one job in the current process and return its picklable result.

    The route is :func:`_job_backend`'s label, the one heartbeats and
    run records report.  On ``python`` every job runs the interpreter
    (:func:`run_level`, the tracked-structure sweeps, or
    :class:`MemorySystem`).  Otherwise a ``LevelJob`` runs the
    vectorized direct-mapped body when structure-free and the assist
    body (vector or miss-replay mode per
    :func:`repro.kernels.kernel_mode`) otherwise, sweep jobs run their
    vector-mode bodies, and a structure-free ``SystemJob`` runs the
    bare-system kernel.  All routes return identical results, so
    dispatch is invisible to callers and to the result store.
    """
    backend = _job_backend(job)
    if isinstance(job, LevelJob):
        system = job.system
        if backend == PYTHON:
            addresses = system.trace.trace().stream(system.side)
            run = run_level(
                addresses,
                system.cache_config,
                system.build_structure(),
                classify=system.classify,
                warmup=system.warmup,
            )
            return LevelSummary.of(run.stats, run.conflicts if system.classify else None)
        if system.structure is None:
            from ..kernels.numpy_backend import simulate_level_summary

            return simulate_level_summary(system)
        from ..kernels.assist import simulate_assist_summary

        return simulate_assist_summary(system)
    if isinstance(job, EntrySweepJob):
        system = job.system
        if backend == PYTHON:
            addresses = system.trace.trace().stream(system.side)
            sweep_fn = {"miss": miss_cache_sweep, "victim": victim_cache_sweep}[job.kind]
            return sweep_fn(addresses, system.cache_config, job.max_entries)
        from ..kernels.assist import entry_sweep_summary

        return entry_sweep_summary(system, job.kind, job.max_entries)
    if isinstance(job, RunSweepJob):
        system = job.system
        if backend == PYTHON:
            addresses = system.trace.trace().stream(system.side)
            return stream_buffer_run_sweep(
                addresses,
                system.cache_config,
                ways=job.ways,
                entries=job.entries,
                max_run=job.max_run,
            )
        from ..kernels.assist import run_length_sweep_summary

        return run_length_sweep_summary(system, job.ways, job.entries, job.max_run)
    if isinstance(job, SystemJob):
        trace = job.system.trace.trace()
        if backend == PYTHON:
            memory = MemorySystem(job.system.config, build(job.istructure), build(job.dstructure))
            if job.prewarm_l2:
                memory.prewarm_l2(trace)
            return memory.run(trace)
        from ..kernels.numpy_backend import simulate_system

        return simulate_system(trace, job.system.config, prewarm_l2=job.prewarm_l2)
    if isinstance(job, ExperimentJob):
        # Local import: the experiment registry lives in the package
        # __init__, which itself imports this module.
        from . import ALL_EXPERIMENTS

        run = ALL_EXPERIMENTS[job.name]
        kwargs = {} if job.workloads is None else {"workloads": list(job.workloads)}
        started = time.perf_counter()
        with result_memo(), scoped() as scope:
            result = run(traces=None, scale=job.scale, seed=job.seed, **kwargs)
        return ExperimentOutcome(job.name, result, time.perf_counter() - started, scope)
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


def _job_trace(job: Job) -> Optional[WorkloadSpec]:
    """The workload spec a job replays, or None (an experiment job)."""
    system = getattr(job, "system", None)
    trace = system.trace if isinstance(system, SystemSpec) else None
    return trace if isinstance(trace, WorkloadSpec) else None


def _distinct_trace_keys(jobs: Iterable[Job]) -> Tuple[WorkloadSpec, ...]:
    return tuple(dict.fromkeys(key for key in map(_job_trace, jobs) if key is not None))


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

    The one decision of which route a job takes: :func:`execute_job`
    dispatches on it, and heartbeats, run records and the serving
    daemon read it.  The label is ``python`` or ``numpy``, and
    ``miss-replay`` for assist jobs that run the interpreter structure
    over the compressed miss stream, so heartbeats and run records show
    the split.  Sweep jobs always run vector mode on numpy; system jobs
    run numpy only structure-free.  Experiment jobs are opaque here —
    their inner batches dispatch (and count) per job themselves.
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


def _backend_note(counts: Optional[Dict[str, int]]) -> str:
    """Heartbeat label: one backend name, or a ``numpy:3 python:5`` split."""
    if not counts:
        return ""
    if len(counts) == 1:
        return next(iter(counts))
    return " ".join(f"{name}:{counts[name]}" for name in sorted(counts))


def _guarded_execute(job: Job, index: int, attempt: int):
    """Run one job with the fault harness consulted first.

    With no fault plan configured the guard is one cached environment
    check per job.
    """
    injected = faults.maybe_inject(index, attempt)
    if injected is not None:
        return injected
    return execute_job(job)


@dataclass(frozen=True)
class _MemberFailure:
    """One failed attempt of a pool task's member, as its worker saw it."""

    reason: str
    permanent: bool = False
    timed_out: bool = False


#: A group task's ``(job, index, attempt, lookup)`` per member, and what
#: it returns per member: ``(key, outcome, hit, bytes_read)``.
_Member = Tuple[Job, int, int, bool]
_MemberOutcome = Tuple[Optional[ResultKey], object, bool, int]


def _member_outcomes(
    members: Sequence[_Member], seconds: Optional[float]
) -> Iterator[_MemberOutcome]:
    """The one member loop: run a trace group's members in order.

    A member marked *lookup* is first keyed from its trace's fingerprint,
    building the trace here if this process has not, and looked up in
    the active result store, which this process resolves itself.  Each
    executed member runs under the ``SIGALRM`` ceiling of an inline job,
    so a hung member times out alone.  Yields one ``(key, outcome, hit,
    bytes_read)`` per member: *key* is the key it computed (None when it
    computed none), and *outcome* its stored or computed result, or a
    :class:`_MemberFailure` when keying or the job raised, timed out or
    returned a corrupt payload.  Siblings of a failed member still run.
    """
    store = current_store() if any(member[3] for member in members) else None
    for job, index, attempt, lookup in members:
        key, cached, nbytes = None, None, 0
        try:
            if store is not None and lookup:
                key = _store_key(job)
                cached, nbytes = store.get(key)
            outcome = cached
            if cached is None:
                outcome = _execute_with_deadline(job, index, attempt, seconds)
                if isinstance(outcome, faults.CorruptPayload):
                    outcome = _MemberFailure("corrupt result payload")
        except _JobTimeoutError:
            outcome = _MemberFailure(f"timed out after {seconds:g}s", timed_out=True)
        except Exception as exc:
            reason = f"{type(exc).__name__}: {exc}"
            outcome = _MemberFailure(reason, permanent=isinstance(exc, ReproError))
        yield key, outcome, cached is not None, nbytes


def _execute_group(members: Sequence[_Member], observe: bool, seconds: Optional[float]):
    """Pool task: ``(outcomes, scope)`` of one trace group's members.

    Module-level (hence picklable by reference) so it can be submitted
    to pool workers.  One worker runs every member, so the trace is
    built, fingerprinted and turned into kernel products once, in the
    worker, for all of them.  With *observe* the members run under one
    scope that comes back with their outcomes, so a pool worker's
    simulations reach the parent's scope; otherwise *scope* is None.
    """
    if not observe:
        return list(_member_outcomes(members, seconds)), None
    with scoped() as scope:
        return list(_member_outcomes(members, seconds)), scope


class _Pending:
    """Book-keeping for one not-yet-completed job of a batch."""

    __slots__ = ("index", "job", "key", "lookup", "attempts", "strikes", "solo")

    def __init__(
        self, index: int, job: Job, key: Optional[ResultKey], lookup: bool = False
    ) -> None:
        self.index = index        # submission index: result slot and fault-plan identity
        self.job = job
        self.key = key
        self.lookup = lookup      # still to be keyed and looked up, where it runs
        self.attempts = 0         # failed attempts so far
        self.strikes = 0          # times seen breaking the pool single-handedly
        self.solo = False         # in a trace group that overran its pool ceiling

    def member(self) -> _Member:
        return (self.job, self.index, self.attempts, self.lookup)


def _trace_groups(entries: Sequence[_Pending]) -> List[List[_Pending]]:
    """Pool tasks: *entries* grouped by trace, in order of first appearance.

    Members keep submission order.  An entry with no trace (an
    experiment job) or marked ``solo`` forms a group of its own.
    """
    groups: Dict[object, List[_Pending]] = {}
    for entry in entries:
        trace = None if entry.solo else _job_trace(entry.job)
        groups.setdefault(entry if trace is None else trace, []).append(entry)
    return list(groups.values())


def _group_ceiling(group: Sequence[_Pending], job_timeout: float) -> float:
    """Seconds a running pool task may take before its pool is forfeited.

    Each engine job of a task is cut at *job_timeout* in its worker, so
    the parent allows one ceiling per member plus one for the task's
    overhead.  An experiment job runs without a ceiling of its own (its
    batches use the worker's one ``SIGALRM`` timer), so the pool bounds
    it whole.
    """
    if isinstance(group[0].job, ExperimentJob):
        return job_timeout
    return job_timeout * (len(group) + 1)


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
    execution.  An inline experiment job runs plainly too: the ceiling
    bounds each engine job its batches run (a process has one
    ``SIGALRM`` timer, which the first of them would clear), while a
    pool bounds a whole experiment job, the only way to reclaim its
    worker.
    """
    if not seconds or isinstance(job, ExperimentJob):
        return _guarded_execute(job, index, attempt)
    if threading.current_thread() is threading.main_thread():
        with _serial_deadline(seconds):
            return _guarded_execute(job, index, attempt)
    return _watchdog_execute(job, index, attempt, seconds)


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
    groups: List[List[_Pending]],
    remaining: List[_Pending],
    job_timeout: Optional[float],
    stats: Dict[str, int],
    settle,
    reporter: _Reporter,
    sequential: bool,
) -> Tuple[str, Optional[_Pending]]:
    """Drain one pool generation; returns ``(status, culprit)``.

    Each of *groups* is one pool task; sequentially they run one at a
    time, and a retried job re-runs as a group of one.  *settle* takes
    each member's outcome when its task returns.  Status is
    ``"done"`` (every entry completed, failed out, or — sequentially —
    was processed), ``"broke"`` (a worker died and the pool is unusable;
    *culprit* is the responsible entry when it can be attributed, i.e.
    in sequential mode), or ``"abandoned"`` (a task overran
    :func:`_group_ceiling`; the pool was torn down to reclaim the stuck
    worker).  Transient job failures are retried *within* the pool;
    entries leave *remaining* only on completion or permanent failure.
    """
    queue = groups[1:] if sequential else []
    active: Dict = {}    # future -> its group
    started: Dict = {}   # future -> first observed running (monotonic)
    # With telemetry on, every task but an experiment job (which carries
    # its own scope back) reports its worker's observations.
    scope = _telemetry_scope()
    tick = reporter.heartbeat
    if job_timeout is not None:
        tick = max(0.02, min(tick, job_timeout / 5.0))

    def submit(group: List[_Pending]) -> bool:
        members = [entry.member() for entry in group]
        observe = scope is not None and not isinstance(group[0].job, ExperimentJob)
        try:
            future = pool.submit(_execute_group, members, observe, job_timeout)
        except Exception:  # pool already broken or shut down
            return False
        active[future] = group
        return True

    def settle_all(group: List[_Pending], outcomes: Sequence[_MemberOutcome]) -> None:
        # Flush every finished member before retrying the others.
        again = []
        for entry, outcome in zip(group, outcomes):
            if settle(entry, *outcome):
                again.append(entry)
            else:
                remaining.remove(entry)
        for entry in again:
            time.sleep(_backoff_delay(entry.attempts))
            if not submit([entry]):
                raise BrokenProcessPool("pool broke while re-submitting a retried job")

    try:
        for group in groups[:1] if sequential else groups:
            if not submit(group):
                # Submission failure means the pool was already dead;
                # the entries being submitted are not to blame.
                _abandon_pool(pool)
                return "broke", None
        while active:
            done, _ = wait(set(active), timeout=tick, return_when=FIRST_COMPLETED)
            now = time.monotonic()
            for future in done:
                group = active.pop(future)
                started.pop(future, None)
                exc = future.exception()
                if isinstance(exc, BrokenProcessPool):
                    _abandon_pool(pool)
                    return "broke", group[0] if sequential else None
                if exc is not None:
                    # Members report their own exceptions, so this one
                    # failed the whole task: each member re-runs alone.
                    failure = _MemberFailure(f"{type(exc).__name__}: {exc}")
                    settle_all(group, [(None, failure, False, 0)] * len(group))
                    continue
                outcomes, metrics = future.result()
                if metrics is not None:
                    scope.merge(metrics)
                settle_all(group, outcomes)
            # Start each task's clock at first observed execution and
            # enforce its ceiling.  An overrun forfeits the whole pool:
            # there is no way to cancel a running task, so the stuck
            # worker is terminated and survivors re-run.  A lone job is
            # charged the timeout; a group's members cannot be told
            # apart, so they re-run as groups of one instead.
            for future, group in list(active.items()):
                if not future.running():
                    continue
                if future not in started:
                    started[future] = now
                elif job_timeout is not None and (
                    now - started[future] > _group_ceiling(group, job_timeout)
                ):
                    stats["timeouts"] += 1
                    if len(group) > 1:
                        for entry in group:
                            entry.solo = True
                    else:
                        overran = _MemberFailure(f"timed out after {job_timeout:g}s")
                        if not settle(group[0], None, overran, False, 0):
                            remaining.remove(group[0])
                    _abandon_pool(pool)
                    return "abandoned", None
            if sequential and not active and queue:
                group = queue.pop(0)
                if group[0] in remaining and not submit(group):
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
    traffic: Optional[Dict[str, int]] = None,
    backends: Optional[Dict[str, int]] = None,
) -> Tuple[Dict[int, object], List[JobFailure]]:
    """Execute pending entries with retries, timeouts, and pool recovery.

    ``workers > 1`` runs them on a process pool (rebuilt when it breaks),
    one task per trace group, and whatever the pool could not finish
    runs inline.  Returns ``(results_by_index, permanent_failures)``.
    Every completed result is flushed to *store* (when active and the
    entry is cacheable) as soon as the parent holds it — inline as it
    completes, pooled when its task returns — so a crash, hang, or
    interrupt later in the batch never loses finished work.  A lookup
    made where an entry ran counts into *traffic*, and a store hit found
    there leaves *backends*, the counts of jobs to simulate.
    """
    results: Dict[int, object] = {}
    failures: List[JobFailure] = []
    reporter = _Reporter(progress, heartbeat, total, store_hits, stats, _backend_note(backends))

    def settle(entry: _Pending, key, outcome, hit: bool, nbytes: int) -> bool:
        """Take one member's outcome; True when *entry* must run again."""
        if key is not None:
            entry.key, entry.lookup = key, False
            remember_fingerprint(_job_trace(entry.job), key.trace_fingerprint)
            traffic["hits" if hit else "misses"] += 1
            traffic["bytes_read"] += nbytes
        if isinstance(outcome, _MemberFailure):
            # A permanent failure (a ReproError: a deterministic input
            # error another attempt would only repeat) fails at once.
            stats["timeouts"] += outcome.timed_out
            entry.attempts += 1
            if outcome.permanent or entry.attempts > retries:
                failures.append(JobFailure(entry.index, outcome.reason))
                return False
            stats["retries"] += 1
            return True
        results[entry.index] = outcome
        if hit:
            reporter.store_hits += 1
            backends[_job_backend(entry.job)] -= 1
        elif store is not None and entry.key is not None:
            store.put(entry.key, outcome)
        reporter.completed += 1
        reporter.report()
        return False

    remaining = list(entries)
    if workers > 1:
        pool_breaks = 0
        careful = False
        while remaining and pool_breaks <= MAX_POOL_REBUILDS:
            # One task per trace, so one worker builds each trace's kernel
            # products; careful probing runs one job at a time.
            groups = [[entry] for entry in remaining] if careful else _trace_groups(remaining)
            pool = ProcessPoolExecutor(max_workers=1 if careful else min(workers, len(groups)))
            status, culprit = "done", None
            try:
                status, culprit = _drain_pool(
                    pool, groups, remaining, job_timeout, stats, settle, reporter,
                    sequential=careful,
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
                        reason = (f"excluded as poison: worker process died "
                                  f"{culprit.strikes} times running this job")
                        failures.append(JobFailure(culprit.index, reason))
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
    # Inline, each entry is a task of one, run in submission order and
    # settled at once.  A KeyboardInterrupt propagates immediately: what
    # completed was already flushed, so an interrupted run resumes.
    for entry in remaining:
        while True:
            (outcome,) = _member_outcomes([entry.member()], job_timeout)
            if not settle(entry, *outcome):
                break
            time.sleep(_backoff_delay(entry.attempts))
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
    more workers the pending jobs fan out over a process pool, one task
    per trace: a worker runs every pending job of one trace in
    submission order, so it builds that trace, and its kernel products,
    once for the whole pool.  The pool has ``min(jobs, traces)``
    workers, so a batch whose pending jobs share one trace runs inline.
    Inline, each job runs through the same task body, as a task of its
    own.  *progress*
    receives a :class:`~repro.telemetry.core.JobProgress` heartbeat on
    every completion change and at least every *heartbeat* seconds.  When a
    telemetry scope is active, the batch's job count, worker count, wall
    time, and resilience counters are recorded, and each pool worker
    runs each task under a scope of its own that the active scope merges,
    so a pool batch observes what the same batch inline would.

    When a result store is active (``REPRO_RESULT_STORE`` or
    ``--result-store``), each cacheable job is looked up before it runs
    and its result flushed back **as it completes** — not at batch end;
    a pooled job when its trace's task returns — so an interrupted or
    crashed batch loses at most the tasks in flight, and a rerun (or
    ``--resume``) continues where it stopped.  A store key needs the
    trace's fingerprint.  A job whose fingerprint this process already
    knows (:func:`~repro.experiments.workloads.known_fingerprint`) is
    keyed and looked up here, before dispatch, so a warm batch builds
    nothing and starts no pool.  Any other job is keyed and looked up
    by the task that runs it, which builds the trace where it is then
    simulated; the parent records each fingerprint a task computed, and
    counts the task's store hits, misses and bytes read as its own.
    Inside a :func:`result_memo` block the in-memory result map is
    consulted before the store.

    ``REPRO_JOB_TIMEOUT``/``REPRO_RETRIES``, read once per batch, govern
    per-job timeouts and bounded retry with exponential backoff; a job
    that raises a :class:`~repro.common.errors.ReproError` fails on its
    first attempt.  Resilience stays per job in a pool too: a job that
    fails, returns a corrupt payload or hangs is cut in its worker and
    retried alone while the rest of its trace's task completes; a task
    that never returns forfeits its pool.  A broken pool is rebuilt and
    a job that keeps breaking it is excluded as poison.  Jobs that still
    fail raise :class:`JobFailedError` *after* the rest of the batch has
    completed and been flushed.
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
        # Consult the result map, then the store for every job whose
        # trace fingerprint is known: answers fill their result slots
        # directly, the rest become pending entries, which the tasks
        # running them key and look up when the fingerprint is unknown.
        results: List = [None] * len(job_list)
        entries: List[_Pending] = []
        traffic = {"hits": 0, "misses": 0, "bytes_read": 0}
        for index, job in enumerate(job_list):
            if memo is not None:
                known = memo.get(job)
                if known is not None:
                    results[index] = known
                    continue
            trace = _job_trace(job) if store is not None else None
            fingerprint = None if trace is None else known_fingerprint(trace)
            key = None if fingerprint is None else _store_key(job, fingerprint)
            if key is not None:
                cached, nbytes = store.get(key)
                if cached is not None:
                    results[index] = cached
                    traffic["hits"] += 1
                    traffic["bytes_read"] += nbytes
                    continue
                traffic["misses"] += 1
            entries.append(_Pending(index, job, key, lookup=trace is not None and key is None))
        # Everything answered so far without simulating, map answers included.
        hits = len(job_list) - len(entries)

        # One pool task per trace: a batch whose pending jobs share one
        # trace runs inline.
        workers = min(resolve_jobs(jobs), len(_trace_groups(entries))) if entries else 1
        stats = dict.fromkeys(_RESILIENCE_COUNTERS, 0)
        failures: List[JobFailure] = []
        # Backend selection is decided up front from the pending specs (store
        # hits never re-simulate, so they are not counted; one a task finds
        # leaves the counts), surfaced in every heartbeat and folded into
        # the run record.
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
                heartbeat, len(job_list), hits, traffic, backends,
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
            traffic=traffic, backends={name: n for name, n in backends.items() if n},
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
    workloads: Optional[Sequence[WorkloadSpec]] = None,
) -> List[ExperimentOutcome]:
    """Run whole experiment modules, optionally in parallel.

    Results come back in the order of *names* regardless of which worker
    finished first, so the rendered output of a parallel run is
    identical to the serial one.  *progress* behaves as in
    :func:`run_jobs`: a heartbeat per completion change and at least
    every *heartbeat* seconds of pool time.  Experiment modules are not
    store-cacheable, but retries, timeouts, and broken-pool recovery
    apply exactly as in :func:`run_jobs`.  *workloads* drives
    workload-aware modules with those specs instead of the suite.

    The call does each piece of work once per process.  It holds a
    :func:`result_memo` open, so each distinct engine job runs once per
    call inline (once per module in a pool worker), and it pins the
    six-trace suite for its whole length, so no module's other traces
    evict it.  The parent builds the suite first, outside every module's
    time, unless the modules run *workloads* instead or the call spawns
    a pool whose workers do not fork (they build what they need).

    Each module runs under a telemetry scope of its own, inline or in a
    worker, and its outcome carries that scope as ``metrics``.  Every
    outcome's scope ends with the stats of the experiment batch that ran
    it; with a scope active, the call merges every outcome's scope into
    it and records the batch there once.
    """
    scope = _telemetry_scope()
    workers = min(resolve_jobs(jobs), len(names)) if names else 1
    specs = None if workloads is None else tuple(workloads)
    job_list = [ExperimentJob(name, scale, seed, specs) for name in names]
    job_timeout, retries = _env_job_timeout(), _env_retries()
    entries = [_Pending(index, job, None) for index, job in enumerate(job_list)]
    started = time.perf_counter()
    stats = dict.fromkeys(_RESILIENCE_COUNTERS, 0)
    suite_keys = tuple(NamedWorkloadSpec(name, scale, seed) for name in BENCHMARK_NAMES)
    with pinned_workloads(suite_keys), result_memo():
        if specs is None and (workers == 1 or _forks_workers()):
            suite(scale, seed)
        computed, failures = _execute_entries(
            entries, workers, job_timeout, retries, None, stats, progress, heartbeat,
            len(job_list), 0,
        )
    batch = JobBatchStats("ExperimentJob", len(job_list), workers, time.perf_counter() - started)
    for index in sorted(computed):
        metrics = computed[index].metrics
        if scope is not None:
            scope.merge(metrics)
        metrics.job_batches.append(batch)
    if scope is not None and job_list:
        scope.job_batches.append(batch)
        if any(stats.values()):
            scope.add("resilience", stats)
    if failures:
        raise JobFailedError(failures)
    return [computed[index] for index in range(len(job_list))]
