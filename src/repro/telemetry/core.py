"""Lightweight run telemetry: counter sections, timers, and an active scope.

Observability for the simulator follows the same wiring-time pattern as
``MemorySystem._has_prefetch_sinks``: instrumented code checks *once per
run* (never per simulated reference) whether a :class:`MetricsScope` is
active, and does nothing at all when none is.  A scope is activated for
the duration of one logical run — one experiment, one CLI invocation —
and collects:

* **counter sections** (:meth:`MetricsScope.add`) and **timers**
  (:class:`Timer`) fed by instrumented call sites;
* **simulation observations** — every :meth:`MemorySystem.run
  <repro.hierarchy.system.MemorySystem.run>` and
  :func:`~repro.experiments.runner.run_level` executed while the scope
  is active reports its counters and wall time;
* **engine events** — job-batch statistics and the reasons a parallel
  batch degraded to serial execution when its process pool kept
  breaking (:func:`record_fallback`).

Fallback surfacing is independent of telemetry being enabled: the
warning (:class:`ParallelFallbackWarning`) always fires so a degraded
``--jobs`` run is visible even without ``--emit-metrics``; the scope
additionally records the reason for the run record when active.

Thread-safety: scopes are process-local and activation is not
re-entrant by design — one logical run per process at a time, matching
how the CLI and the experiment modules use it; a nested :class:`scoped`
block restores the outer scope when it exits.  Worker processes of the
parallel engine report into no parent scope — a fork-based worker holds
a copy whose observations stay in the worker, and a worker under any
other start method starts with none.  An experiment module run in a
worker therefore runs under a scope of its own, and its counter
sections travel back on the outcome for the parent to merge
(:func:`repro.experiments.engine.run_experiments`).
"""

from __future__ import annotations

import time
import warnings
from typing import Callable, Dict, List, Mapping, Optional

__all__ = [
    "Timer",
    "FallbackEvent",
    "JobBatchStats",
    "JobProgress",
    "MetricsScope",
    "ParallelFallbackWarning",
    "activate",
    "deactivate",
    "current",
    "enabled",
    "scoped",
    "record_fallback",
]


class ParallelFallbackWarning(UserWarning):
    """A parallel batch degraded to serial execution (its pool kept breaking)."""


class Timer:
    """A named accumulating wall-clock timer (context manager).

    ::

        with scope.timer("materialize"):
            ...

    Accumulates across uses, so one timer can cover a loop body.
    """

    __slots__ = ("name", "elapsed", "calls", "_started")

    def __init__(self, name: str) -> None:
        self.name = name
        self.elapsed = 0.0
        self.calls = 0
        self._started: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._started is not None
        self.elapsed += time.perf_counter() - self._started
        self.calls += 1
        self._started = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timer({self.name}={self.elapsed:.6f}s/{self.calls})"


class FallbackEvent:
    """One degradation the run survived (pool fallback, watchdog deadline)."""

    __slots__ = ("component", "reason")

    def __init__(self, component: str, reason: str) -> None:
        self.component = component
        self.reason = reason

    def as_dict(self) -> Dict[str, str]:
        return {"component": self.component, "reason": self.reason}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FallbackEvent({self.component}: {self.reason})"


class JobBatchStats:
    """Statistics of one parallel-engine batch (``run_jobs`` call)."""

    __slots__ = ("kind", "n_jobs", "workers", "elapsed")

    def __init__(self, kind: str, n_jobs: int, workers: int, elapsed: float) -> None:
        self.kind = kind
        self.n_jobs = n_jobs
        self.workers = workers
        self.elapsed = elapsed

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "n_jobs": self.n_jobs,
            "workers": self.workers,
            "elapsed_s": round(self.elapsed, 6),
        }


class JobProgress:
    """One heartbeat of a running parallel batch (for progress callbacks).

    ``store_hits`` counts jobs of the batch answered instead of
    simulated — from the result store, or from the engine's in-memory
    result map (:func:`repro.experiments.engine.result_memo`); they are
    included in ``done``.
    ``retries`` and ``recoveries`` (re-run job attempts and worker-pool
    rebuilds so far) stay zero on a healthy batch.
    ``backend`` names the simulation kernel backend(s) executing the
    batch ("numpy", "python", or a mixed "numpy:3 python:5" split);
    empty when the batch runs no backend-dispatched simulations.
    """

    __slots__ = (
        "done", "total", "elapsed", "store_hits", "retries", "recoveries", "backend",
    )

    def __init__(
        self,
        done: int,
        total: int,
        elapsed: float,
        store_hits: int = 0,
        retries: int = 0,
        recoveries: int = 0,
        backend: str = "",
    ) -> None:
        self.done = done
        self.total = total
        self.elapsed = elapsed
        self.store_hits = store_hits
        self.retries = retries
        self.recoveries = recoveries
        self.backend = backend

    def __str__(self) -> str:
        base = f"{self.done}/{self.total} jobs done after {self.elapsed:.1f}s"
        if self.store_hits:
            base += f" ({self.store_hits} from store)"
        if self.backend:
            base += f" [{self.backend}]"
        if self.retries:
            base += f" [{self.retries} retried]"
        if self.recoveries:
            base += f" [{self.recoveries} pool rebuilds]"
        return base


ProgressCallback = Callable[[JobProgress], None]


class MetricsScope:
    """Collector for one logical run.

    Everything is plain mutable state; the scope is read once at the end
    of the run (``repro.telemetry.record.build_run_record``) and then
    discarded.
    """

    def __init__(self) -> None:
        self.timers: Dict[str, Timer] = {}
        self.fallbacks: List[FallbackEvent] = []
        self.job_batches: List[JobBatchStats] = []
        # Aggregated simulation observations.
        self.sim_wall_time = 0.0
        self.system_runs = 0
        self.level_runs = 0
        self.references = 0
        # Counter sections, keyed by the run-record section each becomes
        # (``l1i``/``l1d``/``l2``/``level`` from simulations; ``store``,
        # ``resilience``, ``backends`` and ``serving`` from the engine and
        # the repro-serve daemon): section -> counter name -> count.
        self.sections: Dict[str, Dict[str, int]] = {}

    # -- timers ---------------------------------------------------------------

    def timer(self, name: str) -> Timer:
        timer = self.timers.get(name)
        if timer is None:
            timer = self.timers[name] = Timer(name)
        return timer

    # -- counter sections -----------------------------------------------------

    def add(self, section: str, counts: Mapping[str, int]) -> None:
        """Merge *counts* into the counter section named *section*.

        Always merges, zero counts included, so a producer that reports
        a fixed key set (the serving daemon) keeps every key.  Whether a
        section appears at all is the producer's call: one that has
        nothing to report simply does not add it.
        """
        into = self.sections.setdefault(section, {})
        for name, count in counts.items():
            into[name] = into.get(name, 0) + count

    # -- engine events --------------------------------------------------------

    def record_fallback(self, component: str, reason: str) -> None:
        self.fallbacks.append(FallbackEvent(component, reason))

    def record_job_batch(self, kind: str, n_jobs: int, workers: int, elapsed: float) -> None:
        self.job_batches.append(JobBatchStats(kind, n_jobs, workers, elapsed))

    # -- simulation observations ----------------------------------------------

    def observe_system_run(self, result, elapsed: float) -> None:
        """Aggregate one :class:`~repro.hierarchy.system.SystemResult`."""
        self.system_runs += 1
        self.sim_wall_time += elapsed
        self.references += result.total_references
        self.add("l1i", result.istats.as_dict())
        self.add("l1d", result.dstats.as_dict())
        self.add("l2", result.l2stats.as_dict())

    def observe_level_run(self, stats, elapsed: float) -> None:
        """Aggregate one single-level replay's :class:`LevelStats`."""
        self.level_runs += 1
        self.sim_wall_time += elapsed
        self.references += stats.accesses
        self.add("level", stats.as_dict())

    @property
    def references_per_sec(self) -> float:
        if self.sim_wall_time <= 0.0:
            return 0.0
        return self.references / self.sim_wall_time


# -- the active scope ---------------------------------------------------------

_SCOPE: Optional[MetricsScope] = None


def current() -> Optional[MetricsScope]:
    """The active scope, or None when telemetry is disabled (the default)."""
    return _SCOPE


def enabled() -> bool:
    return _SCOPE is not None


def activate(scope: Optional[MetricsScope] = None) -> MetricsScope:
    """Make *scope* (or a fresh one) the active collector."""
    global _SCOPE
    scope = scope if scope is not None else MetricsScope()
    _SCOPE = scope
    return scope


def deactivate() -> None:
    global _SCOPE
    _SCOPE = None


class scoped:
    """Context manager: activate a fresh scope for one logical run.

    ::

        with telemetry.scoped() as scope:
            run_experiment(...)
        record = build_run_record(scope, ...)

    Leaving the block restores whatever scope was active before it.
    """

    def __init__(self) -> None:
        self.scope = MetricsScope()
        self._previous: Optional[MetricsScope] = None

    def __enter__(self) -> MetricsScope:
        self._previous = _SCOPE
        activate(self.scope)
        return self.scope

    def __exit__(self, *exc_info) -> None:
        global _SCOPE
        _SCOPE = self._previous


def record_fallback(component: str, reason: str, stacklevel: int = 3) -> None:
    """Surface one serial fallback: warn always, record when a scope is active.

    Called by the parallel engine when a batch that asked for
    ``jobs > 1`` finishes serially because its process pool broke too
    often; without the warning the degradation would go unnoticed.
    """
    warnings.warn(
        f"{component}: requested parallel execution fell back to serial ({reason})",
        ParallelFallbackWarning,
        stacklevel=stacklevel,
    )
    scope = _SCOPE
    if scope is not None:
        scope.record_fallback(component, reason)
