"""Shared, cached trace materialization for the experiment modules.

Building and materializing traces takes seconds, so all experiments
share one process-level memoization keyed by *resolved workload spec*:
running "all experiments" (or a grid of engine jobs) builds each trace
exactly once per process, no matter how many experiments or jobs replay
it.  The engine's worker processes use the same cache: a pool worker
builds each trace its tasks need on demand, at most once, and reuses it
across every job it executes (a fork worker starts from a copy of the
parent's memo, so a trace the parent already built is not rebuilt).  Any
:class:`~repro.specs.workloads.WorkloadSpec` — registry benchmarks,
parameterized patterns, tenant mixes — memoizes the same way; the
historical ``(name, scale, seed)`` entry points remain as thin wrappers
over :class:`NamedWorkloadSpec`.

The registry scale can be overridden globally with the ``REPRO_SCALE``
environment variable (instructions per unit of Table 2-1 relative
length; the default keeps a full figure reproduction in the tens of
seconds).  A malformed or non-positive ``REPRO_SCALE`` raises
:class:`~repro.common.errors.ConfigurationError` — the CLI reports it
with exit code 2 like ``REPRO_JOBS``.

Sharing semantics: the cached :class:`MaterializedTrace` objects are
immutable replay buffers, shared by reference between experiments in the
same process (and, on fork-based platforms, inherited copy-on-write by
engine workers).  A different resolved spec is a different cache entry,
so changing scale, seed, or any pattern parameter always rebuilds.

The memo is a bounded LRU of :data:`DEFAULT_TRACE_CACHE_CAP` traces:
long heterogeneous sweeps (many scales or seeds per worker) evict the
least recently used trace instead of growing worker memory without
limit.  Two things keep that bound from costing rebuilds:

* **Fingerprint tier** — each resolved spec's content fingerprint is
  remembered in a far larger LRU (:data:`FINGERPRINT_CACHE_CAP` entries
  of about 100 bytes) that outlives the trace's eviction, so a result
  store key never rebuilds a trace just to hash it.  Fingerprints live
  in process memory only — never in the store or on disk — so a changed
  generator still changes every key.  :func:`known_fingerprint` reads
  the tier alone, for callers that must never build (the serve daemon's
  event loop, and the engine deciding whether to key a job before
  dispatch), and :func:`remember_fingerprint` enters one a pool worker
  computed.
* **Batch pinning** — :func:`pinned_workloads` holds a batch's traces
  in the memo for the length of the batch, beyond the cap if it must, so
  a batch with one trace more than the cap never thrashes it.  When the
  last pin is released the memo shrinks back to the cap.

One lock guards both tiers, so the serve daemon's lookup and simulation
threads share them safely; traces build outside the lock.
"""

from __future__ import annotations

import os
import threading
from collections import Counter, OrderedDict
from contextlib import contextmanager
from itertools import islice
from typing import Iterable, Iterator, List, Optional

from ..common.errors import ConfigurationError
from ..specs.workloads import NamedWorkloadSpec, WorkloadSpec
from ..traces.registry import BENCHMARK_NAMES
from ..traces.trace import MaterializedTrace

__all__ = [
    "suite",
    "materialized_workload",
    "workload_fingerprint",
    "known_fingerprint",
    "remember_fingerprint",
    "pinned_workloads",
    "materialized_trace",
    "default_scale",
    "validate_scale",
    "BENCHMARK_NAMES",
]

#: Trace-memo capacity: the six benchmarks plus extension traces at one scale.
DEFAULT_TRACE_CACHE_CAP = 8
#: Fingerprint-tier capacity: resolved spec -> 16-character content hash.
FINGERPRINT_CACHE_CAP = 4096

_LOCK = threading.Lock()
_TRACE_CACHE: "OrderedDict[WorkloadSpec, MaterializedTrace]" = OrderedDict()
_FINGERPRINTS: "OrderedDict[WorkloadSpec, str]" = OrderedDict()
#: Resolved spec -> live pins; a pinned trace is never evicted.
_PINS: "Counter[WorkloadSpec]" = Counter()

if hasattr(os, "register_at_fork"):
    # A fork while another thread holds the lock would leave the child's
    # copy held forever: take it across the fork so the child starts
    # with a free lock and a consistent memo.
    os.register_at_fork(
        before=_LOCK.acquire, after_in_parent=_LOCK.release, after_in_child=_LOCK.release
    )


def default_scale() -> Optional[int]:
    """Scale override from ``REPRO_SCALE`` (None = registry default).

    Raises :class:`ConfigurationError` for malformed or non-positive
    values instead of leaking a ``ValueError`` traceback from deep
    inside a run.
    """
    raw = os.environ.get("REPRO_SCALE", "")
    if not raw:
        return None
    try:
        scale = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_SCALE must be a positive integer, got {raw!r}"
        ) from None
    if scale < 1:
        raise ConfigurationError(f"REPRO_SCALE must be positive, got {scale}")
    return scale


def validate_scale(value: Optional[int]) -> Optional[int]:
    """Validated trace scale from ``--scale`` or ``REPRO_SCALE``.

    ``None`` falls through to :func:`default_scale` (which itself
    validates the environment); explicit non-positive values are
    rejected so the CLI can exit with code 2 like ``--jobs``.
    """
    if value is None:
        return default_scale()
    if value < 1:
        raise ConfigurationError(f"scale must be positive, got {value}")
    return value


def _trim() -> None:
    """Evict unpinned traces, least recently used first, down to the cap.

    Caller holds :data:`_LOCK`.
    """
    excess = len(_TRACE_CACHE) - DEFAULT_TRACE_CACHE_CAP
    if excess > 0:
        unpinned = (key for key in _TRACE_CACHE if key not in _PINS)
        for key in list(islice(unpinned, excess)):
            del _TRACE_CACHE[key]


def _remember(key: WorkloadSpec, trace: MaterializedTrace) -> MaterializedTrace:
    with _LOCK:
        # Another thread may have built the same trace meanwhile: keep
        # the first, so every caller shares one object.
        trace = _TRACE_CACHE.setdefault(key, trace)
        _TRACE_CACHE.move_to_end(key)
        _trim()
    return trace


def materialized_workload(spec: WorkloadSpec) -> MaterializedTrace:
    """One materialized trace, memoized per resolved workload spec.

    The memo holds at most :data:`DEFAULT_TRACE_CACHE_CAP` unpinned
    traces, evicting the least recently used one when a new trace would
    overflow it; traces pinned by :func:`pinned_workloads` stay.
    """
    key = spec.resolve()
    with _LOCK:
        trace = _TRACE_CACHE.get(key)
        if trace is not None:
            _TRACE_CACHE.move_to_end(key)
            return trace
    # Build outside the lock: a build takes seconds, and a tenant mix
    # builds its named tenants through this same memo.
    return _remember(key, key.build().materialize())


def known_fingerprint(spec: WorkloadSpec) -> Optional[str]:
    """*spec*'s fingerprint if the fingerprint tier holds it, else None.

    A memory-only read: it never builds a trace, so it is cheap enough
    for the serve daemon's event loop.
    """
    key = spec.resolve()
    with _LOCK:
        fingerprint = _FINGERPRINTS.get(key)
        if fingerprint is not None:
            _FINGERPRINTS.move_to_end(key)
    return fingerprint


def workload_fingerprint(spec: WorkloadSpec) -> str:
    """Content fingerprint of *spec*'s trace, kept after the trace is evicted.

    A miss materializes the trace through :func:`materialized_workload`;
    a hit builds nothing.  The tier is bounded by
    :data:`FINGERPRINT_CACHE_CAP` and lives in process memory only.
    """
    fingerprint = known_fingerprint(spec)
    if fingerprint is not None:
        return fingerprint
    key = spec.resolve()
    fingerprint = materialized_workload(key).fingerprint()
    remember_fingerprint(key, fingerprint)
    return fingerprint


def remember_fingerprint(spec: WorkloadSpec, fingerprint: str) -> None:
    """Enter *spec*'s *fingerprint*, computed where its trace was built, in the tier.

    The engine records what its pool workers computed, so the parent's
    later batches key the trace without building it.
    """
    key = spec.resolve()
    with _LOCK:
        _FINGERPRINTS[key] = fingerprint
        _FINGERPRINTS.move_to_end(key)
        while len(_FINGERPRINTS) > FINGERPRINT_CACHE_CAP:
            _FINGERPRINTS.popitem(last=False)


@contextmanager
def pinned_workloads(specs: Iterable[WorkloadSpec]) -> Iterator[None]:
    """Keep the traces of *specs* in the memo until the block exits.

    Pinning builds nothing: a pinned spec's trace, once built, is exempt
    from eviction even if the memo must exceed its cap.  Pins nest and
    may come from several threads; when a block exits, the memo shrinks
    back to the cap over whatever is no longer pinned.
    """
    keys = [spec.resolve() for spec in specs]
    with _LOCK:
        _PINS.update(keys)
    try:
        yield
    finally:
        with _LOCK:
            for key in keys:
                _PINS[key] -= 1
                if not _PINS[key]:
                    del _PINS[key]
            _trim()


def materialized_trace(
    name: str, scale: Optional[int] = None, seed: int = 0
) -> MaterializedTrace:
    """One materialized benchmark trace by registry name (compat wrapper)."""
    return materialized_workload(NamedWorkloadSpec(name=name, scale=scale, seed=seed))


def suite(scale: Optional[int] = None, seed: int = 0) -> List[MaterializedTrace]:
    """The six materialized benchmark traces, memoized per trace."""
    return [materialized_trace(name, scale, seed) for name in BENCHMARK_NAMES]
