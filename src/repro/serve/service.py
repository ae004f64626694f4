"""The cache-advisor core: warm hits, coalesced cold misses, backpressure.

This is the paper's question — *"what does a small fully-associative
buffer buy this workload?"* — turned into an online service.  One
:class:`AdvisorService` sits over the three layers earlier PRs built:

* the **spec layer** keys each query: a request parses into a frozen
  :class:`~repro.specs.SystemSpec`, whose ``spec_hash`` plus the trace's
  content fingerprint is the request identity;
* the **result store** is the memo: a warm key is answered with zero
  simulation, and once hot, from the store's in-memory front tier on
  the event loop itself;
* the **engine** is the backend: a cold key becomes one
  :class:`~repro.experiments.engine.LevelJob` executed (with the
  engine's resilience layer — retries and timeouts from
  ``REPRO_RETRIES``/``REPRO_JOB_TIMEOUT``, recorded degradations) on a
  bounded thread pool, which :meth:`AdvisorService.close` drains.

Three serving behaviours make it production-shaped rather than a CLI
with a socket:

* **Request coalescing** — N concurrent queries for the same cold key
  share *one* engine job; the result fans out to every waiter and is
  flushed to the store once.
* **Admission control** — at most ``max_inflight`` distinct cold keys
  simulate at once; one more cold query is rejected with a retry hint
  (HTTP 429 + ``Retry-After`` at the daemon layer) instead of queueing
  unboundedly.  Warm hits and coalesced joins are always admitted — they
  cost no simulation.
* **Progress streaming** — subscribers get heartbeat events while their
  simulation runs, fed by the engine's
  :class:`~repro.telemetry.core.JobProgress` callbacks plus a
  daemon-side ticker (a single inline job blocks its executor thread, so
  the engine alone cannot heartbeat mid-job).

Plain and streamed queries run one sequence — store lookup, then
attach-or-dispatch, then a deadline-bounded wait, then the payload —
and streaming only adds the subscriber queue and heartbeats.  The
lookup exits early on the event loop when memory alone answers it: the
trace's fingerprint is already known and the key is in the store's
front tier.  Anything else (a first-sight trace, a disk read) goes to
the lookup pool.  Rejected
bodies are remembered in a small in-memory LRU (the negative cache),
consulted before parsing; it never touches the store, which holds
simulation results only.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
import warnings
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import AsyncIterator, Dict, Iterator, List, Optional, Tuple

from ..common.config import baseline_system
from ..common.errors import ConfigurationError, UnknownWorkloadError
from ..specs import (
    SpecError,
    NamedWorkloadSpec,
    SystemSpec,
    parse_structure_code,
    workload_from_dict,
)
from ..specs.structures import structure_from_dict
from ..store import ResultKey, ResultStore, current_store
from ..store.codec import encode_result
from ..traces.registry import get_workload
from ..experiments.engine import LevelJob, _store_key, run_jobs
from ..experiments.faults import InjectedFault, ServeFaults
from ..experiments.workloads import known_fingerprint
from ..kernels import NUMPY, select_backend
from .breaker import CircuitBreaker

__all__ = [
    "AdviseError",
    "BadRequestError",
    "RetryLaterError",
    "OverloadedError",
    "UpstreamError",
    "DeadlineExceededError",
    "BreakerOpenError",
    "StoreDegradedWarning",
    "AdviseQuery",
    "SERVING_COUNTERS",
    "AdvisorService",
]


#: Rejected bodies the negative cache remembers (least recently used go first).
NEGATIVE_CACHE_ENTRIES = 1024
#: Longer 400 messages (they can echo a large body) are not remembered.
NEGATIVE_CACHE_MAX_MESSAGE = 4096


class AdviseError(Exception):
    """Base class for request-path failures with an HTTP shape."""

    status = 500


class BadRequestError(AdviseError):
    """The query could not be parsed into a valid simulation point."""

    status = 400


class RetryLaterError(AdviseError):
    """A refusal the client should retry after ``retry_after`` seconds."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class OverloadedError(RetryLaterError):
    """Admission control rejected a new cold simulation."""

    status = 429


class UpstreamError(AdviseError):
    """The engine could not produce a result (after its own resilience)."""

    status = 503


class DeadlineExceededError(AdviseError):
    """The request's deadline budget ran out before a result landed.

    Abandoning is waiter-local: the shared cold job keeps running for the
    other coalesced waiters (and to warm the store), only this request's
    connection is answered 504.
    """

    status = 504


class BreakerOpenError(RetryLaterError):
    """The cold-dispatch circuit breaker is open: failing fast."""

    status = 503


class StoreDegradedWarning(UserWarning):
    """The service dropped to store=degraded after a store failure."""


@dataclass(frozen=True)
class AdviseQuery:
    """One parsed advisor query: the spec plus transport options."""

    spec: SystemSpec
    stream: bool = False
    #: Client-requested deadline budget (``"deadline_ms"``), seconds.
    deadline_s: Optional[float] = None


#: Names of the monotonic request-path counters (``AdvisorService.counters``
#: keys), exposed at ``/v1/stats`` and folded into the shutdown run record.
#: ``cold_misses`` counts *simulations dispatched* — the number the
#: acceptance benchmark pins: a warm sweep leaves it untouched and N
#: coalesced duplicates bump it exactly once.  The last six are
#: resilience-layer outcomes: requests answered 504 by a deadline
#: budget, cold dispatches refused by the open breaker, breaker open
#: transitions, store failures absorbed, requests served while the
#: store was degraded, and requests refused during graceful drain.
SERVING_COUNTERS = (
    "requests", "warm_hits", "cold_misses", "coalesced",
    "rejected", "failed", "streams", "negative_hits",
    "deadline_expired", "breaker_fastfail", "breaker_opens",
    "store_errors", "degraded_serves", "drain_rejects",
)


@dataclass
class _Inflight:
    """One cold key being simulated, shared by every coalesced waiter."""

    future: asyncio.Future
    started: float
    waiters: int = 1
    #: Streaming subscribers; each receives JobProgress-shaped dicts and
    #: a ``None`` sentinel when the job settles.
    subscribers: List[asyncio.Queue] = field(default_factory=list)
    #: Set from the sim thread when the dispatch re-probe found the key
    #: already flushed (a request raced a just-finished simulation).
    from_store: bool = False


class _GuardedStore:
    """The service's fault-aware, self-degrading view of its ResultStore.

    :class:`~repro.store.core.ResultStore` already survives most damage
    on its own, but the daemon must survive *any* store exception — an
    injected ``store_read_fail``/``store_write_fail`` fault, a dying
    disk, a store mount that vanished — without 500ing.  The guard wraps
    every read and write the service performs:

    * a failure degrades the store (``state == "degraded"``): reads
      answer as misses (serve-from-engine), writes become no-ops
      (skip memoization), and one :class:`StoreDegradedWarning` marks
      the transition;
    * while degraded the store is skipped entirely until
      ``probe_interval`` seconds pass, then one operation probes it —
      success recovers to ``"ok"``, failure restarts the clock.

    Mutations happen on the event loop and on lookup-pool and sim
    threads; the races between them are benign (worst case: one extra
    probe or a double-counted failure), so no lock is taken on the
    request path.
    """

    def __init__(
        self,
        store: ResultStore,
        faults: ServeFaults,
        counters: Dict[str, int],
        probe_interval: float = 5.0,
    ) -> None:
        self._store = store
        self._faults = faults
        self._counters = counters
        self.probe_interval = probe_interval
        self.state = "ok"
        self._failed_at = 0.0

    def get(self, key: ResultKey) -> Tuple[Optional[object], int]:
        if not self._attempt_allowed():
            return None, 0
        try:
            clause = self._faults.fire("store_read_fail")
            if clause is not None:
                raise InjectedFault(f"injected store read failure ({clause.action})")
            result = self._store.get(key)
        except Exception as exc:
            self._note_failure("read", exc)
            return None, 0
        self._note_success()
        return result

    def peek(self, key: ResultKey) -> Optional[object]:
        """The front tier's answer, or None.  Only a healthy store is
        peeked (a degraded one is left to :meth:`get`'s probe), and a
        front-tier hit is a read: ``store_read_fail`` fires on it."""
        if self.state != "ok":
            return None
        try:
            cached, _nbytes = self._store.peek(key)
            if cached is not None:
                clause = self._faults.fire("store_read_fail")
                if clause is not None:
                    raise InjectedFault(f"injected store read failure ({clause.action})")
        except Exception as exc:
            self._note_failure("read", exc)
            return None
        return cached

    def put(self, key: ResultKey, result: object) -> None:
        if not self._attempt_allowed():
            return
        try:
            clause = self._faults.fire("store_write_fail")
            if clause is not None:
                raise InjectedFault(f"injected store write failure ({clause.action})")
            self._store.put(key, result)
        except Exception as exc:
            self._note_failure("write", exc)
            return
        self._note_success()

    # -- state ----------------------------------------------------------------

    def _attempt_allowed(self) -> bool:
        if self.state == "ok":
            return True
        return time.monotonic() - self._failed_at >= self.probe_interval

    def _note_failure(self, op: str, exc: BaseException) -> None:
        self._counters["store_errors"] += 1
        self._failed_at = time.monotonic()
        if self.state == "ok":
            self.state = "degraded"
            warnings.warn(
                f"result store {op} failed ({exc}); serving degraded — "
                f"answers come from the engine and are not memoized until "
                f"the store recovers",
                StoreDegradedWarning,
                stacklevel=3,
            )

    def _note_success(self) -> None:
        self.state = "ok"


def parse_query(payload: object) -> AdviseQuery:
    """Parse a request body into an :class:`AdviseQuery`.

    Accepted shapes (everything but the trace is optional)::

        {"spec": {...full canonical SystemSpec dict...}}
        {"trace": "ccom"
                  | {"name": "ccom", "scale": 20000, "seed": 0}
                  | {"kind": "zipfian", ...any workload-spec JSON...},
         "structure": "vc4" | {"kind": "victim_cache", ...} | null,
         "side": "d", "warmup": 0, "classify": false,
         "cache": {"size_bytes": 16384, "line_size": 32},
         "stream": false, "deadline_ms": 2000}

    The trace accepts inline workload-spec JSON — any registered kind,
    including the parameterized patterns and ``tenant_mix`` — alongside
    the registry-name shorthand.  ``deadline_ms`` asks the daemon to
    answer (or 504) within that budget; the effective deadline is the
    tighter of this and the server's ``--request-deadline``.  Malformed
    input raises :class:`BadRequestError` with a message safe to echo to
    the client.
    """
    if not isinstance(payload, dict):
        raise BadRequestError("request body must be a JSON object")
    stream = bool(payload.get("stream", False))
    deadline_s: Optional[float] = None
    if payload.get("deadline_ms") is not None:
        raw_deadline = payload["deadline_ms"]
        if isinstance(raw_deadline, bool) or not isinstance(raw_deadline, (int, float)):
            raise BadRequestError("deadline_ms must be a number of milliseconds")
        if raw_deadline <= 0:
            raise BadRequestError(f"deadline_ms must be positive, got {raw_deadline}")
        deadline_s = float(raw_deadline) / 1000.0
    try:
        if "spec" in payload:
            spec = SystemSpec.from_dict(payload["spec"])
            if spec.trace is None:
                raise BadRequestError("spec must carry a trace reference")
        else:
            spec = _spec_from_shorthand(payload)
    except BadRequestError:
        raise
    except (ConfigurationError, SpecError, KeyError, TypeError, ValueError) as exc:
        raise BadRequestError(f"invalid query: {exc}") from None
    # Every registry reference — top level or a tenant's — is validated
    # up front so an unknown name is a 400 here, not a failed keying.
    for name in _registry_names(spec.trace):
        try:
            get_workload(name)
        except UnknownWorkloadError as exc:
            raise BadRequestError(_error_text(exc)) from None
    return AdviseQuery(spec=spec, stream=stream, deadline_s=deadline_s)


def _registry_names(workload) -> Iterator[str]:
    """Names of the registry workloads a workload spec tree references."""
    if isinstance(workload, NamedWorkloadSpec):
        yield workload.name
    for tenant in getattr(workload, "tenants", ()):
        yield from _registry_names(tenant)


def _error_text(exc: BaseException) -> str:
    """``str(exc)`` without the repr quotes a ``KeyError`` adds."""
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)


def _spec_from_shorthand(payload: Dict) -> SystemSpec:
    trace_raw = payload.get("trace")
    if isinstance(trace_raw, str):
        trace_raw = {"name": trace_raw}
    if not isinstance(trace_raw, dict) or not ("name" in trace_raw or "kind" in trace_raw):
        raise BadRequestError(
            'query needs a trace: {"trace": {"name": ..., "scale": ..., "seed": ...}} '
            'or inline workload-spec JSON ({"trace": {"kind": ...}})'
        )
    trace = workload_from_dict(trace_raw)
    structure_raw = payload.get("structure")
    if structure_raw is None or isinstance(structure_raw, str):
        structure = parse_structure_code(structure_raw)
    elif isinstance(structure_raw, dict):
        structure = structure_from_dict(structure_raw)
    else:
        raise BadRequestError("structure must be a short code, a spec object, or null")
    side = payload.get("side", "d")
    base = baseline_system()
    cache = base.icache if side == "i" else base.dcache
    cache_raw = payload.get("cache")
    if cache_raw is not None:
        if not isinstance(cache_raw, dict):
            raise BadRequestError("cache must be an object with size_bytes/line_size")
        cache = cache.__class__(
            size_bytes=int(cache_raw.get("size_bytes", cache.size_bytes)),
            line_size=int(cache_raw.get("line_size", cache.line_size)),
        )
    return SystemSpec.for_level(
        trace,
        cache,
        side=side,
        structure=structure,
        warmup=int(payload.get("warmup", 0)),
        classify=bool(payload.get("classify", False)),
    )


def _summary_payload(summary) -> Dict[str, object]:
    """Client-facing derived rates alongside the raw counters."""
    return {
        "miss_rate": round(summary.miss_rate, 6),
        "effective_miss_rate": round(summary.effective_miss_rate, 6),
        "percent_misses_removed": round(summary.percent_removed, 3),
    }


class AdvisorService:
    """Coalescing, admission-controlled advisor over engine + store.

    Must be created (and used) inside a running event loop.  *store*
    defaults to :func:`~repro.store.current_store` — the daemon CLI
    guarantees one is configured before construction.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        max_inflight: int = 4,
        heartbeat: float = 1.0,
        request_deadline: Optional[float] = None,
        breaker: Optional[CircuitBreaker] = None,
        store_probe_interval: float = 5.0,
    ) -> None:
        store = store if store is not None else current_store()
        if store is None:
            raise ConfigurationError(
                "AdvisorService needs a result store (set REPRO_RESULT_STORE "
                "or pass store=)"
            )
        if max_inflight < 1:
            raise ConfigurationError(f"max_inflight must be at least 1, got {max_inflight}")
        if request_deadline is not None and request_deadline <= 0:
            raise ConfigurationError(
                f"request_deadline must be positive, got {request_deadline:g}"
            )
        self.store = store
        self.max_inflight = max_inflight
        self.heartbeat = heartbeat
        #: Server-side ceiling on every request's deadline budget (s).
        self.request_deadline = request_deadline
        #: Cold-dispatch circuit breaker; None = disabled.
        self.breaker = breaker
        self.counters: Dict[str, int] = dict.fromkeys(SERVING_COUNTERS, 0)
        self.faults = ServeFaults()
        #: Every store access the *service* makes goes through the guard,
        #: so store failures degrade serving instead of 500ing requests.
        self.guarded_store = _GuardedStore(
            store, self.faults, self.counters, probe_interval=store_probe_interval
        )
        self._inflight: Dict[str, _Inflight] = {}
        #: Simulations: one thread per admitted cold key.
        self._sim_pool = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="repro-serve-sim"
        )
        #: Key derivation + store reads that memory cannot answer (a
        #: first-sight trace, a disk read): kept off the event loop, and
        #: off the sim pool so they never queue behind cold simulations.
        self._lookup_pool = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-serve-lookup"
        )
        #: EWMA of cold-simulation seconds, feeding Retry-After hints.
        self._cold_seconds = 0.0
        #: The negative cache: body digest → 400 message, in LRU order.
        self._rejections: "OrderedDict[bytes, str]" = OrderedDict()

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut both thread pools down once their running work finishes.

        Queued work is cancelled; a running simulation, even one whose
        request was abandoned at its deadline, finishes first, so no
        work the service started outlives it.  Blocks: call it off the
        event loop.
        """
        self._sim_pool.shutdown(wait=True, cancel_futures=True)
        self._lookup_pool.shutdown(wait=True, cancel_futures=True)

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    @property
    def retry_after(self) -> float:
        """Seconds a rejected client should wait before retrying."""
        return min(60.0, max(1.0, self._cold_seconds))

    @property
    def store_state(self) -> str:
        """``"ok"`` or ``"degraded"`` (store failures absorbed recently)."""
        return self.guarded_store.state

    def breaker_payload(self) -> Dict[str, object]:
        """Breaker state for ``/v1/stats`` and ``/readyz``."""
        if self.breaker is None:
            return {"state": "disabled"}
        return self.breaker.as_dict()

    def effective_deadline(self, query: AdviseQuery) -> Optional[float]:
        """The binding deadline: the tighter of client ask and server cap."""
        budgets = [
            budget
            for budget in (query.deadline_s, self.request_deadline)
            if budget is not None
        ]
        return min(budgets) if budgets else None

    # -- the negative cache ----------------------------------------------------
    #
    # A misconfigured client retries the *same bytes* in a tight loop, so
    # a rejected body is remembered by its SHA-256 digest and answered
    # before any parsing: one dict lookup on the event loop.  The map
    # lives in process memory only — a rejection belongs to the code that
    # produced it, so a restarted (perhaps upgraded) daemon parses again.

    def cached_bad_request(self, body: bytes) -> Optional[str]:
        """The remembered 400 message for this exact body, or None."""
        digest = hashlib.sha256(body).digest()
        message = self._rejections.get(digest)
        if message is not None:
            self._rejections.move_to_end(digest)
            self.counters["negative_hits"] += 1
        return message

    def record_bad_request(self, body: bytes, message: str) -> None:
        """Remember a rejection, dropping the least recently used past the cap."""
        if len(message) > NEGATIVE_CACHE_MAX_MESSAGE:
            return
        self._rejections[hashlib.sha256(body).digest()] = message
        if len(self._rejections) > NEGATIVE_CACHE_ENTRIES:
            self._rejections.popitem(last=False)

    # -- the request path ------------------------------------------------------

    async def advise(self, query: AdviseQuery) -> Dict[str, object]:
        """Answer one query; raises an :class:`AdviseError` subclass.

        The deadline budget (client ``deadline_ms`` capped by the
        server's ``request_deadline``) covers the whole path — store
        lookup and the wait on a cold simulation.  Expiry answers *this*
        request 504 and detaches it from the shared inflight entry;
        the underlying job is never cancelled, because other waiters may
        be coalesced onto it and its result still warms the store.
        """
        async for payload in self._answer(query, stream=False):
            pass
        return payload

    def advise_stream(self, query: AdviseQuery) -> AsyncIterator[Dict[str, object]]:
        """:meth:`advise` as events: ``accepted``, then ``heartbeat`` and
        ``progress`` while a simulation runs, then ``result``.

        A failure before ``accepted`` (malformed, rejected, or a deadline
        spent on the lookup) raises before the first event; a later one
        raises mid-stream.  The deadline budget applies as in
        :meth:`advise`.
        """
        return self._answer(query, stream=True)

    async def _answer(self, query: AdviseQuery, stream: bool):
        """The one request sequence: lookup, then attach-or-dispatch, then
        a bounded wait, then the payload (the only event unless *stream*)."""
        self.counters["requests"] += 1
        if stream:
            self.counters["streams"] += 1
        loop = asyncio.get_running_loop()
        budget = self.effective_deadline(query)
        deadline = None if budget is None else loop.time() + budget
        try:
            found = self._memory_lookup(query.spec)
            if found is None:
                lookup = loop.run_in_executor(self._lookup_pool, self._lookup, query.spec)
                found = await self._bounded(lookup, deadline, budget, "store lookup")
            job, key, summary = found
        except AdviseError:
            raise
        except Exception as exc:
            raise BadRequestError(f"query could not be keyed: {_error_text(exc)}") from None
        if self.guarded_store.state != "ok":
            self.counters["degraded_serves"] += 1
        entry = None
        if summary is not None:
            self.counters["warm_hits"] += 1
            served_from = "store"
        else:
            entry, coalesced = self._attach_or_dispatch(job, key)
            served_from = "coalesced" if coalesced else "simulated"
        if stream:
            yield {"event": "accepted", "served_from": served_from}
        if entry is not None:
            if stream:
                queue: asyncio.Queue = asyncio.Queue()
                entry.subscribers.append(queue)
                started = time.perf_counter()
                try:
                    while True:  # until _settle's None sentinel
                        wait = self.heartbeat
                        if deadline is not None:
                            wait = max(0.0, min(wait, deadline - loop.time()))
                        try:
                            item = await asyncio.wait_for(queue.get(), wait)
                        except asyncio.TimeoutError:
                            if deadline is not None and loop.time() >= deadline:
                                raise self._expired(entry, budget, "cold simulation") from None
                            yield {
                                "event": "heartbeat",
                                "elapsed_s": round(time.perf_counter() - started, 3),
                                "inflight": self.inflight,
                            }
                            continue
                        if item is None:
                            break
                        yield dict(item, event="progress")
                finally:
                    if queue in entry.subscribers:
                        entry.subscribers.remove(queue)
            try:
                summary = await self._bounded(
                    asyncio.shield(entry.future), deadline, budget, "cold simulation", entry
                )
            except UpstreamError:
                self.counters["failed"] += 1
                raise
            if served_from == "simulated" and entry.from_store:
                served_from = "store"
        payload = self._payload(key, summary, served_from)
        yield dict(payload, event="result") if stream else payload

    async def _bounded(self, awaitable, deadline, budget, phase: str,
                       entry: Optional[_Inflight] = None):
        """Await *awaitable* within the request's remaining budget.

        On expiry the abandoning is waiter-safe: the timeout cancels only
        this request's :func:`asyncio.wait_for` wrapper (the shared
        future is shielded by the caller), the waiter count is released,
        and a :class:`DeadlineExceededError` carries the 504.
        """
        if deadline is None:
            return await awaitable
        remaining = max(0.0, deadline - asyncio.get_running_loop().time())
        try:
            return await asyncio.wait_for(awaitable, remaining)
        except asyncio.TimeoutError:
            raise self._expired(entry, budget, phase) from None

    def _expired(self, entry: Optional[_Inflight], budget: float, phase: str):
        if entry is not None:
            entry.waiters -= 1
        self.counters["deadline_expired"] += 1
        return DeadlineExceededError(f"deadline of {budget:g}s exceeded during {phase}")

    # -- internals -------------------------------------------------------------

    def _memory_lookup(self, spec: SystemSpec):
        """(sync, event loop) :meth:`_lookup`'s answer for a hot key, else None.

        Keys the query only when the trace's fingerprint is already in
        memory, and probes only the store's front tier, so it never
        builds a trace or reads the disk.
        """
        fingerprint = known_fingerprint(spec.trace)
        if fingerprint is None:
            return None
        job = LevelJob(spec)
        key = _store_key(job, fingerprint)
        cached = self.guarded_store.peek(key)
        return None if cached is None else (job, key, cached)

    def _lookup(self, spec: SystemSpec):
        """(sync, lookup pool) Build the job, its key, and probe the store.

        Materializes the trace (process-memoized) the first time a
        workload is referenced — the fingerprint half of the key needs
        the content.  The store probe goes through the degraded-mode
        guard: a failing store answers "miss" and the query is served
        from the engine instead.  A miss bound for the numpy kernels
        touches the trace's int64 views here, so a trace they cannot
        hold (an address of 2**63 or more) is refused as a bad request
        instead of failing in the engine and counting against the
        circuit breaker.
        """
        job = LevelJob(spec)
        key = _store_key(job)
        assert key is not None  # LevelJob with a workload spec is always keyable
        cached, _nbytes = self.guarded_store.get(key)
        if cached is None and select_backend(spec) == NUMPY:
            spec.trace.trace().as_arrays()
        return job, key, cached

    def _attach_or_dispatch(self, job: LevelJob, key):
        """``(entry, coalesced)``: join the inflight simulation for *key*
        or admit a new one.

        Runs on the event loop, so the check-then-create on
        ``_inflight`` is race-free.  Joins are always admitted; a *new*
        dispatch must pass the circuit breaker (open breaker → 503
        fast-fail) and then admission control (full → 429).
        """
        digest = key.digest()
        entry = self._inflight.get(digest)
        if entry is not None:
            entry.waiters += 1
            self.counters["coalesced"] += 1
            return entry, True
        if self.breaker is not None and not self.breaker.allow():
            self.counters["breaker_fastfail"] += 1
            raise BreakerOpenError(
                f"circuit breaker open after repeated simulation failures "
                f"(state={self.breaker.state})",
                retry_after=self.breaker.retry_after(),
            )
        if len(self._inflight) >= self.max_inflight:
            self.counters["rejected"] += 1
            raise OverloadedError(
                f"{len(self._inflight)} simulations already in flight "
                f"(max_inflight={self.max_inflight})",
                retry_after=self.retry_after,
            )
        self.counters["cold_misses"] += 1
        loop = asyncio.get_running_loop()
        entry = _Inflight(future=loop.create_future(), started=time.perf_counter())
        self._inflight[digest] = entry

        def _progress(update) -> None:
            # Called from the sim thread: marshal onto the loop.
            if not entry.subscribers:
                return
            payload = {
                "done": update.done,
                "total": update.total,
                "elapsed_s": round(update.elapsed, 3),
                "store_hits": update.store_hits,
                "retries": update.retries,
                "backend": update.backend,
            }
            loop.call_soon_threadsafe(self._fan_out, entry, payload)

        def _simulate():
            # Re-probe the store first: this request's lookup may have
            # missed just before another request's simulation of the
            # same key flushed and settled (lookup and attach are not
            # one atomic step).  The inflight entry is already
            # published, so concurrent duplicates coalesce here instead
            # of dispatching a third time.
            cached, _nbytes = self.guarded_store.get(key)
            if cached is not None:
                entry.from_store = True
                return cached
            # Serve-scoped faults: a slow_sim clause stalls the dispatch
            # (tripping request deadlines deterministically); a
            # reject_sim clause fails it (driving the circuit breaker).
            # Both counters advance *before* any sleep, so occurrence
            # numbers equal dispatch order even while earlier slow
            # dispatches are still asleep on their sim threads.
            slow = self.faults.fire("slow_sim")
            reject = self.faults.fire("reject_sim")
            if slow is not None:
                time.sleep(slow.seconds)
            if reject is not None:
                raise InjectedFault("injected reject_sim: cold dispatch refused")
            summary = run_jobs(
                [job],
                jobs=1,
                progress=_progress,
                heartbeat=self.heartbeat,
            )[0]
            # The engine flushes to the env-resolved store; when the
            # service was handed a different one, flush there too or the
            # warm path never warms.  Degraded stores skip memoization.
            active = current_store()
            if active is None or active.root != self.store.root:
                self.guarded_store.put(key, summary)
            return summary

        task = loop.run_in_executor(self._sim_pool, _simulate)
        task.add_done_callback(lambda done: self._settle(digest, entry, done))
        return entry, False

    def _fan_out(self, entry: _Inflight, payload: Optional[Dict]) -> None:
        for queue in entry.subscribers:
            queue.put_nowait(payload)

    def _settle(self, digest: str, entry: _Inflight, done) -> None:
        """Resolve the shared future when the sim-thread task finishes.

        The inflight entry is *always* removed first — a failed cold job
        must never leave a dead entry new requests would coalesce onto —
        and failures reach every waiter as one shared typed
        :class:`UpstreamError`, so a late waiter can never observe a
        forever-pending future after an earlier waiter saw the failure.
        """
        self._inflight.pop(digest, None)
        if done.cancelled():
            entry.future.cancel()
        else:
            exc = done.exception()
            if exc is not None:
                if self.breaker is not None and self.breaker.record_failure():
                    self.counters["breaker_opens"] += 1
                if not isinstance(exc, AdviseError):
                    exc = UpstreamError(f"simulation failed: {exc}")
                entry.future.set_exception(exc)
                # Mark retrieved: waiters re-raise their own copy, and a
                # waiterless failure must not log "never retrieved".
                entry.future.exception()
            else:
                if self.breaker is not None and not entry.from_store:
                    self.breaker.record_success()
                if not entry.from_store:
                    elapsed = time.perf_counter() - entry.started
                    self._cold_seconds = (
                        elapsed if self._cold_seconds == 0.0
                        else 0.7 * self._cold_seconds + 0.3 * elapsed
                    )
                entry.future.set_result(done.result())
        self._fan_out(entry, None)

    def _payload(self, key, summary, served_from: str) -> Dict[str, object]:
        return {
            "served_from": served_from,
            "spec_hash": key.spec_hash,
            "trace_fingerprint": key.trace_fingerprint,
            "key_digest": key.digest(),
            "result": encode_result(summary),
            "summary": _summary_payload(summary),
        }
