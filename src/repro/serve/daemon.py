"""The ``repro-serve`` daemon: HTTP routes over :class:`AdvisorService`.

Endpoints
---------

=====================  ======================================================
``GET /healthz``        liveness: ``{"status": "ok", "inflight": n}``
``GET /readyz``         readiness: 200 ``ready``, 503 ``degraded`` (store
                        failures absorbed or breaker open) or ``draining``
``GET /v1/stats``       serving counters, admission knobs, breaker state,
                        store state, store root
``POST /v1/advise``     one advisor query (see :func:`~.service.parse_query`);
                        ``"stream": true`` switches the response to a chunked
                        NDJSON event stream (accepted → heartbeat/progress →
                        result)
=====================  ======================================================

Failure mapping: malformed queries → 400, unknown paths → 404, a known
path with the wrong method → 405 with an ``Allow`` header (both derived
from the route table), admission rejection → 429 with a ``Retry-After``
header, open circuit breaker → 503 with ``Retry-After``, engine failure
(after the engine's own resilience layer has retried/recovered) → 503,
expired deadline budget → 504, request during graceful drain → 503 +
``Connection: close``.  Plain and streamed queries map failures the same
way; a stream that fails after its first event ends with an ``error``
event carrying the status instead.  The daemon never dies with a
request: every handler error becomes a JSON error response and a bumped
counter.

``drain()`` implements graceful shutdown (the CLI wires it to SIGTERM):
stop accepting connections, answer in-flight requests, refuse new
requests on persistent connections with 503, and give everything up to
``drain_deadline`` seconds to finish before force-closing.

On close the daemon can fold its serving counters into a telemetry run
record (``--emit-metrics``), so a service run lands in the same JSON
Lines stream the batch CLI emits.
"""

from __future__ import annotations

import asyncio
import sys
import time
from dataclasses import dataclass
from typing import Optional

from ..common.config import baseline_system
from ..specs import SystemSpec
from ..telemetry.core import MetricsScope
from ..telemetry.record import append_record, build_run_record
from .breaker import CircuitBreaker
from .httpio import ChunkedJsonWriter, HttpError, Request, read_request, send_json
from .service import (
    AdviseError,
    AdvisorService,
    BadRequestError,
    RetryLaterError,
    parse_query,
)

__all__ = ["ServeConfig", "CacheAdvisorDaemon"]


@dataclass(frozen=True)
class ServeConfig:
    """Everything the daemon needs to listen and admit work."""

    host: str = "127.0.0.1"
    #: 0 asks the OS for an ephemeral port (printed at startup; handy
    #: for tests and parallel CI jobs).
    port: int = 0
    #: Bound on distinct cold keys simulating concurrently.
    max_inflight: int = 4
    #: Seconds between streamed heartbeats.
    heartbeat: float = 1.0
    #: Seconds an idle keep-alive connection may sit between requests
    #: before the server closes it.
    keepalive_timeout: float = 30.0
    #: Server-side ceiling on per-request deadline budgets, seconds
    #: (None = unbounded; clients may still send ``deadline_ms``).
    request_deadline: Optional[float] = None
    #: Seconds a graceful drain waits for in-flight work before
    #: force-closing connections.
    drain_deadline: float = 10.0
    #: Cold-dispatch failures within ``breaker_window`` seconds that open
    #: the circuit breaker (0 disables the breaker).
    breaker_threshold: int = 5
    breaker_window: float = 30.0
    #: Seconds an open breaker waits before admitting a half-open probe.
    breaker_cooldown: float = 5.0
    #: Seconds a degraded store waits between recovery probes.
    store_probe_interval: float = 5.0
    #: JSON Lines path for the shutdown run record (None = don't emit).
    emit_metrics: Optional[str] = None


class CacheAdvisorDaemon:
    """Asyncio server wiring HTTP to one :class:`AdvisorService`."""

    def __init__(self, config: ServeConfig, store=None) -> None:
        self.config = config
        breaker = None
        if config.breaker_threshold > 0:
            breaker = CircuitBreaker(
                threshold=config.breaker_threshold,
                window=config.breaker_window,
                cooldown=config.breaker_cooldown,
            )
        self.service = AdvisorService(
            store=store,
            max_inflight=config.max_inflight,
            heartbeat=config.heartbeat,
            request_deadline=config.request_deadline,
            breaker=breaker,
            store_probe_interval=config.store_probe_interval,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._started = time.perf_counter()
        self.port: Optional[int] = None
        #: Open connections, so shutdown can end idle keep-alive sessions.
        self._connections: set = set()
        #: Requests currently inside ``_dispatch`` (drain waits on these).
        self._active_requests = 0
        self._draining = False
        #: (method, path) → handler; 404, 405 and ``Allow`` derive from it.
        self._routes = {
            ("GET", "/healthz"): self._healthz,
            ("GET", "/readyz"): self._readyz,
            ("GET", "/v1/stats"): self._stats,
            ("POST", "/v1/advise"): self._advise,
        }

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self._started = time.perf_counter()
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() must run first"
        print(
            f"repro-serve listening on http://{self.config.host}:{self.port} "
            f"(max_inflight={self.config.max_inflight})",
            file=sys.stderr,
            flush=True,
        )
        async with self._server:
            await self._server.serve_forever()

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(self, deadline: Optional[float] = None) -> None:
        """Graceful shutdown: stop accepting, finish in-flight, then close.

        Steps: mark the daemon draining (``/readyz`` answers 503,
        requests arriving on persistent connections are refused with 503
        + ``Connection: close``), close the listening socket, then wait
        up to *deadline* (default ``config.drain_deadline``) seconds for
        active requests, inflight simulations, and open connections to
        finish on their own before force-closing what remains.  Safe to
        call more than once; ``aclose()`` afterwards flushes counters to
        the run record as usual.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()  # cancels serve_forever, stops accepting
        loop = asyncio.get_running_loop()
        budget = self.config.drain_deadline if deadline is None else deadline
        drain_until = loop.time() + max(0.0, budget)
        while loop.time() < drain_until:
            if (
                not self._active_requests
                and not self.service.inflight
                and not self._connections
            ):
                break
            await asyncio.sleep(0.02)
        # Whatever is still open missed the drain deadline (or is an
        # idle keep-alive session): force-close it.  close() is
        # idempotent, so racing the handlers' own finally-close (or the
        # idle reaper) is harmless.
        for writer in list(self._connections):
            writer.close()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            # Idle keep-alive connections would stall wait_closed (it
            # waits on handlers in newer asyncio); closing them delivers
            # EOF to their pending read and the handlers drain out.
            for writer in list(self._connections):
                writer.close()
            await self._server.wait_closed()
            self._server = None
        self.service.close()
        if self.config.emit_metrics:
            self._emit_run_record(self.config.emit_metrics)

    def _emit_run_record(self, path: str) -> None:
        """One telemetry run record for the whole serving session."""
        scope = MetricsScope()
        scope.add("serving", self.service.counters)
        record = build_run_record(
            scope,
            run="serve",
            config=baseline_system(),
            wall_time_s=time.perf_counter() - self._started,
            jobs=1,
            spec=SystemSpec(trace=None, config=baseline_system()),
        )
        append_record(path, record)

    # -- request handling ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        read_request(reader), timeout=self.config.keepalive_timeout
                    )
                except asyncio.TimeoutError:
                    return  # idle keep-alive connection expired
                except (HttpError, asyncio.IncompleteReadError) as exc:
                    await send_json(writer, 400, {"error": f"bad request: {exc}"})
                    return
                if request is None:
                    return  # clean EOF between requests
                if self._draining:
                    # The in-flight request (read before the drain began)
                    # completed; anything arriving after is refused and
                    # the persistent connection ends.
                    self.service.counters["drain_rejects"] += 1
                    await send_json(
                        writer,
                        503,
                        {"error": "draining: daemon is shutting down"},
                        extra_headers={"Retry-After": "1"},
                        keep_alive=False,
                    )
                    return
                keep_alive = request.wants_keep_alive
                self._active_requests += 1
                try:
                    consumed = await self._dispatch(request, writer, keep_alive)
                finally:
                    self._active_requests -= 1
                if consumed or not keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away; nothing to answer
        except Exception as exc:  # pragma: no cover - last-ditch guard
            self.service.counters["failed"] += 1
            try:
                await send_json(writer, 500, {"error": f"internal error: {exc}"})
            except (ConnectionError, OSError):
                pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool = False
    ) -> bool:
        """Answer one request; True when the response consumed the connection."""
        handler = self._routes.get((request.method, request.path))
        if handler is not None:
            return await handler(request, writer, keep_alive)
        allowed = [method for method, path in self._routes if path == request.path]
        if allowed:
            await send_json(
                writer,
                405,
                {"error": f"{request.method} not allowed here"},
                extra_headers={"Allow": ", ".join(allowed)},
                keep_alive=keep_alive,
            )
        else:
            await send_json(
                writer,
                404,
                {"error": f"no such endpoint: {request.path}"},
                keep_alive=keep_alive,
            )
        return False

    async def _healthz(self, request: Request, writer, keep_alive: bool) -> bool:
        payload = {"status": "ok", "inflight": self.service.inflight}
        await send_json(writer, 200, payload, keep_alive=keep_alive)
        return False

    async def _readyz(self, request: Request, writer, keep_alive: bool) -> bool:
        status, payload = self.readiness()
        await send_json(writer, status, payload, keep_alive=keep_alive)
        return False

    async def _stats(self, request: Request, writer, keep_alive: bool) -> bool:
        await send_json(writer, 200, self.stats_payload(), keep_alive=keep_alive)
        return False

    def readiness(self) -> "tuple[int, dict]":
        """``(status, payload)`` for ``/readyz``.

        200 means "route traffic here"; 503 distinguishes
        live-but-degraded (store failures absorbed, or breaker open) and
        draining from dead (connection refused) for load balancers and
        the loadgen's ``wait_ready``.
        """
        breaker = self.service.breaker_payload()
        store_state = self.service.store_state
        if self._draining:
            state = "draining"
        elif store_state != "ok" or breaker.get("state") == "open":
            state = "degraded"
        else:
            state = "ready"
        payload = {
            "status": state,
            "store": store_state,
            "breaker": breaker.get("state", "disabled"),
            "inflight": self.service.inflight,
        }
        return (200 if state == "ready" else 503), payload

    def stats_payload(self) -> dict:
        return {
            "serving": dict(self.service.counters),
            "inflight": self.service.inflight,
            "max_inflight": self.service.max_inflight,
            "retry_after_hint_s": round(self.service.retry_after, 3),
            "uptime_s": round(time.perf_counter() - self._started, 3),
            "store_root": str(self.service.store.root),
            "store_state": self.service.store_state,
            "breaker": self.service.breaker_payload(),
            "draining": self._draining,
            "request_deadline_s": self.config.request_deadline,
        }

    async def _advise(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool = False
    ) -> bool:
        message = self.service.cached_bad_request(request.body)
        if message is None:
            try:
                query = parse_query(request.json())
            except (HttpError, BadRequestError) as exc:
                message = str(exc)
                self.service.record_bad_request(request.body, message)
        if message is not None:
            await _send_error(writer, BadRequestError(message), keep_alive)
            return False
        if query.stream:
            await self._advise_streaming(query, writer)
            return True
        try:
            payload = await self.service.advise(query)
        except AdviseError as exc:
            await _send_error(writer, exc, keep_alive)
            return False
        await send_json(writer, 200, payload, keep_alive=keep_alive)
        return False

    async def _advise_streaming(self, query, writer: asyncio.StreamWriter) -> None:
        events = self.service.advise_stream(query)
        chunked = ChunkedJsonWriter(writer)
        try:
            async for event in events:
                if not chunked.started:
                    await chunked.start(200)
                await chunked.send(event)
        except AdviseError as exc:
            if not chunked.started:
                await _send_error(writer, exc)
                return
            # The stream already started; deliver the failure as a final
            # event — the HTTP status is long gone.
            await chunked.send({"event": "error", "status": exc.status, "error": str(exc)})
        finally:
            await events.aclose()
            await chunked.close()


async def _send_error(
    writer: asyncio.StreamWriter, exc: AdviseError, keep_alive: bool = False
) -> None:
    """The one JSON answer for a typed request failure."""
    payload = {"error": str(exc)}
    headers = None
    if isinstance(exc, RetryLaterError):
        payload["retry_after_s"] = exc.retry_after
        headers = {"Retry-After": str(max(1, int(exc.retry_after)))}
    await send_json(writer, exc.status, payload, extra_headers=headers, keep_alive=keep_alive)
