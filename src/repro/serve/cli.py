"""Command-line entry point for the cache-advisor daemon.

Usage::

    repro-serve --result-store ~/.cache/repro-results
    repro-serve --port 8123 --max-inflight 8 --heartbeat 0.5
    repro-serve --port 0                     # ephemeral port, printed on stderr
    repro-serve --job-timeout 30 --retries 1 # resilience knobs, as in the batch CLI
    repro-serve --request-deadline 5         # 504 past a 5s per-request budget
    repro-serve --breaker-threshold 3 --breaker-cooldown 10

The daemon requires a result store — it *is* the warm path — so either
``--result-store DIR`` or ``$REPRO_RESULT_STORE`` must name one;
``--job-timeout``, ``--retries``, and ``--backend`` travel
through the same environment variables as ``repro-experiments`` so
engine code behaves identically under the daemon, and
``--request-deadline`` defaults from ``$REPRO_REQUEST_DEADLINE`` the
same way.  Malformed ``--port`` or ``--max-inflight`` values exit with
status 2, like every other CLI boundary in this repo.

Signals: SIGINT stops the daemon immediately (KeyboardInterrupt, as
before); SIGTERM triggers a *graceful drain* — stop accepting, answer
in-flight requests up to ``--drain-deadline`` seconds, then exit 0 —
so orchestrators that send TERM before KILL get clean handoffs.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys
from typing import List, Optional

from ..common.errors import ConfigurationError
from .daemon import CacheAdvisorDaemon, ServeConfig

__all__ = [
    "ENV_REQUEST_DEADLINE",
    "build_parser",
    "validate_port",
    "validate_max_inflight",
    "validate_request_deadline",
    "main",
]

#: Environment default for ``--request-deadline`` (seconds).
ENV_REQUEST_DEADLINE = "REPRO_REQUEST_DEADLINE"


def validate_port(port: int) -> int:
    """CLI-boundary port validation: 0 (ephemeral) through 65535."""
    if port < 0 or port > 65535:
        raise ConfigurationError(f"--port must be between 0 and 65535, got {port}")
    return port


def validate_max_inflight(value: int) -> int:
    """CLI-boundary admission-bound validation (reject, don't clamp)."""
    if value < 1:
        raise ConfigurationError(f"--max-inflight must be at least 1, got {value}")
    return value


def validate_heartbeat(value: float) -> float:
    if value <= 0:
        raise ConfigurationError(f"--heartbeat must be positive, got {value:g}")
    return value


def validate_request_deadline(value: Optional[float]) -> Optional[float]:
    """Flag value, else ``$REPRO_REQUEST_DEADLINE``, else None (unbounded)."""
    if value is None:
        raw = os.environ.get(ENV_REQUEST_DEADLINE, "").strip()
        if not raw:
            return None
        try:
            value = float(raw)
        except ValueError:
            raise ConfigurationError(
                f"{ENV_REQUEST_DEADLINE} must be a number of seconds, got {raw!r}"
            ) from None
    if value <= 0:
        raise ConfigurationError(
            f"--request-deadline must be positive, got {value:g}"
        )
    return value


def validate_drain_deadline(value: float) -> float:
    if value < 0:
        raise ConfigurationError(
            f"--drain-deadline must be >= 0, got {value:g}"
        )
    return value


def validate_breaker(threshold: int, window: float, cooldown: float) -> int:
    """Breaker knobs: threshold 0 disables, window/cooldown must be positive."""
    if threshold < 0:
        raise ConfigurationError(
            f"--breaker-threshold must be >= 0 (0 disables), got {threshold}"
        )
    if window <= 0:
        raise ConfigurationError(f"--breaker-window must be positive, got {window:g}")
    if cooldown <= 0:
        raise ConfigurationError(
            f"--breaker-cooldown must be positive, got {cooldown:g}"
        )
    return threshold


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Async cache-advisor daemon: answers spec+trace queries from the "
            "result store, coalescing duplicate cold requests into single "
            "engine simulations."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: loopback)")
    parser.add_argument(
        "--port", type=int, default=8123,
        help="TCP port; 0 picks an ephemeral port (default: 8123)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=4,
        help="max distinct cold simulations in flight before 429 (default: 4)",
    )
    parser.add_argument(
        "--heartbeat", type=float, default=1.0,
        help="seconds between streamed heartbeats (default: 1.0)",
    )
    parser.add_argument(
        "--result-store", metavar="DIR", default=None,
        help="result store directory (default: $REPRO_RESULT_STORE; required)",
    )
    parser.add_argument(
        "--job-timeout", metavar="SECONDS", type=float, default=None,
        help="wall-clock ceiling per engine job (default: REPRO_JOB_TIMEOUT or unbounded)",
    )
    parser.add_argument(
        "--retries", type=int, default=None,
        help="re-run attempts per failed engine job (default: REPRO_RETRIES or 2)",
    )
    parser.add_argument(
        "--backend", metavar="BACKEND", default=None,
        help="simulation kernel backend: numpy or python (default: REPRO_BACKEND or numpy)",
    )
    parser.add_argument(
        "--request-deadline", metavar="SECONDS", type=float, default=None,
        help=(
            "server-side ceiling on per-request time budgets; requests past "
            "it answer 504 (default: $REPRO_REQUEST_DEADLINE or unbounded)"
        ),
    )
    parser.add_argument(
        "--drain-deadline", metavar="SECONDS", type=float, default=10.0,
        help=(
            "seconds a SIGTERM graceful drain waits for in-flight work "
            "before force-closing connections (default: 10)"
        ),
    )
    parser.add_argument(
        "--breaker-threshold", type=int, default=5,
        help=(
            "cold-dispatch failures inside --breaker-window that open the "
            "circuit breaker; 0 disables it (default: 5)"
        ),
    )
    parser.add_argument(
        "--breaker-window", metavar="SECONDS", type=float, default=30.0,
        help="sliding window for breaker failure counting (default: 30)",
    )
    parser.add_argument(
        "--breaker-cooldown", metavar="SECONDS", type=float, default=5.0,
        help="seconds an open breaker waits before a half-open probe (default: 5)",
    )
    parser.add_argument(
        "--emit-metrics", metavar="PATH", default=None,
        help="append one serving run record (JSON Lines) to PATH on shutdown",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from ..kernels import ENV_BACKEND, validate_backend
    from ..experiments.engine import (
        ENV_JOB_TIMEOUT,
        ENV_RETRIES,
        validate_job_timeout,
        validate_retries,
    )

    try:
        port = validate_port(args.port)
        max_inflight = validate_max_inflight(args.max_inflight)
        heartbeat = validate_heartbeat(args.heartbeat)
        job_timeout = validate_job_timeout(args.job_timeout)
        retries = validate_retries(args.retries)
        backend = None if args.backend is None else validate_backend(args.backend)
        request_deadline = validate_request_deadline(args.request_deadline)
        drain_deadline = validate_drain_deadline(args.drain_deadline)
        breaker_threshold = validate_breaker(
            args.breaker_threshold, args.breaker_window, args.breaker_cooldown
        )
    except ConfigurationError as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2
    # Knobs travel through the environment so engine worker processes
    # (and the sim threads' run_jobs calls) resolve the same values.
    if args.job_timeout is not None:
        os.environ[ENV_JOB_TIMEOUT] = str(job_timeout)
    if args.retries is not None:
        os.environ[ENV_RETRIES] = str(retries)
    if backend is not None:
        os.environ[ENV_BACKEND] = backend
    from ..store import current_store, set_store

    if args.result_store:
        set_store(args.result_store)
    if current_store() is None:
        print(
            "repro-serve: a result store is required (pass --result-store DIR "
            "or set $REPRO_RESULT_STORE)",
            file=sys.stderr,
        )
        return 2
    config = ServeConfig(
        host=args.host,
        port=port,
        max_inflight=max_inflight,
        heartbeat=heartbeat,
        request_deadline=request_deadline,
        drain_deadline=drain_deadline,
        breaker_threshold=breaker_threshold,
        breaker_window=args.breaker_window,
        breaker_cooldown=args.breaker_cooldown,
        emit_metrics=args.emit_metrics,
    )
    try:
        asyncio.run(_serve(config))
    except KeyboardInterrupt:
        pass
    return 0


async def _serve(config: ServeConfig) -> None:
    daemon = CacheAdvisorDaemon(config)
    await daemon.start()
    loop = asyncio.get_running_loop()
    drain_task: List[Optional[asyncio.Task]] = [None]

    def _on_sigterm() -> None:
        if drain_task[0] is None:
            print("repro-serve: SIGTERM received, draining", file=sys.stderr, flush=True)
            drain_task[0] = loop.create_task(daemon.drain())

    forever = asyncio.ensure_future(daemon.serve_forever())

    def _on_sigint() -> None:
        # Immediate stop (Ctrl-C semantics).  Registered explicitly
        # because a daemon backgrounded by a non-interactive shell
        # inherits SIGINT as ignored — kill -INT (the CI smoke job's
        # shutdown) must still stop it and emit the run record.
        forever.cancel()

    try:
        # SIGTERM drains gracefully; SIGINT stops immediately.
        loop.add_signal_handler(signal.SIGTERM, _on_sigterm)
        loop.add_signal_handler(signal.SIGINT, _on_sigint)
    except (NotImplementedError, RuntimeError):  # pragma: no cover - non-unix loop
        pass
    try:
        await forever
    except asyncio.CancelledError:
        # drain() closed the listener (or SIGINT cancelled us).
        pass
    finally:
        if drain_task[0] is not None:
            await drain_task[0]
        await daemon.aclose()


if __name__ == "__main__":
    sys.exit(main())
