"""Load generator for the cache-advisor daemon, with latency percentiles.

ROADMAP's "heavy traffic from millions of users" becomes a measured
claim here: :func:`run_loadgen` drives the daemon through its three
request classes and reports per-class latency percentiles —

* **warm** — keys already in the result store (pure store reads);
* **cold** — fresh keys, each a real engine simulation;
* **duplicate** — bursts of concurrent queries for one cold key, which
  the daemon must coalesce into a single simulation;
* **deadline** — cold keys carrying a tight ``deadline_ms`` budget
  (expected to 504 when simulations run long);
* **bad** — deliberately malformed queries (expected to 400).

Every HTTP response lands in its class's ``statuses`` histogram;
``errors`` counts *transport* failures only (connection drops,
client-side timeouts), so a daemon that degrades into typed 4xx/5xx
answers — the whole point of the resilience layer — is distinguishable
from one that falls over.

The ``repro-serve-loadgen`` console script wraps it for the CI smoke
and chaos jobs (``--assert-coalescing`` fails the run unless the
daemon's counters prove warm hits cost zero simulations and duplicate
bursts coalesced; ``--assert-resilience`` fails it on any untyped 500
or transport-level drop), and ``benchmarks/test_serve_latency.py``
reuses :func:`run_loadgen` to pin p50/p95/p99 into ``BENCH_core.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..common.errors import ConfigurationError
from .httpio import JsonClient, request_json

__all__ = [
    "percentiles",
    "ClassReport",
    "LoadReport",
    "run_loadgen",
    "wait_ready",
    "check_coalescing",
    "check_resilience",
    "main",
]


def percentiles(samples: List[float], points=(50.0, 95.0, 99.0)) -> Dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` by linear interpolation."""
    if not samples:
        return {f"p{point:g}": 0.0 for point in points}
    ordered = sorted(samples)
    result: Dict[str, float] = {}
    for point in points:
        rank = (len(ordered) - 1) * point / 100.0
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        value = ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
        result[f"p{point:g}"] = value
    return result


@dataclass
class ClassReport:
    """Latencies and outcomes of one request class (warm/cold/duplicate)."""

    name: str
    latencies_s: List[float] = field(default_factory=list)
    served_from: Dict[str, int] = field(default_factory=dict)
    #: HTTP status histogram, e.g. ``{"200": 20, "504": 3}``.
    statuses: Dict[str, int] = field(default_factory=dict)
    #: Transport failures only — connection drops, client timeouts.
    errors: int = 0
    rejected: int = 0

    @property
    def count(self) -> int:
        return len(self.latencies_s)

    @property
    def responses(self) -> int:
        """Requests that got *any* HTTP answer, typed errors included."""
        return sum(self.statuses.values())

    def observe(self, latency: float, source: str) -> None:
        self.latencies_s.append(latency)
        self.served_from[source] = self.served_from.get(source, 0) + 1

    def note_status(self, status: int) -> None:
        key = str(status)
        self.statuses[key] = self.statuses.get(key, 0) + 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "requests": self.count,
            "errors": self.errors,
            "rejected": self.rejected,
            "statuses": dict(self.statuses),
            "served_from": dict(self.served_from),
            "latency_s": {
                key: round(value, 6) for key, value in percentiles(self.latencies_s).items()
            },
        }


@dataclass
class LoadReport:
    """Everything one load-generation run measured."""

    classes: Dict[str, ClassReport]
    server_stats: Dict[str, object]
    elapsed_s: float
    #: Round trips that reused an already-open keep-alive connection.
    reused_round_trips: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "elapsed_s": round(self.elapsed_s, 3),
            "reused_round_trips": self.reused_round_trips,
            "classes": {name: report.as_dict() for name, report in self.classes.items()},
            "server": self.server_stats,
        }

    def render(self) -> str:
        lines = [
            f"loadgen finished in {self.elapsed_s:.2f}s "
            f"({self.reused_round_trips} round trips on reused connections)"
        ]
        for name, report in self.classes.items():
            pct = percentiles(report.latencies_s)
            sources = " ".join(
                f"{source}:{count}" for source, count in sorted(report.served_from.items())
            )
            typed = " ".join(
                f"{code}:{count}"
                for code, count in sorted(report.statuses.items())
                if code != "200"
            )
            lines.append(
                f"  {name:<10} {report.count:>4} ok "
                f"p50 {pct['p50'] * 1e3:8.2f}ms  p95 {pct['p95'] * 1e3:8.2f}ms  "
                f"p99 {pct['p99'] * 1e3:8.2f}ms  [{sources}]"
                + (f"  typed:[{typed}]" if typed else "")
                + (f"  rejected:{report.rejected}" if report.rejected else "")
                + (f"  errors:{report.errors}" if report.errors else "")
            )
        serving = self.server_stats.get("serving", {})
        if serving:
            lines.append(
                "  server     "
                + " ".join(f"{key}:{value}" for key, value in sorted(serving.items()))
            )
        return "\n".join(lines)


def _query(trace: str, scale: Optional[int], seed: int, structure: Optional[str],
           warmup: int = 0) -> Dict[str, object]:
    return {
        "trace": {"name": trace, "scale": scale, "seed": seed},
        "structure": structure,
        "side": "d",
        "warmup": warmup,
    }


async def wait_ready(host: str, port: int, timeout: float = 20.0) -> None:
    """Poll ``/readyz`` until the daemon reports ready.

    Falls back to ``/healthz`` against daemons predating ``/readyz``
    (404/405 on the first probe).  The timeout error distinguishes a
    daemon that never listened (connection refused) from one that is
    listening but stuck degraded or draining — the two need different
    fixes, so the message should not conflate them.
    """
    deadline = time.perf_counter() + timeout
    path = "/readyz"
    last = "no response yet"
    while True:
        try:
            status, _, body = await request_json(host, port, "GET", path, timeout=2.0)
            if status == 200:
                return
            if status in (404, 405) and path == "/readyz":
                path = "/healthz"  # pre-/readyz daemon; liveness is the best we get
                continue
            state = body.get("status") if isinstance(body, dict) else None
            last = f"listening but {state or f'answering HTTP {status}'}"
        except (ConnectionError, OSError, asyncio.TimeoutError):
            last = "connection refused (daemon not listening)"
        if time.perf_counter() >= deadline:
            raise TimeoutError(
                f"repro-serve at {host}:{port} not ready after {timeout:g}s: {last}"
            )
        await asyncio.sleep(0.1)


async def _timed_advise(client: JsonClient, payload: Dict, report: ClassReport,
                        timeout: float) -> None:
    started = time.perf_counter()
    try:
        status, _, body = await client.request("POST", "/v1/advise", payload, timeout=timeout)
    except (ConnectionError, OSError, asyncio.TimeoutError):
        report.errors += 1
        return
    latency = time.perf_counter() - started
    report.note_status(status)
    if status == 200 and isinstance(body, dict):
        report.observe(latency, str(body.get("served_from", "unknown")))
    elif status == 429:
        report.rejected += 1
    # Other typed answers (400/503/504) live in the statuses histogram;
    # they are the daemon *working*, not a loadgen transport error.


async def run_loadgen(
    host: str = "127.0.0.1",
    port: int = 8123,
    trace: str = "linpack",
    scale: Optional[int] = 2000,
    seed: int = 0,
    structure: Optional[str] = "vc4",
    warm_requests: int = 20,
    cold_requests: int = 3,
    duplicates: int = 4,
    deadline_requests: int = 0,
    deadline_ms: float = 50.0,
    bad_requests: int = 0,
    concurrency: int = 8,
    timeout: float = 120.0,
    warmup_key: bool = True,
) -> LoadReport:
    """Drive the request classes and collect a :class:`LoadReport`.

    Cold keys are synthesised by varying the spec's ``warmup`` field —
    same trace (no rematerialization cost), different ``spec_hash`` —
    starting above any key the warm phase primed.  The duplicate burst
    fires ``duplicates`` concurrent copies of one further fresh key.
    Deadline requests (fresh keys at ``warmup >= 200``, budget
    ``deadline_ms``) run *before* the cold phase so a chaos plan like
    ``slow_sim@0x3:3`` lands on them deterministically; bad requests
    send a query with a negative ``deadline_ms`` (always a 400) last.
    """
    started = time.perf_counter()
    classes = {
        "warm": ClassReport("warm"),
        "cold": ClassReport("cold"),
        "duplicate": ClassReport("duplicate"),
        "deadline": ClassReport("deadline"),
        "bad": ClassReport("bad"),
    }
    base = _query(trace, scale, seed, structure)
    if warmup_key:
        # Prime the warm key (not measured): first touch simulates.
        prime = ClassReport("prime")
        async with JsonClient(host, port) as client:
            await _timed_advise(client, base, prime, timeout)
        if prime.errors or not prime.count:
            raise RuntimeError(
                f"priming request failed against {host}:{port}: "
                f"statuses={prime.statuses} transport_errors={prime.errors}"
            )
    gate = asyncio.Semaphore(max(1, concurrency))
    # One persistent keep-alive connection per concurrency slot: requests
    # check a client out of the pool so connections are reused across the
    # whole run instead of handshaking per request.
    pool = [JsonClient(host, port) for _ in range(max(1, concurrency))]
    idle: asyncio.Queue = asyncio.Queue()
    for client in pool:
        idle.put_nowait(client)

    async def gated(payload: Dict, report: ClassReport) -> None:
        async with gate:
            client = await idle.get()
            try:
                await _timed_advise(client, payload, report, timeout)
            finally:
                idle.put_nowait(client)

    try:
        await asyncio.gather(
            *(gated(dict(base), classes["warm"]) for _ in range(warm_requests))
        )
        for index in range(deadline_requests):
            payload = _query(trace, scale, seed, structure, warmup=200 + index)
            payload["deadline_ms"] = deadline_ms
            await gated(payload, classes["deadline"])
        for index in range(cold_requests):
            await gated(
                _query(trace, scale, seed, structure, warmup=100 + index), classes["cold"]
            )
        duplicate_query = _query(trace, scale, seed, structure, warmup=100 + cold_requests)
        await asyncio.gather(
            *(gated(dict(duplicate_query), classes["duplicate"]) for _ in range(duplicates))
        )
        bad_payload = dict(base)
        bad_payload["deadline_ms"] = -1  # rejected by parse_query, always
        await asyncio.gather(
            *(gated(dict(bad_payload), classes["bad"]) for _ in range(bad_requests))
        )
        _, _, stats = await request_json(host, port, "GET", "/v1/stats", timeout=timeout)
    finally:
        for client in pool:
            await client.aclose()
    return LoadReport(
        classes=classes,
        server_stats=stats if isinstance(stats, dict) else {},
        elapsed_s=time.perf_counter() - started,
        reused_round_trips=sum(client.reused for client in pool),
    )


def check_coalescing(report: LoadReport) -> List[str]:
    """Acceptance probes for the smoke job; returns failure reasons."""
    failures = []
    warm = report.classes["warm"]
    if warm.count and warm.served_from.get("store", 0) != warm.count:
        failures.append(
            f"warm requests not all served from the store: {warm.served_from}"
        )
    duplicate = report.classes["duplicate"]
    if duplicate.count:
        simulated = duplicate.served_from.get("simulated", 0)
        coalesced = duplicate.served_from.get("coalesced", 0)
        # A follower that arrives after the shared job settled is served
        # from the store — still zero extra simulations, so both count.
        followers = coalesced + duplicate.served_from.get("store", 0)
        if simulated != 1:
            failures.append(
                f"duplicate burst ran {simulated} simulations (expected exactly 1): "
                f"{duplicate.served_from}"
            )
        if followers != duplicate.count - 1:
            failures.append(
                f"duplicate burst resolved {followers} of {duplicate.count - 1} "
                f"followers without a simulation: {duplicate.served_from}"
            )
    serving = report.server_stats.get("serving", {})
    observed = report.classes["duplicate"].served_from.get("coalesced", 0)
    if isinstance(serving, dict) and serving.get("coalesced", 0) < observed:
        failures.append(
            f"server counters disagree with observed coalescing "
            f"({observed} seen): {serving}"
        )
    return failures


def check_resilience(report: LoadReport) -> List[str]:
    """Acceptance probes for the chaos job; returns failure reasons.

    Passing means every failure the daemon produced was *typed*: no
    untyped 500s, no transport-level drops, deadline-budgeted requests
    actually 504ed, and malformed queries all 400ed.
    """
    failures = []
    totals: Dict[str, int] = {}
    for klass in report.classes.values():
        for code, count in klass.statuses.items():
            totals[code] = totals.get(code, 0) + count
    for code in sorted(totals):
        if code.startswith("5") and code not in ("503", "504"):
            failures.append(
                f"{totals[code]} untyped HTTP {code} responses (daemon bug): {totals}"
            )
    transport = {
        name: klass.errors for name, klass in report.classes.items() if klass.errors
    }
    if transport:
        failures.append(f"transport-level failures (connection drops): {transport}")
    deadline = report.classes.get("deadline")
    if deadline is not None and deadline.responses and not deadline.statuses.get("504"):
        failures.append(
            f"deadline-budgeted requests never 504ed: {deadline.statuses}"
        )
    bad = report.classes.get("bad")
    if bad is not None and bad.responses != bad.statuses.get("400", 0):
        failures.append(f"malformed queries not all answered 400: {bad.statuses}")
    return failures


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve-loadgen",
        description="Generate warm/cold/duplicate load against repro-serve and report latency percentiles.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8123)
    parser.add_argument("--trace", default="linpack", help="workload name (default: linpack)")
    parser.add_argument("--scale", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--structure", default="vc4",
        help='helper-structure code, e.g. vc4, mc4, sb4, sb4x4, or "none" (default: vc4)',
    )
    parser.add_argument("--warm-requests", type=int, default=20)
    parser.add_argument("--cold-requests", type=int, default=3)
    parser.add_argument("--duplicates", type=int, default=4)
    parser.add_argument(
        "--deadline-requests", type=int, default=0,
        help="cold keys sent with a --deadline-ms budget (default: 0)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=50.0,
        help="per-request deadline budget for the deadline class (default: 50)",
    )
    parser.add_argument(
        "--bad-requests", type=int, default=0,
        help="deliberately malformed queries, expected to 400 (default: 0)",
    )
    parser.add_argument(
        "--no-warmup-key", action="store_true",
        help="skip the unmeasured priming request (chaos runs: every sim is cold)",
    )
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument(
        "--wait-ready", type=float, default=20.0, metavar="SECONDS",
        help="poll /healthz up to SECONDS before generating load (default: 20)",
    )
    parser.add_argument("--json", action="store_true", help="print the report as JSON")
    parser.add_argument(
        "--assert-coalescing",
        action="store_true",
        help="exit 1 unless warm hits cost zero simulations and duplicates coalesced",
    )
    parser.add_argument(
        "--assert-resilience",
        action="store_true",
        help=(
            "exit 1 on any untyped 500, transport-level drop, missing 504 for "
            "deadline requests, or non-400 answer to malformed queries"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.port < 1 or args.port > 65535:
            raise ConfigurationError(f"--port must be between 1 and 65535, got {args.port}")
        for name in (
            "warm_requests",
            "cold_requests",
            "duplicates",
            "deadline_requests",
            "bad_requests",
            "concurrency",
        ):
            if getattr(args, name) < 0 or (name == "concurrency" and args.concurrency < 1):
                flag = "--" + name.replace("_", "-")
                raise ConfigurationError(f"{flag} must be non-negative, got {getattr(args, name)}")
    except ConfigurationError as exc:
        print(f"repro-serve-loadgen: {exc}", file=sys.stderr)
        return 2
    structure = None if args.structure in (None, "", "none") else args.structure

    async def _run() -> LoadReport:
        await wait_ready(args.host, args.port, timeout=args.wait_ready)
        return await run_loadgen(
            host=args.host,
            port=args.port,
            trace=args.trace,
            scale=args.scale,
            seed=args.seed,
            structure=structure,
            warm_requests=args.warm_requests,
            cold_requests=args.cold_requests,
            duplicates=args.duplicates,
            deadline_requests=args.deadline_requests,
            deadline_ms=args.deadline_ms,
            bad_requests=args.bad_requests,
            concurrency=args.concurrency,
            timeout=args.timeout,
            warmup_key=not args.no_warmup_key,
        )

    try:
        report = asyncio.run(_run())
    except (TimeoutError, RuntimeError, ConnectionError, OSError) as exc:
        print(f"repro-serve-loadgen: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report.as_dict(), indent=2) if args.json else report.render())
    exit_code = 0
    if args.assert_coalescing:
        failures = check_coalescing(report)
        for failure in failures:
            print(f"repro-serve-loadgen: FAIL {failure}", file=sys.stderr)
        if failures:
            exit_code = 1
        else:
            print("repro-serve-loadgen: coalescing checks passed", file=sys.stderr)
    if args.assert_resilience:
        failures = check_resilience(report)
        for failure in failures:
            print(f"repro-serve-loadgen: FAIL {failure}", file=sys.stderr)
        if failures:
            exit_code = 1
        else:
            print("repro-serve-loadgen: resilience checks passed", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
