"""Resilience-path latency: readiness probes, 504 budgets, breaker fast-fails.

Not a paper artifact — this pins the *failure* paths of ``repro-serve``
the way ``test_serve_latency.py`` pins the success paths.  A resilience
layer earns its keep by failing fast and typed: a deadline 504 should
land within a whisker of the budget (never the full simulation time),
and an open breaker should answer in microseconds, not engine-seconds.
Latency percentiles ride along in ``extra_info`` so ``repro-bench diff``
tracks them against ``BENCH_core.json``.

The injected faults (``slow_sim``/``reject_sim``) are process-local
``set_plan`` overrides: the daemon's background event loop lives in this
process, so no environment juggling is needed and every failure is
deterministic.
"""

import asyncio
import threading
import time

import pytest

from repro.experiments.faults import set_plan
from repro.serve.daemon import CacheAdvisorDaemon, ServeConfig
from repro.serve.httpio import request_json
from repro.serve.loadgen import percentiles
from repro.store import ResultStore

SERVE_SCALE = 2_000


def _query(warmup: int, deadline_ms=None):
    payload = {
        "trace": {"name": "linpack", "scale": SERVE_SCALE, "seed": 3},
        "structure": "vc4",
        "side": "d",
        "warmup": warmup,
    }
    if deadline_ms is not None:
        payload["deadline_ms"] = deadline_ms
    return payload


class ResilientDaemon:
    """A live daemon (background loop) with the resilience knobs armed."""

    def __init__(self, store_root) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self._run, name="repro-serve-resilience-bench", daemon=True
        )
        self.thread.start()
        self.daemon = CacheAdvisorDaemon(
            ServeConfig(
                port=0,
                max_inflight=4,
                heartbeat=0.5,
                breaker_threshold=1,
                breaker_cooldown=3600.0,  # opened = stays open for the bench
            ),
            store=ResultStore(store_root),
        )
        self._submit(self.daemon.start()).result(30)
        self.port = self.daemon.port

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def _submit(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def close(self) -> None:
        self._submit(self.daemon.aclose()).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)

    def roundtrip(self, method: str, path: str, payload=None):
        return asyncio.run(
            request_json("127.0.0.1", self.port, method, path, payload, timeout=30.0)
        )

    def settle(self, timeout: float = 10.0) -> None:
        """Wait for background simulations left by a prior phase."""
        deadline = time.perf_counter() + timeout
        while self.daemon.service.inflight and time.perf_counter() < deadline:
            time.sleep(0.05)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    server = ResilientDaemon(tmp_path_factory.mktemp("serve-resilience") / "store")
    yield server
    set_plan(None)
    server.close()


def test_serve_readyz_probe_latency(benchmark, served):
    """Readiness probes: the state roll-up must stay route-handler cheap."""
    latencies = []

    def probe():
        for _ in range(20):
            started = time.perf_counter()
            status, _, body = served.roundtrip("GET", "/readyz")
            latencies.append(time.perf_counter() - started)
            assert status == 200 and body["status"] == "ready"

    benchmark.pedantic(probe, rounds=1, iterations=1)
    benchmark.extra_info["latency_s"] = {
        key: round(value, 6) for key, value in percentiles(latencies).items()
    }


def test_serve_deadline_504_latency(benchmark, served):
    """Deadline expiry: the 504 lands near the budget, not the sim time."""
    set_plan("slow_sim@0x*:1")
    latencies = []
    statuses = []

    def run():
        for index in range(3):
            started = time.perf_counter()
            status, _, body = served.roundtrip(
                "POST", "/v1/advise", _query(warmup=300 + index, deadline_ms=50)
            )
            latencies.append(time.perf_counter() - started)
            statuses.append(status)
            assert "deadline" in body.get("error", ""), body

    try:
        benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        set_plan(None)
    assert statuses == [504, 504, 504]
    pct = percentiles(latencies)
    # The injected sim takes 1s; the typed 504 must beat it by a wide
    # margin or the deadline layer is not actually cutting requests loose.
    assert pct["p95"] < 0.9, pct
    assert served.daemon.service.counters["deadline_expired"] >= 3
    benchmark.extra_info["latency_s"] = {
        key: round(value, 6) for key, value in pct.items()
    }
    served.settle()  # let the abandoned 1s sims drain before the next phase


def test_serve_breaker_fastfail_latency(benchmark, served):
    """An open breaker answers 503 at HTTP-overhead speed, zero dispatches."""
    served.settle()
    set_plan("reject_sim@0x*")
    latencies = []
    statuses = []
    try:
        # Trip the breaker: one failing dispatch at threshold 1.
        status, _, body = served.roundtrip("POST", "/v1/advise", _query(warmup=400))
        assert status == 503 and "reject_sim" in body["error"], body
        assert served.daemon.service.breaker.state == "open"

        def run():
            for index in range(10):
                started = time.perf_counter()
                status, _, body = served.roundtrip(
                    "POST", "/v1/advise", _query(warmup=401 + index)
                )
                latencies.append(time.perf_counter() - started)
                statuses.append(status)
                assert "breaker" in body.get("error", ""), body

        benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        set_plan(None)
    assert statuses == [503] * 10
    assert served.daemon.service.counters["breaker_fastfail"] >= 10
    pct = percentiles(latencies)
    assert pct["p95"] < 0.5, pct  # no engine dispatch behind these answers
    benchmark.extra_info["latency_s"] = {
        key: round(value, 6) for key, value in pct.items()
    }
    benchmark.extra_info["breaker"] = served.daemon.service.breaker_payload()
