"""Serving latency: warm hits, cold simulations, coalesced duplicates.

Not a paper artifact — this pins the three request classes of the
``repro-serve`` daemon, with p50/p95/p99 recorded in each benchmark's
``extra_info`` so ``repro-bench diff`` tracks the serving path alongside
the simulation kernels.  The assertions are the serving acceptance
criteria: a warm sweep costs zero simulations, and a burst of duplicate
cold queries coalesces into exactly one engine job.

The daemon runs on a background thread with its own event loop; the
load generator talks to it over real loopback HTTP, like production
clients would.
"""

import asyncio
import threading

import pytest

from repro.serve.daemon import CacheAdvisorDaemon, ServeConfig
from repro.serve.loadgen import check_coalescing, run_loadgen
from repro.store import ResultStore

#: Small traces: this measures the serving overhead, not the simulator.
SERVE_SCALE = 2_000


class ServedDaemon:
    """A live daemon on a background event loop, plus a sync client hook."""

    def __init__(self, store_root) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self._run, name="repro-serve-bench", daemon=True
        )
        self.thread.start()
        self.daemon = CacheAdvisorDaemon(
            ServeConfig(port=0, max_inflight=4, heartbeat=0.5),
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

    def loadgen(self, **kwargs):
        """One loadgen run from this (client) thread against the daemon."""
        return asyncio.run(
            run_loadgen(
                host="127.0.0.1",
                port=self.port,
                trace="linpack",
                scale=SERVE_SCALE,
                structure="vc4",
                **kwargs,
            )
        )


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    server = ServedDaemon(tmp_path_factory.mktemp("serve-bench") / "store")
    yield server
    server.close()


def test_serve_warm_hit_latency(benchmark, served):
    """Store-backed answers: the measured phase must simulate nothing."""

    def warm_round():
        warm = served.loadgen(
            seed=0, warm_requests=30, cold_requests=0, duplicates=0, concurrency=8
        ).classes["warm"]
        assert warm.served_from == {"store": 30}, warm.served_from
        assert warm.errors == 0 and warm.rejected == 0
        return warm

    warm = benchmark.pedantic(warm_round, rounds=5, iterations=1)
    benchmark.extra_info["latency_s"] = warm.as_dict()["latency_s"]
    benchmark.extra_info["served_from"] = dict(warm.served_from)


def test_serve_cold_simulate_latency(benchmark, served):
    """Fresh keys: every query is one real engine simulation."""
    report = benchmark.pedantic(
        lambda: served.loadgen(
            seed=1, warm_requests=0, cold_requests=4, duplicates=0, concurrency=4
        ),
        rounds=1,
        iterations=1,
    )
    cold = report.classes["cold"]
    assert cold.served_from == {"simulated": 4}, cold.served_from
    assert cold.errors == 0 and cold.rejected == 0
    benchmark.extra_info["latency_s"] = cold.as_dict()["latency_s"]
    benchmark.extra_info["served_from"] = dict(cold.served_from)


def test_serve_coalesced_duplicate_latency(benchmark, served):
    """A duplicate burst: one simulation, every follower coalesced."""
    report = benchmark.pedantic(
        lambda: served.loadgen(
            seed=2, warm_requests=0, cold_requests=0, duplicates=6, concurrency=8
        ),
        rounds=1,
        iterations=1,
    )
    duplicate = report.classes["duplicate"]
    assert duplicate.served_from.get("simulated") == 1, duplicate.served_from
    # Followers either coalesce onto the inflight job or (having arrived
    # after it settled) hit the freshly flushed store — never simulate.
    followers = duplicate.served_from.get("coalesced", 0) + duplicate.served_from.get("store", 0)
    assert followers == 5, duplicate.served_from
    assert check_coalescing(report) == []
    benchmark.extra_info["latency_s"] = duplicate.as_dict()["latency_s"]
    benchmark.extra_info["served_from"] = dict(duplicate.served_from)
