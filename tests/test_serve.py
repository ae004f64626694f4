"""repro-serve: routes, warm/cold paths, coalescing, admission, streaming.

Engine-independent behaviours (coalescing, overload, heartbeats) pin the
service against a controllable fake ``run_jobs`` — monkeypatched at
``repro.serve.service.run_jobs``, where ``_simulate`` resolves it — so
the tests are deterministic and fast.  The cold→warm transition and the
small loadgen round trip use the real engine at a tiny scale.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.experiments.engine import LevelSummary
from repro.experiments.faults import set_plan
from repro.serve import daemon as daemon_mod
from repro.serve import service as service_mod
from repro.serve.cli import main as serve_main
from repro.serve.daemon import CacheAdvisorDaemon, ServeConfig
from repro.serve.httpio import (
    HttpError,
    JsonClient,
    Request,
    request_json,
    stream_json_events,
)
from repro.serve.loadgen import (
    ClassReport,
    LoadReport,
    check_coalescing,
    percentiles,
    run_loadgen,
)
from repro.serve.loadgen import main as loadgen_main
from repro.store import current_store

SCALE = 1_500

#: What the fake engine "computes" — any valid LevelSummary will do.
SUMMARY = LevelSummary(
    accesses=100, demand_misses=10, removed_misses=4, misses_to_next_level=6
)


@pytest.fixture
def store(tmp_path, monkeypatch):
    """An activated result store rooted in a temp dir."""
    monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
    yield current_store()


class FakeEngine:
    """A ``run_jobs`` stand-in: counts calls, can hold jobs hostage."""

    def __init__(self) -> None:
        self.calls = 0
        self.started = threading.Event()
        self.release = threading.Event()
        self.release.set()

    def __call__(self, job_list, **kwargs):
        self.calls += 1
        self.started.set()
        assert self.release.wait(30), "test never released the fake engine"
        return [SUMMARY for _ in job_list]


@pytest.fixture
def fake_engine(monkeypatch):
    fake = FakeEngine()
    monkeypatch.setattr(service_mod, "run_jobs", fake)
    return fake


def serve_test(coro_fn, **config):
    """Run ``coro_fn(daemon)`` against a live daemon on an ephemeral port."""

    async def runner():
        daemon = CacheAdvisorDaemon(ServeConfig(port=0, **config))
        await daemon.start()
        try:
            return await coro_fn(daemon)
        finally:
            await daemon.aclose()

    return asyncio.run(runner())


def query(warmup: int = 0, **over):
    q = {
        "trace": {"name": "linpack", "scale": SCALE, "seed": 0},
        "structure": "vc4",
        "side": "d",
        "warmup": warmup,
    }
    q.update(over)
    return q


async def advise(daemon, payload, timeout=60.0):
    return await request_json(
        "127.0.0.1", daemon.port, "POST", "/v1/advise", payload, timeout=timeout
    )


class TestRoutes:
    def test_healthz(self, store):
        async def check(daemon):
            status, _, body = await request_json(
                "127.0.0.1", daemon.port, "GET", "/healthz", timeout=10
            )
            assert status == 200
            assert body == {"status": "ok", "inflight": 0}

        serve_test(check)

    def test_unknown_path_is_404(self, store):
        async def check(daemon):
            status, _, body = await request_json(
                "127.0.0.1", daemon.port, "GET", "/nope", timeout=10
            )
            assert status == 404 and "/nope" in body["error"]

        serve_test(check)

    def test_wrong_method_is_405(self, store):
        async def check(daemon):
            status, _, _ = await request_json(
                "127.0.0.1", daemon.port, "PUT", "/healthz", timeout=10
            )
            assert status == 405

        serve_test(check)

    def test_wrong_method_names_the_allowed_ones(self, store):
        async def check(daemon):
            status, headers, _ = await request_json(
                "127.0.0.1", daemon.port, "PUT", "/healthz", timeout=10
            )
            assert status == 405 and headers["allow"] == "GET"
            status, headers, _ = await request_json(
                "127.0.0.1", daemon.port, "GET", "/v1/advise", timeout=10
            )
            assert status == 405 and headers["allow"] == "POST"

        serve_test(check)

    def test_invalid_json_body_is_400(self, store):
        async def check(daemon):
            reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port)
            body = b"not json!"
            writer.write(
                b"POST /v1/advise HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 10)
            writer.close()
            assert raw.startswith(b"HTTP/1.1 400 ")

        serve_test(check)

    def test_unknown_workload_is_400(self, store):
        async def check(daemon):
            status, _, body = await advise(daemon, query(trace={"name": "no-such"}))
            assert status == 400
            assert "unknown workload" in body["error"]
            # KeyError repr quotes must not leak into the message.
            assert not body["error"].startswith('"')

        serve_test(check)

    def test_negative_base_is_400(self, store):
        async def check(daemon):
            status, _, body = await advise(
                daemon, query(trace={"kind": "sequential", "length": 64, "base": -16})
            )
            assert status == 400 and "base" in body["error"]

        serve_test(check)

    def test_high_base_is_400(self, store, monkeypatch):
        """A trace the numpy kernels cannot hold (an address of 2**63 or
        more) is refused while the query is keyed: a 400, no engine
        run, and no failure counted against the circuit breaker."""
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        calls = []
        monkeypatch.setattr(service_mod, "run_jobs", lambda *a, **k: calls.append(a))

        async def check(daemon):
            high = query(trace={"kind": "sequential", "length": 64, "base": 2**63})
            for _ in range(daemon.service.breaker.threshold + 1):
                status, _, body = await advise(daemon, high)
                assert status == 400 and "2**63" in body["error"]
            assert calls == []
            breaker = daemon.service.breaker_payload()
            assert breaker["state"] == "closed" and breaker["recent_failures"] == 0
            assert daemon.service.counters["failed"] == 0

        serve_test(check)

    def test_high_base_replays_on_python(self, store, monkeypatch):
        """The interpreter holds the full unsigned range, so the same
        query is answered on the python backend."""
        monkeypatch.setenv("REPRO_BACKEND", "python")

        async def check(daemon):
            high = query(trace={"kind": "sequential", "length": 64, "base": 2**63})
            status, _, body = await advise(daemon, high)
            assert status == 200, body

        serve_test(check)

    def test_missing_trace_is_400(self, store):
        async def check(daemon):
            status, _, body = await advise(daemon, {"structure": "vc4"})
            assert status == 400 and "trace" in body["error"]

        serve_test(check)

    def test_request_json_helper_rejects_bad_bodies(self):
        with pytest.raises(HttpError):
            Request(method="POST", path="/", query="", body=b"{nope").json()


class TestColdThenWarm:
    def test_second_query_is_a_store_hit(self, store):
        async def check(daemon):
            status1, _, first = await advise(daemon, query())
            status2, _, second = await advise(daemon, query())
            assert (status1, status2) == (200, 200)
            assert first["served_from"] == "simulated"
            assert second["served_from"] == "store"
            # Identical identity and identical result both times.
            assert first["key_digest"] == second["key_digest"]
            assert first["spec_hash"] == second["spec_hash"]
            assert first["result"] == second["result"]
            assert second["summary"]["miss_rate"] > 0
            counters = daemon.service.counters
            assert counters["requests"] == 2
            assert counters["cold_misses"] == 1
            assert counters["warm_hits"] == 1
            return daemon.service.store

        used = serve_test(check)
        assert used.stats().entries == 1  # the engine flushed exactly one result

    def test_warm_hit_makes_one_store_read(self, store, fake_engine, monkeypatch):
        async def check(daemon):
            service = daemon.service
            _, key, _ = service._lookup(service_mod.parse_query(query(warmup=3)).spec)
            service.store.put(key, SUMMARY)
            reads = []
            real_get = service.store.get
            monkeypatch.setattr(
                service.store, "get", lambda key: reads.append(key) or real_get(key)
            )
            status, _, body = await advise(daemon, query(warmup=3))
            assert status == 200 and body["served_from"] == "store"
            assert reads == [key]  # the lookup only: no negative-cache probe

        serve_test(check)
        assert fake_engine.calls == 0

    def test_explicit_store_warms_without_env_store(self, tmp_path, monkeypatch):
        """Regression: with ``store=`` passed explicitly and no
        ``REPRO_RESULT_STORE``, the engine flushes nowhere — the service
        must flush its own store or cold keys never warm."""
        from repro.store import ResultStore

        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)

        async def check():
            daemon = CacheAdvisorDaemon(
                ServeConfig(port=0), store=ResultStore(tmp_path / "serve-only")
            )
            await daemon.start()
            try:
                _, _, first = await advise(daemon, query())
                _, _, second = await advise(daemon, query())
            finally:
                await daemon.aclose()
            assert first["served_from"] == "simulated"
            assert second["served_from"] == "store"

        asyncio.run(check())


class TestCoalescing:
    def test_duplicate_burst_runs_one_simulation(self, store, fake_engine):
        fake_engine.release.clear()

        async def check(daemon):
            loop = asyncio.get_running_loop()
            burst = [asyncio.ensure_future(advise(daemon, query(warmup=7))) for _ in range(5)]
            await loop.run_in_executor(None, fake_engine.started.wait, 10)
            # Hold the engine until every duplicate has attached to the
            # single inflight entry — releasing earlier would let a slow
            # connection arrive after the result landed in the store and
            # be (correctly, but unhelpfully for this test) served warm.
            deadline = loop.time() + 10
            while daemon.service.counters["coalesced"] < 4:
                assert loop.time() < deadline, "duplicates never coalesced"
                await asyncio.sleep(0.01)
            assert daemon.service.inflight == 1
            fake_engine.release.set()
            outcomes = await asyncio.gather(*burst)
            assert [status for status, _, _ in outcomes] == [200] * 5
            sources = sorted(body["served_from"] for _, _, body in outcomes)
            assert sources == ["coalesced"] * 4 + ["simulated"]
            assert daemon.service.counters["coalesced"] == 4
            assert daemon.service.counters["cold_misses"] == 1

        serve_test(check)
        assert fake_engine.calls == 1

    def test_distinct_keys_do_not_coalesce(self, store, fake_engine):
        async def check(daemon):
            outcomes = await asyncio.gather(
                advise(daemon, query(warmup=1)), advise(daemon, query(warmup=2))
            )
            assert [status for status, _, _ in outcomes] == [200, 200]
            assert daemon.service.counters["coalesced"] == 0

        serve_test(check)
        assert fake_engine.calls == 2


class TestAdmissionControl:
    def test_saturated_daemon_rejects_new_cold_keys(self, store, fake_engine):
        fake_engine.release.clear()

        async def check(daemon):
            loop = asyncio.get_running_loop()
            blocked = asyncio.ensure_future(advise(daemon, query(warmup=1)))
            await loop.run_in_executor(None, fake_engine.started.wait, 10)

            # A *different* cold key is turned away with retry guidance...
            status, headers, body = await advise(daemon, query(warmup=2))
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            assert body["retry_after_s"] >= 1
            # ...but a duplicate of the blocked key still coalesces...
            follower = asyncio.ensure_future(advise(daemon, query(warmup=1)))
            await asyncio.sleep(0.05)
            assert daemon.service.counters["coalesced"] == 1
            # ...and a warm key is still served: admission only guards sims.
            warm_spec = service_mod.parse_query(query(warmup=3)).spec
            _, warm_key, _ = await loop.run_in_executor(
                None, daemon.service._lookup, warm_spec
            )
            daemon.service.store.put(warm_key, SUMMARY)
            status, _, warm = await advise(daemon, query(warmup=3))
            assert status == 200 and warm["served_from"] == "store"

            fake_engine.release.set()
            (status1, _, _), (status2, _, _) = await asyncio.gather(blocked, follower)
            assert (status1, status2) == (200, 200)
            assert daemon.service.counters["rejected"] == 1

        serve_test(check, max_inflight=1)
        assert fake_engine.calls == 1


class TestStreaming:
    def test_cold_stream_heartbeats_then_result(self, store, fake_engine):
        fake_engine.release.clear()

        async def check(daemon):
            loop = asyncio.get_running_loop()
            collected = asyncio.ensure_future(
                stream_json_events(
                    "127.0.0.1", daemon.port, "/v1/advise",
                    query(warmup=5, stream=True), timeout=30,
                )
            )
            await loop.run_in_executor(None, fake_engine.started.wait, 10)
            await asyncio.sleep(0.15)  # let a few heartbeats tick
            fake_engine.release.set()
            status, events = await collected
            assert status == 200
            kinds = [event["event"] for event in events]
            assert kinds[0] == "accepted" and events[0]["served_from"] == "simulated"
            assert kinds[-1] == "result"
            assert kinds.count("heartbeat") >= 1
            assert events[-1]["served_from"] == "simulated"
            assert daemon.service.counters["streams"] == 1

        serve_test(check, heartbeat=0.02)

    def test_warm_stream_skips_straight_to_result(self, store):
        async def check(daemon):
            await advise(daemon, query())  # prime the key (real engine)
            status, events = await stream_json_events(
                "127.0.0.1", daemon.port, "/v1/advise",
                query(stream=True), timeout=30,
            )
            assert status == 200
            assert [event["event"] for event in events] == ["accepted", "result"]
            assert events[-1]["served_from"] == "store"

        serve_test(check)

    def test_rejected_stream_gets_http_429(self, store, fake_engine):
        fake_engine.release.clear()

        async def check(daemon):
            loop = asyncio.get_running_loop()
            blocked = asyncio.ensure_future(advise(daemon, query(warmup=1)))
            await loop.run_in_executor(None, fake_engine.started.wait, 10)
            status, events = await stream_json_events(
                "127.0.0.1", daemon.port, "/v1/advise",
                query(warmup=2, stream=True), timeout=30,
            )
            assert status == 429  # rejected before the stream starts
            assert "retry_after_s" in events[0]
            fake_engine.release.set()
            status, _, _ = await blocked
            assert status == 200

        serve_test(check, max_inflight=1)


class TestKeepAlive:
    def test_wants_keep_alive_semantics(self):
        def req(version, connection=None):
            headers = {} if connection is None else {"connection": connection}
            return Request(method="GET", path="/", query="", headers=headers,
                           version=version)

        assert req("HTTP/1.1").wants_keep_alive
        assert req("HTTP/1.1", "keep-alive").wants_keep_alive
        assert not req("HTTP/1.1", "close").wants_keep_alive
        assert not req("HTTP/1.0").wants_keep_alive
        assert req("HTTP/1.0", "keep-alive").wants_keep_alive

    def test_sequential_requests_reuse_one_connection(self, store):
        async def check(daemon):
            async with JsonClient("127.0.0.1", daemon.port) as client:
                status1, headers1, body1 = await client.request(
                    "GET", "/healthz", timeout=10
                )
                status2, _, body2 = await client.request("GET", "/v1/stats", timeout=10)
                assert (status1, status2) == (200, 200)
                assert headers1["connection"] == "keep-alive"
                assert body1["status"] == "ok"
                assert body2["serving"]["requests"] == 0
                assert client.reused == 1  # second round trip reused the socket

        serve_test(check)

    def test_raw_pipeline_of_two_requests(self, store):
        """Two requests written on one raw socket are both answered."""

        async def check(daemon):
            reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port)
            head = (
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                b"Connection: keep-alive\r\nContent-Length: 0\r\n\r\n"
            )
            writer.write(head)
            await writer.drain()
            first = await asyncio.wait_for(reader.readuntil(b"}"), 10)
            assert first.startswith(b"HTTP/1.1 200 ")
            writer.write(head.replace(b"keep-alive", b"close"))
            await writer.drain()
            rest = await asyncio.wait_for(reader.read(), 10)
            assert rest.startswith(b"HTTP/1.1 200 ")
            assert b"Connection: close" in rest  # second reply ends the session
            writer.close()

        serve_test(check)

    def test_connection_close_is_honored(self, store):
        async def check(daemon):
            reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port)
            writer.write(
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                b"Connection: close\r\nContent-Length: 0\r\n\r\n"
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 10)  # EOF: server closed
            assert raw.startswith(b"HTTP/1.1 200 ")
            assert b"Connection: close" in raw
            writer.close()

        serve_test(check)

    def test_http_10_closes_by_default(self, store):
        async def check(daemon):
            reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port)
            writer.write(b"GET /healthz HTTP/1.0\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 10)
            assert raw.startswith(b"HTTP/1.1 200 ")
            assert b"Connection: close" in raw
            writer.close()

        serve_test(check)

    def test_idle_timeout_expires_and_client_recovers(self, store):
        async def check(daemon):
            async with JsonClient("127.0.0.1", daemon.port) as client:
                status, _, _ = await client.request("GET", "/healthz", timeout=10)
                assert status == 200
                await asyncio.sleep(0.4)  # past the 0.1s idle timeout
                # The stale socket is detected and the request retried fresh.
                status, _, _ = await client.request("GET", "/healthz", timeout=10)
                assert status == 200

        serve_test(check, keepalive_timeout=0.1)


class TestNegativeCache:
    def test_repeated_bad_query_is_served_from_cache(self, store):
        parse_calls = 0
        real_parse = daemon_mod.parse_query

        def counting_parse(payload):
            nonlocal parse_calls
            parse_calls += 1
            return real_parse(payload)

        bad = {"structure": "vc4"}  # valid JSON, but no trace: a 400

        async def check(daemon):
            daemon_mod.parse_query = counting_parse
            try:
                status1, _, body1 = await advise(daemon, bad, timeout=10)
                status2, _, body2 = await advise(daemon, bad, timeout=10)
            finally:
                daemon_mod.parse_query = real_parse
            assert (status1, status2) == (400, 400)
            assert body1 == body2  # byte-identical cached 400 body
            assert parse_calls == 1  # the retry never re-parsed
            assert daemon.service.counters["negative_hits"] == 1

        serve_test(check)

    def test_malformed_json_bytes_are_cached_too(self, store):
        async def roundtrip(daemon):
            reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port)
            body = b"{nope"
            writer.write(
                b"POST /v1/advise HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 10)
            writer.close()
            return raw

        async def check(daemon):
            first = await roundtrip(daemon)
            second = await roundtrip(daemon)
            assert first.startswith(b"HTTP/1.1 400 ")
            assert second.startswith(b"HTTP/1.1 400 ")
            assert daemon.service.counters["negative_hits"] == 1

        serve_test(check)

    def test_good_queries_never_touch_the_negative_cache(self, store):
        async def check(daemon):
            status, _, _ = await advise(daemon, query())
            assert status == 200
            assert daemon.service.counters["negative_hits"] == 0
            assert len(daemon.service._rejections) == 0
            # And the stored entry is the result, not a rejection.
            assert daemon.service.store.stats().entries == 1

        serve_test(check)

    def test_rejections_stay_out_of_the_store(self, store):
        async def check(daemon):
            status, _, _ = await advise(daemon, {"structure": "vc4"})
            assert status == 400
            assert len(daemon.service._rejections) == 1
            assert daemon.service.store.stats().entries == 0

        serve_test(check)

    def test_oldest_entry_dropped_past_the_cap(self, store, monkeypatch):
        monkeypatch.setattr(service_mod, "NEGATIVE_CACHE_ENTRIES", 2)

        async def check(daemon):
            service = daemon.service
            service.record_bad_request(b"a", "bad a")
            service.record_bad_request(b"b", "bad b")
            assert service.cached_bad_request(b"a") == "bad a"  # a is now newest
            service.record_bad_request(b"c", "bad c")
            assert service.cached_bad_request(b"b") is None  # least recently used
            assert service.cached_bad_request(b"a") == "bad a"
            assert service.cached_bad_request(b"c") == "bad c"
            assert len(service._rejections) == 2
            assert service.counters["negative_hits"] == 3

        serve_test(check)

    def test_long_messages_are_not_remembered(self, store):
        async def check(daemon):
            service = daemon.service
            service.record_bad_request(b"x", "e" * (service_mod.NEGATIVE_CACHE_MAX_MESSAGE + 1))
            assert service.cached_bad_request(b"x") is None

        serve_test(check)


@pytest.fixture
def fault_plan():
    yield set_plan
    set_plan(None)


async def stream(daemon, payload, timeout=30.0):
    return await stream_json_events(
        "127.0.0.1", daemon.port, "/v1/advise", dict(payload, stream=True), timeout=timeout
    )


UNKNOWN_TENANT = {
    "trace": {"kind": "tenant_mix", "tenants": [{"name": "no-such-workload"}], "length": 1000},
}


class TestOneAdvisePath:
    """Plain and streamed queries share one sequence and one error mapping."""

    @pytest.mark.parametrize("streamed", [False, True])
    def test_unknown_tenant_workload_is_400(self, store, streamed):
        async def check(daemon):
            for _ in range(2):
                if streamed:
                    status, events = await stream(daemon, UNKNOWN_TENANT)
                    body = events[0]
                else:
                    status, _, body = await advise(daemon, UNKNOWN_TENANT)
                assert status == 400
                assert body["error"].startswith("unknown workload 'no-such-workload'")
            assert daemon.service.counters["negative_hits"] == 1
            assert daemon.service.counters["failed"] == 0

        serve_test(check)

    @pytest.mark.parametrize("streamed", [False, True])
    def test_keying_failure_is_400(self, store, streamed, monkeypatch):
        async def check(daemon):
            def unkeyable(spec):
                raise KeyError("no fingerprint")

            monkeypatch.setattr(daemon.service, "_lookup", unkeyable)
            if streamed:
                status, events = await stream(daemon, query())
                body = events[0]
            else:
                status, _, body = await advise(daemon, query())
            assert status == 400
            assert body["error"] == "query could not be keyed: no fingerprint"
            assert daemon.service.counters["failed"] == 0

        serve_test(check)

    @pytest.mark.parametrize("streamed", [False, True])
    def test_same_status_for_the_same_failing_body(self, store, streamed):
        bodies = [
            query(deadline_ms=-1),
            query(structure="no-such-structure"),
            {"trace": {"name": "no-such"}},
        ]

        async def check(daemon):
            statuses = []
            for body in bodies:
                if streamed:
                    status, _ = await stream(daemon, body)
                else:
                    status, _, _ = await advise(daemon, body)
                statuses.append(status)
            return statuses

        assert serve_test(check) == [400, 400, 400]

    def test_stream_deadline_after_accepted_ends_with_504_event(
        self, store, fake_engine, fault_plan
    ):
        fault_plan("slow_sim@0:1")

        async def check(daemon):
            status, events = await stream(daemon, query(warmup=1, deadline_ms=150))
            assert status == 200
            assert events[0] == {"event": "accepted", "served_from": "simulated"}
            assert events[-1]["event"] == "error" and events[-1]["status"] == 504
            assert "deadline" in events[-1]["error"]
            assert daemon.service.counters["deadline_expired"] == 1
            # The abandoned job was not cancelled: it runs to completion.
            assert daemon.service.inflight == 1
            for _ in range(200):
                if not daemon.service.inflight:
                    break
                await asyncio.sleep(0.02)
            assert daemon.service.inflight == 0
            assert fake_engine.calls == 1

        serve_test(check, heartbeat=0.02)

    def test_server_deadline_bounds_streams(self, store, fake_engine, fault_plan):
        fault_plan("slow_sim@0:1")

        async def check(daemon):
            status, events = await stream(daemon, query(warmup=1))
            assert status == 200
            assert events[-1]["status"] == 504
            assert daemon.service.counters["deadline_expired"] == 1

        serve_test(check, request_deadline=0.15)

    def test_stream_deadline_before_accepted_is_http_504(self, store, monkeypatch):
        async def check(daemon):
            real_lookup = daemon.service._lookup
            release = threading.Event()

            def slow_lookup(spec):
                release.wait(10)
                return real_lookup(spec)

            monkeypatch.setattr(daemon.service, "_lookup", slow_lookup)
            try:
                status, events = await stream(daemon, query(deadline_ms=100))
            finally:
                release.set()
            assert status == 504
            assert "store lookup" in events[0]["error"]
            assert daemon.service.counters["deadline_expired"] == 1

        serve_test(check)

    def test_degraded_serves_counts_requests(self, store, fake_engine, fault_plan):
        fault_plan("store_read_fail@0x*,store_write_fail@0x*")

        async def check(daemon):
            with pytest.warns(service_mod.StoreDegradedWarning):
                for warmup in (1, 2, 3):
                    status, _, _ = await advise(daemon, query(warmup=warmup))
                    assert status == 200
            counters = daemon.service.counters
            assert counters["requests"] == 3
            assert counters["degraded_serves"] == 3

        serve_test(check, store_probe_interval=60.0)


class TestParseQuery:
    def test_shorthand_parse_builds_no_system_config(self, monkeypatch):
        """The baseline is one shared value: after the first shorthand
        query, parsing another constructs no ``SystemConfig``."""
        from repro.common.config import SystemConfig

        first = service_mod.parse_query(query())
        built = []
        original = SystemConfig.__post_init__
        monkeypatch.setattr(
            SystemConfig, "__post_init__", lambda self: (built.append(self), original(self))
        )
        second = service_mod.parse_query(query())
        assert built == []
        assert second.spec == first.spec
        assert second.spec.config is first.spec.config


class TestHotKeys:
    """A key read once from disk is answered from memory on the event loop."""

    @staticmethod
    def warm(service, payload):
        """Store SUMMARY under *payload*'s key (the front tier stays empty)."""
        _, key, _ = service._lookup(service_mod.parse_query(payload).spec)
        service.store.put(key, SUMMARY)
        return key

    @staticmethod
    def count_submits(service, monkeypatch):
        submits = []
        real_submit = service._lookup_pool.submit
        monkeypatch.setattr(
            service._lookup_pool, "submit",
            lambda fn, *args: submits.append(fn) or real_submit(fn, *args),
        )
        return submits

    def test_warm_advise_hashes_a_fresh_spec_once(self, store, fake_engine, monkeypatch):
        from types import SimpleNamespace

        from repro.specs import system as system_mod

        hashes = []
        real_sha256 = system_mod.hashlib.sha256

        async def check(daemon):
            service = daemon.service
            self.warm(service, query(warmup=3))
            monkeypatch.setattr(system_mod, "hashlib", SimpleNamespace(
                sha256=lambda data: hashes.append(data) or real_sha256(data)
            ))
            # The first warm advise reads the disk, the second the front tier.
            for expected in (1, 2):
                body = await service.advise(service_mod.parse_query(query(warmup=3)))
                assert body["served_from"] == "store"
                assert len(hashes) == expected

        serve_test(check)
        assert fake_engine.calls == 0

    def test_hot_key_skips_the_lookup_pool(self, store, fake_engine, monkeypatch):
        async def check(daemon):
            service = daemon.service
            key = self.warm(service, query(warmup=3))
            submits = self.count_submits(service, monkeypatch)
            first = await service.advise(service_mod.parse_query(query(warmup=3)))
            assert len(submits) == 1  # a disk read: on the lookup pool
            second = await service.advise(service_mod.parse_query(query(warmup=3)))
            assert len(submits) == 1  # hot: answered on the loop
            assert first == second
            assert second["served_from"] == "store"
            assert second["spec_hash"] == key.spec_hash
            assert second["key_digest"] == key.digest()
            assert service.counters["requests"] == 2
            assert service.counters["warm_hits"] == 2
            fresh = await service.advise(service_mod.parse_query(query(warmup=4)))
            assert fresh["served_from"] == "simulated"
            assert len(submits) == 2  # a first-sight key still goes to the pool

        serve_test(check)

    def test_degraded_store_skips_the_front_tier(self, store, fake_engine, monkeypatch):
        async def check(daemon):
            service = daemon.service
            self.warm(service, query(warmup=3))
            await service.advise(service_mod.parse_query(query(warmup=3)))  # fills it
            service.guarded_store._note_failure("read", OSError("disk gone"))
            submits = self.count_submits(service, monkeypatch)
            body = await service.advise(service_mod.parse_query(query(warmup=3)))
            assert body["served_from"] == "simulated"
            assert len(submits) == 1
            assert fake_engine.calls == 1
            assert service.counters["degraded_serves"] == 1

        with pytest.warns(service_mod.StoreDegradedWarning):
            serve_test(check, store_probe_interval=60.0)

    def test_store_read_fail_fires_on_a_front_tier_hit(self, store, fake_engine, fault_plan):
        async def check(daemon):
            service = daemon.service
            key = self.warm(service, query(warmup=3))
            await service.advise(service_mod.parse_query(query(warmup=3)))  # fills it
            assert service.store.peek(key)[0] == SUMMARY
            fault_plan("store_read_fail@0")
            with pytest.warns(service_mod.StoreDegradedWarning):
                body = await service.advise(service_mod.parse_query(query(warmup=3)))
            assert body["served_from"] == "simulated"
            assert service.counters["store_errors"] == 1
            assert service.store_state == "degraded"

        serve_test(check, store_probe_interval=60.0)

    def test_hot_stream_is_accepted_then_result(self, store, fake_engine, monkeypatch):
        async def check(daemon):
            self.warm(daemon.service, query(warmup=3))
            await advise(daemon, query(warmup=3))  # fills the front tier
            submits = self.count_submits(daemon.service, monkeypatch)
            status, events = await stream(daemon, query(warmup=3))
            assert status == 200
            assert [event["event"] for event in events] == ["accepted", "result"]
            assert events[0]["served_from"] == events[-1]["served_from"] == "store"
            assert submits == []

        serve_test(check)


class TestStatsAndMetrics:
    def test_stats_payload_shape(self, store):
        async def check(daemon):
            await advise(daemon, query())
            status, _, stats = await request_json(
                "127.0.0.1", daemon.port, "GET", "/v1/stats", timeout=10
            )
            assert status == 200
            assert stats["serving"]["requests"] == 1
            assert stats["serving"]["cold_misses"] == 1
            assert stats["max_inflight"] == 4
            assert "jobs" not in stats
            assert stats["inflight"] == 0
            assert stats["retry_after_hint_s"] >= 1
            assert stats["store_root"] == str(daemon.service.store.root)
            assert stats["uptime_s"] >= 0

        serve_test(check)

    def test_shutdown_emits_validated_run_record(self, store, tmp_path):
        from repro.telemetry.record import read_records, validate_record

        metrics = tmp_path / "serve-runs.jsonl"

        async def check(daemon):
            await advise(daemon, query())
            await advise(daemon, query())

        serve_test(check, emit_metrics=str(metrics))
        records = list(read_records(str(metrics)))
        assert len(records) == 1
        validate_record(records[0].as_dict())
        assert records[0].run == "serve"
        assert records[0].serving["requests"] == 2
        assert records[0].serving["warm_hits"] == 1
        assert records[0].serving["cold_misses"] == 1


class TestCliValidation:
    def test_out_of_range_port_exits_2(self, capsys):
        assert serve_main(["--port", "70000"]) == 2
        assert "--port" in capsys.readouterr().err

    def test_nonpositive_max_inflight_exits_2(self, capsys):
        assert serve_main(["--max-inflight", "0"]) == 2
        assert "--max-inflight" in capsys.readouterr().err

    def test_nonpositive_heartbeat_exits_2(self, capsys):
        assert serve_main(["--heartbeat", "-1"]) == 2
        assert "--heartbeat" in capsys.readouterr().err

    def test_missing_store_exits_2(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        assert serve_main(["--port", "0"]) == 2
        assert "result store" in capsys.readouterr().err

    def test_jobs_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            serve_main(["--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert "jobs" not in {field.name for field in dataclasses.fields(ServeConfig)}

    def test_loadgen_module_starts_without_runtime_warning(self):
        """``python -m repro.serve.loadgen`` must not find itself already
        imported by the ``repro.serve`` package (runpy's RuntimeWarning)."""
        repo = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.serve.loadgen",
             "--help"],
            capture_output=True, text=True, env=env, cwd=repo, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_loadgen_validation_exits_2(self, capsys):
        assert loadgen_main(["--port", "0"]) == 2
        assert loadgen_main(["--concurrency", "0"]) == 2
        capsys.readouterr()


class TestLoadgen:
    def test_percentiles_interpolate(self):
        pct = percentiles([float(value) for value in range(1, 101)])
        assert pct["p50"] == pytest.approx(50.5)
        assert pct["p95"] == pytest.approx(95.05)
        assert pct["p99"] == pytest.approx(99.01)
        assert percentiles([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_check_coalescing_flags_failures(self):
        bad = LoadReport(
            classes={
                "warm": ClassReport("warm", latencies_s=[0.1], served_from={"simulated": 1}),
                "cold": ClassReport("cold"),
                "duplicate": ClassReport(
                    "duplicate",
                    latencies_s=[0.1, 0.1],
                    served_from={"simulated": 2},
                ),
            },
            server_stats={"serving": {"coalesced": 0}},
            elapsed_s=1.0,
        )
        failures = check_coalescing(bad)
        assert len(failures) == 3  # warm source, simulation count, follower count

    def test_loadgen_round_trip_coalesces(self, store):
        async def check(daemon):
            return await run_loadgen(
                host="127.0.0.1",
                port=daemon.port,
                trace="linpack",
                scale=SCALE,
                seed=0,
                structure="vc4",
                warm_requests=4,
                cold_requests=1,
                duplicates=3,
                concurrency=4,
            )

        report = serve_test(check)
        assert check_coalescing(report) == []
        warm = report.classes["warm"]
        assert warm.served_from == {"store": 4}
        duplicate = report.classes["duplicate"]
        assert duplicate.served_from.get("simulated") == 1
        # 8 requests over at most 4 pooled connections: reuse must happen.
        assert report.reused_round_trips >= 4
