"""Serve-layer resilience: deadlines, breaker, degraded store, drain.

The serve-scoped fault grammar (``store_read_fail``/``store_write_fail``/
``slow_sim``/``reject_sim``) and the controllable fake engine make every
failure mode here deterministic: no real disks die and no real sims run
long, yet the daemon's full degraded-operation surface — 504 deadline
budgets, 503 breaker fast-fails, serve-from-engine store degradation,
graceful drain — is exercised over real sockets.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.faults import (
    ACTIONS,
    ALWAYS,
    ServeFaults,
    parse_plan,
    set_plan,
)
from repro.serve import service as service_mod
from repro.serve.breaker import CircuitBreaker
from repro.serve.cli import main as serve_main
from repro.serve.cli import validate_request_deadline
from repro.serve.httpio import JsonClient, request_json
from repro.serve.loadgen import ClassReport, LoadReport, check_resilience, wait_ready
from repro.serve.service import StoreDegradedWarning, UpstreamError, parse_query

from tests.test_serve import FakeEngine, advise, fake_engine, query, serve_test, store  # noqa: F401

pytestmark = pytest.mark.usefixtures("clean_fault_plan")


@pytest.fixture
def clean_fault_plan():
    yield
    set_plan(None)


# -- the serve fault grammar ---------------------------------------------------


class TestServeFaultGrammar:
    def test_serve_actions_parse(self):
        plan = parse_plan("store_read_fail@0x*,slow_sim@2x3:1.5,reject_sim@4")
        actions = [clause.action for clause in plan.clauses]
        assert actions == ["store_read_fail", "slow_sim", "reject_sim"]
        assert plan.clauses[0].count == ALWAYS
        assert plan.clauses[1].seconds == 1.5

    def test_occurrence_windows(self):
        plan = parse_plan("slow_sim@2x3:1.5,reject_sim@4x*")
        assert plan.serve_clause("slow_sim", 1) is None
        for occurrence in (2, 3, 4):
            assert plan.serve_clause("slow_sim", occurrence) is not None
        assert plan.serve_clause("slow_sim", 5) is None
        # x* keeps the window open-ended.
        assert plan.serve_clause("reject_sim", 3) is None
        assert plan.serve_clause("reject_sim", 400) is not None

    def test_engine_matching_ignores_serve_clauses(self):
        plan = parse_plan("store_read_fail@0x*,crash@0")
        clause = plan.clause_for(0, 0)
        assert clause is not None and clause.action == "crash"
        engine_only = parse_plan("store_read_fail@0x*")
        assert engine_only.clause_for(0, 0, actions=ACTIONS) is None

    def test_serve_faults_count_per_action(self):
        set_plan("reject_sim@1x2")
        faults = ServeFaults()
        assert faults.fire("reject_sim") is None  # occurrence 0
        assert faults.fire("reject_sim") is not None  # 1
        assert faults.fire("reject_sim") is not None  # 2
        assert faults.fire("reject_sim") is None  # 3: window closed
        # Independent counter per action.
        assert faults.fire("slow_sim") is None

    def test_fire_rejects_engine_actions(self):
        with pytest.raises(ValueError):
            ServeFaults().fire("crash")

    def test_no_plan_is_quiet(self):
        assert ServeFaults().fire("reject_sim") is None

    def test_unknown_action_still_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_plan("slow_simulation@0")


# -- the circuit breaker -------------------------------------------------------


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_opens_at_threshold(self):
        clock = _Clock()
        breaker = CircuitBreaker(threshold=3, window=30, cooldown=5, clock=clock)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.allow()
        assert breaker.record_failure() is True
        assert breaker.state == "open"
        assert breaker.opens == 1
        assert not breaker.allow()
        assert breaker.retry_after() >= 1.0

    def test_window_prunes_old_failures(self):
        clock = _Clock()
        breaker = CircuitBreaker(threshold=2, window=10, cooldown=5, clock=clock)
        breaker.record_failure()
        clock.now = 11.0  # first failure ages out of the window
        assert breaker.record_failure() is False
        assert breaker.state == "closed"

    def test_half_open_admits_one_probe(self):
        clock = _Clock()
        breaker = CircuitBreaker(threshold=1, window=30, cooldown=5, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 5.0
        assert breaker.allow()  # the probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # only one probe at a time

    def test_probe_success_closes(self):
        clock = _Clock()
        breaker = CircuitBreaker(threshold=1, window=30, cooldown=5, clock=clock)
        breaker.record_failure()
        clock.now = 5.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        clock = _Clock()
        breaker = CircuitBreaker(threshold=1, window=30, cooldown=5, clock=clock)
        breaker.record_failure()
        clock.now = 5.0
        assert breaker.allow()
        assert breaker.record_failure() is True
        assert breaker.state == "open"
        assert breaker.opens == 2
        clock.now = 6.0
        assert not breaker.allow()  # cooldown restarted

    def test_stale_failures_while_open_ignored(self):
        clock = _Clock()
        breaker = CircuitBreaker(threshold=1, window=30, cooldown=5, clock=clock)
        breaker.record_failure()
        assert breaker.record_failure() is False  # pre-open dispatch settling late
        assert breaker.opens == 1

    def test_late_success_does_not_close_open_breaker(self):
        breaker = CircuitBreaker(threshold=1, window=30, cooldown=5, clock=_Clock())
        breaker.record_failure()
        breaker.record_success()
        assert breaker.state == "open"

    def test_as_dict_shape(self):
        breaker = CircuitBreaker(threshold=2, window=30, cooldown=5, clock=_Clock())
        payload = breaker.as_dict()
        assert payload["state"] == "closed"
        assert payload["threshold"] == 2
        assert payload["opens"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(window=0)


# -- deadline budgets ----------------------------------------------------------


class TestDeadlines:
    def test_deadline_ms_parsing(self):
        assert parse_query(query(deadline_ms=250)).deadline_s == 0.25
        for bad in (True, "soon", -5, 0):
            with pytest.raises(service_mod.BadRequestError):
                parse_query(query(deadline_ms=bad))

    def test_client_deadline_answers_504(self, store, fake_engine):
        fake_engine.release.clear()

        async def check(daemon):
            status, _, body = await advise(daemon, dict(query(warmup=1), deadline_ms=100))
            assert status == 504
            assert "deadline" in body["error"]
            assert daemon.service.counters["deadline_expired"] == 1
            # The abandoned job was never cancelled: it settles normally.
            assert daemon.service.inflight == 1
            fake_engine.release.set()
            for _ in range(200):
                if not daemon.service.inflight:
                    break
                await asyncio.sleep(0.02)
            assert daemon.service.inflight == 0
            assert fake_engine.calls == 1

        serve_test(check)

    def test_server_deadline_applies_without_client_budget(self, store, fake_engine):
        fake_engine.release.clear()

        async def check(daemon):
            status, _, body = await advise(daemon, query(warmup=1))
            assert status == 504 and "deadline" in body["error"]
            fake_engine.release.set()

        serve_test(check, request_deadline=0.1)

    def test_timed_out_waiter_does_not_cancel_shared_job(self, store, fake_engine):
        fake_engine.release.clear()

        async def check(daemon):
            loop = asyncio.get_running_loop()
            task_a = asyncio.create_task(advise(daemon, query(warmup=1)))
            await loop.run_in_executor(None, fake_engine.started.wait, 10)
            # B coalesces onto A's job, then times out alone.
            status_b, _, body_b = await advise(
                daemon, dict(query(warmup=1), deadline_ms=150)
            )
            assert status_b == 504
            assert daemon.service.inflight == 1
            fake_engine.release.set()
            status_a, _, body_a = await task_a
            assert status_a == 200
            assert body_a["served_from"] == "simulated"
            counters = daemon.service.counters
            assert counters["cold_misses"] == 1
            assert counters["coalesced"] == 1
            assert counters["deadline_expired"] == 1
            assert fake_engine.calls == 1

        serve_test(check)

    def test_slow_sim_fault_trips_server_deadline(self, store, fake_engine):
        set_plan("slow_sim@0:1")

        async def check(daemon):
            status, _, body = await advise(daemon, query(warmup=1))
            assert status == 504

        serve_test(check, request_deadline=0.15)

    def test_aclose_waits_for_a_sim_abandoned_at_its_deadline(self, store, fake_engine):
        """A cold job outliving its request must not outlive the daemon:
        its late engine call would land in whatever runs next."""
        set_plan("slow_sim@1:0.5")

        def sim_threads():
            return [t for t in threading.enumerate() if t.name.startswith("repro-serve-sim")]

        async def check(daemon):
            # A first cold query warms the lookup path, so the second
            # one's deadline expires while its job sleeps, not earlier.
            assert (await advise(daemon, query()))[0] == 200
            status, _, body = await advise(daemon, dict(query(warmup=1), deadline_ms=100))
            assert status == 504 and "deadline" in body["error"]
            assert fake_engine.calls == 1  # the abandoned job is still asleep
            await asyncio.wait_for(daemon.aclose(), 10)
            assert fake_engine.calls == 2  # ...and ran to its end before aclose returned
            assert not sim_threads()

        serve_test(check)


# -- the breaker on the wire ---------------------------------------------------


class _FlakyEngine:
    """run_jobs stand-in that fails until told otherwise."""

    def __init__(self) -> None:
        self.calls = 0
        self.fail = True

    def __call__(self, job_list, **kwargs):
        self.calls += 1
        if self.fail:
            raise RuntimeError("boom")
        from tests.test_serve import SUMMARY

        return [SUMMARY for _ in job_list]


class TestBreakerIntegration:
    def test_opens_then_fast_fails_with_retry_after(self, store, monkeypatch):
        flaky = _FlakyEngine()
        monkeypatch.setattr(service_mod, "run_jobs", flaky)

        async def check(daemon):
            for warmup in (1, 2):
                status, _, body = await advise(daemon, query(warmup=warmup))
                assert status == 503
                assert "simulation failed" in body["error"]
            assert daemon.service.breaker.state == "open"
            status, headers, body = await advise(daemon, query(warmup=3))
            assert status == 503
            assert "breaker" in body["error"]
            assert "retry-after" in headers
            assert flaky.calls == 2  # the fast-fail never dispatched
            counters = daemon.service.counters
            assert counters["breaker_opens"] == 1
            assert counters["breaker_fastfail"] == 1
            rstatus, _, rbody = await request_json(
                "127.0.0.1", daemon.port, "GET", "/readyz", timeout=10
            )
            assert rstatus == 503
            assert rbody["status"] == "degraded" and rbody["breaker"] == "open"
            _, _, stats = await request_json(
                "127.0.0.1", daemon.port, "GET", "/v1/stats", timeout=10
            )
            assert stats["breaker"]["state"] == "open"
            assert stats["breaker"]["opens"] == 1

        serve_test(check, breaker_threshold=2, breaker_cooldown=60.0)

    def test_half_open_probe_recovers(self, store, monkeypatch):
        flaky = _FlakyEngine()
        monkeypatch.setattr(service_mod, "run_jobs", flaky)

        async def check(daemon):
            status, _, _ = await advise(daemon, query(warmup=1))
            assert status == 503
            assert daemon.service.breaker.state == "open"
            await asyncio.sleep(0.1)
            flaky.fail = False
            status, _, body = await advise(daemon, query(warmup=2))
            assert status == 200 and body["served_from"] == "simulated"
            assert daemon.service.breaker.state == "closed"
            rstatus, _, rbody = await request_json(
                "127.0.0.1", daemon.port, "GET", "/readyz", timeout=10
            )
            assert rstatus == 200 and rbody["status"] == "ready"

        serve_test(check, breaker_threshold=1, breaker_cooldown=0.05)

    def test_reject_sim_fault_is_typed_503(self, store, fake_engine):
        set_plan("reject_sim@0")

        async def check(daemon):
            status, _, body = await advise(daemon, query(warmup=1))
            assert status == 503
            assert "reject_sim" in body["error"]

        serve_test(check)


# -- degraded store mode -------------------------------------------------------


class TestDegradedStore:
    def test_store_failures_serve_from_engine_not_500(self, store, fake_engine):
        set_plan("store_read_fail@0x*,store_write_fail@0x*")

        async def check(daemon):
            with pytest.warns(StoreDegradedWarning):
                status, _, body = await advise(daemon, query(warmup=1))
            assert status == 200
            assert body["served_from"] == "simulated"
            assert daemon.service.store_state == "degraded"
            assert daemon.service.counters["store_errors"] >= 1
            rstatus, _, rbody = await request_json(
                "127.0.0.1", daemon.port, "GET", "/readyz", timeout=10
            )
            assert rstatus == 503
            assert rbody["status"] == "degraded" and rbody["store"] == "degraded"
            _, _, stats = await request_json(
                "127.0.0.1", daemon.port, "GET", "/v1/stats", timeout=10
            )
            assert stats["store_state"] == "degraded"
            assert daemon.service.counters["degraded_serves"] >= 1

        serve_test(check, store_probe_interval=60.0)

    def test_store_recovers_after_probe(self, store, fake_engine):
        set_plan("store_read_fail@0")  # one failure, then healthy

        async def check(daemon):
            with pytest.warns(StoreDegradedWarning):
                status, _, _ = await advise(daemon, query(warmup=1))
            assert status == 200
            assert daemon.service.counters["store_errors"] == 1
            # probe_interval=0: the very next store operation probes and
            # recovers.
            status, _, _ = await advise(daemon, query(warmup=2))
            assert status == 200
            assert daemon.service.store_state == "ok"
            rstatus, _, rbody = await request_json(
                "127.0.0.1", daemon.port, "GET", "/readyz", timeout=10
            )
            assert rstatus == 200 and rbody["status"] == "ready"

        serve_test(check, store_probe_interval=0.0)


# -- coalescing-leak regression ------------------------------------------------


class TestCoalescedFailureFanout:
    def test_all_waiters_get_typed_error_and_inflight_empties(self, store, monkeypatch):
        held = threading.Event()
        release = threading.Event()

        def failing_run_jobs(job_list, **kwargs):
            held.set()
            assert release.wait(30), "test never released the failing engine"
            raise RuntimeError("boom")

        monkeypatch.setattr(service_mod, "run_jobs", failing_run_jobs)

        async def check(daemon):
            service = daemon.service
            parsed = parse_query(query(warmup=1))
            loop = asyncio.get_running_loop()
            first = asyncio.create_task(service.advise(parsed))
            await loop.run_in_executor(None, held.wait, 10)
            others = [asyncio.create_task(service.advise(parsed)) for _ in range(2)]
            while service.counters["coalesced"] < 2:
                await asyncio.sleep(0.01)
            release.set()
            results = await asyncio.gather(first, *others, return_exceptions=True)
            # Every waiter — leader and coalesced followers alike — gets
            # the same *typed* UpstreamError; nobody hangs on a leaked
            # future and no dead entry remains to coalesce onto.
            assert len(results) == 3
            for outcome in results:
                assert isinstance(outcome, UpstreamError)
                assert "simulation failed" in str(outcome)
            assert service._inflight == {}
            assert service.counters["cold_misses"] == 1
            assert service.counters["coalesced"] == 2
            assert service.counters["failed"] == 3

        serve_test(check)

    def test_dispatch_reprobes_store_after_stale_lookup(self, store, fake_engine):
        """A lookup-miss/attach gap race never re-simulates a flushed key.

        The store lookup and the inflight attach are separate steps: a
        request's lookup can miss just before another request's
        simulation of the same key flushes and settles.  The dispatch
        re-probe must catch that — served from the store, zero engine
        calls — instead of running the simulation a second time.
        """

        async def check(daemon):
            service = daemon.service
            parsed = parse_query(query(warmup=1))
            job, key, _cached = service._lookup(parsed.spec)
            from tests.test_serve import SUMMARY

            service.guarded_store.put(key, SUMMARY)
            real_lookup = service._lookup
            # Simulate the race: the lookup reports a miss even though
            # the key has just been flushed.
            service._lookup = lambda spec: (*real_lookup(spec)[:2], None)
            status, _, body = await advise(daemon, query(warmup=1))
            assert status == 200
            assert body["served_from"] == "store"
            assert fake_engine.calls == 0
            assert service._inflight == {}

        serve_test(check)


# -- graceful drain ------------------------------------------------------------


class TestDrain:
    def test_keepalive_connection_crossing_a_drain(self, store, fake_engine):
        fake_engine.release.clear()

        async def check(daemon):
            loop = asyncio.get_running_loop()
            client = JsonClient("127.0.0.1", daemon.port)
            pending = asyncio.create_task(
                client.request("POST", "/v1/advise", query(warmup=1), timeout=30)
            )
            await loop.run_in_executor(None, fake_engine.started.wait, 10)
            drainer = asyncio.create_task(daemon.drain())
            await asyncio.sleep(0.05)
            assert daemon.draining
            # The in-flight request (read before the drain) completes.
            fake_engine.release.set()
            status, headers, body = await pending
            assert status == 200 and body["served_from"] == "simulated"
            assert headers.get("connection") == "keep-alive"
            # The next request on the same connection is refused and the
            # connection is told to close.
            status2, headers2, body2 = await client.request(
                "POST", "/v1/advise", query(warmup=2), timeout=10
            )
            assert status2 == 503
            assert "draining" in body2["error"]
            assert headers2.get("connection") == "close"
            assert headers2.get("retry-after") == "1"
            await client.aclose()
            await asyncio.wait_for(drainer, 10)
            assert daemon.service.counters["drain_rejects"] == 1

        serve_test(check)

    def test_drain_force_closes_idle_connections(self, store):
        async def check(daemon):
            client = JsonClient("127.0.0.1", daemon.port)
            status, _, _ = await client.request("GET", "/healthz", timeout=10)
            assert status == 200
            # The idle keep-alive connection never sends another request;
            # the drain deadline force-closes it (and the handler's own
            # close must not trip over the drain's).
            await asyncio.wait_for(daemon.drain(deadline=0.2), 10)
            assert daemon.draining
            await client.aclose()

        serve_test(check)

    def test_drain_is_idempotent(self, store):
        async def check(daemon):
            await asyncio.wait_for(daemon.drain(deadline=0.1), 10)
            await asyncio.wait_for(daemon.drain(deadline=0.1), 10)
            status, payload = daemon.readiness()
            assert status == 503 and payload["status"] == "draining"

        serve_test(check)


# -- readiness + stats surface -------------------------------------------------


class TestReadiness:
    def test_ready_daemon_reports_200(self, store):
        async def check(daemon):
            status, _, body = await request_json(
                "127.0.0.1", daemon.port, "GET", "/readyz", timeout=10
            )
            assert status == 200
            assert body["status"] == "ready"
            assert body["store"] == "ok"
            assert body["breaker"] == "closed"

        serve_test(check)

    def test_readyz_wrong_method_is_405(self, store):
        async def check(daemon):
            status, _, _ = await request_json(
                "127.0.0.1", daemon.port, "POST", "/readyz", timeout=10
            )
            assert status == 405

        serve_test(check)

    def test_stats_exposes_resilience_state(self, store):
        async def check(daemon):
            _, _, stats = await request_json(
                "127.0.0.1", daemon.port, "GET", "/v1/stats", timeout=10
            )
            assert stats["store_state"] == "ok"
            assert stats["breaker"]["state"] == "closed"
            assert stats["draining"] is False
            assert stats["request_deadline_s"] == 1.5
            serving = stats["serving"]
            for counter in (
                "deadline_expired",
                "breaker_fastfail",
                "breaker_opens",
                "store_errors",
                "degraded_serves",
                "drain_rejects",
            ):
                assert serving[counter] == 0

        serve_test(check, request_deadline=1.5)

    def test_breaker_disabled_reported(self, store):
        async def check(daemon):
            assert daemon.service.breaker is None
            _, _, stats = await request_json(
                "127.0.0.1", daemon.port, "GET", "/v1/stats", timeout=10
            )
            assert stats["breaker"] == {"state": "disabled"}
            status, _, body = await request_json(
                "127.0.0.1", daemon.port, "GET", "/readyz", timeout=10
            )
            assert status == 200 and body["breaker"] == "disabled"

        serve_test(check, breaker_threshold=0)


# -- loadgen readiness + resilience checks -------------------------------------


class TestWaitReady:
    def test_ready_daemon(self, store):
        async def check(daemon):
            await wait_ready("127.0.0.1", daemon.port, timeout=5)

        serve_test(check)

    def test_degraded_daemon_named_in_timeout(self, store):
        async def check(daemon):
            daemon.service.guarded_store.state = "degraded"
            with pytest.raises(TimeoutError, match="degraded"):
                await wait_ready("127.0.0.1", daemon.port, timeout=0.5)

        serve_test(check)

    def test_connection_refused_named_in_timeout(self):
        async def check():
            with pytest.raises(TimeoutError, match="not listening"):
                await wait_ready("127.0.0.1", 1, timeout=0.4)

        asyncio.run(check())

    def test_falls_back_to_healthz(self, store, monkeypatch):
        async def check(daemon):
            # A daemon predating /readyz answers 404 there; liveness is
            # the best wait_ready can do.
            monkeypatch.setattr(daemon, "readiness", lambda: (404, {"error": "old"}))
            await wait_ready("127.0.0.1", daemon.port, timeout=5)

        serve_test(check)


def _report(**classes) -> LoadReport:
    return LoadReport(classes=classes, server_stats={}, elapsed_s=0.1)


class TestCheckResilience:
    def test_clean_report_passes(self):
        ok = ClassReport("cold", statuses={"200": 3, "503": 1, "504": 1})
        assert check_resilience(_report(cold=ok)) == []

    def test_untyped_500_fails(self):
        bad = ClassReport("cold", statuses={"200": 2, "500": 1})
        failures = check_resilience(_report(cold=bad))
        assert failures and "500" in failures[0]

    def test_transport_errors_fail(self):
        dropped = ClassReport("cold", statuses={"200": 2}, errors=2)
        failures = check_resilience(_report(cold=dropped))
        assert failures and "transport" in failures[0]

    def test_deadline_class_must_see_504(self):
        deadline = ClassReport("deadline", statuses={"200": 3})
        failures = check_resilience(_report(deadline=deadline))
        assert failures and "504" in failures[0]
        deadline_ok = ClassReport("deadline", statuses={"504": 3})
        assert check_resilience(_report(deadline=deadline_ok)) == []

    def test_bad_class_must_all_400(self):
        bad = ClassReport("bad", statuses={"400": 1, "200": 1})
        failures = check_resilience(_report(bad=bad))
        assert failures and "400" in failures[0]


# -- CLI boundaries ------------------------------------------------------------


class TestCliKnobs:
    def test_request_deadline_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_REQUEST_DEADLINE", raising=False)
        assert validate_request_deadline(None) is None
        monkeypatch.setenv("REPRO_REQUEST_DEADLINE", "5")
        assert validate_request_deadline(None) == 5.0
        monkeypatch.setenv("REPRO_REQUEST_DEADLINE", "bogus")
        with pytest.raises(ConfigurationError):
            validate_request_deadline(None)

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_REQUEST_DEADLINE", "5")
        assert validate_request_deadline(2.0) == 2.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["--request-deadline", "-1"],
            ["--request-deadline", "0"],
            ["--drain-deadline", "-1"],
            ["--breaker-threshold", "-1"],
            ["--breaker-window", "0"],
            ["--breaker-cooldown", "0"],
        ],
    )
    def test_bad_resilience_knobs_exit_2(self, argv, capsys):
        assert serve_main(argv) == 2
        assert "repro-serve:" in capsys.readouterr().err


# -- end-to-end SIGTERM drain (subprocess; chaos-gated) ------------------------


@pytest.mark.skipif(
    not os.environ.get("REPRO_CHAOS"),
    reason="subprocess drain test; set REPRO_CHAOS=1 (CI serve-chaos job does)",
)
def test_sigterm_drains_and_exits_zero(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["REPRO_RESULT_STORE"] = str(tmp_path / "store")
    env["PYTHONPATH"] = str(repo / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.cli", "--port", "0", "--drain-deadline", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=repo,
    )
    try:
        banner = proc.stderr.readline()
        assert "listening" in banner, banner
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=20)
        assert proc.returncode == 0
        assert "draining" in err
    finally:
        if proc.poll() is None:
            proc.kill()


@pytest.mark.skipif(
    not os.environ.get("REPRO_CHAOS"),
    reason="subprocess shutdown test; set REPRO_CHAOS=1 (CI serve-chaos job does)",
)
def test_sigint_stops_and_emits_run_record(tmp_path):
    """kill -INT stops the daemon and lands the serving run record —
    even with SIGINT inherited as ignored (a shell-backgrounded daemon),
    which is exactly how the CI smoke job launches and stops it."""
    repo = Path(__file__).resolve().parents[1]
    metrics = tmp_path / "metrics.jsonl"
    env = dict(os.environ)
    env["REPRO_RESULT_STORE"] = str(tmp_path / "store")
    env["PYTHONPATH"] = str(repo / "src") + os.pathsep + env.get("PYTHONPATH", "")
    preexec = getattr(signal, "SIG_IGN", None) and (
        lambda: signal.signal(signal.SIGINT, signal.SIG_IGN)
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.cli", "--port", "0",
         "--emit-metrics", str(metrics)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=repo,
        preexec_fn=preexec,
    )
    try:
        banner = proc.stderr.readline()
        assert "listening" in banner, banner
        proc.send_signal(signal.SIGINT)
        proc.communicate(timeout=20)
        assert proc.returncode == 0
        payload = json.loads(metrics.read_text().splitlines()[0])
        assert payload["run"] == "serve"
    finally:
        if proc.poll() is None:
            proc.kill()
