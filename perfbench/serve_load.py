"""Drive a ``repro-serve`` daemon over loopback HTTP and check its answers.

The daemon runs in its own process on an empty result store.  The load
comes from this process over two keep-alive connections, each served by
one sender thread:

* the **open loop** sends a fixed schedule of requests
  (:func:`workloads.serve_schedule`) whatever the daemon's speed, and
  times each request from when it was *due*, so a stall is charged to
  every request queued behind it;
* the **closed loop** sends warm keys back to back, for throughput.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import threading
from dataclasses import dataclass
from time import perf_counter, sleep
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Outcome",
    "Daemon",
    "Connection",
    "run_open_loop",
    "run_closed_loop",
    "failure",
    "check_answers",
    "check_session",
]

Send = Callable[[bytes], Tuple[int, Optional[dict], Optional[str]]]


@dataclass
class Outcome:
    request: object
    status: int
    payload: Optional[dict]
    error: Optional[str]
    #: Seconds from when the request was due (open loop) or sent (closed
    #: loop) until its response was read.
    latency: float
    #: Seconds the request went out after it was due (0 in a closed loop).
    late: float
    #: Seconds from send to response.
    service: float
    #: ``perf_counter()`` readings when the request went out and returned.
    sent_at: float = 0.0
    done_at: float = 0.0


def failure(outcome: Outcome, expected: int) -> bool:
    """A transport error, a refusal (429), a server error, or a surprise status."""
    return (
        outcome.error is not None
        or outcome.status != expected
        or outcome.status == 429
        or outcome.status >= 500
    )


class Connection:
    """One keep-alive HTTP/1.1 connection to the daemon."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.port = port
        self.timeout = timeout
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        data = response.read()
        if response.getheader("Connection", "").lower() == "close":
            self.close()
        return response.status, data

    def get_json(self, path: str) -> Tuple[int, Optional[dict]]:
        status, data = self.request("GET", path)
        return status, json.loads(data)

    def post(self, body: bytes) -> Tuple[int, Optional[dict], Optional[str]]:
        try:
            status, data = self.request("POST", "/v1/advise", body)
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return 0, None, f"{type(exc).__name__}: {exc}"
        try:
            payload = json.loads(data)
        except ValueError:
            return status, None, "response body is not JSON"
        return status, payload, None

    def close(self) -> None:
        self._conn.close()
        self._conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=self.timeout)


class Daemon:
    """A daemon process: spawn, wait for ``/readyz``, read its memory, stop.

    The daemon is pinned to *cpu* as it starts, before it starts a
    thread, so all its threads run there.
    """

    def __init__(self, command: Sequence[str], env: Dict[str, str], cwd: str,
                 cpu: int) -> None:
        self.spawned = perf_counter()
        self.process = subprocess.Popen(
            list(command), env=env, cwd=cwd,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        os.sched_setaffinity(self.process.pid, {cpu})
        self.stderr: List[str] = []
        self._listening = threading.Event()
        self.port: Optional[int] = None
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()

    def _read_stderr(self) -> None:
        for line in self.process.stderr:
            self.stderr.append(line)
            if "listening on http://" in line and self.port is None:
                self.port = int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])
                self._listening.set()
        self._listening.set()

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawn until ``/readyz`` answered 200."""
        deadline = self.spawned + timeout
        if not self._listening.wait(timeout) or self.port is None:
            raise RuntimeError("daemon never listened: " + "".join(self.stderr[-5:]))
        while perf_counter() < deadline:
            conn = Connection(self.port, timeout=5.0)
            try:
                status, _ = conn.request("GET", "/readyz")
                if status == 200:
                    return perf_counter() - self.spawned
            except (OSError, http.client.HTTPException):
                pass
            finally:
                conn.close()
            sleep(0.005)
        raise RuntimeError("daemon never became ready")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, timeout: float = 30.0) -> int:
        """SIGINT (immediate stop, run record flushed), then wait; kill if stuck."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            code = self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self._reader.join(timeout)
        return code


def run_open_loop(requests: Sequence, senders: Sequence[Send], lead: float = 0.05) -> List[Outcome]:
    """Send each request at its ``due`` offset; one thread per sender.

    Requests are taken in schedule order by whichever sender is free.
    When every sender is busy, the next request waits, and its latency —
    measured from when it was due — includes that wait.
    """
    outcomes: List[Optional[Outcome]] = [None] * len(requests)
    start = perf_counter() + lead
    lock = threading.Lock()
    cursor = [0]

    def sender(send: Send) -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(requests):
                return
            request = requests[index]
            due = start + request.due
            pause = due - perf_counter()
            if pause > 0:
                sleep(pause)
            sent = perf_counter()
            status, payload, error = send(request.body)
            done = perf_counter()
            outcomes[index] = Outcome(request, status, payload, error,
                                      done - due, sent - due, done - sent, sent, done)

    threads = [threading.Thread(target=sender, args=(send,)) for send in senders]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes  # type: ignore[return-value]


def run_closed_loop(
    requests: Sequence, senders: Sequence[Send], duration: float
) -> Tuple[List[Outcome], Tuple[float, float]]:
    """Each sender sends the next request as soon as its last one returns.

    Returns the outcomes and the ``(begin, end)`` window they span.
    """
    outcomes: List[Outcome] = []
    lock = threading.Lock()
    cursor = [0]
    start = perf_counter()
    stop_at = start + duration

    def sender(send: Send) -> None:
        while perf_counter() < stop_at:
            with lock:
                request = requests[cursor[0] % len(requests)]
                cursor[0] += 1
            sent = perf_counter()
            status, payload, error = send(request.body)
            done = perf_counter()
            with lock:
                outcomes.append(Outcome(request, status, payload, error,
                                        done - sent, 0.0, done - sent, sent, done))

    threads = [threading.Thread(target=sender, args=(send,)) for send in senders]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, (start, perf_counter())


# -- correctness ---------------------------------------------------------------------


def _reference(query: dict):
    """``execute_job`` on the spec the query names, built without the daemon."""
    from repro.common.config import baseline_system
    from repro.experiments import LevelJob, execute_job
    from repro.specs import SystemSpec
    from repro.specs.structures import parse_structure_code
    from repro.specs.workloads import workload_from_dict
    from repro.store.codec import encode_result

    spec = SystemSpec.for_level(
        workload_from_dict(query["trace"]),
        baseline_system().dcache,
        side=query["side"],
        structure=parse_structure_code(query["structure"]),
        warmup=query["warmup"],
    )
    return encode_result(execute_job(LevelJob(spec)))


def check_answers(outcomes: Sequence[Outcome], sample_size: int, seed: int) -> List[str]:
    """Compare a seeded sample of 200 answers with ``execute_job``."""
    answered = [o for o in outcomes if o.status == 200 and o.payload is not None]
    rng = random.Random(f"perfbench:serve-sample:{seed}")
    sample = rng.sample(answered, min(sample_size, len(answered)))
    expected: Dict[bytes, dict] = {}
    problems = []
    for outcome in sample:
        body = outcome.request.body
        if body not in expected:
            expected[body] = _reference(json.loads(body))
        if outcome.payload.get("result") != expected[body]:
            problems.append(f"serve: answer for {body.decode()} differs from execute_job")
    if len(sample) < sample_size:
        problems.append(f"serve: only {len(sample)} answers to sample, wanted {sample_size}")
    return problems


def check_session(
    open_loop: Sequence[Outcome],
    closed_loop: Sequence[Outcome],
    before: dict,
    after: dict,
) -> List[str]:
    """Routing and counter checks over the load sent after priming.

    Every warm key comes from the store, every new key and every burst is
    simulated exactly once, and ``/v1/stats`` accounts for every answer.
    The daemon counts a ``cold_misses`` dispatch before its simulation
    thread probes the store once more; when that probe finds the key (a
    burst duplicate whose lookup missed just before the first copy's
    result was written) the answer says ``served_from=store`` without a
    simulation.  So each ``store`` answer is a ``warm_hits`` lookup hit or
    such a dispatch, each ``simulated`` answer a dispatch, and each
    ``coalesced`` answer a ``coalesced`` join.
    """
    problems = []
    served: Dict[str, int] = {}
    for outcome in list(open_loop) + list(closed_loop):
        if outcome.status != 200 or outcome.payload is None:
            continue
        source = outcome.payload.get("served_from")
        served[source] = served.get(source, 0) + 1
        if outcome.request.klass == "warm" and source != "store":
            problems.append(f"serve: a warm key was served from {source!r}, not the store")
        if outcome.request.klass == "cold" and source != "simulated":
            problems.append(f"serve: a new key was served from {source!r}, not simulated")
    bursts: Dict[int, List[Outcome]] = {}
    for outcome in open_loop:
        if outcome.request.klass == "burst":
            bursts.setdefault(outcome.request.burst, []).append(outcome)
    for burst, members in bursts.items():
        simulated = sum(1 for o in members
                        if o.payload and o.payload.get("served_from") == "simulated")
        if simulated != 1:
            problems.append(f"serve: burst {burst} simulated {simulated} times, not once")
    cold = sum(1 for o in open_loop if o.request.klass == "cold")
    if served.get("simulated", 0) != cold + len(bursts):
        problems.append(f"serve: {served.get('simulated', 0)} simulated answers for {cold} "
                        f"new keys and {len(bursts)} bursts")

    def delta(counter: str) -> int:
        return after[counter] - before[counter]

    if delta("coalesced") != served.get("coalesced", 0):
        problems.append(f"serve: {delta('coalesced')} coalesced joins counted, "
                        f"{served.get('coalesced', 0)} answered")
    lookups = delta("warm_hits") + delta("cold_misses")
    if lookups != served.get("store", 0) + served.get("simulated", 0) or \
            delta("cold_misses") < served.get("simulated", 0):
        problems.append(
            f"serve: {delta('warm_hits')} warm hits and {delta('cold_misses')} dispatches "
            f"counted for {served.get('store', 0)} store and {served.get('simulated', 0)} "
            "simulated answers"
        )
    # A repeated malformed body must hit the negative cache once an
    # earlier copy has been answered; a copy sent while the first is still
    # in flight may or may not.
    bad = [o for o in open_loop if o.request.klass == "bad"]
    repeats = [o for i, o in enumerate(bad) if any(p.request.body == o.request.body
                                                   for p in bad[:i])]
    settled = [o for o in repeats if any(p.request.body == o.request.body
                                         and p.done_at < o.sent_at for p in bad)]
    negative = after["negative_hits"] - before["negative_hits"]
    if not len(settled) <= negative <= len(repeats):
        problems.append(
            f"serve: {negative} negative-cache hits for {len(repeats)} repeated malformed "
            f"bodies ({len(settled)} sent after an earlier copy was answered)"
        )
    return problems
