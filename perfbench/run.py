"""Benchmark of the three paths a user of ``repro`` touches.

Run from the root of a checkout::

    python3 perfbench/run.py --workload reuse --seed 1 --seconds 30 --trace 0

Each run measures, in order, the figure pass (``run_experiments``), the
design sweep (``run_jobs`` cold then warm) and the advisor daemon
(``repro-serve`` over loopback HTTP), each through its public entry
point and in processes of its own; :mod:`workloads` says what each
workload feeds them.  Afterwards it checks every answer: the paper-claim
checks, warm sweep equal to cold and a sample equal to the reference
interpreter, and a sample of served answers equal to ``execute_job``.

Times are host-normalized (:mod:`calibrate`): each is divided by the
speed of the CPU it ran on, measured beside it.  Single-CPU phases (the
figure pass, warm sweep passes, the daemon) run pinned to one CPU, and
the figure and warm sweep passes are timed in CPU time; the load
generator runs on another CPU.  Raw times go to standard error.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` the run is made untraced and
then again with spans recorded around each layer (:mod:`tracing`), and
the metrics are the per-layer metrics, including each end-to-end
metric's traced-to-untraced ratio.  A run whose answers fail a check
prints ``"correct": false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import calibrate
import serve_load
import tracing
import workloads
from serve_load import Connection, Daemon, failure
from workloads import WORKLOADS, Request, encode, plan

HERE = Path(__file__).resolve().parent

CHILD_TIMEOUT = 150.0
SERVE_SAMPLE = 200
#: The CPUs a run uses.  Single-CPU phases run on WORK_CPU; the serve load
#: generator runs on CLIENT_CPU (the same CPU on a one-CPU host).
CPUS = calibrate.cpus()
WORK_CPU, CLIENT_CPU = CPUS[-1], CPUS[0]
#: Shortest window of host-speed samples for a time measured on the
#: probe's own CPU: there, the nearer the samples, the better they match.
PINNED_WINDOW_S = 0.3
#: A p90 is reported only with at least ten samples beyond it.
MIN_P90_SAMPLES = 100

Window = Tuple[float, float]
#: ``(begin, end, CPU seconds)`` of a region that ran on WORK_CPU.
Timed = Tuple[float, float, float]


class BenchError(RuntimeError):
    """The benchmark could not run a phase to completion."""


# -- helpers ---------------------------------------------------------------------------


def clean_env(root: Path) -> Dict[str, str]:
    """The caller's environment without ``REPRO_*`` knobs, importing ``src``."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(root: Path, env: Dict[str, str], args: List[str]) -> Dict:
    """Run ``child.py`` in a fresh interpreter on WORK_CPU; its report plus ``spawned``."""
    spawned = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")] + args,
        env=env, cwd=str(root), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        calibrate.pin({WORK_CPU}, proc.pid)
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}: {stderr[-2000:]}")
    report = json.loads(stdout.strip().splitlines()[-1])
    report["spawned"] = spawned
    return report


def tree_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def p90(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class HostClock:
    """Host-speed samples from :mod:`calibrate`, per CPU, taken while a run measured."""

    def __init__(self, samples: Dict[int, Sequence[Tuple[float, float]]]) -> None:
        if not samples or not all(samples.values()):
            raise BenchError("a host-speed probe recorded no samples")
        self.samples = samples

    def factor(self, window: Window, cpu: Optional[int] = None,
               min_window: float = calibrate.MIN_WINDOW_S) -> float:
        """Speed factor of *cpu* over *window*; of all CPUs on average if None."""
        cpus = list(self.samples) if cpu is None else [cpu]
        return statistics.mean(calibrate.speed_factor(self.samples[c], *window, min_window)
                               for c in cpus)

    def seconds(self, window: Window, cpu: Optional[int] = None,
                min_window: float = calibrate.MIN_WINDOW_S) -> float:
        """The window's length, normalized to the reference host speed."""
        return (window[1] - window[0]) / self.factor(window, cpu, min_window)

    def cpu_seconds(self, timed: Timed) -> float:
        """CPU time of a region run on WORK_CPU, normalized by that CPU's speed."""
        return timed[2] / self.factor(timed[:2], WORK_CPU, PINNED_WINDOW_S)

    @property
    def unit_ms(self) -> float:
        return 1e3 * statistics.mean(unit_s for samples in self.samples.values()
                                     for _, unit_s in samples)


class HostProbes:
    """One :mod:`calibrate` process per CPU, sampling for as long as they are open."""

    def __init__(self, root: Path, work: Path) -> None:
        self.outs = {cpu: work / f"host-{cpu}.json" for cpu in CPUS}
        self.processes: Dict[int, subprocess.Popen] = {}
        try:
            for cpu, out in self.outs.items():
                process = subprocess.Popen(
                    [sys.executable, str(HERE / "calibrate.py"), str(out), str(cpu)],
                    cwd=str(root), stdout=subprocess.PIPE, text=True,
                )
                self.processes[cpu] = process
                if process.stdout.readline().strip() != "ready":
                    raise BenchError("a host-speed probe did not start")
        except BaseException:
            self._stop(kill=True)
            raise

    def _stop(self, kill: bool) -> bool:
        """Stop every probe; whether all stopped when asked."""
        stopped = True
        for process in self.processes.values():
            if process.poll() is None:
                process.send_signal(signal.SIGKILL if kill else signal.SIGTERM)
            try:
                process.wait(30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                stopped = False
            process.stdout.close()
        return stopped and all(p.returncode == 0 for p in self.processes.values())

    def close(self) -> HostClock:
        if not self._stop(kill=False):
            raise BenchError("a host-speed probe did not stop cleanly")
        samples = {}
        for cpu, out in self.outs.items():
            with open(out, encoding="utf-8") as handle:
                samples[cpu] = [tuple(sample) for sample in json.load(handle)]
        return HostClock(samples)


class KeepAwake:
    """One :mod:`keepawake` process per CPU, spinning at idle priority on request."""

    def __init__(self, root: Path) -> None:
        self.processes: List[subprocess.Popen] = []
        try:
            for cpu in CPUS:
                process = subprocess.Popen(
                    [sys.executable, str(HERE / "keepawake.py"), str(cpu)],
                    cwd=str(root), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                )
                self.processes.append(process)
                if process.stdout.readline().strip() != "ready":
                    raise BenchError("a keep-awake process did not start")
        except BaseException:
            self.close()
            raise

    def _tell(self, command: str) -> None:
        for process in self.processes:
            process.stdin.write(command + "\n")
            process.stdin.flush()

    def spin(self) -> None:
        self._tell("spin")

    def rest(self) -> None:
        self._tell("rest")

    def close(self) -> None:
        for process in self.processes:
            try:
                process.stdin.close()
            except OSError:
                pass
        for process in self.processes:
            try:
                process.wait(10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()


# -- the three paths -------------------------------------------------------------------


def figures_pass(root, env, spans: Optional[Path]) -> Dict:
    args = ["figures", "--scale", str(workloads.FIGURE_SCALE)]
    if spans is not None:
        args += ["--spans", str(spans)]
    return run_child(root, env, args)


def figures_summary(reports: List[Dict]) -> Dict:
    return {
        "windows": [tuple(r["window"]) for r in reports],
        "passes": [tuple(r["window"]) + (r["cpu_s"],) for r in reports],
        "setups": [(r["spawned"], r["ready"]) for r in reports],
        "modules": reports[0]["modules"],
        "rss": [r["rss_mb"] for r in reports],
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(len(r["failed_modules"]) for r in reports),
        "problems": [f"figures: paper-claim check {check} failed"
                     for r in reports for check in r["checks_failed"]],
    }


def sweep_round(root, env, store: Path, workload, seed, jobs, check, spans) -> Dict:
    """One cold-then-warm sweep in a fresh process, on a store of its own."""
    args = ["sweep", "--workload", workload.name, "--seed", str(seed),
            "--jobs", str(jobs), "--store", str(store),
            "--pool-cpus", ",".join(map(str, CPUS))]
    if check:
        args.append("--check")
    if spans is not None:
        args += ["--spans", str(spans)]
    report = run_child(root, env, args)
    report["bytes_written"] = tree_bytes(store)
    shutil.rmtree(store, ignore_errors=True)
    return report


def sweep_summary(reports: List[Dict]) -> Dict:
    return {
        "points": reports[0]["points"],
        "cold": [tuple(w) for r in reports for w in r["cold"]],
        "warm": [tuple(w) for r in reports for w in r["warm"]],
        "setups": [(r["spawned"], r["ready"]) for r in reports],
        "rss": [r["rss_mb"] for r in reports],
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "bytes_written": reports[-1]["bytes_written"],
        "problems": [p for r in reports for p in r["checks_failed"]],
    }


def _daemon_command(store: Path, spans: Optional[Path]) -> List[str]:
    serve_args = ["--port", "0", "--result-store", str(store)]
    if spans is None:
        return [sys.executable, "-m", "repro.serve.cli"] + serve_args
    return [sys.executable, str(HERE / "child.py"), "daemon", "--spans", str(spans), "--"] + \
        serve_args


def _slices(requests: List[Request], count: int) -> List[List[Request]]:
    """The open-loop schedule cut into *count* consecutive slices, each due from 0."""
    span = max(request.due for request in requests) + 1e-9
    slices: List[List[Request]] = [[] for _ in range(count)]
    for request in requests:
        slices[min(count - 1, int(request.due / span * count))].append(request)
    return [[dataclasses.replace(r, due=r.due - part[0].due) for r in part]
            for part in slices if part]


class ServeSession:
    """One daemon on an empty store, loaded in slices between other work.

    Opening it measures daemon set-up (``setup_rounds`` spawns to
    ``/readyz``) and primes the key pool; each :meth:`load` sends one slice
    of the open-loop schedule and then runs the closed loop for its share
    of the time; :meth:`close` stops the daemon and checks every answer.
    """

    def __init__(self, root, env, work, workload, seed, run_plan, spans) -> None:
        self.seed = seed
        self.run_plan = run_plan
        self.setups: List[Window] = []
        for index in range(run_plan.setup_rounds - 1):
            probe_spans = None if spans is None else work / f"probe-spans-{index}.json"
            probe = Daemon(_daemon_command(work / f"probe-store-{index}", probe_spans), env,
                           str(root), WORK_CPU)
            try:
                self.setups.append((probe.spawned, probe.spawned + probe.wait_ready()))
            finally:
                probe.stop()
        self.store = work / "serve-store"
        self.daemon = Daemon(_daemon_command(self.store, spans), env, str(root), WORK_CPU)
        self.open_loop: List[serve_load.Outcome] = []
        self.closed_loop: List[serve_load.Outcome] = []
        self.open_windows: List[Window] = []
        self.closed_windows: List[Window] = []
        self.closed_ok: List[int] = []
        try:
            self.setups.append((self.daemon.spawned,
                                self.daemon.spawned + self.daemon.wait_ready()))
            self.conns = [Connection(self.daemon.port), Connection(self.daemon.port)]
            pool = workloads.serve_pool()
            self.primed = self._prime(pool)
            self.before = self._stats()
            requests = workloads.serve_schedule(workload, seed, pool, run_plan.open_loop_s)
            self.slices = _slices(requests, 2 * run_plan.rounds)
            self.warm = workloads.closed_loop_requests(workload, seed, pool)
        except BaseException:
            self.daemon.stop()
            raise

    def _prime(self, pool: List[dict]) -> List[serve_load.Outcome]:
        primed = []
        for key, query in enumerate(pool):
            request = Request(0.0, "prime", encode(query), key)
            sent = perf_counter()
            status, payload, error = self.conns[0].post(request.body)
            done = perf_counter()
            primed.append(serve_load.Outcome(request, status, payload, error,
                                             done - sent, 0.0, done - sent, sent, done))
        return primed

    def _stats(self) -> Dict[str, int]:
        return self.conns[0].get_json("/v1/stats")[1]["serving"]

    def load(self, index: int) -> None:
        """One slice, sent from CLIENT_CPU (the sender threads inherit it)."""
        senders = [conn.post for conn in self.conns]
        calibrate.pin({CLIENT_CPU})
        try:
            begin = perf_counter()
            self.open_loop += serve_load.run_open_loop(self.slices[index], senders)
            self.open_windows.append((begin, perf_counter()))
            closed, window = serve_load.run_closed_loop(
                self.warm, senders, self.run_plan.closed_loop_s / len(self.slices))
        finally:
            calibrate.pin(CPUS)
        self.closed_loop += closed
        self.closed_windows.append(window)
        self.closed_ok.append(sum(1 for o in closed if not failure(o, 200)))

    def close(self) -> Dict:
        try:
            final = self._stats()
            rss = self.daemon.peak_rss_mb()
            for conn in self.conns:
                conn.close()
        finally:
            code = self.daemon.stop()
        if code != 0:
            raise BenchError(f"daemon exited {code}: {''.join(self.daemon.stderr[-20:])}")
        outcomes = self.primed + self.open_loop + self.closed_loop
        problems = [f"serve: priming key {o.request.key} answered {o.status}"
                    for o in self.primed if o.status != 200]
        problems += serve_load.check_session(self.open_loop, self.closed_loop, self.before,
                                             final)
        problems += serve_load.check_answers(outcomes, SERVE_SAMPLE, self.seed)
        return {
            "setups": self.setups,
            "rss": [rss],
            "open": self.open_windows,
            "warm": self._latencies("warm"),
            "cold": self._latencies("cold"),
            "closed": self.closed_windows,
            "closed_ok": self.closed_ok,
            "late": [o.late for o in self.open_loop],
            "stats": final,
            "client_s": sum(o.service for o in outcomes if o.request.klass != "bad"),
            "bytes_written": tree_bytes(self.store),
            "attempted": len(outcomes),
            "failed": sum(1 for o in outcomes if failure(o, o.request.expected_status)),
            "problems": problems,
        }

    def _latencies(self, klass: str) -> List[Tuple[int, str, float]]:
        """``(slice, pool key, latency)`` of every answered request of one class.

        The pool key is the query without its warm-up: the primed key a
        warm request repeats, or the one a new key was made from.
        """
        slice_of = {}
        for index, part in enumerate(self.slices):
            for request in part:
                slice_of[id(request)] = index
        return [(slice_of[id(o.request)], workloads.pool_key(o.request.body), o.latency)
                for o in self.open_loop if o.request.klass == klass and not failure(o, 200)]


# -- metrics ---------------------------------------------------------------------------


def serve_latencies(srv: Dict, clock: HostClock, klass: str) -> List[Tuple[int, str, float]]:
    """``(slice, pool key, latency)`` of one class's open-loop requests, host-normalized.

    A request is work in the load generator and in the daemon, on their two
    CPUs, so each latency is normalized by the mean speed of both over its
    slice.  (Normalized by the daemon's CPU alone, new-key latencies spread up to
    twice as much over runs: for the cheaper half of the pool keys
    the round trip, not the simulation, is most of the time.)
    """
    if len(srv[klass]) < MIN_P90_SAMPLES:
        raise BenchError(f"serve: {len(srv[klass])} {klass} samples, a p90 needs "
                         f"{MIN_P90_SAMPLES}")
    factors = [clock.factor(window) for window in srv["open"]]
    return [(part, key, latency / factors[part]) for part, key, latency in srv[klass]]


def key_geomean(latencies: List[Tuple[int, str, float]]) -> float:
    """Geometric mean over pool keys of each key's lower-quartile latency."""
    keys: Dict[str, List[float]] = {}
    for _, key, latency in latencies:
        keys.setdefault(key, []).append(latency)
    return math.exp(statistics.mean(
        math.log(statistics.quantiles(part, n=4, method="inclusive")[0] if len(part) > 1
                 else part[0])
        for part in keys.values()))


def end_to_end(fig: Dict, swp: Dict, srv: Dict, clock: HostClock) -> Dict[str, float]:
    """The end-to-end metrics of one measured run, times host-normalized.

    Processes start, and single-CPU phases run, on WORK_CPU, and are
    normalized by its speed; the cold sweep's pool and the closed loop
    (daemon and load generator) use every CPU and are normalized by their
    mean speed.  New keys' costs differ thirtyfold across the pool they
    are made from: a median over them falls in a gap between two keys'
    costs and ignores the costliest keys, so ``serve_cold_ms`` is the
    geometric mean over pool keys of each key's lower-quartile latency, in
    which every key's cost counts alike.  The lower quartile, rather than
    the median, leaves out more of the requests that shared the daemon's
    interpreter lock with a concurrent simulation.
    """
    return {
        "setup_s": statistics.median(clock.seconds(w, WORK_CPU)
                                     for w in fig["setups"] + swp["setups"])
        + statistics.median(clock.seconds(w, WORK_CPU) for w in srv["setups"]),
        "peak_rss_mb": max(fig["rss"] + swp["rss"] + srv["rss"]),
        "figures_s": statistics.median(clock.cpu_seconds(p) for p in fig["passes"]),
        "sweep_cold_points_per_s":
            swp["points"] / statistics.median(clock.seconds(w[:2]) for w in swp["cold"]),
        "sweep_warm_points_per_s":
            swp["points"] / statistics.median(clock.cpu_seconds(w) for w in swp["warm"]),
        "serve_cold_ms": 1e3 * key_geomean(serve_latencies(srv, clock, "cold")),
        "serve_warm_rps": sum(srv["closed_ok"]) / sum(
            clock.seconds(window, min_window=PINNED_WINDOW_S) for window in srv["closed"]),
    }


def raw_summary(fig: Dict, swp: Dict, srv: Dict, clock: HostClock) -> str:
    warm = [latency for _, _, latency in srv["warm"]]
    cold = [latency for _, _, latency in srv["cold"]]
    return (
        f"raw figures_s={statistics.median(e - b for b, e in fig['windows']):.3f} "
        f"cold_s={statistics.median(w[1] - w[0] for w in swp['cold']):.3f} "
        f"warm_cpu_s={statistics.median(w[2] for w in swp['warm']):.4f} "
        f"warm_p50_ms={1e3 * statistics.median(warm):.3f} "
        f"cold_p50_ms={1e3 * statistics.median(cold):.3f} "
        f"rps={sum(srv['closed_ok']) / sum(e - b for b, e in srv['closed']):.0f} "
        f"host_unit_ms={clock.unit_ms:.4f} "
        f"samples warm={len(warm)} cold={len(cold)} "
        f"late_p90_ms={1e3 * p90(srv['late']):.2f}"
    )


def serve_slice(session: ServeSession, awake: KeepAwake, index: int) -> None:
    """One slice of serve load, with every CPU kept from idling while it runs."""
    awake.spin()
    try:
        session.load(index)
    finally:
        awake.rest()


def measure(root, env, work, workload, seed, run_plan, traced: bool) -> Dict:
    """Run all three paths, round by round; end-to-end metrics and raw results."""
    work = work / ("traced" if traced else "untraced")
    work.mkdir()
    spans = {name: (work / f"spans-{name}.json" if traced else None)
             for name in ("figures", "sweep", "serve")}
    jobs = 1 if traced else 2  # spans are only recorded in-process
    probes = HostProbes(root, work)
    figures, sweeps = [], []
    try:
        awake = KeepAwake(root)
        try:
            session = ServeSession(root, env, work, workload, seed, run_plan, spans["serve"])
            try:
                for index in range(run_plan.rounds):
                    figures.append(figures_pass(root, env, spans["figures"]))
                    serve_slice(session, awake, 2 * index)
                    sweeps.append(sweep_round(root, env, work / f"sweep-store-{index}",
                                              workload, seed, jobs,
                                              check=index == 0 and not traced,
                                              spans=spans["sweep"]))
                    serve_slice(session, awake, 2 * index + 1)
            finally:
                srv = session.close()
        finally:
            awake.close()
    finally:
        clock = probes.close()
    fig, swp = figures_summary(figures), sweep_summary(sweeps)
    metrics = end_to_end(fig, swp, srv, clock)
    print(f"[perfbench] {workload.name} seed={seed} traced={int(traced)}: "
          f"{raw_summary(fig, swp, srv, clock)}", file=sys.stderr)
    return {
        "metrics": metrics,
        "attempted": fig["attempted"] + swp["attempted"] + srv["attempted"],
        "failed": fig["failed"] + swp["failed"] + srv["failed"],
        "problems": fig["problems"] + swp["problems"] + srv["problems"],
        "figures": fig,
        "sweep": swp,
        "serve": srv,
        "clock": clock,
        "spans": spans,
    }


SERVE_COUNTERS = ("warm_hits", "cold_misses", "coalesced", "negative_hits", "rejected", "failed")


def per_layer(spans: Dict[str, List], untraced: Dict, traced: Dict,
              serial_cold_s: float) -> Dict[str, float]:
    """Per-layer metrics of a traced run.

    *serial_cold_s* is the host-normalized cold sweep of an untraced
    ``jobs=1`` round: the traced sweep runs at ``jobs=1`` too, so tracing
    overhead is priced against it, and the pool against ``jobs=2``.
    """
    fig, swp, srv = traced["figures"], traced["sweep"], traced["serve"]
    metrics = tracing.layer_metrics(tracing.merge_spans(list(spans.values())))
    metrics["store.bytes_written"] = swp["bytes_written"] + srv["bytes_written"]
    for name, elapsed in fig["modules"].items():
        metrics[f"experiments.{name}_s"] = elapsed
    figure_engine_s = tracing.layer_metrics(spans["figures"])["engine.batch_s"]
    metrics["experiments.engine_share"] = figure_engine_s / (
        fig["windows"][0][1] - fig["windows"][0][0])
    untraced_cold_s = untraced["sweep"]["points"] / \
        untraced["metrics"]["sweep_cold_points_per_s"]
    metrics["engine.pool_speedup"] = serial_cold_s / untraced_cold_s
    for counter in SERVE_COUNTERS:
        metrics[f"serve.{counter}"] = srv["stats"][counter]
    metrics["serve.http_s"] = srv["client_s"] - metrics["serve.advise_s"]
    # Latency tails, sample counts and generator lateness describe the
    # untraced serve load, the one the end-to-end metrics come from.
    plain, clock = untraced["serve"], untraced["clock"]
    metrics["serve.warm_p50_ms"] = 1e3 * statistics.median(
        latency for _, _, latency in serve_latencies(plain, clock, "warm"))
    for klass in ("warm", "cold"):
        metrics[f"serve.{klass}_p90_ms"] = 1e3 * p90(
            [latency for _, _, latency in serve_latencies(plain, clock, klass)])
        metrics[f"serve.{klass}_samples"] = len(plain[klass])
    metrics["serve.generator_late_ms"] = 1e3 * p90(plain["late"])
    metrics["host.unit_ms"] = clock.unit_ms
    baseline = dict(untraced["metrics"])
    baseline["sweep_cold_points_per_s"] = swp["points"] / serial_cold_s
    for name, value in traced["metrics"].items():
        metrics[f"overhead.{name}"] = value / baseline[name]
    return metrics


def traced_run(root, env, work, workload, seed, run_plan, untraced: Dict) -> Dict:
    """One pass of every path with spans recorded, plus a serial sweep round."""
    single = dataclasses.replace(run_plan, rounds=1)
    traced = measure(root, env, work, workload, seed, single, traced=True)
    serial_work = work / "serial"
    serial_work.mkdir()
    probes = HostProbes(root, serial_work)
    try:
        serial = sweep_round(root, env, work / "sweep-store-serial", workload, seed, 1,
                             check=False, spans=None)
    finally:
        clock = probes.close()
    spans = {name: tracing.load_spans(str(path)) for name, path in traced["spans"].items()}
    serial_cold_s = statistics.median(clock.seconds(tuple(w[:2])) for w in serial["cold"])
    traced["per_layer"] = per_layer(spans, untraced, traced, serial_cold_s)
    traced["attempted"] += serial["attempted"]
    traced["failed"] += serial["failed"]
    return traced


# -- entry point -----------------------------------------------------------------------


def catalogue(root: Path) -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from BENCHMARK.json."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def report(metrics: Dict[str, float], declared: Dict[str, str]) -> Dict[str, Dict]:
    """Exactly the declared metrics with their units; BenchError if any is missing."""
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _terminate(signum, _frame) -> None:
    """Leave through every ``finally``, so each process the run started is stopped."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = build_parser().parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a checkout root holding src/repro", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    declared = catalogue(root)
    workload = WORKLOADS[args.workload]
    run_plan = plan(args.seconds)
    env = clean_env(root)
    work = root / ".perfbench-work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runs = [measure(root, env, work, workload, args.seed, run_plan, traced=False)]
        if args.trace:
            runs.append(traced_run(root, env, work, workload, args.seed, run_plan, runs[0]))
        problems = [problem for run in runs for problem in run["problems"]]
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        if problems:
            for problem in problems:
                print(f"perfbench: check failed: {problem}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                              "metrics": {}}))
            return 1
        if args.trace:
            metrics = report(runs[1]["per_layer"], declared["per_layer"])
        else:
            metrics = report(runs[0]["metrics"], declared["end_to_end"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
