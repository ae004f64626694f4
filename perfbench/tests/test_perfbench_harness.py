"""Self-tests of the benchmark harness (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import fnmatch
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import child  # noqa: E402
import run  # noqa: E402
import serve_load  # noqa: E402
import workloads  # noqa: E402
from repro.common.config import baseline_system  # noqa: E402
from repro.experiments import ALL_EXPERIMENTS, EntrySweepJob, LevelJob, run_jobs  # noqa: E402
from repro.experiments.workloads import DEFAULT_TRACE_CACHE_CAP  # noqa: E402
from repro.specs import SystemSpec  # noqa: E402
from repro.specs.structures import parse_structure_code  # noqa: E402
from repro.specs.workloads import ZipfianSpec  # noqa: E402


def _declared(section):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return [metric["name"] for metric in json.load(handle)[section]]


@pytest.fixture
def no_store(monkeypatch):
    monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)


def _small_grid():
    trace = ZipfianSpec(length=3000, seed=7)
    cache = baseline_system().dcache
    jobs = [
        LevelJob(SystemSpec.for_level(trace, cache, structure=parse_structure_code(code)))
        for code in ("none", "vc4", "sb4x4")
    ]
    jobs.append(EntrySweepJob(SystemSpec.for_level(trace, cache), kind="victim"))
    return jobs


# -- the correctness gate ------------------------------------------------------------------


def test_sweep_gate_passes_the_real_kernels(no_store):
    jobs = _small_grid()
    sample, bad = child._reference_mismatches(jobs, run_jobs(jobs, jobs=1), seed=0)
    assert sample == [0, 1, 2, 3]
    assert bad == []


def test_sweep_gate_rejects_a_kernel_one_counter_off(no_store, monkeypatch):
    import repro.kernels.assist as assist

    honest = assist.simulate_assist_summary

    def one_off(system):
        summary = honest(system)
        return dataclasses.replace(summary, demand_misses=summary.demand_misses + 1)

    monkeypatch.setattr(assist, "simulate_assist_summary", one_off)
    jobs = _small_grid()
    _, bad = child._reference_mismatches(jobs, run_jobs(jobs, jobs=1), seed=0)
    assert bad == [1, 2]  # the vector-mode and the miss-replay point


def _answered(query, result):
    request = workloads.Request(0.0, "warm", workloads.encode(query))
    return serve_load.Outcome(request, 200, {"result": result}, None, 0.0, 0.0, 0.0)


def test_serve_gate_rejects_an_answer_one_counter_off(no_store):
    query = workloads.serve_pool()[3]
    right = serve_load._reference(query)
    wrong = json.loads(json.dumps(right))
    wrong["fields"]["removed_misses"] += 1
    assert serve_load.check_answers([_answered(query, right)], 1, seed=0) == []
    problems = serve_load.check_answers([_answered(query, wrong)], 1, seed=0)
    assert len(problems) == 1 and "differs from execute_job" in problems[0]


def _served(klass, source, burst=-1):
    request = workloads.Request(0.0, klass, b"{}", burst=burst)
    return serve_load.Outcome(request, 200, {"served_from": source}, None, 0.0, 0.0, 0.0)


def _counters(**deltas):
    before = {"warm_hits": 10, "cold_misses": 20, "coalesced": 0, "negative_hits": 0}
    return before, {name: value + deltas.get(name, 0) for name, value in before.items()}


def test_session_check_accepts_a_burst_copy_answered_by_the_store_reprobe():
    session = [_served("warm", "store"), _served("cold", "simulated"),
               _served("burst", "simulated", 0), _served("burst", "store", 0)]
    # The burst copy's lookup missed, so it was dispatched, then answered
    # from the store: one warm hit, three dispatches, two simulations.
    assert serve_load.check_session(session, [], *_counters(warm_hits=1, cold_misses=3)) == []
    assert serve_load.check_session(session, [], *_counters(warm_hits=2, cold_misses=2)) == []


def test_session_check_rejects_a_second_simulation_or_a_miscount():
    twice = [_served("burst", "simulated", 0), _served("burst", "simulated", 0)]
    assert serve_load.check_session(twice, [], *_counters(cold_misses=2))
    once = [_served("burst", "simulated", 0), _served("burst", "coalesced", 0)]
    assert serve_load.check_session(once, [], *_counters(cold_misses=1, coalesced=1)) == []
    assert serve_load.check_session(once, [], *_counters(cold_misses=2, coalesced=1))
    assert serve_load.check_session(once, [], *_counters(cold_misses=1))


# -- open-loop timing ------------------------------------------------------------------------


def test_open_loop_charges_a_stall_to_the_requests_queued_behind_it():
    requests = [workloads.Request(0.01 * index, "warm", str(index).encode())
                for index in range(10)]

    def send(body):
        if body == b"2":
            time.sleep(0.2)
        return 200, {}, None

    outcomes = serve_load.run_open_loop(requests, [send], lead=0.0)
    assert outcomes[1].latency < 0.05
    assert outcomes[2].latency >= 0.2
    # Request 3 was due 10 ms after request 2 and waited out the rest of
    # the stall: its latency counts from when it was due, not when sent.
    assert outcomes[3].late >= 0.15
    assert outcomes[3].latency >= 0.15
    assert outcomes[3].service < 0.05
    assert outcomes[9].latency >= 0.09


def test_open_loop_keeps_its_schedule_while_one_sender_stalls():
    requests = [workloads.Request(0.01 * index, "warm", str(index).encode())
                for index in range(10)]

    def send(body):
        if body == b"0":
            time.sleep(0.2)
        return 200, {}, None

    outcomes = serve_load.run_open_loop(requests, [send, send], lead=0.0)
    assert outcomes[0].latency >= 0.2
    assert max(outcome.late for outcome in outcomes[1:]) < 0.05


# -- the metric catalogue -------------------------------------------------------------------


def _phases():
    fig = {"windows": [(1.0, 5.0), (6.0, 10.0)], "passes": [(1.0, 5.0, 3.9), (6.0, 10.0, 3.8)],
           "setups": [(0.0, 0.5), (5.5, 6.0)],
           "modules": {name: 0.1 for name in ALL_EXPERIMENTS}, "rss": [50.0]}
    swp = {"points": 56, "cold": [(11.0, 12.0, 0.2)],
           "warm": [(12.0, 12.01, 0.01), (12.01, 12.02, 0.01)],
           "setups": [(10.5, 11.0)], "rss": [60.0], "bytes_written": 1000}
    srv = {"setups": [(13.0, 13.3)] * 3, "rss": [40.0], "open": [(14.0, 18.0), (19.0, 23.0)],
           "warm": [(0, "w", 0.002)] * 450 + [(1, "w", 0.003)] * 450,
           "cold": [(i % 2, f"k{i % 20}", 0.001 * (1 + i % 20)) for i in range(120)],
           "closed": [(18.0, 19.0), (23.0, 24.0)], "closed_ok": [800, 900],
           "late": [0.0001] * 1100, "client_s": 9.0, "bytes_written": 500,
           "stats": {counter: 1 for counter in run.SERVE_COUNTERS}}
    return fig, swp, srv


def _clock():
    return run.HostClock({cpu: [(t / 10, 0.001) for t in range(300)] for cpu in run.CPUS})


def test_host_clock_normalizes_by_the_cpu_the_work_ran_on():
    slow = {cpu: [(t / 10, 0.001) for t in range(300)] for cpu in run.CPUS}
    slow[run.WORK_CPU] = [(t / 10, 0.002) for t in range(300)]
    clock = run.HostClock(slow)
    assert clock.cpu_seconds((10.0, 11.0, 1.0)) == pytest.approx(0.5)
    assert clock.seconds((10.0, 11.0), run.WORK_CPU) == pytest.approx(0.5)
    if len(run.CPUS) == 2:  # the mean of both CPUs' factors, 1 and 2
        assert clock.seconds((10.0, 11.0)) == pytest.approx(1 / 1.5)


def test_cold_latency_is_the_geometric_mean_of_per_key_lower_quartiles():
    fig, swp, srv = _phases()
    # Key k0: 1 ms, with a quarter of its requests slowed by a concurrent
    # simulation; key k1: 4 ms.  The slowed requests do not count.
    srv["cold"] = [(0, "k0", 0.001)] * 45 + [(1, "k0", 0.5)] * 15 + [(1, "k1", 0.004)] * 60
    metrics = run.end_to_end(fig, swp, srv, _clock())
    assert metrics["serve_cold_ms"] == pytest.approx(2.0)


def test_pool_key_drops_only_the_warmup():
    query = workloads.serve_pool()[0]
    fresh = workloads.encode(dict(query, warmup=7))
    assert workloads.pool_key(fresh) == workloads.pool_key(workloads.encode(query))
    assert workloads.pool_key(fresh) != workloads.pool_key(
        workloads.encode(workloads.serve_pool()[1]))
    assert workloads.pool_key(b'{"trace": ') == '{"trace": '


def test_keep_awake_processes_spin_on_request_and_exit_with_their_input(tmp_path):
    awake = run.KeepAwake(ROOT)
    try:
        awake.spin()
        time.sleep(0.2)
        awake.rest()
    finally:
        awake.close()
    assert [process.returncode for process in awake.processes] == [0] * len(run.CPUS)


def test_end_to_end_metric_names_match_benchmark_json():
    fig, swp, srv = _phases()
    clock = _clock()
    metrics = run.end_to_end(fig, swp, srv, clock)
    assert list(metrics) == _declared("end_to_end")
    assert all(value > 0 for value in metrics.values())


def test_per_layer_metric_names_match_benchmark_json():
    fig, swp, srv = _phases()
    clock = _clock()
    untraced = {"metrics": run.end_to_end(fig, swp, srv, clock), "figures": fig,
                "sweep": swp, "serve": srv, "clock": clock}
    traced = dict(untraced)
    spans = {"figures": [], "sweep": [], "serve": []}
    metrics = run.per_layer(spans, untraced, traced, serial_cold_s=1.5)
    assert sorted(metrics) == sorted(_declared("per_layer"))


def test_layer_map_covers_every_per_layer_metric_once():
    with open(BENCH / "layers.json", encoding="utf-8") as handle:
        layers = json.load(handle)["layers"]
    end_to_end = set(_declared("end_to_end"))
    for name in _declared("per_layer"):
        owners = [layer["layer"] for layer in layers
                  if any(fnmatch.fnmatchcase(name, pattern) for pattern in layer["metrics"])]
        assert len(owners) == 1, (name, owners)
    for layer in layers:
        for move in layer["moves"]:
            assert move["metric"] in end_to_end
            assert set(move["workloads"]) <= set(workloads.WORKLOADS)
        assert set(layer["flat"]) <= end_to_end


# -- inputs -----------------------------------------------------------------------------------


def test_inputs_follow_the_seed():
    reuse = workloads.WORKLOADS["reuse"]
    assert workloads.sweep_grid(reuse, 1) == workloads.sweep_grid(reuse, 1)
    assert workloads.sweep_grid(reuse, 1) != workloads.sweep_grid(reuse, 2)
    pool = workloads.serve_pool()
    assert workloads.serve_schedule(reuse, 1, pool, 5.0) == \
        workloads.serve_schedule(reuse, 1, pool, 5.0)
    assert workloads.serve_schedule(reuse, 1, pool, 5.0) != \
        workloads.serve_schedule(reuse, 2, pool, 5.0)


def test_reuse_fits_the_trace_memo_and_distinct_overflows_it():
    reuse, _ = workloads.sweep_grid(workloads.WORKLOADS["reuse"], 1)
    distinct, _ = workloads.sweep_grid(workloads.WORKLOADS["distinct"], 1)
    assert len(set(reuse)) <= DEFAULT_TRACE_CACHE_CAP < len(set(distinct))


# -- running --------------------------------------------------------------------------------


def test_tracing_records_spans_at_each_layer_boundary(tmp_path):
    script = f"""
import json, sys
sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / "src")!r}]
import tracing
from repro.store import set_store
tracer = tracing.Tracer()
assert tracing.instrument(tracer) > 0
sys.path.insert(0, {str(BENCH / "tests")!r})
from test_perfbench_harness import _small_grid
from repro.experiments import run_jobs
set_store({str(tmp_path / "store")!r})
run_jobs(_small_grid(), jobs=1)
run_jobs(_small_grid(), jobs=1)
print(json.dumps(tracing.layer_metrics(tracer.spans)))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    assert metrics["engine.jobs"] == 8
    assert metrics["kernels.vector_jobs"] == 2  # bare level and vc4
    assert metrics["kernels.miss_replay_jobs"] == 1
    assert metrics["store.puts"] == 4 and metrics["store.hit_ratio"] == 0.5
    assert metrics["traces.builds"] == 1 and metrics["traces.distinct"] == 1
    assert metrics["kernels.sweep_s"] > 0 and metrics["specs.hash_s"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reuse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
