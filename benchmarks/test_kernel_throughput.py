"""Microbenchmarks: vectorized kernel backend vs the reference interpreter.

Not a paper artifact — these pin the speedup that justifies
``repro.kernels``: the same whole-trace direct-mapped simulation run
through the per-reference interpreter (``run_level``) and through the
numpy array passes (``level_point`` over products built inside the timed
call, so every round is cold), on the same benchmark trace.
Pairs share a naming scheme (``*_python`` / ``*_numpy``) so the
``repro-bench diff`` gate tracks both sides of each comparison.

The equivalence of the two backends is pinned by ``tests/test_kernels.py``;
here the numpy variants assert only the headline counters so a silently
wrong kernel cannot post a fast time.
"""

import pytest

from conftest import BENCH_SCALE
from repro.common.config import CacheConfig
from repro.experiments.runner import run_level
from repro.hierarchy.system import MemorySystem
from repro.traces.registry import build_trace

pytest.importorskip("numpy")

from repro.kernels.assist import LevelProducts, level_point  # noqa: E402  (needs numpy)
from repro.kernels.numpy_backend import simulate_system  # noqa: E402

CONFIG = CacheConfig(4096, 16)


@pytest.fixture(scope="module")
def mixed_trace(suite):
    return suite[0]  # ccom


@pytest.fixture(scope="module")
def dstream(mixed_trace):
    return mixed_trace.stream("d")


@pytest.fixture(scope="module")
def dstream_array(mixed_trace):
    return mixed_trace.stream_array("d")


def test_direct_mapped_whole_trace_python(benchmark, dstream):
    run = benchmark.pedantic(
        lambda: run_level(dstream, CONFIG), rounds=3, iterations=1
    )
    assert run.stats.accesses == len(dstream)


def test_direct_mapped_whole_trace_numpy(benchmark, dstream, dstream_array):
    reference = run_level(dstream, CONFIG).stats
    _, stats = benchmark.pedantic(
        lambda: level_point(LevelProducts(dstream_array, CONFIG)), rounds=3, iterations=1
    )
    assert stats.as_dict() == reference.as_dict()


def test_classified_level_python(benchmark, dstream):
    run = benchmark.pedantic(
        lambda: run_level(dstream, CONFIG, classify=True), rounds=3, iterations=1
    )
    assert run.stats.accesses == len(dstream)


def test_classified_level_numpy(benchmark, dstream, dstream_array):
    reference = run_level(dstream, CONFIG, classify=True)
    summary, _ = benchmark.pedantic(
        lambda: level_point(LevelProducts(dstream_array, CONFIG), classify=True),
        rounds=3,
        iterations=1,
    )
    assert summary.conflict_misses == reference.conflicts


def test_full_system_python(benchmark, mixed_trace):
    result = benchmark.pedantic(
        lambda: MemorySystem().run(mixed_trace), rounds=3, iterations=1
    )
    assert result.total_references == len(mixed_trace)


def test_full_system_numpy(benchmark, mixed_trace):
    reference = MemorySystem().run(mixed_trace)

    def fresh_trace():
        # The kernel reads products cached on the trace: a fresh one per
        # round, built here outside the timing, keeps every round cold.
        return (build_trace(mixed_trace.name, BENCH_SCALE).materialize(),), {}

    run = benchmark.pedantic(simulate_system, setup=fresh_trace, rounds=3, iterations=1)
    assert run.l2stats.as_dict() == reference.l2stats.as_dict()
