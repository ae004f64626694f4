"""Microbenchmarks: simulation throughput of the core structures.

Not a paper artifact — these track the cost of the simulator itself
(references per second through each cache model and the full system),
so regressions in the hot paths show up in the benchmark report.

``packed_trace_delivery_replay`` measures the parallel engine's
per-worker unit of work — receive one serialized trace, then replay it
once.  A materialized trace serializes as two contiguous buffers, which
is where the engine's worker warm-up time goes.
"""

import pickle
import random

import pytest

from repro.buffers.miss_cache import MissCache
from repro.buffers.stream_buffer import MultiWayStreamBuffer, StreamBuffer
from repro.buffers.victim_cache import VictimCache
from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.fully_associative import FullyAssociativeCache
from repro.caches.set_associative import SetAssociativeCache
from repro.common.config import CacheConfig
from repro.experiments.engine import LevelSummary
from repro.hierarchy.level import CacheLevel
from repro.hierarchy.system import MemorySystem
from repro.store import ResultKey, ResultStore
from repro.traces.trace import MaterializedTrace

N_REFS = 50_000
CONFIG = CacheConfig(4096, 16)


@pytest.fixture(scope="module")
def random_lines():
    rng = random.Random(0)
    return [rng.randrange(4096) for _ in range(N_REFS)]


@pytest.fixture(scope="module")
def mixed_trace(suite):
    return suite[0]  # ccom


def drive_cache(cache, lines):
    access_and_fill = cache.access_and_fill
    for line in lines:
        access_and_fill(line)


def drive_level(level, lines):
    access_line = level.access_line
    for line in lines:
        access_line(line)


def test_direct_mapped_throughput(benchmark, random_lines):
    benchmark.pedantic(
        lambda: drive_cache(DirectMappedCache(CONFIG), random_lines),
        rounds=3,
        iterations=1,
    )


def test_fully_associative_throughput(benchmark, random_lines):
    benchmark.pedantic(
        lambda: drive_cache(FullyAssociativeCache(16), random_lines),
        rounds=3,
        iterations=1,
    )


def test_set_associative_throughput(benchmark, random_lines):
    benchmark.pedantic(
        lambda: drive_cache(SetAssociativeCache(CONFIG, ways=2), random_lines),
        rounds=3,
        iterations=1,
    )


def test_level_with_victim_cache_throughput(benchmark, random_lines):
    benchmark.pedantic(
        lambda: drive_level(CacheLevel(CONFIG, VictimCache(4)), random_lines),
        rounds=3,
        iterations=1,
    )


def test_level_with_miss_cache_throughput(benchmark, random_lines):
    benchmark.pedantic(
        lambda: drive_level(CacheLevel(CONFIG, MissCache(4)), random_lines),
        rounds=3,
        iterations=1,
    )


def test_level_with_stream_buffer_throughput(benchmark, random_lines):
    benchmark.pedantic(
        lambda: drive_level(CacheLevel(CONFIG, StreamBuffer(4)), random_lines),
        rounds=3,
        iterations=1,
    )


def test_level_with_multiway_buffer_throughput(benchmark, random_lines):
    benchmark.pedantic(
        lambda: drive_level(
            CacheLevel(CONFIG, MultiWayStreamBuffer(4, 4)), random_lines
        ),
        rounds=3,
        iterations=1,
    )


def test_full_system_throughput(benchmark, mixed_trace):
    def run():
        MemorySystem().run(mixed_trace)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_classifying_level_throughput(benchmark, random_lines):
    benchmark.pedantic(
        lambda: drive_level(CacheLevel(CONFIG, classify=True), random_lines),
        rounds=3,
        iterations=1,
    )


def _deliver_and_replay(trace) -> int:
    """One engine worker's trace handoff: deserialize, then replay once."""
    clone = pickle.loads(pickle.dumps(trace))
    count = 0
    for _kind, _address in clone:
        count += 1
    return count


def test_packed_trace_delivery_replay(benchmark, mixed_trace):
    # A fresh instance keeps lazy caches empty so only the buffers ship.
    packed = MaterializedTrace(mixed_trace.meta, mixed_trace._kinds, mixed_trace._addresses)
    assert benchmark.pedantic(
        lambda: _deliver_and_replay(packed), rounds=3, iterations=1
    ) == len(packed)


def test_result_store_hit_throughput(benchmark, tmp_path):
    store = ResultStore(tmp_path / "bench-store")
    keys = [ResultKey("LevelJob", f"spec{i:04d}", "trace", {"i": i}) for i in range(200)]
    summary = LevelSummary(50_000, 4_000, 400, 3_600, conflict_misses=900)
    for key in keys:
        store.put(key, summary)

    def warm_lookups() -> int:
        hits = 0
        for key in keys:
            result, _ = store.get(key)
            hits += result is not None
        return hits

    assert benchmark.pedantic(warm_lookups, rounds=3, iterations=1) == len(keys)
