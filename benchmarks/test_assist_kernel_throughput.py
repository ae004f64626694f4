"""Microbenchmarks: assist-structure kernels vs the reference interpreter.

Not a paper artifact — these pin the speedup that justifies
``repro.kernels.assist``: the same structure-carrying whole-trace level
run through the per-reference interpreter (``run_level`` with a live
helper structure) and through the two-pass kernels (direct-mapped
miss-stream extraction, then a vectorized hit-condition pass or a
compressed miss-stream replay).  Pairs share a naming scheme
(``*_python`` / ``*_kernel``) so the ``repro-bench diff`` gate tracks
both sides, on the same benchmark trace the PR 6 kernel pairs use.

The next pair is figure-level: a Figure 3-5 style entry sweep priced as
``MAX_ENTRIES`` independent interpreter runs versus the kernel's single
reuse-distance rank pass, which yields every capacity at once.  Each
kernel call builds its ``LevelProducts`` inside the timed call, so these
pairs time cold computation.

``test_rank_products_cold`` times the three products that ask the LRU
stack-depth question (miss-stream LRU depths, victim depths and the 3C
classification) on a fresh 25k-reference pattern stream: the rank share
of a cold sweep point.

The last benchmark is the shape that shares work: one trace's design
sweep (eleven structures and both entry sweeps) through ``execute_job``,
on a freshly materialized trace each round, so its first point computes
the trace's miss stream and depths and the other twelve read them.

The equivalence of the two backends is pinned by ``tests/test_kernels.py``;
here each kernel variant asserts its counters against the interpreter so
a silently wrong kernel cannot post a fast time.
"""

import pytest

from conftest import BENCH_SCALE
from repro.buffers.victim_cache import VictimCache
from repro.common.config import CacheConfig
from repro.experiments import workloads
from repro.experiments.engine import EntrySweepJob, LevelJob, execute_job
from repro.experiments.runner import run_level
from repro.experiments.sweeps import miss_cache_sweep, victim_cache_sweep
from repro.kernels import ENV_BACKEND, PYTHON
from repro.specs import NamedWorkloadSpec, SystemSpec, ZipfianSpec
from repro.specs.structures import (
    MissCacheSpec,
    MultiWayStreamBufferSpec,
    StreamBufferSpec,
    VictimCacheSpec,
    build,
    parse_structure_code,
)
pytest.importorskip("numpy")

from repro.kernels.assist import LevelProducts, entry_sweep, level_point  # noqa: E402

CONFIG = CacheConfig(4096, 16)
MAX_ENTRIES = 15

VC4 = VictimCacheSpec(entries=4)
MC4 = MissCacheSpec(entries=4)
SB4 = StreamBufferSpec(entries=4)
SB4X4 = MultiWayStreamBufferSpec(ways=4, entries=4)


@pytest.fixture(scope="module")
def mixed_trace(suite):
    return suite[0]  # ccom, same trace and scale as the PR 6 kernel pairs


@pytest.fixture(scope="module")
def dstream(mixed_trace):
    return mixed_trace.stream("d")


@pytest.fixture(scope="module")
def dstream_array(mixed_trace):
    return mixed_trace.stream_array("d")


def _python(spec, dstream):
    return run_level(dstream, CONFIG, augmentation=build(spec))


def _pair(benchmark, spec, dstream, dstream_array):
    reference = _python(spec, dstream).stats
    _, stats = benchmark.pedantic(
        lambda: level_point(LevelProducts(dstream_array, CONFIG), spec),
        rounds=3,
        iterations=1,
    )
    assert stats.as_dict() == reference.as_dict()


def test_victim_cache_level_python(benchmark, dstream):
    run = benchmark.pedantic(lambda: _python(VC4, dstream), rounds=3, iterations=1)
    assert run.stats.accesses == len(dstream)


def test_victim_cache_level_kernel(benchmark, dstream, dstream_array):
    _pair(benchmark, VC4, dstream, dstream_array)


def test_miss_cache_level_python(benchmark, dstream):
    run = benchmark.pedantic(lambda: _python(MC4, dstream), rounds=3, iterations=1)
    assert run.stats.accesses == len(dstream)


def test_miss_cache_level_kernel(benchmark, dstream, dstream_array):
    _pair(benchmark, MC4, dstream, dstream_array)


def test_stream_buffer_level_python(benchmark, dstream):
    run = benchmark.pedantic(lambda: _python(SB4, dstream), rounds=3, iterations=1)
    assert run.stats.accesses == len(dstream)


def test_stream_buffer_level_kernel(benchmark, dstream, dstream_array):
    # Single-way head-only: the vector (chain-scan) mode.
    _pair(benchmark, SB4, dstream, dstream_array)


def test_multiway_buffer_level_python(benchmark, dstream):
    run = benchmark.pedantic(lambda: _python(SB4X4, dstream), rounds=3, iterations=1)
    assert run.stats.accesses == len(dstream)


def test_multiway_buffer_level_kernel(benchmark, dstream, dstream_array):
    # Head-only multi-way buffers run in vector mode: one compare of the
    # stored way heads per miss, with no live buffer objects.
    _pair(benchmark, SB4X4, dstream, dstream_array)


def test_victim_entry_sweep_per_capacity_python(benchmark, dstream):
    """The naive sweep shape: one full interpreter run per capacity."""

    def per_capacity():
        return [
            run_level(
                dstream, CONFIG, augmentation=VictimCache(entries)
            ).stats.removed_misses
            for entries in range(1, MAX_ENTRIES + 1)
        ]

    hits = benchmark.pedantic(per_capacity, rounds=1, iterations=1)
    assert len(hits) == MAX_ENTRIES


def test_victim_entry_sweep_one_pass_kernel(benchmark, dstream, dstream_array):
    reference = victim_cache_sweep(dstream, CONFIG, max_entries=MAX_ENTRIES)
    sweep, _ = benchmark.pedantic(
        lambda: entry_sweep(LevelProducts(dstream_array, CONFIG), "victim", MAX_ENTRIES),
        rounds=3,
        iterations=1,
    )
    assert sweep.hits_by_entries == reference.hits_by_entries
    assert sweep.total_misses == reference.total_misses


def test_rank_products_cold(benchmark):
    stream = ZipfianSpec(length=25_000, seed=11).trace().stream_array("d")

    def rank_products():
        products = LevelProducts(stream, CONFIG)
        products.lru_depths()
        products.victim_depths()
        products.classification(0)
        return products

    products = benchmark.pedantic(rank_products, rounds=5, iterations=1)
    addresses = stream.tolist()
    reference = run_level(addresses, CONFIG, classify=True)
    assert products.classification(0) == reference.classifier.summary()
    for kind, sweep_fn in (("miss", miss_cache_sweep), ("victim", victim_cache_sweep)):
        sweep, _ = entry_sweep(products, kind, MAX_ENTRIES)
        assert sweep == sweep_fn(addresses, CONFIG, max_entries=MAX_ENTRIES), kind


#: The design-sweep grid's structures per trace, plus both entry sweeps.
SWEEP_STRUCTURES = (
    "none", "vc1", "vc2", "vc4", "mc1", "mc2", "mc4", "sb1", "sb4", "sb2x4", "sb4x4",
)


def test_trace_design_sweep_shared_products_kernel(benchmark, monkeypatch):
    spec = NamedWorkloadSpec("ccom", BENCH_SCALE, 0)
    jobs = [
        LevelJob(SystemSpec.for_level(spec, CONFIG, structure=parse_structure_code(code)))
        for code in SWEEP_STRUCTURES
    ]
    jobs += [
        EntrySweepJob(SystemSpec.for_level(spec, CONFIG), kind=kind, max_entries=MAX_ENTRIES)
        for kind in ("miss", "victim")
    ]

    def fresh_trace():
        # Drop the memoized trace, and its products with it; the rebuild
        # happens here, outside the timed round.
        workloads._TRACE_CACHE.pop(spec.resolve(), None)
        spec.trace()

    answers = benchmark.pedantic(
        lambda: [execute_job(job) for job in jobs],
        setup=fresh_trace,
        rounds=3,
        iterations=1,
    )
    monkeypatch.setenv(ENV_BACKEND, PYTHON)
    reference = [execute_job(job) for job in jobs]
    assert [a.__dict__ for a in answers] == [r.__dict__ for r in reference]
