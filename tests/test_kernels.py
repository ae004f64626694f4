"""Backend equivalence and dispatch: the vectorized kernels vs the interpreter.

The numpy backend is only allowed to exist because it is *exactly* the
reference simulator, faster: every test here pins identical statistics —
every LevelStats counter, every 3C classification bucket, every sweep
bucket, warm-up semantics included — between
:mod:`repro.kernels.numpy_backend` / :mod:`repro.kernels.assist` and the
interpreter, on randomized synthetic streams, on all seven named
workloads, and on the pattern workload specs.  Dispatch tests pin the
selection rules: every registered structure kind has a kernel mode
(``vector`` or ``miss-replay``, per :func:`repro.kernels.kernel_mode`),
undescribable inputs fall back to the interpreter (never an error),
and ``REPRO_BACKEND`` (``numpy`` by
default, or ``python``) is validated at the CLI boundary.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig, baseline_system
from repro.common.errors import ConfigurationError
from repro.common.types import IFETCH
from repro.experiments.runner import run_level
from repro.kernels import (
    ENV_BACKEND,
    MISS_REPLAY,
    NUMPY,
    PYTHON,
    VECTOR,
    default_backend,
    kernel_mode,
    select_backend,
    structure_mode,
    validate_backend,
)
from repro.specs import (
    MissCacheSpec,
    MultiWayStreamBufferSpec,
    StreamBufferSpec,
    NamedWorkloadSpec,
    SystemSpec,
    VictimCacheSpec,
)
from repro.specs.structures import (
    CompositeSpec,
    MultiWayStrideBufferSpec,
    StrideBufferSpec,
)
from repro.specs.workloads import HotspotSpec, PointerChaseSpec, SequentialSpec, ZipfianSpec
from repro.telemetry import core as telemetry
from repro.traces.registry import BENCHMARK_NAMES, EXTENSION_NAMES, build_trace

#: All seven named workloads: the paper's six plus the extensions.
ALL_NAMES = BENCHMARK_NAMES + EXTENSION_NAMES


def qualifying_spec(**overrides) -> SystemSpec:
    defaults = dict(
        trace=NamedWorkloadSpec("linpack", 3000, 0), config=baseline_system(), side="d"
    )
    defaults.update(overrides)
    return SystemSpec(**defaults)


# -- equivalence: single level ------------------------------------------------


def _assert_level_equivalent(addresses, config, structure=None, warmup=0, context=()):
    """A classified level point over fresh products equals ``run_level``:
    every stats counter, the 3C summary and the job's summary."""
    from repro.experiments.engine import LevelSummary
    from repro.kernels.assist import LevelProducts, level_point
    from repro.specs.structures import build

    reference = run_level(
        addresses, config, augmentation=build(structure), classify=True, warmup=warmup
    )
    products = LevelProducts(addresses, config)
    summary, stats = level_point(products, structure, classify=True, warmup=warmup)
    label = (*context, structure)
    assert stats.as_dict() == reference.stats.as_dict(), label
    assert products.classification(warmup) == reference.classifier.summary(), label
    assert summary == LevelSummary.of(reference.stats, reference.conflicts), label


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("side", ["i", "d"])
def test_named_trace_level_equivalence(name, side):
    """Identical stats and 3C totals on every named workload, both sides."""
    trace = build_trace(name, 3000).materialize()
    _assert_level_equivalent(trace.stream_array(side), CacheConfig(4096, 16), warmup=500)


def test_randomized_level_equivalence():
    """Property-style: random streams, geometries, and warm-up boundaries."""
    rng = random.Random(1234)
    for case in range(25):
        n = rng.randrange(0, 700)
        span = rng.choice([40, 300, 5000])
        addresses = [rng.randrange(span) * 4 for _ in range(n)]
        config = CacheConfig(
            rng.choice([256, 1024, 4096]), rng.choice([16, 32])
        )
        warmup = rng.choice([0, 1, max(1, n // 2), n, n + 7])
        _assert_level_equivalent(addresses, config, warmup=warmup, context=(case, warmup))


def test_rank_left_leq_matches_brute_force():
    from repro.kernels.numpy_backend import _rank_left_leq

    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(1, 120)
        values = np.array([rng.randrange(20) for _ in range(n)], dtype=np.int64)
        expected = np.array(
            [int(sum(values[j] <= values[i] for j in range(i))) for i in range(n)]
        )
        assert (_rank_left_leq(values) == expected).all()


def test_lru_shadow_matches_live_cache():
    from repro.caches.fully_associative import FullyAssociativeCache
    from repro.kernels.numpy_backend import lru_shadow_hit_mask

    rng = random.Random(99)
    for capacity in (1, 4, 16):
        lines = np.array([rng.randrange(40) for _ in range(400)], dtype=np.int64)
        live = FullyAssociativeCache(capacity)
        expected = [bool(live.access_and_fill(int(line))) for line in lines]
        assert lru_shadow_hit_mask(lines, capacity).tolist() == expected


def test_rank_left_leq_with_queries_matches_brute_force():
    from repro.kernels.numpy_backend import _rank_left_leq

    rng = random.Random(21)
    for _ in range(20):
        n = rng.randrange(2, 120)
        values = np.array([rng.randrange(25) for _ in range(n)], dtype=np.int64)
        queries = np.array(
            sorted(rng.sample(range(n), rng.randrange(1, n + 1))), dtype=np.int64
        )
        got = _rank_left_leq(values, queries=queries)
        for q in queries.tolist():
            expected = int(sum(values[j] <= values[q] for j in range(q)))
            assert got[q] == expected


def _query_draw(rng, n, queried):
    """The *queried* positions of an n-element rank call (None: all)."""
    if queried == "none":
        return None
    if queried == "empty" or not n:
        return np.zeros(0, dtype=np.int64)
    if queried == "one":
        return rng.integers(0, n, 1)
    # "some" draws from every position, "prefix" from the first few only,
    # so elements after the last query are common.
    upto = n if queried == "some" else int(rng.integers(1, n + 1))
    return np.sort(rng.choice(upto, size=int(rng.integers(1, upto + 1)), replace=False))


@settings(deadline=None, max_examples=80)
@given(
    n=st.integers(0, 3000),
    ceiling=st.sampled_from([1, 2, 7, 300, 1 << 20]),
    queried=st.sampled_from(["none", "empty", "one", "some", "prefix"]),
    spikes=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=4096, ceiling=1, queried="none", spikes=False, seed=0)  # all zeros
@example(n=3000, ceiling=7, queried="prefix", spikes=True, seed=1)
@example(n=2049, ceiling=1 << 20, queried="some", spikes=True, seed=2)
def test_rank_left_leq_property(n, ceiling, queried, spikes, seed):
    """The rank equals brute force at every queried position and is zero
    elsewhere: ties, all-zero values, values above every queried one
    (*spikes*), elements after the last query, and a tree several levels
    deep over lengths that are not powers of two."""
    from repro.kernels.numpy_backend import _rank_left_leq

    rng = np.random.default_rng(seed)
    values = rng.integers(0, ceiling, n, dtype=np.int64)
    queries = _query_draw(rng, n, queried)
    if spikes and n:
        asked = np.zeros(n, dtype=bool)
        asked[np.arange(n) if queries is None else queries] = True
        spiked = np.flatnonzero(~asked & (rng.random(n) < 0.3))
        values[spiked] = int(values.max()) + 1 + rng.integers(0, 3, len(spiked))
    below = np.tril(values[None, :] <= values[:, None], k=-1).sum(axis=1)
    expected = np.zeros(n, dtype=np.int64)
    where = np.arange(n) if queries is None else queries
    expected[where] = below[where]
    assert (_rank_left_leq(values, queries) == expected).all()


def test_prev_occurrence_matches_stable_argsort():
    """The packed-key sort gives the stable argsort's answer, and lines too
    wide for the packed key take the argsort itself."""
    from repro.kernels.numpy_backend import prev_occurrence

    def by_argsort(lines):
        prev = np.full(len(lines), -1, dtype=np.int64)
        order = np.argsort(lines, kind="stable")
        same = lines[order][1:] == lines[order][:-1]
        prev[order[1:][same]] = order[:-1][same]
        return prev

    rng = np.random.default_rng(5)
    for n in (0, 1, 2, 7, 300, 5000):
        for low, high in ((0, max(n // 4, 1)), (-50, 50), (1 << 40, (1 << 40) + 64)):
            lines = rng.integers(low, high, n, dtype=np.int64)
            assert (prev_occurrence(lines) == by_argsort(lines)).all()
    # Lines 2**59 apart, and then a span of nearly 2**63, leave the packed
    # key too few bits for 300 positions: the argsort answers.
    lines = rng.integers(0, 8, 300, dtype=np.int64) << 59
    assert (prev_occurrence(lines) == by_argsort(lines)).all()
    lines[:2] = (-(1 << 62), (1 << 62) - 1)
    assert (prev_occurrence(lines) == by_argsort(lines)).all()


# -- equivalence: assist structures over the miss stream ----------------------

#: Every registered structure kind, both kernel modes, edge options.
ASSIST_SPECS = [
    MissCacheSpec(entries=1),
    MissCacheSpec(entries=4),
    MissCacheSpec(entries=4, policy="fifo"),
    VictimCacheSpec(entries=1),
    VictimCacheSpec(entries=4),
    VictimCacheSpec(entries=4, swap_on_hit=False),
    StreamBufferSpec(entries=4),
    StreamBufferSpec(entries=1, max_run=3),
    StreamBufferSpec(entries=4, max_run=16),
    StreamBufferSpec(entries=4, model_availability=True),
    StreamBufferSpec(entries=4, allocation_filter=True),
    StreamBufferSpec(entries=4, head_only=False),
    MultiWayStreamBufferSpec(ways=1, entries=4),
    MultiWayStreamBufferSpec(ways=1, entries=2, max_run=2),
    MultiWayStreamBufferSpec(ways=2, entries=1, max_run=3),
    MultiWayStreamBufferSpec(ways=3, entries=2, max_run=0),
    MultiWayStreamBufferSpec(ways=4, entries=4),
    MultiWayStreamBufferSpec(ways=8, entries=4),
    MultiWayStreamBufferSpec(ways=2, entries=3, model_availability=True),
    MultiWayStreamBufferSpec(ways=4, entries=4, allocation_filter=True),
    MultiWayStreamBufferSpec(ways=4, entries=4, head_only=False),
    StrideBufferSpec(entries=4),
    MultiWayStrideBufferSpec(ways=2, entries=4),
    CompositeSpec(
        members=(
            VictimCacheSpec(entries=4),
            MultiWayStreamBufferSpec(ways=4, entries=4),
        )
    ),
]


@pytest.mark.parametrize("spec", ASSIST_SPECS, ids=lambda s: s.to_json())
def test_randomized_assist_equivalence(spec):
    """Every LevelStats counter identical on randomized streams.

    Mixed random/sequential streams exercise both stream-buffer chains
    and cache-conflict churn; small geometries maximize miss density.
    """
    rng = random.Random(hash(spec.to_json()) & 0xFFFF)
    for case in range(6):
        n = rng.choice([0, 1, 2, 120, 1500])
        span = rng.choice([30, 200, 4000])
        addresses = []
        cursor = 0
        for _ in range(n):
            if rng.random() < 0.4:
                cursor = rng.randrange(span)
            addresses.append(cursor * 16)
            cursor += 1
        config = CacheConfig(rng.choice([512, 4096]), 16)
        warmup = rng.choice([0, 13, n, n + 5])
        _assert_level_equivalent(
            addresses, config, spec, warmup, context=(case, n, span, warmup)
        )


@pytest.mark.parametrize("name", ALL_NAMES)
def test_named_trace_assist_equivalence(name):
    """Identical stats on every named workload for one spec per mode."""
    trace = build_trace(name, 3000).materialize()
    config = CacheConfig(4096, 16)
    addresses = trace.stream("d")
    for spec in (
        MissCacheSpec(entries=4),
        VictimCacheSpec(entries=4),
        StreamBufferSpec(entries=4),
        MultiWayStreamBufferSpec(ways=4, entries=4),
    ):
        _assert_level_equivalent(addresses, config, spec, 500, context=(name,))


@pytest.mark.parametrize(
    "workload",
    [
        ZipfianSpec(length=2500, keys=600, seed=3),
        HotspotSpec(length=2500, working_set=16384, seed=3),
        PointerChaseSpec(length=2500, nodes=512, seed=3),
    ],
    ids=lambda w: w.kind,
)
def test_pattern_workload_assist_equivalence(workload):
    """The modern pattern workloads agree too, at several capacities."""
    trace = workload.trace()
    config = CacheConfig(4096, 16)
    addresses = trace.stream("d")
    for entries in (1, 2, 8):
        _assert_level_equivalent(
            addresses, config, VictimCacheSpec(entries=entries), 200
        )
        _assert_level_equivalent(
            addresses, config, MissCacheSpec(entries=entries), 200
        )
    _assert_level_equivalent(addresses, config, StreamBufferSpec(entries=4), 200)


def test_one_pass_entry_sweep_matches_per_capacity_runs():
    """The single rank pass equals one full simulation per capacity."""
    from repro.experiments.sweeps import miss_cache_sweep, victim_cache_sweep
    from repro.kernels.assist import LevelProducts, entry_sweep, level_point
    from repro.specs.structures import MissCacheSpec as MC
    from repro.specs.structures import VictimCacheSpec as VC

    trace = build_trace("ccom", 2500).materialize()
    config = CacheConfig(2048, 16)
    addresses = trace.stream("d")
    products = LevelProducts(addresses, config)
    for kind, sweep_fn, spec_cls in (
        ("miss", miss_cache_sweep, MC),
        ("victim", victim_cache_sweep, VC),
    ):
        reference = sweep_fn(addresses, config, max_entries=10)
        kernel, _ = entry_sweep(products, kind, 10)
        assert kernel.total_misses == reference.total_misses
        assert kernel.conflict_misses == reference.conflict_misses
        assert kernel.hits_by_entries == reference.hits_by_entries
        # ...and each sweep bucket equals an independent capacity-k run.
        for k in (1, 5, 10):
            _, stats = level_point(products, spec_cls(entries=k))
            assert kernel.hits_by_entries[k] == stats.removed_misses, (kind, k)


#: A 256-line direct-mapped cache: lines 256 apart share a slot.
ADVERSARIAL_CONFIG = CacheConfig(4096, 16)


ADVERSARIAL_STREAMS = {
    # §3's ping-pong: two lines fighting over one slot, and rotations of
    # three to five, so each victim-cache hit sits one or more deep.
    "ping_pong": [0, 256] * 40 + [0, 256, 512] * 20 + [0, 256, 512, 768, 1024] * 12,
    "all_distinct": list(range(600)),
    "one_line": [7] * 300,
    # Every miss fills an empty slot: no refill evicts, so no victim.
    "victims_cold": list(range(256)) * 3,
}


@pytest.mark.parametrize("stream", sorted(ADVERSARIAL_STREAMS))
def test_victim_and_lru_depths_on_adversarial_streams(stream):
    """The unbounded depths price every capacity as the interpreter does."""
    from repro.experiments.sweeps import miss_cache_sweep, victim_cache_sweep
    from repro.kernels.assist import LevelProducts, entry_sweep

    addresses = [line * ADVERSARIAL_CONFIG.line_size for line in ADVERSARIAL_STREAMS[stream]]
    products = LevelProducts(addresses, ADVERSARIAL_CONFIG)
    for kind, sweep_fn in (("miss", miss_cache_sweep), ("victim", victim_cache_sweep)):
        reference = sweep_fn(addresses, ADVERSARIAL_CONFIG, max_entries=8)
        kernel, _ = entry_sweep(products, kind, 8)
        assert kernel.hits_by_entries == reference.hits_by_entries, (stream, kind)
    for entries in (1, 2, 4):
        for spec in (VictimCacheSpec(entries=entries), MissCacheSpec(entries=entries)):
            _assert_level_equivalent(addresses, ADVERSARIAL_CONFIG, spec, context=(stream,))


@pytest.mark.parametrize(
    "window, conflicts",
    [
        ([4, 8, 12], 1),  # capacity - 1 distinct lines: a hit, never ranked
        ([4, 8, 12, 16], 0),  # capacity distinct lines: a capacity miss
        ([4, 8, 4, 8], 3),  # capacity references over two lines: a hit
    ],
)
def test_classification_at_the_shadow_capacity(window, conflicts):
    """Line 0 re-referenced after a window of capacity - 1 or capacity
    references, on a 4-line cache whose 3C shadow also holds 4 lines.
    Every line shares slot 0, so every reference misses."""
    config = CacheConfig(64, 16)
    addresses = [line * config.line_size for line in [0, *window, 0]]
    _assert_level_equivalent(addresses, config, context=(tuple(window),))
    summary = run_level(addresses, config, classify=True).classifier.summary()
    assert summary["misses"] == len(window) + 2
    assert summary["conflict"] == conflicts


@settings(deadline=None, max_examples=60)
@given(
    # -1 draws "the line after the previous miss", so sequential runs
    # (and exhausted ways) are as common as repeats.
    draws=st.lists(st.one_of(st.just(-1), st.integers(0, 7)), max_size=120),
    ways=st.integers(min_value=1, max_value=6),
    max_run=st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
    entries=st.integers(min_value=1, max_value=4),
    start=st.integers(min_value=0, max_value=130),
)
# Equal heads with different origins (lines 1, 2, 2, 3): which way is
# consumed shows in the run offset.
@example(draws=[1, -1, 2, -1], ways=2, max_run=None, entries=1, start=0)
# A run that outlives max_run (lines 1, 2, 3): the way must die.
@example(draws=[1, -1, -1], ways=1, max_run=1, entries=4, start=0)
def test_multi_way_resolver_matches_live_buffer(draws, ways, max_run, entries, start):
    """The head-table resolver against the interpreter's buffer.

    A tiny line alphabet makes repeated misses to one line common, so
    several ways often hold the same head and LRU order decides which
    is consumed.
    """
    from collections import Counter
    from types import SimpleNamespace

    from repro.buffers.stream_buffer import MultiWayStreamBuffer
    from repro.kernels.assist import _multi_way_stream_hits, _replay_structure

    miss_lines = []
    for draw in draws:
        follows = draw < 0 and miss_lines
        miss_lines.append(miss_lines[-1] + 1 if follows else max(draw, 0))
    lines = np.asarray(miss_lines, dtype=np.int64)
    m = len(lines)
    positions = np.arange(m, dtype=np.int64)
    stream = SimpleNamespace(
        positions=positions, miss_lines=lines, victims=np.full(m, -1, dtype=np.int64)
    )
    buffer = MultiWayStreamBuffer(
        ways=ways, entries=entries, max_run=max_run, track_run_offsets=True
    )
    reference = _replay_structure(buffer, stream, start)
    hit, offset = _multi_way_stream_hits(lines, ways, max_run)
    counted = positions >= start
    assert int(np.count_nonzero(hit & counted)) == reference.stream_hits
    assert dict(Counter(offset[hit].tolist())) == buffer.run_offsets.counts

    replayed = MultiWayStreamBuffer(ways=ways, entries=entries, max_run=max_run)
    mask = np.array(
        [replayed.lookup_on_miss(line, 0).satisfied for line in miss_lines], dtype=bool
    )
    assert np.array_equal(hit[counted], mask[counted])


@pytest.mark.parametrize("ways", [1, 2, 4, 8])
def test_run_length_sweep_equivalence(ways):
    from repro.experiments.sweeps import stream_buffer_run_sweep
    from repro.kernels.assist import LevelProducts, run_length_sweep

    trace = build_trace("linpack", 2500).materialize()
    config = CacheConfig(2048, 16)
    addresses = trace.stream("d")
    reference = stream_buffer_run_sweep(
        addresses, config, ways=ways, entries=4, max_run=12
    )
    kernel, _ = run_length_sweep(LevelProducts(addresses, config), ways=ways, max_run=12)
    assert kernel.total_misses == reference.total_misses
    assert kernel.removed_by_run == reference.removed_by_run


def test_sweep_jobs_identical_across_backends(monkeypatch):
    """Entry/run sweep jobs return identical results on both backends."""
    from repro.experiments.engine import EntrySweepJob, RunSweepJob, run_jobs

    jobs = [
        EntrySweepJob(qualifying_spec(), kind="miss", max_entries=6),
        EntrySweepJob(qualifying_spec(), kind="victim", max_entries=6),
        RunSweepJob(qualifying_spec(), ways=1, entries=4, max_run=8),
        RunSweepJob(qualifying_spec(), ways=4, entries=4, max_run=8),
    ]
    monkeypatch.setenv(ENV_BACKEND, "python")
    python_results = run_jobs(jobs)
    monkeypatch.setenv(ENV_BACKEND, "numpy")
    numpy_results = run_jobs(jobs)
    for py, vec, job in zip(python_results, numpy_results, jobs):
        assert py.__dict__ == vec.__dict__, job


def test_assist_jobs_identical_across_backends(monkeypatch):
    """Structure-carrying LevelJobs agree end to end through run_jobs."""
    from repro.experiments.engine import LevelJob, run_jobs

    jobs = [
        LevelJob(qualifying_spec(structure=VictimCacheSpec(entries=4), warmup=300)),
        LevelJob(
            qualifying_spec(
                structure=MultiWayStreamBufferSpec(ways=4, entries=4), classify=True
            )
        ),
        LevelJob(
            qualifying_spec(
                structure=StreamBufferSpec(entries=4, model_availability=True)
            )
        ),
    ]
    monkeypatch.setenv(ENV_BACKEND, "python")
    python_results = run_jobs(jobs)
    monkeypatch.setenv(ENV_BACKEND, "numpy")
    numpy_results = run_jobs(jobs)
    assert numpy_results == python_results


# -- equivalence: full system -------------------------------------------------


@pytest.mark.parametrize("prewarm", [False, True])
def test_system_equivalence(small_suite, prewarm, monkeypatch):
    """Bare-system SystemJobs: the kernel equals MemorySystem on all six traces."""
    from repro.experiments.engine import SystemJob, run_jobs

    jobs = [
        SystemJob(SystemSpec.for_system(trace), prewarm_l2=prewarm) for trace in small_suite
    ]
    monkeypatch.setenv(ENV_BACKEND, PYTHON)
    with telemetry.scoped() as scope:
        reference = run_jobs(jobs)
    assert scope.sections["backends"] == {PYTHON: len(jobs)}
    monkeypatch.setenv(ENV_BACKEND, NUMPY)
    with telemetry.scoped() as scope:
        kernel = run_jobs(jobs)
    assert scope.sections["backends"] == {NUMPY: len(jobs)}
    for trace, result, expected in zip(small_suite, kernel, reference):
        assert result.istats.as_dict() == expected.istats.as_dict(), trace.name
        assert result.dstats.as_dict() == expected.dstats.as_dict(), trace.name
        assert result.l2stats.as_dict() == expected.l2stats.as_dict(), trace.name
        assert result == expected, trace.name


def test_improved_system_job_matches_hand_wired_system(small_suite):
    """The §5 specs rebuild exactly the live structures Figure 5-1 describes."""
    from repro.buffers.base import CompositeAugmentation
    from repro.buffers.stream_buffer import MultiWayStreamBuffer, StreamBuffer
    from repro.buffers.victim_cache import VictimCache
    from repro.experiments.engine import SystemJob, run_jobs
    from repro.experiments.figure_5_1 import IMPROVED_DSTRUCTURE, IMPROVED_ISTRUCTURE
    from repro.hierarchy.system import MemorySystem

    results = run_jobs(
        [
            SystemJob(
                SystemSpec.for_system(trace),
                IMPROVED_ISTRUCTURE,
                IMPROVED_DSTRUCTURE,
                prewarm_l2=True,
            )
            for trace in small_suite
        ]
    )
    for trace, result in zip(small_suite, results):
        system = MemorySystem(
            iaugmentation=StreamBuffer(entries=4),
            daugmentation=CompositeAugmentation(
                [VictimCache(entries=4), MultiWayStreamBuffer(ways=4, entries=4)]
            ),
        )
        system.prewarm_l2(trace)
        assert result == system.run(trace), trace.name


def test_system_job_rejects_single_level_fields(small_suite):
    from repro.experiments.engine import SystemJob

    system = SystemSpec.for_system(small_suite[0])
    for field in (
        {"structure": VictimCacheSpec(entries=4)}, {"warmup": 10}, {"classify": True}
    ):
        with pytest.raises(ConfigurationError, match="SystemJob"):
            SystemJob(dataclasses.replace(system, **field))


# -- equivalence: through the engine ------------------------------------------


def test_run_jobs_identical_across_backends(monkeypatch):
    """The same batch returns identical summaries on both backends."""
    from repro.experiments.engine import LevelJob, run_jobs

    jobs = [
        LevelJob(qualifying_spec(side="i", classify=True, warmup=200)),
        LevelJob(qualifying_spec(side="d")),
    ]
    monkeypatch.setenv(ENV_BACKEND, "python")
    python_results = run_jobs(jobs)
    monkeypatch.setenv(ENV_BACKEND, "numpy")
    numpy_results = run_jobs(jobs)
    assert numpy_results == python_results


# -- the paper's conflict ping-pong (§3) ----------------------------------------

#: Two lines 4 KB apart share one set of the 4 KB data cache, so every
#: reference evicts the other line: the conflict ping-pong of §3.
PING_PONG = SequentialSpec(length=1000, extent=8192, stride=4096)


@pytest.mark.parametrize("backend", [NUMPY, PYTHON])
def test_conflict_ping_pong_counts(backend, monkeypatch):
    """A miss cache needs two entries to catch a ping-pong; a victim cache needs one.

    Every reference misses the cache.  A one-entry miss cache holds the
    line just loaded, which the cache holds too; two entries hold both
    lines.  One victim-cache entry holds the line just evicted, the one
    the next reference wants.  Only the first two references (cold)
    are not removed.  A stream buffer prefetches the next sequential
    line, which the pattern never touches.
    """
    from repro.experiments.engine import LevelJob, run_jobs

    structures = [None, MissCacheSpec(1), MissCacheSpec(2), VictimCacheSpec(1), StreamBufferSpec(4)]
    monkeypatch.setenv(ENV_BACKEND, backend)
    summaries = run_jobs(
        [
            LevelJob(SystemSpec.for_level(PING_PONG, CacheConfig(4096, 16), side="d", structure=s))
            for s in structures
        ]
    )
    assert [s.demand_misses for s in summaries] == [1000] * len(structures)
    assert [s.removed_misses for s in summaries] == [0, 0, 998, 998, 0]


# -- products shared across points --------------------------------------------

#: Traces the drawn points share: a registry trace, a pattern that
#: revisits lines and one of long sequential runs.  The patterns have no
#: instruction fetches, so their "i" side is empty.
SHARED_TRACES = (
    NamedWorkloadSpec("linpack", 1500, 0),
    ZipfianSpec(length=2000, keys=300, seed=5),
    SequentialSpec(length=2000, extent=16384, seed=5),
)

_FRESH_STREAMS = {}


def _fresh_stream(spec, side):
    """One side of *spec*'s trace, built outside the trace memo."""
    key = (spec, side)
    if key not in _FRESH_STREAMS:
        _FRESH_STREAMS[key] = spec.build().materialize().stream_array(side)
    return _FRESH_STREAMS[key]


@st.composite
def shared_points(draw):
    """One level, entry-sweep or run-sweep point over a shared trace."""
    from repro.experiments.engine import EntrySweepJob, LevelJob, RunSweepJob

    trace = draw(st.sampled_from(SHARED_TRACES))
    # Few geometries, so that points often share a trace's products.
    # (64, 256 and 256 lines): keys that dropped either field would collide.
    config = draw(
        st.sampled_from([CacheConfig(1024, 16), CacheConfig(4096, 16), CacheConfig(8192, 32)])
    )
    side = draw(st.sampled_from(["d", "i"]))
    bare = SystemSpec.for_level(trace, config, side=side)
    job_kind = draw(st.sampled_from(["level", "entry", "run"]))
    if job_kind == "entry":
        kind = draw(st.sampled_from(["miss", "victim"]))
        return EntrySweepJob(bare, kind=kind, max_entries=draw(st.integers(0, 8)))
    if job_kind == "run":
        ways = draw(st.integers(1, 4))
        return RunSweepJob(bare, ways=ways, entries=4, max_run=draw(st.integers(0, 8)))
    entries = draw(st.integers(1, 8))
    ways = draw(st.integers(1, 4))
    max_run = draw(st.one_of(st.none(), st.integers(0, 6)))
    structure = draw(
        st.sampled_from(
            [
                None,
                MissCacheSpec(entries=entries),
                VictimCacheSpec(entries=entries),
                StreamBufferSpec(entries=4, max_run=max_run),
                MultiWayStreamBufferSpec(ways=ways, entries=4, max_run=max_run),
                StreamBufferSpec(entries=4, model_availability=True),  # miss-replay
            ]
        )
    )
    return LevelJob(
        SystemSpec.for_level(
            trace,
            config,
            side=side,
            structure=structure,
            warmup=draw(st.sampled_from([0, 100, 700, 5000])),
            classify=draw(st.booleans()),
        )
    )


def _computed_alone(job):
    """*job* computed by the kernels from a freshly built trace's products."""
    from repro.experiments.engine import EntrySweepJob, RunSweepJob
    from repro.kernels.assist import LevelProducts, entry_sweep, level_point, run_length_sweep

    system = job.system
    products = LevelProducts(_fresh_stream(system.trace, system.side), system.cache_config)
    if isinstance(job, EntrySweepJob):
        answer, _ = entry_sweep(products, job.kind, job.max_entries)
    elif isinstance(job, RunSweepJob):
        answer, _ = run_length_sweep(products, job.ways, job.max_run)
    else:
        answer, _ = level_point(products, system.structure, system.classify, system.warmup)
    return answer


def _level(trace, config, **fields):
    from repro.experiments.engine import LevelJob

    return LevelJob(SystemSpec.for_level(trace, config, **fields))


def _run_sweep(trace, config, max_run):
    from repro.experiments.engine import RunSweepJob

    return RunSweepJob(SystemSpec.for_level(trace, config), ways=1, entries=4, max_run=max_run)


_LINPACK, _ZIPF, _SEQ = SHARED_TRACES
_SMALL, _WIDE, _LONG = CacheConfig(1024, 16), CacheConfig(4096, 16), CacheConfig(8192, 32)


@settings(deadline=None, max_examples=40)
@given(points=st.lists(shared_points(), min_size=1, max_size=10))
# Each explicit example makes later points read products stored under a
# key that differs in one field: geometry, warm-up window, max_run, ways.
@example(points=[_level(_LINPACK, config) for config in (_SMALL, _WIDE, _LONG)])
@example(points=[_level(_ZIPF, _SMALL, classify=True, warmup=w) for w in (0, 700)])
@example(points=[_run_sweep(_SEQ, _SMALL, 8), _level(_SEQ, _SMALL, structure=StreamBufferSpec(max_run=2))])
@example(
    points=[
        _level(_SEQ, _WIDE, structure=MultiWayStreamBufferSpec(ways=ways)) for ways in (2, 4)
    ]
)
def test_points_sharing_traces_match_points_alone(points):
    """Points that share traces read shared products and answer as if alone.

    The points run in order through the engine's job body, so later
    points read products earlier ones (and earlier examples) stored on
    the memoized traces.  The first point is also pinned to the
    reference interpreter.
    """
    from repro.experiments.engine import execute_job

    for job in points:
        assert execute_job(job).__dict__ == _computed_alone(job).__dict__, job
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(ENV_BACKEND, PYTHON)
        reference = execute_job(points[0])
    assert reference.__dict__ == execute_job(points[0]).__dict__, points[0]


#: Structures per trace of the benchmark's design-sweep grid.
GRID_STRUCTURES = (
    "none", "vc1", "vc2", "vc4", "mc1", "mc2", "mc4", "sb1", "sb4", "sb2x4", "sb4x4",
)


def test_cold_grid_extracts_each_miss_stream_once(monkeypatch):
    """A cold design-sweep grid (the benchmark's `distinct` shape: nine
    traces, eleven structures and two entry sweeps each) runs pass 1
    once per trace, not once per point."""
    from repro.experiments import workloads
    from repro.experiments.engine import EntrySweepJob, LevelJob, run_jobs
    from repro.kernels import assist
    from repro.specs.structures import parse_structure_code
    from repro.specs.workloads import WORKLOAD_PRESETS

    monkeypatch.setenv(ENV_BACKEND, NUMPY)
    monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
    monkeypatch.setattr(workloads, "_TRACE_CACHE", type(workloads._TRACE_CACHE)())
    calls = []
    original = assist.extract_miss_stream

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(assist, "extract_miss_stream", counted)
    specs = [dataclasses.replace(preset, length=3000) for preset in WORKLOAD_PRESETS.values()]
    specs += [NamedWorkloadSpec("ccom", 1000, 0), NamedWorkloadSpec("linpack", 1000, 0)]
    cache = baseline_system().dcache
    jobs = []
    for spec in specs:
        for code in GRID_STRUCTURES:
            structure = parse_structure_code(code)
            jobs.append(LevelJob(SystemSpec.for_level(spec, cache, side="d", structure=structure)))
        for kind in ("miss", "victim"):
            jobs.append(EntrySweepJob(SystemSpec.for_level(spec, cache, side="d"), kind=kind))
    assert len(jobs) == 117
    run_jobs(jobs, jobs=1)
    assert len(calls) == 9


def test_point_from_cached_products_is_observed_once():
    """A point answered from products an earlier point built still makes
    exactly one level observation, with the interpreter's stats."""
    from repro.experiments.engine import LevelJob, execute_job

    job = LevelJob(qualifying_spec(structure=VictimCacheSpec(entries=2), warmup=100))
    observed = []
    for backend in (PYTHON, NUMPY, NUMPY):
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv(ENV_BACKEND, backend)
            with telemetry.scoped() as scope:
                execute_job(job)
        observed.append((scope.level_runs, scope.references, scope.sections))
    assert observed[0][0] == 1
    assert observed[1] == observed[0] and observed[2] == observed[0]


def test_cached_products_are_read_only():
    from repro.kernels.assist import level_products

    trace = build_trace("ccom", 1500).materialize()
    products = level_products(trace, "d", CacheConfig(1024, 16))
    assert level_products(trace, "d", CacheConfig(1024, 16)) is products
    arrays = [products.positions, products.miss_lines, products.victims]
    for product in (
        products.lru_depths(),
        products.victim_depths(),
        products.stream_hits(1, None),
        products.stream_hits(4, 3),
    ):
        arrays.extend(product)
    for array in arrays:
        assert len(array)
        with pytest.raises(ValueError):
            array[0] = 1
    summary = products.classification(0)
    summary["conflict"] = -1
    assert products.classification(0)["conflict"] >= 0


# -- packed-trace views -------------------------------------------------------


def test_as_arrays_zero_copy_and_readonly(small_suite):
    trace = small_suite[0]
    kinds, addresses = trace.as_arrays()
    assert len(kinds) == len(addresses) == len(trace)
    # Zero-copy: the views alias the packed buffers...
    assert addresses.base is not None
    # ...and are frozen so kernels cannot mutate the trace through them.
    assert not kinds.flags.writeable and not addresses.flags.writeable
    with pytest.raises(ValueError):
        addresses[0] = 1
    assert trace.as_arrays() is trace.as_arrays()


def test_stream_array_matches_list_streams(small_suite):
    trace = small_suite[0]
    for side in ("i", "d"):
        assert trace.stream_array(side).tolist() == trace.stream(side)
        assert not trace.stream_array(side).flags.writeable
        assert trace.stream_array(side) is trace.stream_array(side)
    with pytest.raises(ValueError):
        trace.stream_array("x")


def test_packed_streams_match_pair_reference(small_suite):
    """The vectorized per-side selection equals a plain filter over the pairs."""
    trace = small_suite[1]
    pairs = list(trace)
    assert trace.stream("i") == [address for kind, address in pairs if kind == int(IFETCH)]
    assert trace.stream("d") == [address for kind, address in pairs if kind != int(IFETCH)]


# -- dispatch -----------------------------------------------------------------


@pytest.mark.parametrize(
    "structure,mode",
    [
        (None, VECTOR),
        (MissCacheSpec(entries=4), VECTOR),
        (MissCacheSpec(entries=4, policy="fifo"), MISS_REPLAY),
        (VictimCacheSpec(entries=4), VECTOR),
        (VictimCacheSpec(entries=4, swap_on_hit=False), MISS_REPLAY),
        (VictimCacheSpec(entries=4, policy="fifo"), MISS_REPLAY),
        (StreamBufferSpec(entries=4), VECTOR),
        (StreamBufferSpec(entries=4, max_run=8), VECTOR),
        (StreamBufferSpec(entries=4, model_availability=True), MISS_REPLAY),
        (StreamBufferSpec(entries=4, allocation_filter=True), MISS_REPLAY),
        (StreamBufferSpec(entries=4, head_only=False), MISS_REPLAY),
        (MultiWayStreamBufferSpec(ways=4, entries=4), VECTOR),
        (
            MultiWayStreamBufferSpec(ways=2, entries=3, model_availability=True),
            MISS_REPLAY,
        ),
        (StrideBufferSpec(entries=4), MISS_REPLAY),
        (MultiWayStrideBufferSpec(ways=2, entries=4), MISS_REPLAY),
        (
            CompositeSpec(
                members=(
                    VictimCacheSpec(entries=4),
                    MultiWayStreamBufferSpec(ways=4, entries=4),
                )
            ),
            MISS_REPLAY,
        ),
    ],
)
def test_every_registered_structure_has_a_mode(structure, mode):
    """The mode table: every registered structure kind has a mode."""
    assert structure_mode(structure) == mode
    spec = qualifying_spec(structure=structure)
    assert kernel_mode(spec) == mode
    assert select_backend(spec, requested=NUMPY) == NUMPY


@pytest.mark.parametrize("backend", [NUMPY, PYTHON])
def test_execute_job_takes_the_route_its_label_names(backend, monkeypatch):
    """The route each job runs is the one `_job_backend` reports to
    heartbeats and run records: kernel bodies on `numpy`, kernel bodies
    that replay a live structure on `miss-replay`, the interpreter on
    `python`."""
    from repro.experiments import engine
    from repro.experiments.engine import (
        EntrySweepJob,
        LevelJob,
        RunSweepJob,
        SystemJob,
        _job_backend,
        execute_job,
    )
    from repro.experiments.figure_5_1 import IMPROVED_DSTRUCTURE, IMPROVED_ISTRUCTURE
    from repro.hierarchy.system import MemorySystem
    from repro.kernels import assist, numpy_backend

    monkeypatch.setenv(ENV_BACKEND, backend)
    routes = []

    def record(owner, name, label):
        original = getattr(owner, name)

        def body(*args, **kwargs):
            routes.append(label)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, body)

    for owner, name in (
        (numpy_backend, "simulate_level_summary"),
        (numpy_backend, "simulate_system"),
        (assist, "simulate_assist_summary"),
        (assist, "entry_sweep_summary"),
        (assist, "run_length_sweep_summary"),
    ):
        record(owner, name, NUMPY)
    record(assist, "_replay_structure", MISS_REPLAY)
    for name in ("run_level", "miss_cache_sweep", "victim_cache_sweep", "stream_buffer_run_sweep"):
        record(engine, name, PYTHON)
    record(MemorySystem, "run", PYTHON)

    system = SystemSpec.for_system(NamedWorkloadSpec("linpack", 1500, 0))
    jobs = [LevelJob(qualifying_spec(structure=spec)) for spec in [None] + ASSIST_SPECS]
    jobs += [
        EntrySweepJob(qualifying_spec(), kind="miss", max_entries=4),
        EntrySweepJob(qualifying_spec(), kind="victim", max_entries=4),
        RunSweepJob(qualifying_spec(), ways=2, max_run=4),
        SystemJob(system),
        SystemJob(system, IMPROVED_ISTRUCTURE, IMPROVED_DSTRUCTURE),
    ]
    expected = {NUMPY: [NUMPY], MISS_REPLAY: [NUMPY, MISS_REPLAY], PYTHON: [PYTHON]}
    labels = set()
    for job in jobs:
        routes.clear()
        execute_job(job)
        label = _job_backend(job)
        labels.add(label)
        assert routes == expected[label], job
    assert labels == ({PYTHON} if backend == PYTHON else {NUMPY, MISS_REPLAY, PYTHON})


def test_unregistered_structure_disqualifies():
    class Mystery:
        kind = "mystery"

    spec = qualifying_spec(structure=None)
    object.__setattr__(spec, "structure", Mystery())
    assert structure_mode(Mystery()) is None
    assert kernel_mode(spec) is None
    # Never an error — even under an explicit numpy request.
    assert select_backend(spec, requested=NUMPY) == PYTHON


def test_disqualification_reports_all_reasons():
    """A composite with unsupported members has no mode and runs on python."""

    class Left:
        kind = "left_mystery"

    class Right:
        kind = "right_mystery"

    composite = CompositeSpec(
        members=(VictimCacheSpec(entries=4), VictimCacheSpec(entries=2))
    )
    object.__setattr__(composite, "members", (Left(), Right()))
    spec = qualifying_spec(structure=composite)
    assert kernel_mode(spec) is None
    assert select_backend(spec, requested=NUMPY) == PYTHON


def test_structure_free_spec_qualifies():
    spec = qualifying_spec(classify=True, warmup=100)
    assert kernel_mode(spec) == VECTOR
    assert select_backend(spec, requested=PYTHON) == PYTHON
    assert select_backend(spec, requested=NUMPY) == NUMPY


def test_non_spec_is_disqualified():
    assert kernel_mode(object()) is None
    assert select_backend(object(), requested=NUMPY) == PYTHON


def test_validate_backend_rejects_malformed():
    assert validate_backend(NUMPY) == NUMPY
    assert validate_backend(PYTHON) == PYTHON
    for value in ("fortran", "auto"):
        with pytest.raises(ConfigurationError):
            validate_backend(value)


def test_default_backend_env(monkeypatch):
    monkeypatch.delenv(ENV_BACKEND, raising=False)
    assert default_backend() == NUMPY
    assert select_backend(qualifying_spec()) == NUMPY
    monkeypatch.setenv(ENV_BACKEND, "python")
    assert default_backend() == PYTHON
    assert select_backend(qualifying_spec()) == PYTHON
    for value in ("bogus", "auto"):
        monkeypatch.setenv(ENV_BACKEND, value)
        with pytest.raises(ConfigurationError):
            default_backend()


def test_cli_backend_validation(monkeypatch, capsys):
    from repro.experiments import engine
    from repro.experiments.cli import main

    import os

    monkeypatch.setenv(ENV_BACKEND, "numpy")  # registers teardown restore
    assert main(["--backend", "bogus", "--list"]) == 2
    assert "backend" in capsys.readouterr().err
    # A valid value propagates through the environment for workers while
    # the run lasts.
    seen = []

    def recording_run(names, **kwargs):
        seen.append(os.environ[ENV_BACKEND])
        return []

    monkeypatch.setattr(engine, "run_experiments", recording_run)
    assert main(["--backend", "python", "table_1_1"]) == 0
    assert seen == ["python"]
    assert os.environ.get(ENV_BACKEND) == "numpy"


def test_kernels_package_imports_without_numpy():
    """The dispatch layer itself never imports numpy (kernels load it lazily)."""
    import repro.kernels as kernels

    # numpy only ever enters through the kernel modules, not at import time.
    assert "numpy" not in vars(kernels)
    assert select_backend(qualifying_spec(), requested=PYTHON) == PYTHON


# -- telemetry surfacing ------------------------------------------------------


def test_job_progress_renders_backend():
    progress = telemetry.JobProgress(3, 8, 1.5, backend="numpy")
    assert "[numpy]" in str(progress)
    assert "[" not in str(telemetry.JobProgress(3, 8, 1.5))


def test_backend_counts_reach_run_record(monkeypatch):
    from repro.experiments.engine import LevelJob, run_jobs
    from repro.telemetry.record import build_run_record, validate_record

    monkeypatch.delenv(ENV_BACKEND, raising=False)
    jobs = [
        LevelJob(qualifying_spec(side="d")),
        LevelJob(qualifying_spec(side="d", structure=VictimCacheSpec(entries=4))),
        LevelJob(
            qualifying_spec(
                side="d",
                structure=MultiWayStreamBufferSpec(
                    ways=2, entries=3, model_availability=True
                ),
            )
        ),
    ]
    heartbeats = []
    with telemetry.scoped() as scope:
        run_jobs(jobs, progress=heartbeats.append)
        record = build_run_record(scope, "kernels-test", baseline_system(), 0.1)
    # Bare + victim cache vectorize; the availability-modelled buffer
    # replays the compressed miss stream and is labelled accordingly.
    expected = {"numpy": 2, "miss-replay": 1}
    assert scope.sections["backends"] == expected
    assert record.backends == expected
    validate_record(record.as_dict())
    assert heartbeats[-1].backend
    round_tripped = type(record).from_dict(record.as_dict())
    assert round_tripped.backends == expected
