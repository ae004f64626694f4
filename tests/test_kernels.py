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

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig, baseline_system
from repro.common.errors import ConfigurationError
from repro.common.types import IFETCH
from repro.experiments.runner import run_level, run_system
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
from repro.specs.workloads import HotspotSpec, PointerChaseSpec, ZipfianSpec
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


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("side", ["i", "d"])
def test_named_trace_level_equivalence(name, side):
    """Identical stats and 3C totals on every named workload, both sides."""
    from repro.kernels.numpy_backend import simulate_level, stream_array

    trace = build_trace(name, 3000).materialize()
    config = CacheConfig(4096, 16)
    addresses = trace.stream(side)
    reference = run_level(addresses, config, classify=True, warmup=500)
    kernel = simulate_level(
        stream_array(trace, side), config, classify=True, warmup=500
    )
    assert kernel.stats.as_dict() == reference.stats.as_dict()
    assert kernel.classification == reference.classifier.summary()
    assert kernel.conflicts == reference.conflicts


def test_randomized_level_equivalence():
    """Property-style: random streams, geometries, and warm-up boundaries."""
    from repro.kernels.numpy_backend import simulate_level

    rng = random.Random(1234)
    for case in range(25):
        n = rng.randrange(0, 700)
        span = rng.choice([40, 300, 5000])
        addresses = [rng.randrange(span) * 4 for _ in range(n)]
        config = CacheConfig(
            rng.choice([256, 1024, 4096]), rng.choice([16, 32])
        )
        warmup = rng.choice([0, 1, max(1, n // 2), n, n + 7])
        reference = run_level(addresses, config, classify=True, warmup=warmup)
        kernel = simulate_level(addresses, config, classify=True, warmup=warmup)
        assert kernel.stats.as_dict() == reference.stats.as_dict(), (case, warmup)
        assert kernel.classification == reference.classifier.summary(), (case, warmup)


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


def test_rank_left_leq_with_thresholds_matches_brute_force():
    from repro.kernels.numpy_backend import _rank_left_leq

    rng = random.Random(21)
    for _ in range(20):
        n = rng.randrange(2, 120)
        values = np.array([rng.randrange(25) for _ in range(n)], dtype=np.int64)
        thresholds = np.array(
            [rng.randrange(-1, int(values.max()) + 1) for _ in range(n)],
            dtype=np.int64,
        )
        queries = np.array(
            sorted(rng.sample(range(n), rng.randrange(1, n + 1))), dtype=np.int64
        )
        got = _rank_left_leq(values, queries=queries, thresholds=thresholds)
        for q in queries.tolist():
            expected = int(sum(values[j] <= thresholds[q] for j in range(q)))
            assert got[q] == expected


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


def _assert_assist_equivalent(addresses, config, spec, warmup=0, context=()):
    from repro.kernels.assist import simulate_assist_level
    from repro.specs.structures import build

    reference = run_level(
        addresses, config, augmentation=build(spec), classify=True, warmup=warmup
    )
    kernel = simulate_assist_level(
        addresses, config, spec, classify=True, warmup=warmup
    )
    label = (*context, spec)
    assert kernel.stats.as_dict() == reference.stats.as_dict(), label
    assert kernel.classification == reference.classifier.summary(), label


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
        _assert_assist_equivalent(
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
        _assert_assist_equivalent(addresses, config, spec, 500, context=(name,))


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
        _assert_assist_equivalent(
            addresses, config, VictimCacheSpec(entries=entries), 200
        )
        _assert_assist_equivalent(
            addresses, config, MissCacheSpec(entries=entries), 200
        )
    _assert_assist_equivalent(addresses, config, StreamBufferSpec(entries=4), 200)


def test_one_pass_entry_sweep_matches_per_capacity_runs():
    """The single rank pass equals one full simulation per capacity."""
    from repro.experiments.sweeps import miss_cache_sweep, victim_cache_sweep
    from repro.kernels.assist import entry_sweep, simulate_assist_level
    from repro.specs.structures import MissCacheSpec as MC
    from repro.specs.structures import VictimCacheSpec as VC

    trace = build_trace("ccom", 2500).materialize()
    config = CacheConfig(2048, 16)
    addresses = trace.stream("d")
    for kind, sweep_fn, spec_cls in (
        ("miss", miss_cache_sweep, MC),
        ("victim", victim_cache_sweep, VC),
    ):
        reference = sweep_fn(addresses, config, max_entries=10)
        kernel = entry_sweep(addresses, config, kind, 10)
        assert kernel.total_misses == reference.total_misses
        assert kernel.conflict_misses == reference.conflict_misses
        assert kernel.hits_by_entries == reference.hits_by_entries
        # ...and each sweep bucket equals an independent capacity-k run.
        for k in (1, 5, 10):
            run = simulate_assist_level(addresses, config, spec_cls(entries=k))
            assert kernel.hits_by_entries[k] == run.stats.removed_misses, (kind, k)


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

    from repro.buffers.stream_buffer import MultiWayStreamBuffer
    from repro.kernels.assist import (
        MissStream,
        _multi_way_stream_hits,
        _replay_structure,
    )

    miss_lines = []
    for draw in draws:
        follows = draw < 0 and miss_lines
        miss_lines.append(miss_lines[-1] + 1 if follows else max(draw, 0))
    lines = np.asarray(miss_lines, dtype=np.int64)
    m = len(lines)
    positions = np.arange(m, dtype=np.int64)
    stream = MissStream(
        lines=lines,
        hits=np.zeros(m, dtype=bool),
        positions=positions,
        miss_lines=lines,
        victims=np.full(m, -1, dtype=np.int64),
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
    from repro.kernels.assist import run_length_sweep

    trace = build_trace("linpack", 2500).materialize()
    config = CacheConfig(2048, 16)
    addresses = trace.stream("d")
    reference = stream_buffer_run_sweep(
        addresses, config, ways=ways, entries=4, max_run=12
    )
    kernel = run_length_sweep(addresses, config, ways=ways, entries=4, max_run=12)
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
def test_system_equivalence(small_suite, prewarm):
    from repro.kernels.numpy_backend import simulate_system

    trace = small_suite[0]  # ccom: mixed instruction/data stream
    reference = run_system(trace, classify=True, prewarm_l2=prewarm)
    kernel = simulate_system(trace, classify=True, prewarm_l2=prewarm)
    result = kernel.result
    assert result.istats.as_dict() == reference.istats.as_dict()
    assert result.dstats.as_dict() == reference.dstats.as_dict()
    assert result.l2stats.as_dict() == reference.l2stats.as_dict()
    assert result.total_references == reference.total_references


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
    from repro.experiments.cli import main

    import os

    monkeypatch.setenv(ENV_BACKEND, "numpy")  # registers teardown restore
    assert main(["--backend", "bogus", "--list"]) == 2
    assert "backend" in capsys.readouterr().err
    # A valid value propagates through the environment for workers.
    assert main(["--backend", "python", "--list"]) == 0
    assert os.environ.get(ENV_BACKEND) == "python"


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
