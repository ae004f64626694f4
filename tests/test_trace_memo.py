"""The trace memo's fingerprint tier, batch pinning and thread safety.

Builds are counted across processes: every ``Trace.materialize`` call
appends its process id and the spec it built to a log file, and fork
workers inherit the counting wrapper.
"""

from __future__ import annotations

import os
import shutil
import sys
import threading
from collections import Counter

import pytest

from repro.common.config import CacheConfig
from repro import telemetry
from repro.experiments import engine, workloads
from repro.experiments.engine import EntrySweepJob, LevelJob, run_experiments, run_jobs
from repro.specs import NamedWorkloadSpec, SystemSpec
from repro.specs.workloads import SequentialSpec, UniformRandomSpec
from repro.traces.registry import BENCHMARK_NAMES
from repro.traces.trace import Trace

#: The memo cap the tests run under; fork workers inherit the patch.
CAP = 2


@pytest.fixture
def memo(monkeypatch):
    """Both tiers emptied, with small caps so a few specs overflow them."""
    monkeypatch.setattr(workloads, "DEFAULT_TRACE_CACHE_CAP", CAP)
    monkeypatch.setattr(workloads, "FINGERPRINT_CACHE_CAP", CAP + 1)
    monkeypatch.setattr(workloads, "_TRACE_CACHE", type(workloads._TRACE_CACHE)())
    monkeypatch.setattr(workloads, "_FINGERPRINTS", type(workloads._FINGERPRINTS)())
    return workloads


@pytest.fixture
def builds(monkeypatch, tmp_path):
    """``take()`` returns and clears the ``(pid, spec json)`` of each build."""
    log = tmp_path / "builds.log"
    original = Trace.materialize

    def counted(self):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {self.meta.source}\n")
        return original(self)

    monkeypatch.setattr(Trace, "materialize", counted)

    def take():
        if not log.exists():
            return []
        lines = log.read_text().splitlines()
        log.unlink()
        return [tuple(line.split(" ", 1)) for line in lines]

    return take


@pytest.fixture
def store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))


def pattern_specs(count):
    return [SequentialSpec(length=2_000, stride=16 * (index + 1), seed=index)
            for index in range(count)]


def grouped_grid(specs):
    """Every job of one trace together, traces in a fixed order."""
    jobs = []
    for spec in specs:
        for size in (1024, 4096):
            jobs.append(LevelJob(SystemSpec.for_level(spec, CacheConfig(size, 16))))
        system = SystemSpec.for_level(spec, CacheConfig(4096, 16))
        jobs.append(EntrySweepJob(system=system, kind="victim", max_entries=4))
    return jobs


class TestBatchBuilds:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_batch_builds_each_trace_once_and_warm_builds_none(
        self, memo, builds, store, jobs
    ):
        specs = pattern_specs(CAP + 1)
        grid = grouped_grid(specs)
        cold = run_jobs(grid, jobs=jobs)
        built = builds()
        # Fork workers inherit the parent's pinned memo, so across every
        # process of the batch each trace is built exactly once.
        assert Counter(source for _pid, source in built) == Counter(
            spec.to_json() for spec in specs
        )
        assert len(set(built)) == len(built)  # never twice in one process
        warm = run_jobs(grid, jobs=jobs)
        assert builds() == []
        assert warm == cold

    def test_cold_pool_batch_builds_no_trace_in_the_parent(
        self, memo, builds, store, monkeypatch
    ):
        """Each trace is built, fingerprinted and keyed in the worker that
        simulates it; the parent records the fingerprints, so a warm rerun
        keys every job before dispatch and starts no pool."""
        specs = pattern_specs(CAP + 1)
        grid = grouped_grid(specs)
        cold = run_jobs(grid, jobs=2)
        built = builds()
        assert [pid for pid, _source in built if int(pid) == os.getpid()] == []
        assert Counter(source for _pid, source in built) == Counter(
            spec.to_json() for spec in specs
        )

        def no_pool(*args, **kwargs):
            raise AssertionError("a warm batch started a pool")

        monkeypatch.setattr(engine, "ProcessPoolExecutor", no_pool)
        assert run_jobs(grid, jobs=2) == cold
        assert builds() == []

    def test_batch_without_a_store_builds_each_trace_once(self, memo, builds, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        specs = pattern_specs(CAP + 1)
        run_jobs(grouped_grid(specs) + grouped_grid(specs), jobs=1)
        assert sorted(source for _pid, source in builds()) == sorted(
            spec.to_json() for spec in specs
        )

    def test_memo_returns_to_the_cap_after_the_batch(self, memo, store):
        run_jobs(grouped_grid(pattern_specs(CAP + 1)), jobs=1)
        assert len(memo._TRACE_CACHE) == CAP
        assert not memo._PINS


class TestPartialWarmParity:
    def test_inline_and_pool_agree_over_a_half_warm_store(self, memo, tmp_path, monkeypatch):
        """With about half of each trace's points already stored and no
        fingerprint known, the tasks key and look up every job: inline and
        pooled runs give equal results, store trees and counters."""
        specs = pattern_specs(CAP + 1)
        grid = grouped_grid(specs)
        seeded = tmp_path / "seeded"
        monkeypatch.setenv("REPRO_RESULT_STORE", str(seeded))
        run_jobs(grid[::2], jobs=1)
        runs = {}
        for jobs in (1, 2):
            root = tmp_path / f"jobs{jobs}"
            shutil.copytree(seeded, root)
            monkeypatch.setenv("REPRO_RESULT_STORE", str(root))
            memo._FINGERPRINTS.clear()
            memo._TRACE_CACHE.clear()
            beats = []
            with telemetry.scoped() as scope:
                results = run_jobs(grid, jobs=jobs, progress=beats.append, heartbeat=60.0)
            tree = {
                path.relative_to(root).as_posix(): path.read_bytes()
                for path in root.rglob("*") if path.is_file()
            }
            runs[jobs] = (results, tree, scope.sections["store"], beats[-1].store_hits)
        assert runs[1] == runs[2]
        _results, tree, traffic, store_hits = runs[1]
        assert len(tree) == len(grid)
        assert (traffic["hits"], traffic["misses"]) == (len(grid[::2]), len(grid[1::2]))
        assert traffic["bytes_read"] > 0
        assert store_hits == len(grid[::2])


class TestSuitePinnedForTheCall:
    def test_a_module_with_many_traces_does_not_evict_the_suite(
        self, monkeypatch, builds
    ):
        """ext_modern_workloads replays eight traces of its own, enough to
        evict the six-trace suite from the memo at the default cap; the
        call pins the suite, so the module after it rebuilds nothing."""
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        monkeypatch.setattr(workloads, "_TRACE_CACHE", type(workloads._TRACE_CACHE)())
        monkeypatch.setattr(workloads, "_FINGERPRINTS", type(workloads._FINGERPRINTS)())
        run_experiments(["figure_3_3", "ext_modern_workloads", "figure_3_5"], scale=1_000)
        built = Counter(source for _pid, source in builds())
        suite_sources = {
            NamedWorkloadSpec(name, 1_000).resolve().to_json() for name in BENCHMARK_NAMES
        }
        assert suite_sources <= set(built)
        assert set(built.values()) == {1}


class TestFingerprintTier:
    def test_fingerprint_survives_eviction_without_a_build(self, memo, builds):
        specs = pattern_specs(CAP + 1)
        fingerprints = [spec.fingerprint() for spec in specs]
        assert specs[0].resolve() not in memo._TRACE_CACHE  # evicted
        builds()
        assert specs[0].fingerprint() == fingerprints[0]
        assert builds() == []
        fresh = specs[0].resolve().build().materialize().fingerprint()
        assert fingerprints[0] == fresh

    def test_tier_is_bounded(self, memo):
        for spec in pattern_specs(CAP + 3):
            spec.fingerprint()
        assert len(memo._FINGERPRINTS) == memo.FINGERPRINT_CACHE_CAP

    def test_ambient_scale_shares_the_explicit_twins_entry(self, memo, builds, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "1000")
        ambient = NamedWorkloadSpec("ccom")
        explicit = NamedWorkloadSpec("ccom", scale=1_000)
        with memo.pinned_workloads([ambient]):
            trace = explicit.trace()
            fingerprint = explicit.fingerprint()
            for spec in pattern_specs(CAP + 1):
                spec.trace()
            builds()
            assert ambient.trace() is trace  # pinned through its twin
            assert ambient.fingerprint() == fingerprint
            assert builds() == []
        assert list(memo._FINGERPRINTS) == [explicit]  # one entry for both


class TestThreadSafety:
    def test_concurrent_lookups_past_the_cap(self, memo):
        # Tiny traces, so threads spend their time in the memo, not in builds.
        specs = [SequentialSpec(length=20, stride=16 * (index + 1), seed=index)
                 for index in range(CAP + 2)] + [UniformRandomSpec(length=20, seed=9)]
        expected = {spec: spec.build().materialize().fingerprint() for spec in specs}
        errors = []

        def lookup(offset):
            try:
                for step in range(500):
                    spec = specs[(offset + step) % len(specs)]
                    pinned = specs[offset % len(specs)]
                    with memo.pinned_workloads([pinned]):
                        trace = memo.materialized_workload(spec)
                        assert trace.meta.source == spec.to_json()
                        assert trace.fingerprint() == expected[spec]
                        assert spec.fingerprint() == expected[spec]
            except Exception as exc:  # reported in the main thread
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lookup, args=(index,)) for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        assert errors == []
        assert len(memo._TRACE_CACHE) <= CAP
        assert not memo._PINS
