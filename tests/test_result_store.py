"""Result store: correctness, corruption tolerance, zero-recompute warm runs."""

from __future__ import annotations

import json
import random
import threading
import warnings
from pathlib import Path

import pytest

from repro.common.config import CacheConfig
from repro.experiments.engine import (
    EntrySweepJob,
    LevelJob,
    LevelSummary,
    RunSweepJob,
    SystemJob,
    _store_key,
    run_jobs,
)
from repro.experiments.figure_5_1 import IMPROVED_DSTRUCTURE, IMPROVED_ISTRUCTURE
from repro.experiments.grid import GridSpec, sweep_grid
from repro.experiments.sweeps import EntrySweep, RunLengthSweep
from repro.experiments.workloads import materialized_workload
from repro.hierarchy.level import CacheLevel
from repro.hierarchy.system import MemorySystem
from repro.specs import NamedWorkloadSpec, StreamBufferSpec, SystemSpec, VictimCacheSpec
from repro.store import (
    RESULT_SCHEMA_VERSION,
    ResultKey,
    ResultStore,
    current_store,
)

SCALE = 3_000


@pytest.fixture
def store(tmp_path, monkeypatch):
    """An activated store rooted in a temp dir, deactivated on teardown."""
    monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
    yield current_store()


@pytest.fixture
def no_store(monkeypatch):
    monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)


@pytest.fixture
def sim_counter(monkeypatch):
    """Count simulations: every interpreter replay builds a CacheLevel, and
    every vectorized bare-level point runs simulate_level_summary."""
    counts = {"levels": 0}
    original = CacheLevel.__init__

    def counting(self, *args, **kwargs):
        counts["levels"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CacheLevel, "__init__", counting)
    from repro.kernels import numpy_backend

    kernel_original = numpy_backend.simulate_level_summary

    def kernel_counting(*args, **kwargs):
        counts["levels"] += 1
        return kernel_original(*args, **kwargs)

    monkeypatch.setattr(numpy_backend, "simulate_level_summary", kernel_counting)
    return counts


def level_job(name="ccom", side="d"):
    trace = materialized_workload(NamedWorkloadSpec(name, SCALE))
    return LevelJob(SystemSpec.for_level(trace, CacheConfig(4096, 16), side=side))


def count_file_reads(monkeypatch):
    """Paths the store opens from now on."""
    import repro.store.core as core

    reads = []
    monkeypatch.setattr(
        core, "open", lambda path, *args: reads.append(path) or open(path, *args), raising=False
    )
    return reads


class TestResultKey:
    def test_digest_is_stable(self):
        a = ResultKey("LevelJob", "abc", "def", {"x": 1})
        b = ResultKey("LevelJob", "abc", "def", {"x": 1})
        assert a.digest() == b.digest()

    @pytest.mark.parametrize(
        "other",
        [
            ResultKey("EntrySweepJob", "abc", "def", {"x": 1}),
            ResultKey("LevelJob", "abd", "def", {"x": 1}),
            ResultKey("LevelJob", "abc", "dee", {"x": 1}),
            ResultKey("LevelJob", "abc", "def", {"x": 2}),
        ],
    )
    def test_every_component_perturbs_digest(self, other):
        base = ResultKey("LevelJob", "abc", "def", {"x": 1})
        assert base.digest() != other.digest()

    def test_job_keys_cover_all_parameters(self):
        job = level_job()
        sweep = EntrySweepJob(system=job.system, kind="victim", max_entries=7)
        run = RunSweepJob(system=job.system, ways=4, entries=2, max_run=8)
        digests = {_store_key(j).digest() for j in (job, sweep, run)}
        assert len(digests) == 3
        assert _store_key(sweep).extras == {"kind": "victim", "max_entries": 7}
        assert _store_key(run).extras == {"ways": 4, "entries": 2, "max_run": 8}

    def test_level_job_digest_is_pinned(self):
        """Entries written before SystemJob existed still hit: the key of a
        LevelJob is byte-for-byte what it was."""
        assert _store_key(level_job()).digest() == "96938cc83147aa1497c96edcae125984"

    def test_structure_job_digests_are_pinned(self):
        """Keys carrying structure specs stay byte-for-byte what they were:
        a level job with a victim cache and the §5 improved system."""
        trace = materialized_workload(NamedWorkloadSpec("ccom", SCALE))
        level = LevelJob(
            SystemSpec.for_level(trace, CacheConfig(4096, 16), structure=VictimCacheSpec(4))
        )
        improved = SystemJob(
            SystemSpec.for_system(trace),
            IMPROVED_ISTRUCTURE,
            IMPROVED_DSTRUCTURE,
            prewarm_l2=True,
        )
        assert _store_key(level).digest() == "412b99d491c13735a81c415ab42e8a7b"
        assert _store_key(improved).digest() == "e15f9a0fe58d44a64fed39d2097180da"

    def test_system_job_key_covers_every_parameter(self):
        system = SystemSpec.for_system(materialized_workload(NamedWorkloadSpec("ccom", SCALE)))
        jobs = [
            SystemJob(system),
            SystemJob(system, istructure=IMPROVED_ISTRUCTURE),
            SystemJob(system, dstructure=IMPROVED_DSTRUCTURE),
            SystemJob(system, dstructure=StreamBufferSpec(4)),
            SystemJob(system, prewarm_l2=True),
        ]
        assert len({_store_key(job).digest() for job in jobs}) == len(jobs)
        assert _store_key(jobs[2]).extras == {
            "istructure": None,
            "dstructure": IMPROVED_DSTRUCTURE.as_dict(),
            "prewarm_l2": False,
        }


class TestDigestMemo:
    """A key's digest is computed once per key content per process."""

    @staticmethod
    def count_hashes(monkeypatch):
        import repro.store.core as core

        calls = []
        real = core._hash_key
        monkeypatch.setattr(core, "_hash_key", lambda key_dict: calls.append(1) or real(key_dict))
        return calls

    @staticmethod
    def jobs():
        """Fresh job objects, equal to those of the previous call."""
        job = level_job()
        return [
            job,
            level_job(side="i"),
            EntrySweepJob(system=job.system, kind="victim", max_entries=4),
            RunSweepJob(system=job.system, ways=2, entries=2, max_run=8),
            SystemJob(SystemSpec.for_system(job.system.trace), prewarm_l2=True),
        ]

    def test_warm_batch_hashes_no_key(self, store, sim_counter, monkeypatch):
        import repro.store.core as core

        monkeypatch.setattr(core, "_DIGESTS", {})  # so no earlier test fills it
        cold = run_jobs(self.jobs())
        before = sim_counter["levels"]
        calls = self.count_hashes(monkeypatch)
        assert run_jobs(self.jobs()) == cold
        assert calls == []
        assert sim_counter["levels"] == before

    def test_memo_stays_within_its_bound(self, monkeypatch):
        import repro.store.core as core

        monkeypatch.setattr(core, "DIGEST_MEMO_ENTRIES", 3)
        monkeypatch.setattr(core, "_DIGESTS", {})
        keys = [ResultKey("LevelJob", f"s{index}", "t", {"x": index}) for index in range(10)]
        for key in keys:
            assert key.digest() == core._hash_key(key.as_dict())
            assert len(core._DIGESTS) <= 3
        calls = self.count_hashes(monkeypatch)
        fresh = ResultKey("LevelJob", "s9", "t", {"x": 9})
        assert fresh.digest() == keys[9].digest()
        assert calls == []  # the newest key is remembered
        assert ResultKey("LevelJob", "s0", "t", {"x": 0}).digest() == keys[0].digest()
        assert calls == [1]  # the first was forgotten and is hashed again

    def test_threads_share_the_memo_without_lock(self, monkeypatch):
        """Racing inserts and resets: every digest stays the formula's, and
        the memo overshoots its bound by at most one entry per thread."""
        import sys

        import repro.store.core as core

        monkeypatch.setattr(core, "DIGEST_MEMO_ENTRIES", 8)
        monkeypatch.setattr(core, "_DIGESTS", {})
        errors, sizes = [], []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(400):
                    key = ResultKey("LevelJob", f"s{rng.randrange(40)}", "t", {"x": 1})
                    assert key.digest() == core._hash_key(key.as_dict())
                    sizes.append(len(core._DIGESTS))
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert max(sizes) <= 8 + len(threads)

    def test_unmemoizable_extras_keep_their_digests(self, monkeypatch):
        """Structure dicts cannot be hashed, and values that Python calls
        equal but JSON writes differently must not share an entry: all
        keep the digest the formula gives them."""
        import repro.store.core as core

        monkeypatch.setattr(core, "_DIGESTS", {})
        structure = {"dstructure": {"kind": "victim", "entries": 4}, "prewarm_l2": True}
        pinned = {
            "6d81fa8d84c2d0a257f92ee20d2ed301": ("SystemJob", structure),
            "a39234669f1cf0930702c97a483969a9": ("LevelJob", {"x": True}),
            "2be1ded87bd8a35a59fd6f1a03e7b58c": ("LevelJob", {"x": 1}),
            "c6a4e70ba4a8bf6a3cf54ab5eb74be10": ("LevelJob", {"x": 0.0}),
            "06f4e9dabc6bd1f3c60513b9fbb9887a": ("LevelJob", {"x": -0.0}),
        }
        for _ in range(2):  # computed, then remembered where it can be
            for digest, (kind, extras) in pinned.items():
                assert ResultKey(kind, "s", "t", extras).digest() == digest
        assert len(core._DIGESTS) == 2  # only the bool and the int


class TestRoundTrip:
    @pytest.mark.parametrize(
        "result",
        [
            LevelSummary(100, 10, 2, 8, stream_stall_cycles=5, conflict_misses=4),
            LevelSummary(100, 10, 0, 10),
            EntrySweep(total_misses=50, conflict_misses=20, hits_by_entries=[0, 3, 5]),
            RunLengthSweep(total_misses=40, removed_by_run=[0, 1, 2, 2]),
            MemorySystem().run([(0, 0), (1, 64), (2, 64), (0, 4096)]),
        ],
    )
    def test_exact_round_trip(self, tmp_path, result):
        store = ResultStore(tmp_path)
        key = ResultKey("LevelJob", "s", "t", {})
        store.put(key, result)
        loaded, nbytes = store.get(key)
        assert loaded == result
        assert type(loaded) is type(result)
        assert nbytes > 0

    def test_missing_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(ResultKey("LevelJob", "s", "t", {})) == (None, 0)


class TestCorruptionTolerance:
    def entry_path(self, store, key):
        return Path(store._entry_file(key.digest()))

    @pytest.mark.parametrize(
        "garbage",
        [
            b"",  # truncated to nothing
            b"{not json",  # syntactically broken
            b'"a bare string"',  # wrong top-level shape
            b'{"result_schema": 1, "key": {}, "result": {"type": "Nope", "fields": {}}}',
            b'{"result_schema": 1}',  # missing sections
        ],
    )
    def test_damaged_entry_reads_as_miss(self, tmp_path, garbage):
        store = ResultStore(tmp_path)
        key = ResultKey("LevelJob", "s", "t", {})
        store.put(key, LevelSummary(1, 1, 0, 1))
        self.entry_path(store, key).write_bytes(garbage)
        assert store.get(key) == (None, 0)

    def test_corrupt_entry_degrades_to_recompute(self, store, sim_counter):
        job = level_job()
        first = run_jobs([job])
        key = _store_key(job)
        self.entry_path(store, key).write_bytes(b"{broken")
        before = sim_counter["levels"]
        again = run_jobs([job])  # recomputes and rewrites the entry
        assert again == first
        assert sim_counter["levels"] > before
        assert store.get(key)[0] == first[0]  # healed by the rewrite

    def test_schema_version_bump_invalidates(self, store, monkeypatch):
        job = level_job()
        first = run_jobs([job])
        import repro.store.core as core

        monkeypatch.setattr(core, "RESULT_SCHEMA_VERSION", RESULT_SCHEMA_VERSION + 1)
        assert store.get(_store_key(job)) == (None, 0)
        run_jobs([job])  # repopulates under the new version directory
        stats = store.stats()
        assert stats.entries == 1 and stats.stale_entries == 1
        # Back on the original version, the old entry still serves...
        monkeypatch.setattr(core, "RESULT_SCHEMA_VERSION", RESULT_SCHEMA_VERSION)
        assert store.get(_store_key(job))[0] == first[0]
        # ...and gc drops the now-superseded bumped entry.
        assert store.gc() == 1
        assert store.stats().stale_entries == 0

    def test_tampered_key_payload_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = ResultKey("LevelJob", "s", "t", {})
        store.put(key, LevelSummary(1, 1, 0, 1))
        path = self.entry_path(store, key)
        payload = json.loads(path.read_bytes())
        payload["key"]["spec_hash"] = "tampered"
        path.write_bytes(json.dumps(payload).encode())
        assert store.get(key) == (None, 0)


class TestFrontTier:
    """The in-memory tier in front of the entry files."""

    RESULTS = {
        "level": LevelSummary(100, 10, 2, 8),
        "entry": EntrySweep(total_misses=50, conflict_misses=20, hits_by_entries=[0, 3, 5]),
        "system": MemorySystem().run([(0, 0), (1, 64), (2, 64), (0, 4096)]),
    }

    @staticmethod
    def key(index):
        return ResultKey("LevelJob", f"s{index}", "t", {})

    def test_hit_reads_no_file_and_reports_entry_size(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        store.put(self.key(0), self.RESULTS["level"])
        first = store.get(self.key(0))
        reads = count_file_reads(monkeypatch)
        assert store.get(self.key(0)) == first
        assert reads == []
        assert first[1] > 0

    def test_size_cap_holds(self, tmp_path, monkeypatch):
        import repro.store.core as core

        monkeypatch.setattr(core, "FRONT_TIER_ENTRIES", 3)
        store = ResultStore(tmp_path)
        for index in range(5):
            store.put(self.key(index), self.RESULTS["level"])
            store.get(self.key(index))
        hot = [store.peek(self.key(index))[0] is not None for index in range(5)]
        assert hot == [False, False, True, True, True]
        # A get moves its key to the front; the next fill evicts the oldest.
        store.get(self.key(2))
        store.get(self.key(0))
        assert store.peek(self.key(3)) == (None, 0)
        assert store.peek(self.key(2))[0] is not None

    @pytest.mark.parametrize("kind", ["entry", "system"])
    def test_mutating_a_result_does_not_change_the_next_get(self, tmp_path, kind):
        store = ResultStore(tmp_path)
        original = self.RESULTS[kind]
        store.put(self.key(0), original)
        for _ in range(2):  # from the disk, then from the front tier
            result, _ = store.get(self.key(0))
            assert result == original
            if kind == "entry":
                result.hits_by_entries.append(99)
                result.total_misses += 1
            else:
                result.dstats.accesses += 1
                result.l2stats.demand_misses += 1
        assert store.get(self.key(0))[0] == original

    def test_clear_empties_it(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(self.key(0), self.RESULTS["level"])
        store.get(self.key(0))
        assert store.clear() == 1
        assert store.peek(self.key(0)) == (None, 0)
        assert store.get(self.key(0)) == (None, 0)

    def test_schema_bump_misses(self, tmp_path, monkeypatch):
        import repro.store.core as core

        store = ResultStore(tmp_path)
        key = self.key(0)
        store.put(key, self.RESULTS["level"])
        assert store.get(key)[0] is not None
        monkeypatch.setattr(core, "RESULT_SCHEMA_VERSION", RESULT_SCHEMA_VERSION + 1)
        assert store.peek(key) == (None, 0)
        assert store.get(key) == (None, 0)

    def test_put_does_not_fill_it(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        store.put(self.key(0), self.RESULTS["level"])
        assert store.peek(self.key(0)) == (None, 0)
        reads = count_file_reads(monkeypatch)
        assert store.get(self.key(0))[0] == self.RESULTS["level"]
        assert len(reads) == 1
        # A put over a hot key drops it: the next get reads what was written.
        store.put(self.key(0), self.RESULTS["entry"])
        assert store.peek(self.key(0)) == (None, 0)
        assert store.get(self.key(0))[0] == self.RESULTS["entry"]

    def test_threads_share_it_through_evictions(self, tmp_path, monkeypatch):
        import sys

        import repro.store.core as core

        monkeypatch.setattr(core, "FRONT_TIER_ENTRIES", 4)
        store = ResultStore(tmp_path)
        expected = {}
        for index in range(16):
            expected[index] = LevelSummary(100 + index, 10, 2, 8)
            store.put(self.key(index), expected[index])
        errors = []

        def reader(seed):
            rng = random.Random(seed)
            try:
                for _ in range(300):
                    index = rng.randrange(16)
                    assert store.get(self.key(index))[0] == expected[index]
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(store._front) == 4


class TestWarmRunsAreZeroSim:
    def test_warm_batch_runs_no_simulations(self, store, sim_counter):
        jobs = [level_job("ccom"), level_job("ccom", side="i"), level_job("liver")]
        cold = run_jobs(jobs)
        before = sim_counter["levels"]
        warm = run_jobs(jobs)
        assert warm == cold
        assert sim_counter["levels"] == before

    def test_warm_equals_cold_serial_across_modes(self, tmp_path, monkeypatch, small_suite):
        spec = GridSpec(cache_sizes_kb=[2, 4], line_sizes=[16])
        traces = small_suite[:2]
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        cold_serial = sweep_grid(traces, spec, side="d", jobs=1)
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "grid-store"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # store-routed serial must not warn
            populated = sweep_grid(traces, spec, side="d", jobs=1)
        warm_parallel = sweep_grid(traces, spec, side="d", jobs=4)
        assert populated.rows == cold_serial.rows
        assert warm_parallel.rows == cold_serial.rows

    def test_warm_grid_is_zero_sim(self, store, sim_counter, small_suite):
        spec = GridSpec(cache_sizes_kb=[2], line_sizes=[16])
        traces = small_suite[:2]
        cold = sweep_grid(traces, spec, side="i", jobs=1)
        before = sim_counter["levels"]
        warm = sweep_grid(traces, spec, side="i", jobs=1)
        assert warm.rows == cold.rows
        assert sim_counter["levels"] == before

    def test_warm_system_batch_hits_every_job(self, store, small_suite):
        from repro.telemetry import scoped

        jobs = [
            SystemJob(SystemSpec.for_system(trace), istructure, dstructure, prewarm_l2=True)
            for trace in small_suite
            for istructure, dstructure in (
                (None, None),
                (IMPROVED_ISTRUCTURE, IMPROVED_DSTRUCTURE),
            )
        ]
        with scoped() as scope:
            cold = run_jobs(jobs)
        assert scope.sections["store"]["misses"] == len(jobs)
        assert store.stats().entries == len(jobs)
        with scoped() as scope:
            warm = run_jobs(jobs)
        assert scope.sections["store"]["hits"] == len(jobs)
        assert scope.sections["store"]["misses"] == 0
        assert scope.system_runs == 0
        assert warm == cold

    def test_second_warm_batch_reads_no_store_file(self, store, monkeypatch):
        jobs = [level_job("ccom"), level_job("ccom", side="i"), level_job("liver")]
        cold = run_jobs(jobs)
        assert run_jobs(jobs) == cold  # reads every entry from disk once
        reads = count_file_reads(monkeypatch)
        assert run_jobs(jobs) == cold
        assert reads == []

    def test_store_off_by_default(self, no_store, sim_counter):
        job = level_job()
        run_jobs([job])
        before = sim_counter["levels"]
        run_jobs([job])
        assert sim_counter["levels"] > before  # no memoization without a store


class TestCliIntegration:
    def test_warm_cli_run_is_zero_sim_and_identical(
        self, tmp_path, monkeypatch, capsys, sim_counter
    ):
        from repro.experiments.cli import main

        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "cli-store"))
        argv = ["figure_3_3", "--scale", "2000"]
        assert main(argv) == 0
        cold_out = capsys.readouterr().out
        before = sim_counter["levels"]
        assert main(argv) == 0
        warm_out = capsys.readouterr().out
        assert sim_counter["levels"] == before

        def rows(text):
            return [line for line in text.splitlines() if not line.startswith("[")]

        assert rows(warm_out) == rows(cold_out)

    def test_store_subcommand(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.cli import main

        root = tmp_path / "cmd-store"
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        assert main(["store", "stats"]) == 2  # no store configured
        capsys.readouterr()
        assert main(["store", "stats", "--result-store", str(root)]) == 0
        assert "current entries: 0" in capsys.readouterr().out
        ResultStore(root).put(ResultKey("LevelJob", "s", "t", {}), LevelSummary(1, 1, 0, 1))
        assert main(["store", "stats", "--result-store", str(root)]) == 0
        assert "current entries: 1" in capsys.readouterr().out
        assert main(["store", "clear", "--result-store", str(root)]) == 0
        assert "removed 1 entries" in capsys.readouterr().out

    def test_result_store_flag_sets_environment(self, tmp_path, monkeypatch, capsys):
        from repro.experiments import engine
        from repro.experiments.cli import main
        import os

        monkeypatch.setenv("REPRO_RESULT_STORE", "")  # restore on teardown
        root = tmp_path / "flag-store"
        seen = []
        original = engine.run_experiments

        def recording_run(*args, **kwargs):
            seen.append(os.environ["REPRO_RESULT_STORE"])
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "run_experiments", recording_run)
        assert main(["figure_3_3", "--scale", "2000", "--result-store", str(root)]) == 0
        capsys.readouterr()
        # Set for workers while the run lasts, put back on return.
        assert seen == [str(root)]
        assert os.environ["REPRO_RESULT_STORE"] == ""
        assert ResultStore(root).stats().entries > 0


class TestTelemetry:
    def test_record_carries_store_traffic(self, store):
        from repro.telemetry import core as telemetry
        from repro.telemetry.record import build_run_record, validate_record

        job = level_job()
        run_jobs([job])  # populate outside any scope
        scope = telemetry.activate()
        try:
            run_jobs([job])  # warm: one hit
            run_jobs([level_job("liver")])  # cold: one miss
        finally:
            telemetry.deactivate()
        assert scope.sections["store"]["hits"] == 1
        assert scope.sections["store"]["misses"] == 1
        assert scope.sections["store"]["bytes_read"] > 0
        record = build_run_record(scope, run="t", config=None, wall_time_s=0.1)
        payload = record.as_dict()
        validate_record(payload)
        assert payload["store"] == {
            "hits": 1,
            "misses": 1,
            "bytes_read": scope.sections["store"]["bytes_read"],
        }

    def test_records_without_store_field_still_validate(self, no_store):
        from repro.telemetry import core as telemetry
        from repro.telemetry.record import build_run_record, validate_record

        scope = telemetry.MetricsScope()
        record = build_run_record(scope, run="t", config=None, wall_time_s=0.1)
        payload = record.as_dict()
        assert payload["store"] == {}
        payload.pop("store")  # a record from an older emitter
        validate_record(payload)

    def test_progress_reports_store_hits(self, store):
        from repro.telemetry.core import JobProgress

        job = level_job()
        run_jobs([job])
        beats = []
        run_jobs([job], progress=beats.append)
        assert beats and isinstance(beats[-1], JobProgress)
        assert beats[-1].store_hits == 1
        assert "from store" in str(beats[-1])


#: Experiment modules whose every simulation point is an engine job.
ENGINE_MODULES = [
    "table_2_2",
    "figure_2_2",
    "figure_5_1",
    "ext_penalty_sweep",
    "figure_3_1",
    "figure_3_3",
    "figure_3_6",
    "figure_3_7",
    "figure_4_3",
    "figure_4_6",
    "figure_4_7",
    "ext_stride",
    "ext_cold_start",
    "ext_marginal_utility",
    "ablations",
    "checks",
]


def _run_module(name, scale):
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.checks import _measurements
    from repro.experiments.workloads import suite

    if name == "checks":
        return _measurements(suite(scale, 0))
    return ALL_EXPERIMENTS[name](scale=scale)


class TestEngineRoutedModules:
    """Modules routed through the engine: one result on every backend and a
    warm store rerun that simulates nothing."""

    @pytest.mark.parametrize("name", ENGINE_MODULES)
    def test_backends_agree_and_warm_rerun_is_all_hits(self, name, tmp_path, monkeypatch):
        from repro.kernels import ENV_BACKEND, PYTHON
        from repro.telemetry import scoped

        scale = 1_500
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        monkeypatch.setenv(ENV_BACKEND, PYTHON)
        reference = _run_module(name, scale)

        monkeypatch.delenv(ENV_BACKEND)
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
        cold = _run_module(name, scale)
        assert repr(cold) == repr(reference)

        with scoped() as scope:
            warm = _run_module(name, scale)
        assert repr(warm) == repr(reference)
        jobs = sum(batch.n_jobs for batch in scope.job_batches)
        assert jobs > 0
        assert scope.level_runs == 0
        assert scope.system_runs == 0
        assert scope.sections["store"]["hits"] == jobs
        assert scope.sections["store"]["misses"] == 0
