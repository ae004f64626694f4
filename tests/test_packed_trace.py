"""The one materialized trace: pinned content, address domain, pickling."""

from __future__ import annotations

from array import array

import pytest

from repro.common.config import CacheConfig
from repro.common.errors import AddressRangeError, ConfigurationError, TraceFormatError
from repro.common.types import AccessKind
from repro.traces.io import load_trace, save_trace
from repro.traces.registry import build_trace
from repro.traces.trace import MaterializedTrace, Trace, TraceMeta, TraceStats, trace_from_pairs

IF = int(AccessKind.IFETCH)
LD = int(AccessKind.LOAD)
ST = int(AccessKind.STORE)

PAIRS = [(IF, 0), (LD, 4096), (IF, 16), (ST, 4112), (IF, 32), (LD, 8192)]

#: Addresses the int64 kernels cannot hold but the binary format stores.
HIGH = [(IF, 2**63), (LD, 2**64 - 1), (IF, 2**63 + 16), (ST, 2**64 - 16)]


def packed(pairs=PAIRS) -> MaterializedTrace:
    return MaterializedTrace.from_pairs(TraceMeta(name="t"), pairs)


def listed(pairs=PAIRS) -> MaterializedTrace:
    """The same trace built from a list through the public helper."""
    return trace_from_pairs("t", list(pairs))


class TestEquivalenceWithListForm:
    """Pins the values the retired list-of-pairs form produced for PAIRS.

    The literals — streams, counts, footprints, fingerprints — were
    recorded from that form, so any change to the packed buffers'
    content or byte layout (and with it every result-store key) fails
    here.
    """

    def test_len_iter_pairs(self):
        p, m = packed(), listed()
        assert len(p) == len(m) == 6
        assert list(p) == list(m) == PAIRS
        assert not hasattr(p, "pairs")

    def test_split_streams(self):
        for trace in (packed(), listed()):
            assert trace.instruction_addresses == [0, 16, 32]
            assert trace.data_addresses == [4096, 4112, 8192]
            assert trace.stream("i") == [0, 16, 32]
            assert trace.stream("d") == [4096, 4112, 8192]

    def test_stats(self):
        for trace in (packed(), listed()):
            assert trace.stats() == TraceStats(instructions=3, loads=2, stores=1, other=0)
            assert trace.stats().total_references == len(trace)

    def test_unique_lines(self):
        for trace in (packed(), listed()):
            assert trace.unique_lines("i", 16) == 3
            assert trace.unique_lines("d", 16) == 3
            assert trace.unique_lines("i", 4096) == 1
            assert trace.unique_lines("d", 4096) == 2

    def test_fingerprint_matches_list_form(self):
        assert packed().fingerprint() == listed().fingerprint() == "242d6093fddcde55"
        assert build_trace("ccom", 2_000).materialize().fingerprint() == "4c33b519473b71f2"

    def test_fingerprint_differs_on_content(self):
        other = [(IF, 0)] + PAIRS[1:]
        other[0] = (IF, 64)
        assert packed().fingerprint() != packed(other).fingerprint()

    def test_materialize_returns_packed(self):
        trace = build_trace("ccom", 2_000).materialize()
        assert type(trace) is MaterializedTrace
        kinds, addresses = trace.as_arrays()
        assert len(kinds) == len(addresses) == len(trace)

    def test_materialize_keeps_addresses_from_2_63_up(self, tmp_path):
        from repro.experiments.runner import run_level
        from repro.hierarchy.system import MemorySystem

        trace = Trace(TraceMeta(name="high"), lambda: HIGH).materialize()
        assert list(trace) == HIGH
        path = tmp_path / "high.trc"
        assert save_trace(path, trace) == len(HIGH)
        loaded = load_trace(path)
        assert list(loaded) == HIGH
        assert loaded.fingerprint() == trace.fingerprint()
        result = MemorySystem().run(loaded)
        assert result.total_references == len(HIGH)
        level = run_level(loaded.stream("d"), CacheConfig(4096, 16))
        assert (level.stats.demand_misses, level.stats.hits) == (1, 1)  # one line

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MaterializedTrace(TraceMeta(name="t"), array("b", [0]), array("Q", []))


class TestAddressDomain:
    """Addresses are checked where they enter: build, load, kernel views."""

    @pytest.mark.parametrize("address", [-1, -(2**63), 2**64, 2**70])
    def test_build_rejects_addresses_outside_64_bits(self, address):
        with pytest.raises(AddressRangeError, match=str(address)):
            packed(PAIRS + [(LD, address)])
        with pytest.raises(AddressRangeError):
            Trace(TraceMeta(name="t"), lambda: [(IF, 0), (LD, address)]).materialize()

    def test_build_rejects_kinds_outside_a_byte(self):
        with pytest.raises(TraceFormatError, match="kind 300") as raised:
            packed([(300, 0)])
        assert not isinstance(raised.value, AddressRangeError)

    def test_error_is_typed(self):
        assert issubclass(AddressRangeError, TraceFormatError)
        assert not issubclass(AddressRangeError, OverflowError)

    def test_text_load_rejects_address_beyond_64_bits(self, tmp_path):
        path = tmp_path / "wide.din"
        path.write_text(f"0 0\n1 {2**64:x}\n")
        with pytest.raises(AddressRangeError):
            load_trace(path)

    def test_boundaries_are_exact(self):
        trace = packed([(IF, 0), (LD, 2**64 - 1)])
        assert list(trace) == [(IF, 0), (LD, 2**64 - 1)]

    def test_kernel_views_refuse_addresses_from_2_63_up(self):
        trace = packed(HIGH)
        with pytest.raises(AddressRangeError, match=r"2\*\*63"):
            trace.as_arrays()
        for side in ("i", "d"):
            with pytest.raises(AddressRangeError):
                trace.stream_array(side)
        below = packed([(IF, 2**63 - 1)])
        assert below.stream_array("i").tolist() == [2**63 - 1]

    def test_per_side_lists_hold_exact_unsigned_values(self):
        trace = packed(HIGH)
        assert trace.stream("i") == [2**63, 2**63 + 16]
        assert trace.stream("d") == [2**64 - 1, 2**64 - 16]
        assert all(type(address) is int for address in trace.stream("d"))
        assert trace.unique_lines("d", 16) == 1

    def test_high_address_spec_keys_then_kernel_refuses(self):
        from repro.kernels.numpy_backend import simulate_level_summary
        from repro.specs import SequentialSpec, SystemSpec

        spec = SequentialSpec(length=64, base=2**63)
        assert len(spec.fingerprint()) == 16
        system = SystemSpec.for_level(spec, CacheConfig(4096, 16))
        with pytest.raises(AddressRangeError):
            simulate_level_summary(system)


class TestProductLifetime:
    def test_evicted_trace_frees_its_products(self, monkeypatch):
        """Products live and die with their trace: once the memo evicts
        it, nothing else holds them."""
        import gc
        import weakref

        from repro.experiments import workloads
        from repro.kernels.assist import level_products
        from repro.specs import SequentialSpec

        monkeypatch.setattr(workloads, "DEFAULT_TRACE_CACHE_CAP", 1)
        monkeypatch.setattr(workloads, "_TRACE_CACHE", type(workloads._TRACE_CACHE)())
        config = CacheConfig(1024, 16)
        products = level_products(SequentialSpec(length=500, seed=1).trace(), "d", config)
        products.lru_depths()
        products.classification(0)
        freed = weakref.ref(products)
        del products
        gc.collect()
        assert freed() is not None  # the memo still holds the trace
        SequentialSpec(length=500, seed=2).trace()  # evicts the first
        gc.collect()
        assert freed() is None


class TestTraceStatsOther:
    """Satellite: stats() must reconcile with len() for foreign kinds."""

    FOREIGN = PAIRS + [(9, 64), (9, 80)]

    def test_list_form_counts_other(self):
        stats = listed(self.FOREIGN).stats()
        assert stats.other == 2
        assert stats.total_references == len(self.FOREIGN)

    def test_packed_form_counts_other(self):
        stats = packed(self.FOREIGN).stats()
        assert stats.other == 2
        assert stats.total_references == len(self.FOREIGN)

    def test_clean_traces_have_zero_other(self):
        assert listed().stats().other == 0
        assert packed().stats().other == 0


class TestUniqueLinesValidation:
    """Satellite: non-power-of-two line sizes must raise, not miscount."""

    @pytest.mark.parametrize("bad", [0, -16, 3, 24, 100])
    @pytest.mark.parametrize("factory", [packed, listed])
    def test_rejects_bad_line_sizes(self, factory, bad):
        with pytest.raises(ConfigurationError):
            factory().unique_lines("i", bad)

    @pytest.mark.parametrize("factory", [packed, listed])
    def test_accepts_powers_of_two(self, factory):
        trace = factory()
        assert trace.unique_lines("i", 1) == len(set(trace.stream("i")))
        assert trace.unique_lines("d", 4096) >= 1


class TestPicklePayload:
    """Regression: pickling a warmed trace must not ship derived caches.

    Before ``__getstate__`` existed, a trace that had served its per-side
    lists or the numpy stream caches pickled *all* of them — the numpy
    views serialize as full int64 copies, not views — multiplying the
    payload the packed buffers exist to shrink."""

    @staticmethod
    def warmed(trace: MaterializedTrace) -> MaterializedTrace:
        trace.instruction_addresses
        trace.data_addresses
        trace.stats()
        trace.fingerprint()
        trace.as_arrays()
        trace.stream_array("i")
        trace.stream_array("d")
        # The kernels' cached products, every kind of them.
        from repro.kernels.assist import level_products

        for side in ("i", "d"):
            products = level_products(trace, side, CacheConfig(1024, 16))
            products.lru_depths()
            products.victim_depths()
            products.stream_hits(1, None)
            products.stream_hits(4, None)
            products.classification(0)
        return trace

    def test_warmed_trace_pickles_no_bigger_than_cold(self):
        import pickle

        cold = len(pickle.dumps(build_trace("liver", 2_000).materialize()))
        warm = len(pickle.dumps(self.warmed(build_trace("liver", 2_000).materialize())))
        # Identical buffers; only the (tiny) kept stats/fingerprint may
        # differ between the two payloads.
        assert warm <= cold + 512

    def test_round_trip_rebuilds_caches_read_only(self):
        import pickle

        source = self.warmed(build_trace("liver", 2_000).materialize())
        clone = pickle.loads(pickle.dumps(source))
        assert type(clone) is MaterializedTrace
        assert list(clone) == list(source)
        assert clone.stream("i") == source.stream("i")
        assert clone.stream("d") == source.stream("d")
        assert clone.stats() == source.stats()
        assert clone.fingerprint() == source.fingerprint()
        kinds, addresses = clone.as_arrays()
        assert not kinds.flags.writeable and not addresses.flags.writeable
        for side in ("i", "d"):
            stream = clone.stream_array(side)
            assert not stream.flags.writeable
            assert stream.tolist() == source.stream_array(side).tolist()

    def test_round_trip_keeps_unsigned_addresses(self):
        import pickle

        source = packed(HIGH)
        clone = pickle.loads(pickle.dumps(source))
        assert list(clone) == HIGH
        assert clone.fingerprint() == source.fingerprint()
