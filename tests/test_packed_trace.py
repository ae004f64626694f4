"""PackedTrace: equivalence with the list form, trace fixes, SHM handoff."""

from __future__ import annotations

from array import array

import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import AccessKind
from repro.traces.packed import (
    PackedTrace,
    attach_shared_trace,
    release_shared_segments,
    share_packed_traces,
)
from repro.traces.registry import build_trace
from repro.traces.trace import MaterializedTrace, TraceMeta

IF = int(AccessKind.IFETCH)
LD = int(AccessKind.LOAD)
ST = int(AccessKind.STORE)

PAIRS = [(IF, 0), (LD, 4096), (IF, 16), (ST, 4112), (IF, 32), (LD, 8192)]


def packed(pairs=PAIRS) -> PackedTrace:
    return PackedTrace.from_pairs(TraceMeta(name="t"), pairs)


def listed(pairs=PAIRS) -> MaterializedTrace:
    return MaterializedTrace(TraceMeta(name="t"), list(pairs))


class TestEquivalenceWithListForm:
    def test_len_iter_pairs(self):
        p, m = packed(), listed()
        assert len(p) == len(m)
        assert list(p) == list(m)
        assert p.pairs == m.pairs

    def test_split_streams(self):
        p, m = packed(), listed()
        assert p.instruction_addresses == m.instruction_addresses
        assert p.data_addresses == m.data_addresses
        assert p.stream("i") == m.stream("i")
        assert p.stream("d") == m.stream("d")

    def test_stats(self):
        p, m = packed(), listed()
        assert p.stats() == m.stats()
        assert p.stats().total_references == len(p)

    def test_unique_lines(self):
        p, m = packed(), listed()
        for side in ("i", "d"):
            assert p.unique_lines(side, 16) == m.unique_lines(side, 16)

    def test_fingerprint_matches_list_form(self):
        assert packed().fingerprint() == listed().fingerprint()

    def test_fingerprint_differs_on_content(self):
        other = [(IF, 0)] + PAIRS[1:]
        other[0] = (IF, 64)
        assert packed().fingerprint() != packed(other).fingerprint()

    def test_materialize_returns_packed(self):
        trace = build_trace("ccom", 2_000).materialize()
        assert isinstance(trace, PackedTrace)

    def test_materialize_falls_back_on_huge_addresses(self):
        from repro.traces.trace import Trace

        # 2**63 overflows array('q'); materialize must keep the list form.
        t = Trace(TraceMeta(name="huge"), lambda: [(IF, 2**63)])
        m = t.materialize()
        assert type(m) is MaterializedTrace
        assert m.pairs == [(IF, 2**63)]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PackedTrace(TraceMeta(name="t"), array("b", [0]), array("q", []))


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

    Before ``__getstate__`` existed, a trace that had served ``.pairs``
    or the numpy stream caches pickled *all* of them — the numpy views
    serialize as full int64 copies, not views — multiplying the payload
    the packed form exists to shrink."""

    @staticmethod
    def warmed(trace: PackedTrace) -> PackedTrace:
        trace.pairs
        trace.instruction_addresses
        trace.data_addresses
        trace.stats()
        trace.fingerprint()
        trace.as_arrays()
        trace.stream_array("i")
        trace.stream_array("d")
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
        assert isinstance(clone, PackedTrace)
        assert list(clone) == list(source)
        assert clone.pairs == source.pairs
        assert clone.stats() == source.stats()
        assert clone.fingerprint() == source.fingerprint()
        kinds, addresses = clone.as_arrays()
        assert not kinds.flags.writeable and not addresses.flags.writeable
        for side in ("i", "d"):
            stream = clone.stream_array(side)
            assert not stream.flags.writeable
            assert stream.tolist() == source.stream_array(side).tolist()


class TestSharedMemoryHandoff:
    def test_round_trip(self):
        source = build_trace("liver", 2_000).materialize()
        assert isinstance(source, PackedTrace)
        key = ("liver", 2_000, 0)
        descriptors, segments = share_packed_traces([(key, source)])
        try:
            assert descriptors[0].memo_key == key
            clone = attach_shared_trace(descriptors[0])
        finally:
            release_shared_segments(segments)
        assert len(clone) == len(source)
        assert list(clone) == list(source)
        assert clone.fingerprint() == source.fingerprint()
        assert clone.meta == source.meta

    def test_release_is_idempotent(self):
        source = packed()
        _, segments = share_packed_traces([(("t", None, 0), source)])
        release_shared_segments(segments)
        release_shared_segments(segments)  # second call must not raise

    def test_midloop_failure_unwinds_earlier_segments(self, monkeypatch):
        """Regression: an ENOSPC on the second segment must unlink the
        first — shared-memory names are system-global and outlive the
        process when leaked."""
        from multiprocessing import shared_memory

        real = shared_memory.SharedMemory
        created = []

        def flaky(*args, **kwargs):
            if kwargs.get("create"):
                if created:  # second create fails like a full /dev/shm
                    raise OSError(28, "No space left on device")
                segment = real(*args, **kwargs)
                created.append(segment.name)
                return segment
            return real(*args, **kwargs)

        monkeypatch.setattr(shared_memory, "SharedMemory", flaky)
        with pytest.raises(OSError, match="No space left"):
            share_packed_traces([(("a", None, 0), packed()), (("b", None, 0), packed())])
        assert created
        with pytest.raises(FileNotFoundError):
            real(name=created[0])  # the first segment was unlinked

    def test_unlink_happens_even_when_close_fails(self):
        """Regression: close() and unlink() fail independently; a close
        error must not leave the name registered."""
        from multiprocessing import shared_memory

        _, segments = share_packed_traces([(("t", None, 0), packed())])
        (segment,) = segments
        name = segment.name

        class CloseFails:
            def close(self):
                raise OSError("mapping already torn down")

            def unlink(self):
                segment.unlink()

        release_shared_segments([CloseFails()])
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        segment.close()  # release this process's mapping
