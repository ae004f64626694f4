"""Packed trace buffers: array-backed replay storage and worker handoff.

A :class:`~repro.traces.trace.MaterializedTrace` holds one replay as a
Python list of ``(kind, address)`` tuples — convenient, but the single
largest memory cost of a sweep (three heap objects per reference) and
the single largest transfer cost when traces cross process boundaries:
pickling a list of tuples rebuilds every tuple and every int on the
other side, element by element.

:class:`PackedTrace` keeps the same interface (it *is* a
``MaterializedTrace``) over two flat buffers — kinds in an
``array('b')``, byte addresses in an ``array('q')`` — so a trace
serializes and deserializes as two contiguous memory blocks.  Pair
iteration is zero-copy (``zip`` over the buffers; no list of tuples is
ever materialized unless a legacy caller asks for ``.pairs``), split
streams are extracted with one vectorized numpy mask over zero-copy
buffer views, and kind counts come from ``array.count``.  The same
views back the vectorized simulation kernels:
:meth:`PackedTrace.as_arrays` exposes the raw buffers as read-only
numpy arrays without copying, and
:meth:`PackedTrace.stream_array` caches the per-side address arrays
every kernel replay starts from.

For process pools, :func:`share_packed_traces` lays the buffers out in
:mod:`multiprocessing.shared_memory` segments and
:func:`attach_shared_trace` rebuilds a trace on the other side with one
``memcpy`` per buffer — so spawn-based platforms stop replaying the
synthetic generators once per worker (the dominant warm-up cost) and
fork-based ones can skip the handoff entirely (copy-on-write already
shares the parent's buffers).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..common.types import AccessKind
from .trace import MaterializedTrace, Pair, TraceMeta, TraceStats

__all__ = [
    "PackedTrace",
    "SharedTraceDescriptor",
    "share_packed_traces",
    "attach_shared_trace",
    "release_shared_segments",
]

class PackedTrace(MaterializedTrace):
    """One replay held as packed (kinds, addresses) array buffers.

    Drop-in for :class:`MaterializedTrace`: every consumer-facing member
    (``stream``, ``stats``, ``unique_lines``, iteration, ``len``) works
    identically, and ``.pairs`` materializes the legacy list of tuples
    lazily for callers that still want it.  Iterating the trace itself
    is zero-copy: ``zip`` over the two buffers, no intermediate list.
    """

    def __init__(self, meta: TraceMeta, kinds: array, addresses: array):
        if len(kinds) != len(addresses):
            raise ValueError(
                f"kinds/addresses length mismatch: {len(kinds)} != {len(addresses)}"
            )
        self.meta = meta
        self._kinds = kinds
        self._addresses = addresses
        self._pairs: Optional[List[Pair]] = None
        self._instruction_addresses: Optional[List[int]] = None
        self._data_addresses: Optional[List[int]] = None
        self._stats: Optional[TraceStats] = None
        self._fingerprint: Optional[str] = None
        self._array_views = None
        self._stream_arrays: dict = {}

    @classmethod
    def from_pairs(cls, meta: TraceMeta, pairs: Iterable[Pair]) -> "PackedTrace":
        """Pack an iterable of ``(kind, address)`` pairs into buffers."""
        kinds = array("b")
        addresses = array("q")
        for kind, address in pairs:
            kinds.append(kind)
            addresses.append(address)
        return cls(meta, kinds, addresses)

    # -- representation ------------------------------------------------------

    @property
    def pairs(self) -> List[Pair]:  # type: ignore[override]
        """Legacy list-of-tuples view, materialized once on first use."""
        if self._pairs is None:
            self._pairs = list(zip(self._kinds.tolist(), self._addresses.tolist()))
        return self._pairs

    def __len__(self) -> int:
        return len(self._addresses)

    def __iter__(self) -> Iterator[Pair]:
        # Zero-copy pair iteration straight off the buffers.
        return zip(self._kinds, self._addresses)

    # -- derived views -------------------------------------------------------

    def as_arrays(self):
        """Read-only zero-copy numpy views of the packed buffers.

        Returns ``(kinds, addresses)`` — int8 and int64 arrays aliasing
        the trace's own memory, no copy; the views are marked
        non-writeable so kernel code cannot mutate the trace through
        them.
        """
        import numpy as np

        if self._array_views is None:
            kinds = np.frombuffer(self._kinds, dtype=np.int8)
            addresses = np.frombuffer(self._addresses, dtype=np.int64)
            kinds.flags.writeable = False
            addresses.flags.writeable = False
            self._array_views = (kinds, addresses)
        return self._array_views

    def stream_array(self, side: str):
        """The 'i' or 'd' byte-address stream as a cached int64 array.

        One vectorized mask over the zero-copy views; the per-side array
        is cached (read-only) because experiments replay the same stream
        against many cache configurations.
        """
        cached = self._stream_arrays.get(side)
        if cached is None:
            if side not in ("i", "d"):
                raise ValueError(f"side must be 'i' or 'd', got {side!r}")
            kinds, addresses = self.as_arrays()
            ifetch = int(AccessKind.IFETCH)
            mask = (kinds == ifetch) if side == "i" else (kinds != ifetch)
            cached = addresses[mask]
            cached.flags.writeable = False
            self._stream_arrays[side] = cached
        return cached

    # The per-side lists come from the cached stream arrays the
    # simulation kernels share, instead of building a second copy.

    @property
    def instruction_addresses(self) -> List[int]:  # type: ignore[override]
        if self._instruction_addresses is None:
            self._instruction_addresses = self.stream_array("i").tolist()
        return self._instruction_addresses

    @property
    def data_addresses(self) -> List[int]:  # type: ignore[override]
        if self._data_addresses is None:
            self._data_addresses = self.stream_array("d").tolist()
        return self._data_addresses

    def stats(self) -> TraceStats:
        if self._stats is None:
            instructions = self._kinds.count(int(AccessKind.IFETCH))
            loads = self._kinds.count(int(AccessKind.LOAD))
            stores = self._kinds.count(int(AccessKind.STORE))
            self._stats = TraceStats(
                instructions=instructions,
                loads=loads,
                stores=stores,
                other=len(self._kinds) - instructions - loads - stores,
            )
        return self._stats

    def _content_buffers(self) -> Tuple[bytes, bytes]:
        return self._kinds.tobytes(), self._addresses.tobytes()

    # -- pickling ------------------------------------------------------------

    def __getstate__(self):
        """Pickle only the packed buffers, never the derived caches.

        A warmed trace accumulates rebuildable views — the legacy pairs
        list, per-side address lists, and the numpy arrays cached by
        :meth:`as_arrays`/:meth:`stream_array` (which pickle as *full
        int64 copies*, not views) — that can dwarf the packed buffers
        themselves.  Shipping them to workers or between a daemon and
        its clients would inflate exactly the payloads PackedTrace was
        built to shrink, so pickling drops every cache; the receiver
        rebuilds them lazily (read-only flags and all) on first use.
        The content fingerprint and reference counts are kept: they are
        tiny and expensive to recompute.
        """
        state = self.__dict__.copy()
        state["_pairs"] = None
        state["_instruction_addresses"] = None
        state["_data_addresses"] = None
        state["_array_views"] = None
        state["_stream_arrays"] = {}
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)


# -- shared-memory handoff ----------------------------------------------------

#: Segment layout: addresses first (8-byte aligned at offset 0), kinds after.
_ADDRESS_ITEMSIZE = array("q").itemsize


@dataclass(frozen=True)
class SharedTraceDescriptor:
    """Everything a worker needs to rebuild one trace from shared memory.

    ``memo_key`` is the per-process trace-memo key the engine uses — a
    :class:`~repro.specs.WorkloadSpec` — carried alongside so the worker
    can seed its memo without re-deriving it.
    """

    shm_name: str
    length: int
    meta: TraceMeta
    memo_key: object


def share_packed_traces(entries: Sequence[Tuple[object, PackedTrace]]):
    """Lay each packed trace out in one shared-memory segment.

    Returns ``(descriptors, segments)``; the caller owns the segments
    and must ``close()`` and ``unlink()`` them once every consumer has
    attached (workers copy out of the segment, so unlinking after the
    pool is warm is safe).  Raises on platforms without working shared
    memory — callers fall back to per-worker rebuilds.
    """
    from multiprocessing import shared_memory

    descriptors: List[SharedTraceDescriptor] = []
    segments = []
    try:
        for memo_key, trace in entries:
            kinds_bytes, address_bytes = trace._content_buffers()
            size = max(1, len(address_bytes) + len(kinds_bytes))
            segment = shared_memory.SharedMemory(create=True, size=size)
            segments.append(segment)
            segment.buf[: len(address_bytes)] = address_bytes
            segment.buf[len(address_bytes): len(address_bytes) + len(kinds_bytes)] = kinds_bytes
            descriptors.append(
                SharedTraceDescriptor(
                    shm_name=segment.name,
                    length=len(trace),
                    meta=trace.meta,
                    memo_key=memo_key,
                )
            )
    except Exception:
        # A mid-loop failure (ENOSPC on /dev/shm is the classic) must
        # unwind every segment already created: shared-memory names are
        # system-global and would otherwise leak past process exit.
        release_shared_segments(segments)
        raise
    return descriptors, segments


def attach_shared_trace(descriptor: SharedTraceDescriptor) -> PackedTrace:
    """Rebuild one packed trace from its shared-memory segment.

    The buffers are copied out (one ``memcpy`` each) and the segment is
    closed immediately, so the worker holds no shared-memory references
    afterwards — lifetime stays entirely with the creating process.
    """
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=descriptor.shm_name)
    try:
        split = descriptor.length * _ADDRESS_ITEMSIZE
        addresses = array("q")
        addresses.frombytes(bytes(segment.buf[:split]))
        kinds = array("b")
        kinds.frombytes(bytes(segment.buf[split: split + descriptor.length]))
    finally:
        segment.close()
    return PackedTrace(descriptor.meta, kinds, addresses)


def release_shared_segments(segments) -> None:
    """Close and unlink segments, ignoring already-released ones.

    ``close`` and ``unlink`` fail independently: a mapping error on
    close must not leave the segment name registered in ``/dev/shm``
    (the leak that matters — names outlive the process), so each call
    gets its own guard instead of one shared try block.
    """
    for segment in segments:
        try:
            segment.close()
        except (FileNotFoundError, OSError):  # pragma: no cover - cleanup race
            pass
        try:
            segment.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - cleanup race
            pass
