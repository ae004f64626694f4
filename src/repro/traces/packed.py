"""Shared-memory hand-off of materialized traces to pool workers.

A :class:`~repro.traces.trace.MaterializedTrace` is two flat buffers
(``array('b')`` kinds, ``array('Q')`` addresses).  For process pools on
spawn-based platforms, :func:`share_packed_traces` lays those buffers
out in :mod:`multiprocessing.shared_memory` segments and
:func:`attach_shared_trace` rebuilds the trace on the other side with
one ``memcpy`` per buffer — so workers stop replaying the synthetic
generators once each (the dominant warm-up cost).  Fork-based platforms
skip the hand-off entirely: copy-on-write already shares the parent's
buffers.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .trace import MaterializedTrace, TraceMeta

__all__ = [
    "SharedTraceDescriptor",
    "share_packed_traces",
    "attach_shared_trace",
    "release_shared_segments",
]

#: Segment layout: addresses first (8-byte aligned at offset 0), kinds after.
_ADDRESS_ITEMSIZE = array("Q").itemsize


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


def share_packed_traces(entries: Sequence[Tuple[object, MaterializedTrace]]):
    """Lay each trace's buffers out in one shared-memory segment.

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


def attach_shared_trace(descriptor: SharedTraceDescriptor) -> MaterializedTrace:
    """Rebuild one trace from its shared-memory segment.

    The buffers are copied out (one ``memcpy`` each) and the segment is
    closed immediately, so the worker holds no shared-memory references
    afterwards — lifetime stays entirely with the creating process.
    """
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=descriptor.shm_name)
    try:
        split = descriptor.length * _ADDRESS_ITEMSIZE
        addresses = array("Q")
        addresses.frombytes(bytes(segment.buf[:split]))
        kinds = array("b")
        kinds.frombytes(bytes(segment.buf[split: split + descriptor.length]))
    finally:
        segment.close()
    return MaterializedTrace(descriptor.meta, kinds, addresses)


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
