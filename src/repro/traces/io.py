"""Trace file I/O.

Two interchange formats are supported:

* **Text** (``.dinero``-style): one reference per line, ``<kind> <hex
  address>``, where kind is 0 (ifetch), 1 (load) or 2 (store) — the
  classic "din" input format of Dinero-family cache simulators, chosen so
  traces can be exchanged with other tools and inspected by eye.
* **Binary**: a fixed 12-byte little-endian record ``<B3xQ`` (kind byte,
  3 pad bytes, unsigned 64-bit address) behind an 8-byte magic header;
  about 5x smaller and much faster to load than text.

Both writers accept any iterable of ``(kind, address)`` pairs, and both
readers yield pairs.  :func:`load_trace` packs them into a
:class:`~repro.traces.trace.MaterializedTrace`, whose unsigned 64-bit
address buffer holds exactly what the binary format stores; a text
address of 2**64 or more raises
:class:`~repro.common.errors.AddressRangeError` on load.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import IO, Iterable, Iterator, Tuple, Union

from ..common.errors import TraceFormatError
from ..common.types import AccessKind
from .trace import MaterializedTrace, trace_from_pairs

__all__ = [
    "write_text_trace",
    "read_text_trace",
    "write_binary_trace",
    "read_binary_trace",
    "load_trace",
    "save_trace",
]

Pair = Tuple[int, int]
PathLike = Union[str, Path]

_MAGIC = b"RPROTRC1"
_RECORD = struct.Struct("<B3xQ")
_VALID_KINDS = {int(k) for k in AccessKind}


def _check_kind(kind: int, context: str) -> int:
    if kind not in _VALID_KINDS:
        raise TraceFormatError(f"invalid access kind {kind} {context}")
    return kind


def write_text_trace(path: PathLike, pairs: Iterable[Pair]) -> int:
    """Write pairs in din text format; returns the number of records."""
    count = 0
    with open(path, "w", encoding="ascii") as handle:
        for kind, address in pairs:
            _check_kind(kind, f"at record {count}")
            handle.write(f"{kind} {address:x}\n")
            count += 1
    return count


def read_text_trace(path: PathLike) -> Iterator[Pair]:
    """Yield pairs from a din text trace, skipping blank/comment lines."""
    with open(path, "r", encoding="ascii") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split()
            if len(fields) != 2:
                raise TraceFormatError(
                    f"{path}: line {line_number}: expected 'kind address', got {stripped!r}"
                )
            try:
                kind = int(fields[0])
                address = int(fields[1], 16)
            except ValueError as exc:
                raise TraceFormatError(f"{path}: line {line_number}: {exc}") from exc
            if address < 0:
                raise TraceFormatError(f"{path}: line {line_number}: negative address")
            yield _check_kind(kind, f"on line {line_number}"), address


def write_binary_trace(path: PathLike, pairs: Iterable[Pair]) -> int:
    """Write pairs in the compact binary format; returns record count."""
    pack = _RECORD.pack
    count = 0
    with open(path, "wb") as handle:
        handle.write(_MAGIC)
        for kind, address in pairs:
            _check_kind(kind, f"at record {count}")
            handle.write(pack(kind, address))
            count += 1
    return count


def read_binary_trace(path: PathLike) -> Iterator[Pair]:
    """Yield pairs from a binary trace file."""
    with open(path, "rb") as handle:
        magic = handle.read(len(_MAGIC))
        if magic != _MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        yield from _read_binary_records(handle, str(path))


def _read_binary_records(handle: IO[bytes], label: str) -> Iterator[Pair]:
    record_size = _RECORD.size
    unpack = _RECORD.unpack
    index = 0
    while True:
        chunk = handle.read(record_size)
        if not chunk:
            return
        if len(chunk) != record_size:
            raise TraceFormatError(f"{label}: truncated record at index {index}")
        kind, address = unpack(chunk)
        yield _check_kind(kind, f"at record {index}"), address
        index += 1


def save_trace(path: PathLike, trace: Iterable[Pair]) -> int:
    """Save in the format implied by the suffix (.trc binary, else text)."""
    if str(path).endswith(".trc"):
        return write_binary_trace(path, trace)
    return write_text_trace(path, trace)


def load_trace(path: PathLike, name: str = "") -> MaterializedTrace:
    """Load a trace file (format sniffed by suffix) into memory."""
    label = name or Path(path).stem
    if str(path).endswith(".trc"):
        pairs = read_binary_trace(path)
    else:
        pairs = read_text_trace(path)
    return trace_from_pairs(label, pairs, description=f"loaded from {path}")
