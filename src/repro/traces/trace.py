"""Trace objects: named, repeatable streams of memory references.

The paper's methodology is trace-driven simulation over six program
traces (Table 2-1).  A :class:`Trace` here is a *recipe*: metadata plus a
factory that produces a fresh iterator of ``(kind, byte_address)`` pairs
each time, so the same trace can be replayed across the dozens of
configurations an experiment sweeps.  :class:`MaterializedTrace` is the
one in-memory form of a replay: packed ``array('b')`` kinds and
``array('Q')`` addresses, so every address in ``[0, 2**64)`` is held
exactly and anything outside raises
:class:`~repro.common.errors.AddressRangeError` when the trace is built.
It serves the interpreter's split instruction/data lists (the paper's L1
caches are split, and its figures treat the two sides independently),
the numpy kernels' zero-copy int64 views (addresses below 2**63 only),
the content fingerprint that keys the result store, the kernels'
per-geometry products (:meth:`MaterializedTrace.cached_product`), and
the pickled payload, which carries the two buffers alone.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from ..common.errors import AddressRangeError, ConfigurationError, TraceFormatError
from ..common.types import Access, AccessKind

__all__ = ["TraceMeta", "TraceStats", "Trace", "MaterializedTrace", "trace_from_pairs"]

#: The compact representation used everywhere hot: (kind, byte_address).
Pair = Tuple[int, int]


def _line_shift(line_size: int) -> int:
    """Bit shift for a cache-line size, rejecting invalid sizes loudly.

    ``line_size.bit_length() - 1`` silently miscomputes the shift for
    non-power-of-two sizes (e.g. 24 -> shift 4, as if the line were
    16B), so anything but a positive power of two is a configuration
    error, matching :class:`~repro.common.config.CacheConfig`.
    """
    if line_size < 1 or line_size & (line_size - 1):
        raise ConfigurationError(
            f"line_size must be a positive power of two, got {line_size}"
        )
    return line_size.bit_length() - 1


@dataclass(frozen=True)
class TraceMeta:
    """Identity and provenance of a trace."""

    name: str
    #: Table 2-1 style description ("C compiler", "PC board CAD", ...).
    program_type: str = ""
    description: str = ""
    seed: int = 0
    #: Nominal instruction count the generator was asked for.
    scale: int = 0
    #: Canonical workload-spec JSON this trace was built from ("" for
    #: hand-made traces).  Lets :func:`repro.specs.workload_spec_of`
    #: recover a rebuildable spec from any materialized trace.
    source: str = ""


@dataclass
class TraceStats:
    """Reference counts in the shape of the paper's Table 2-1."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    #: References whose kind is none of IFETCH/LOAD/STORE (traces loaded
    #: from files may carry future or foreign kind codes).  Counting them
    #: keeps ``total_references`` equal to ``len(trace)`` always.
    other: int = 0

    @property
    def data_references(self) -> int:
        return self.loads + self.stores

    @property
    def total_references(self) -> int:
        return self.instructions + self.data_references + self.other

    @property
    def data_per_instruction(self) -> float:
        if self.instructions == 0:
            return 0.0
        return self.data_references / self.instructions


class Trace:
    """A named, repeatable access trace built from a factory function."""

    def __init__(self, meta: TraceMeta, factory: Callable[[], Iterable[Pair]]):
        self.meta = meta
        self._factory = factory

    @property
    def name(self) -> str:
        return self.meta.name

    def __iter__(self) -> Iterator[Pair]:
        return iter(self._factory())

    def accesses(self) -> Iterator[Access]:
        """Iterate as rich :class:`Access` objects (public-API view)."""
        for kind, address in self:
            yield Access(AccessKind(kind), address)

    def materialize(self) -> "MaterializedTrace":
        """Replay once into packed buffers for fast repeated simulation."""
        return MaterializedTrace.from_pairs(self.meta, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.meta.name!r})"


class MaterializedTrace:
    """One replay held as packed (kinds, addresses) array buffers.

    Kinds live in an ``array('b')`` and byte addresses in an
    ``array('Q')``, so every address in ``[0, 2**64)`` — the range of
    the binary trace format — is held exactly, and a trace pickles as
    two contiguous blocks.  Iteration zips the two buffers without an
    intermediate list.  Split views are computed lazily and cached:
    experiments replay the same instruction or data stream against many
    cache configurations.
    """

    def __init__(self, meta: TraceMeta, kinds: array, addresses: array):
        if len(kinds) != len(addresses):
            raise ValueError(
                f"kinds/addresses length mismatch: {len(kinds)} != {len(addresses)}"
            )
        self.meta = meta
        self._kinds = kinds
        self._addresses = addresses
        self._stream_lists: Dict[str, List[int]] = {}
        self._stats: Optional[TraceStats] = None
        self._fingerprint: Optional[str] = None
        self._array_views = None
        self._stream_arrays: Dict[str, object] = {}
        self._products: Dict[Hashable, object] = {}

    @classmethod
    def from_pairs(cls, meta: TraceMeta, pairs: Iterable[Pair]) -> "MaterializedTrace":
        """Pack an iterable of ``(kind, address)`` pairs into buffers.

        Raises :class:`~repro.common.errors.AddressRangeError` for an
        address outside ``[0, 2**64)`` and its parent
        :class:`~repro.common.errors.TraceFormatError` for a kind
        outside a signed byte.
        """
        kinds = array("b")
        addresses = array("Q")
        try:
            for kind, address in pairs:
                kinds.append(kind)
                addresses.append(address)
        except OverflowError:
            index = len(addresses)
            if len(kinds) > index:
                raise AddressRangeError(
                    f"{meta.name}: reference {index} has address {address}, "
                    "outside [0, 2**64)"
                ) from None
            raise TraceFormatError(
                f"{meta.name}: reference {index} has kind {kind}, outside [-128, 128)"
            ) from None
        return cls(meta, kinds, addresses)

    @property
    def name(self) -> str:
        return self.meta.name

    def __len__(self) -> int:
        return len(self._addresses)

    def __iter__(self) -> Iterator[Pair]:
        return zip(self._kinds, self._addresses)

    # -- derived views -------------------------------------------------------

    def as_arrays(self):
        """Read-only zero-copy numpy views ``(kinds, addresses)``: int8, int64.

        The views alias the trace's own memory and are marked
        non-writeable so kernel code cannot mutate the trace through
        them.  An address of 2**63 or more has no int64 value, so a
        trace holding one raises
        :class:`~repro.common.errors.AddressRangeError` here rather
        than reach a kernel as a wrapped negative line.
        """
        if self._array_views is None:
            import numpy as np

            kinds = np.frombuffer(self._kinds, dtype=np.int8)
            addresses = np.frombuffer(self._addresses, dtype=np.int64)
            if len(addresses) and addresses.min() < 0:
                raise AddressRangeError(
                    f"{self.name}: an address is 2**63 or more, beyond the "
                    "kernels' int64 range; replay it on the python backend"
                )
            kinds.flags.writeable = False
            addresses.flags.writeable = False
            self._array_views = (kinds, addresses)
        return self._array_views

    def stream_array(self, side: str):
        """The 'i' or 'd' byte-address stream as a cached int64 array.

        One vectorized mask over :meth:`as_arrays` (and its range
        check); the per-side array is cached read-only because
        experiments replay the same stream against many configurations.
        """
        cached = self._stream_arrays.get(side)
        if cached is None:
            kinds, addresses = self.as_arrays()
            cached = addresses[_side_mask(kinds, side)]
            cached.flags.writeable = False
            self._stream_arrays[side] = cached
        return cached

    def cached_product(self, key: Hashable, build: Callable[[], object]):
        """The product derived from this trace under *key*, built once.

        The numpy kernels keep each stream's structure-independent
        products here (:func:`repro.kernels.assist.level_products`), so
        every design point over one stream and geometry reads them
        instead of recomputing them.  *build* runs on the first request
        only; when two threads build the same key at once, the first
        value stored wins and both callers get it.  Products live as
        long as the trace and are never pickled.
        """
        cached = self._products.get(key)
        if cached is None:
            cached = self._products.setdefault(key, build())
        return cached

    @property
    def instruction_addresses(self) -> List[int]:
        """Byte addresses of the instruction-fetch stream, in order."""
        return self.stream("i")

    @property
    def data_addresses(self) -> List[int]:
        """Byte addresses of the load/store stream, in order."""
        return self.stream("d")

    def stream(self, side: str) -> List[int]:
        """The 'i' or 'd' byte-address stream as a cached list of ints.

        Read through an unsigned view, so every address keeps its exact
        value (2**63 and up included) for the interpreter.
        """
        cached = self._stream_lists.get(side)
        if cached is None:
            import numpy as np

            kinds = np.frombuffer(self._kinds, dtype=np.int8)
            addresses = np.frombuffer(self._addresses, dtype=np.uint64)
            cached = addresses[_side_mask(kinds, side)].tolist()
            self._stream_lists[side] = cached
        return cached

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

    def unique_lines(self, side: str, line_size: int) -> int:
        """Distinct cache lines touched by one side (footprint measure)."""
        shift = _line_shift(line_size)
        return len({addr >> shift for addr in self.stream(side)})

    def fingerprint(self) -> str:
        """Short content hash over the packed (kind, address) buffers.

        Two traces with identical reference streams share a fingerprint
        regardless of how they were built (generator replay, file load,
        unpickling) — the identity the result store uses for content
        addressing.  Cached after the first call.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256(self._kinds)
            digest.update(self._addresses)
            self._fingerprint = digest.hexdigest()[:16]
        return self._fingerprint

    # -- pickling ------------------------------------------------------------

    def __getstate__(self):
        """Pickle only the packed buffers, never the derived caches.

        A warmed trace accumulates rebuildable views — per-side address
        lists, the numpy arrays cached by
        :meth:`as_arrays`/:meth:`stream_array` (which pickle as *full
        int64 copies*, not views), and the kernels' cached products —
        that can dwarf the buffers
        themselves.  Shipping them to workers or between a daemon and
        its clients would inflate exactly the payloads the packed
        buffers keep small, so pickling drops every cache; the receiver
        rebuilds them lazily (read-only flags and all) on first use.
        The content fingerprint and reference counts are kept: they are
        tiny and expensive to recompute.
        """
        state = self.__dict__.copy()
        state["_stream_lists"] = {}
        state["_array_views"] = None
        state["_stream_arrays"] = {}
        state["_products"] = {}
        return state


def _side_mask(kinds, side: str):
    """Boolean mask selecting one side's references from int8 kinds."""
    ifetch = int(AccessKind.IFETCH)
    if side == "i":
        return kinds == ifetch
    if side == "d":
        return kinds != ifetch
    raise ValueError(f"side must be 'i' or 'd', got {side!r}")


def trace_from_pairs(
    name: str,
    pairs: Iterable[Pair],
    program_type: str = "",
    description: str = "",
) -> MaterializedTrace:
    """Build a materialized trace directly from pairs (tests, file loads)."""
    meta = TraceMeta(name=name, program_type=program_type, description=description)
    return MaterializedTrace.from_pairs(meta, pairs)
