"""Vectorized assist-structure kernels over the direct-mapped miss stream.

The paper's helper structures all live behind the L1 cache: consulted
only on a miss (``lookup_on_miss``), updated only on a refill
(``on_l1_fill``), never told about hits.  Because the direct-mapped
array is refilled on *every* miss, its state evolution — and therefore
the ordered miss stream and the victim evicted by each refill — is
completely independent of the structure (the property §3 of the paper
relies on).  That splits any structure run into two passes:

* **Pass 1** (:func:`extract_miss_stream`) — the existing vectorized
  direct-mapped resolution, extended to emit the ordered miss stream:
  trace positions and requested lines.  The line each refill evicted
  (:func:`refill_victims`) follows from the miss stream alone, for the
  structures that need it.
* **Pass 2** — resolve the structure over that much shorter stream, in
  one of two modes (:func:`repro.kernels.structure_mode`):

  - ``vector``: the hit condition closes over the miss stream in array
    form.  An LRU **miss cache** of capacity N hits iff fewer than N
    distinct miss-lines occurred since the previous miss to the same
    line — one reuse-distance rank pass, which yields the hit count for
    *every* capacity at once (:func:`entry_sweep` runs the whole
    Figure 3-3/3-5 sweep in a single pass).  An LRU **victim cache**
    with swap-on-hit is the same stack-depth question over the
    interleaved lookup/insert token stream (:func:`_victim_depths`),
    using the exclusivity invariant (a line is never in both L1 and the
    victim cache, at any capacity) and the fact that a hit-invalidation
    keeps the finite cache a prefix of the unbounded LRU stack.  A
    single-way head-only **stream buffer** hits exactly on consecutive
    miss-line chains, with ``max_run`` cutting each chain into
    ``max_run + 1``-long segments (:func:`_stream_buffer_hits`).  A
    head-only **multi-way stream buffer** keeps two ints per way — head
    line and allocating miss — in one LRU-ordered list and resolves
    each miss by comparing heads (:func:`_multi_way_stream_hits`); that
    is a scan per miss, but over plain ints instead of live objects.
  - ``miss-replay``: the live interpreter structure replays the
    compressed miss stream (:func:`_replay_structure`) with ``now`` set
    to the original trace position, so availability modelling, the
    allocation filter, full-comparator matching, stride detection and
    composites stay bit-exact while paying Python dispatch only per
    *miss*, not per reference.

Neither pass depends on a point's capacity or warm-up window: the miss
stream is the same for every structure, and the vector-mode hit tests
are unbounded stack depths and run offsets that price every capacity at
once.  :class:`LevelProducts` holds both for one stream and geometry
and is the only input the kernels take: one function per operation
(:func:`level_point`, :func:`entry_sweep`, :func:`run_length_sweep`)
applies a point's own capacity and window to it.
:func:`level_products` caches the products on the materialized trace,
so each engine job body (``*_summary``) is cached products → that
function → one telemetry observation, and pass 1 runs once per trace,
side and geometry.

Warm-up follows the interpreter exactly: structure and cache state are
warmed over the full stream; counters only accumulate inside the
measurement window.  Equivalence — every
:class:`~repro.hierarchy.level.LevelStats` counter, every sweep bucket —
is pinned by ``tests/test_kernels.py`` across randomized streams, all
named traces, and the pattern workload specs.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..common.config import CacheConfig
from ..common.types import AccessOutcome
from ..hierarchy.level import LevelStats
from ..telemetry.core import current as _telemetry_scope
from . import MISS_REPLAY, VECTOR, structure_mode
from .numpy_backend import (
    _INT64,
    _effective_warmup,
    _rank_left_leq,
    _slot_pass,
    classify_misses,
    direct_mapped_hit_mask,
    prev_occurrence,
)

__all__ = [
    "extract_miss_stream",
    "refill_victims",
    "LevelProducts",
    "level_products",
    "level_point",
    "simulate_assist_summary",
    "entry_sweep",
    "entry_sweep_summary",
    "run_length_sweep",
    "run_length_sweep_summary",
]


# -- pass 1: the ordered miss stream ------------------------------------------


def extract_miss_stream(lines: np.ndarray, num_lines: int) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve a direct-mapped level and emit its ordered miss stream.

    Returns ``(positions, miss_lines)``: the ascending stream positions
    of the misses and the requested line per miss.
    """
    hits = direct_mapped_hit_mask(lines, num_lines)
    positions = np.nonzero(~hits)[0].astype(_INT64, copy=False)
    return positions, lines[positions]


def refill_victims(miss_lines: np.ndarray, num_lines: int) -> np.ndarray:
    """The line each refill of a miss stream evicted (``-1``: the slot was cold).

    A slot holds the line of the last reference through it, and every
    hit there re-references the line the last miss to that slot filled,
    so the victim of a refill is the previous *miss* to the same slot.
    That falls out of the stable argsort-by-slot the hit mask uses, run
    over the miss stream: in sorted order it is the predecessor within
    the slot.  On a miss the occupant necessarily differs from the
    requested line, so it is always a genuine eviction.
    """
    _, order, sorted_lines, same_slot = _slot_pass(miss_lines, num_lines)
    victims = np.full(len(miss_lines), -1, dtype=_INT64)
    victims[order[1:][same_slot]] = sorted_lines[:-1][same_slot]
    return victims


# -- pass 2, vector mode ------------------------------------------------------


def _lru_depths(stream: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Unbounded LRU stack depth of each revisit in *stream*.

    Returns ``(seen, depth)``: ``seen`` marks revisits, ``depth`` (valid
    only there) is the number of distinct values since the previous
    occurrence — exactly the 0-based depth an access-then-fill LRU cache
    of unbounded capacity would report, so a capacity-N cache hits iff
    ``depth < N``.
    """
    prev = prev_occurrence(stream)
    seen = prev >= 0
    queries = np.nonzero(seen)[0].astype(_INT64, copy=False)
    depth = _rank_left_leq(prev + 1, queries) - (prev + 1)
    return seen, depth


def _victim_depths(
    miss_lines: np.ndarray, victims: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Unbounded victim-cache lookup outcomes over the miss stream.

    Models the LRU, swap-on-hit victim cache as a token stream: each
    miss emits a *lookup* token for the requested line, then (when the
    refill evicted something) an *insert* token for the victim.  In the
    unbounded cache a lookup hits iff its line's most recent token is an
    insert — inserts make a line resident, a hit invalidates it (the
    swap), and a missed lookup changes nothing.  Exclusivity (the victim
    of a refill was resident in L1, never in the victim cache) makes
    every insert a fresh push onto the LRU stack, and because a finite
    cache of capacity N always holds exactly the top N of the unbounded
    stack, a lookup hits at capacity N iff its unbounded depth is below
    N.

    The depth of a hit at token ``u`` whose line was pushed at token
    ``p`` counts the still-resident lines pushed after ``p``:
    ``inserts_in(p, u)`` minus the hit-lookups in ``(p, u)`` that
    invalidated one of those pushes (hits whose matched insert sits
    after ``p`` — a per-query threshold rank count).

    Returns ``(hit, depth)`` per miss; ``depth`` is valid only at hits.
    """
    m = len(miss_lines)
    hit = np.zeros(m, dtype=bool)
    depth = np.zeros(m, dtype=_INT64)
    if not m:
        return hit, depth
    has_victim = victims >= 0
    inserts = int(np.count_nonzero(has_victim))
    # Token layout: lookup_j at j + (#inserts before j), its insert (if
    # any) immediately after.
    before = np.cumsum(has_victim) - has_victim
    lookup_pos = np.arange(m, dtype=_INT64) + before
    insert_pos = lookup_pos[has_victim] + 1
    total = m + inserts
    token_line = np.empty(total, dtype=_INT64)
    token_line[lookup_pos] = miss_lines
    token_line[insert_pos] = victims[has_victim]
    is_insert = np.zeros(total, dtype=bool)
    is_insert[insert_pos] = True

    prev = prev_occurrence(token_line)
    prev_of_lookup = prev[lookup_pos]
    hit = (prev_of_lookup >= 0) & is_insert[np.maximum(prev_of_lookup, 0)]
    hit_tokens = lookup_pos[hit]
    if not len(hit_tokens):
        return hit, depth
    matched = prev_of_lookup[hit]  # the insert that pushed each hit line

    inserts_before = np.cumsum(is_insert) - is_insert  # exclusive prefix
    pushed_after = inserts_before[hit_tokens] - inserts_before[matched] - 1
    # Hits before u whose matched insert also precedes u's own push p:
    # those invalidated lines deeper than u's line and don't reduce its
    # depth.  values[h] = matched insert of hit h, off-scale elsewhere.
    hit_mask = np.zeros(total, dtype=bool)
    hit_mask[hit_tokens] = True
    hits_before = np.cumsum(hit_mask) - hit_mask  # exclusive prefix
    values = np.full(total, total, dtype=_INT64)
    values[hit_tokens] = matched
    thresholds = np.zeros(total, dtype=_INT64)
    thresholds[hit_tokens] = matched
    dominated = _rank_left_leq(values, queries=hit_tokens, thresholds=thresholds)
    invalidated_above = hits_before[hit_tokens] - dominated[hit_tokens]
    depth[hit] = pushed_after - invalidated_above
    return hit, depth


def _stream_buffer_hits(
    miss_lines: np.ndarray, max_run: Optional[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Single-way head-only sequential stream buffer over the miss stream.

    The buffer holds the next lines after the last allocation, head-only
    matching means a miss hits iff it equals the head, and every
    non-matching miss reallocates — so a miss hits iff it extends a
    consecutive chain of miss lines, and its run offset is its distance
    ``c`` from the chain anchor.  Buffer *entries* never change the hit
    behaviour (each hit pops the head and tops the queue back up).  A
    finite ``max_run`` only prefetches ``max_run`` lines per allocation:
    position ``c`` in a chain hits iff ``c mod (max_run + 1) != 0`` —
    every multiple of ``max_run + 1`` finds the queue exhausted and
    becomes a fresh anchor.

    Returns ``(hit, offset)`` per miss; ``offset`` is valid at hits.
    """
    m = len(miss_lines)
    step = np.zeros(m, dtype=bool)
    if m > 1:
        step[1:] = miss_lines[1:] == miss_lines[:-1] + 1
    idx = np.arange(m, dtype=_INT64)
    anchor = np.maximum.accumulate(np.where(step, -1, idx))
    offset = idx - anchor
    if max_run is None:
        return step, offset
    offset = offset % (max_run + 1)
    return step & (offset != 0), offset


#: Head of a way with nothing left to supply.  Lines are never negative
#: (a cold refill's victim is ``-1`` for the same reason), so it matches
#: no miss.
_DEAD = -1


def _multi_way_stream_hits(
    miss_lines: np.ndarray, ways: int, max_run: Optional[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Multi-way head-only sequential stream buffer over the miss stream.

    Each way is two plain ints — its head line (or :data:`_DEAD`) and
    the miss line that allocated it — held in one list ordered from
    least to most recently used.  A miss compares stored heads instead
    of walking per-way queues (the software form of way memoization).
    With head-only matching and a top-up after every hit, *entries*
    never changes an outcome.

    * A miss equal to some way's head consumes the least recently used
      such way, the first one the interpreter's LRU-order scan meets.
      Its head becomes ``line + 1``, or dead once ``line - origin``
      reaches ``max_run``, and it moves to MRU.
    * Any other miss reallocates the LRU way — dead ways included, which
      keep their slot until then — at head ``line + 1`` with origin
      ``line`` (dead at once when ``max_run == 0``), and makes it MRU.

    This is a per-miss scan, not an array pass.  Which of two equal
    heads a miss consumes depends on the LRU state at that moment, so
    the stack-depth closure used for the victim cache does not apply.

    Returns ``(hit, offset)`` per miss; ``offset`` (distance from the
    allocating miss) is valid at hits.
    """
    heads = [_DEAD] * ways
    origins = [0] * ways
    prefetches = max_run != 0
    hit_at: List[int] = []
    run_offsets: List[int] = []
    for i, line in enumerate(miss_lines.tolist()):
        if line in heads:
            way = heads.index(line)
            del heads[way]
            origin = origins.pop(way)
            run = line - origin
            hit_at.append(i)
            run_offsets.append(run)
            heads.append(_DEAD if run == max_run else line + 1)
            origins.append(origin)
        else:
            del heads[0]
            del origins[0]
            heads.append(line + 1 if prefetches else _DEAD)
            origins.append(line)
    hit = np.zeros(len(miss_lines), dtype=bool)
    offset = np.zeros(len(miss_lines), dtype=_INT64)
    hit[hit_at] = True
    offset[hit_at] = run_offsets
    return hit, offset


# -- pass 2, miss-replay mode -------------------------------------------------


def _replay_structure(structure, stream, start: int) -> LevelStats:
    """Drive a live interpreter structure over the compressed miss stream.

    *stream* holds the miss stream's ``positions``, ``miss_lines`` and
    ``victims`` (a :class:`LevelProducts`, in the kernels).  Calls
    ``lookup_on_miss`` then ``on_l1_fill`` per miss, in the exact order
    :meth:`~repro.hierarchy.level.CacheLevel.access_line` would, with
    ``now`` set to the original trace position so availability
    modelling (``ready_time`` arithmetic) is preserved.  Counters only
    accumulate at positions inside the measurement window.  Returns the
    structure-attributable stats fields.
    """
    lookup = structure.lookup_on_miss
    fill = structure.on_l1_fill
    victim_hit = AccessOutcome.VICTIM_HIT
    stream_hit = AccessOutcome.STREAM_HIT
    stats = LevelStats()
    for now, line, victim in zip(
        stream.positions.tolist(),
        stream.miss_lines.tolist(),
        stream.victims.tolist(),
    ):
        result = lookup(line, now)
        fill(line, victim if victim >= 0 else None, now)
        if now < start:
            continue
        if result.stall_cycles:
            stats.stream_stall_cycles += result.stall_cycles
        if result.satisfied:
            outcome = result.outcome
            if outcome is victim_hit:
                stats.victim_hits += 1
            elif outcome is stream_hit:
                stats.stream_hits += 1
            else:
                stats.miss_cache_hits += 1
    return stats


# -- the products every point over one stream and geometry shares -------------


def _read_only(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _hits_at(hit: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``(at, values[at])`` for the miss indices *at* where *hit* holds."""
    at = np.nonzero(hit)[0]
    return _read_only(at, values[at])


class LevelProducts:
    """What every point over one stream and direct-mapped geometry shares.

    The miss stream does not depend on the structure behind L1, and a
    miss or victim cache's hit test is an LRU stack depth that prices
    every capacity at once, so a point needs only its own capacity and
    warm-up window applied to products computed once per stream and
    geometry:

    * the pass-1 miss stream — ``positions`` and ``miss_lines`` (see
      :func:`extract_miss_stream`) and the stream ``length`` — built
      with the object;
    * built on first use: ``victims`` (:func:`refill_victims`), which
      only victim caches and miss-replay read, and the capacity-free
      pass-2 products :meth:`lru_depths`, :meth:`victim_depths`,
      :meth:`stream_hits` per ``(ways, max_run)`` and
      :meth:`classification` per warm-up window.  Each hit product is ``(at, values)``: the ascending miss indices
      at which the unbounded structure hits, and its depth or run
      offset there.

    Every array held is miss-length and read-only.  The byte-address
    stream the object was built from is kept by reference, never
    copied, for classification to re-derive its lines from.  When two
    threads build the same product, the first one stored wins.
    """

    def __init__(self, byte_addresses, config: CacheConfig) -> None:
        self._addresses = np.asarray(byte_addresses, dtype=_INT64)
        self._offset_bits = config.offset_bits
        self.num_lines = config.num_lines
        self.length = len(self._addresses)
        self.positions, self.miss_lines = _read_only(
            *extract_miss_stream(self._addresses >> config.offset_bits, config.num_lines)
        )
        self._derived: Dict[Hashable, object] = {}

    @property
    def victims(self) -> np.ndarray:
        """The line each refill evicted, per miss (:func:`refill_victims`)."""
        return self._product(
            "victims", lambda: _read_only(refill_victims(self.miss_lines, self.num_lines))[0]
        )

    def _product(self, key: Hashable, build: Callable[[], object]):
        product = self._derived.get(key)
        if product is None:
            product = self._derived.setdefault(key, build())
        return product

    def lru_depths(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(at, depth)`` of the miss stream's revisits (:func:`_lru_depths`)."""
        return self._product("lru", lambda: _hits_at(*_lru_depths(self.miss_lines)))

    def victim_depths(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(at, depth)`` of the unbounded victim cache's hits (:func:`_victim_depths`)."""
        return self._product(
            "victim", lambda: _hits_at(*_victim_depths(self.miss_lines, self.victims))
        )

    def stream_hits(self, ways: int, max_run: Optional[int]) -> Tuple[np.ndarray, np.ndarray]:
        """``(at, offset)`` of a head-only stream buffer's hits.

        One way is the chain scan (:func:`_stream_buffer_hits`), several
        the way-head compare (:func:`_multi_way_stream_hits`).
        """

        def build():
            if ways == 1:
                return _hits_at(*_stream_buffer_hits(self.miss_lines, max_run))
            return _hits_at(*_multi_way_stream_hits(self.miss_lines, ways, max_run))

        return self._product(("stream", ways, max_run), build)

    def classification(self, warmup: int) -> Dict[str, float]:
        """A fresh copy of :func:`classify_misses` over the stream."""
        start = _effective_warmup(warmup, self.length)

        def build():
            hits = np.ones(self.length, dtype=bool)
            hits[self.positions] = False
            lines = self._addresses >> self._offset_bits
            return classify_misses(lines, hits, self.num_lines, start)

        return dict(self._product(("classify", start), build))


def level_products(trace, side: str, config: CacheConfig) -> LevelProducts:
    """The products of one side of a materialized *trace* at one geometry.

    Cached on the trace under ``(side, offset_bits, num_lines)``
    (:meth:`~repro.traces.trace.MaterializedTrace.cached_product`), so
    they live and die with it.
    """
    return trace.cached_product(
        (side, config.offset_bits, config.num_lines),
        lambda: LevelProducts(trace.stream_array(side), config),
    )


def _hits_from(product: Tuple[np.ndarray, np.ndarray], first: int, capacity=None) -> int:
    """Hits at miss index *first* or later, those below *capacity* deep if given."""
    at, values = product
    k = int(np.searchsorted(at, first))
    if capacity is None:
        return len(at) - k
    return int(np.count_nonzero(values[k:] < capacity))


# -- one function per operation ----------------------------------------------
#
# Each takes the products and returns ``(answer, stats)``: the job's
# picklable answer and the whole-run LevelStats its one telemetry
# observation reports.


def _whole_run(stats: LevelStats, products: LevelProducts, start: int = 0, first: int = 0):
    """Complete structure counters into level stats over a window.

    The window starts at stream position *start*, whose first miss is
    miss index *first*.
    """
    stats.accesses = products.length - start
    stats.hits = stats.accesses - (len(products.positions) - first)
    stats.misses_to_next_level = stats.demand_misses - stats.removed_misses
    return stats


def level_point(
    products: LevelProducts, structure_spec=None, classify: bool = False, warmup: int = 0
):
    """One level point → ``(LevelSummary, LevelStats)``: vectorized ``run_level``.

    ``structure_spec`` is None for the bare level, or a spec with a
    kernel mode (:func:`repro.kernels.structure_mode` not None);
    dispatch through :func:`repro.kernels.select_backend` guarantees it.
    Only the point's own capacity and warm-up window are applied here.
    """
    from ..experiments.engine import LevelSummary
    from ..specs.structures import build

    start = _effective_warmup(warmup, products.length)
    first = int(np.searchsorted(products.positions, start))  # first counted miss
    stats = LevelStats()
    mode = None if structure_spec is None else structure_mode(structure_spec)
    if mode == VECTOR:
        kind = structure_spec.kind
        if kind == "miss_cache":
            stats.miss_cache_hits = _hits_from(
                products.lru_depths(), first, structure_spec.entries
            )
        elif kind == "victim_cache":
            stats.victim_hits = _hits_from(
                products.victim_depths(), first, structure_spec.entries
            )
        else:  # single- or multi-way stream buffer
            ways = structure_spec.ways if kind == "multi_way_stream_buffer" else 1
            stats.stream_hits = _hits_from(
                products.stream_hits(ways, structure_spec.max_run), first
            )
    elif mode == MISS_REPLAY:
        stats = _replay_structure(build(structure_spec), products, start)
    elif structure_spec is not None:
        raise ValueError(
            f"structure spec has no kernel mode: {structure_spec!r}"
        )
    _whole_run(stats, products, start, first)
    conflicts = int(products.classification(warmup)["conflict"]) if classify else None
    return LevelSummary.of(stats, conflicts), stats


def _count_at_most(depths: np.ndarray, limit: int) -> List[int]:
    """``out[k] = #{d in depths : d <= k - 1}`` for ``k`` in 0..limit.

    One clipped bincount + cumsum instead of ``limit`` comparisons.
    """
    if not len(depths):
        return [0] * (limit + 1)
    clipped = np.minimum(depths, limit)
    cumulative = np.cumsum(np.bincount(clipped, minlength=limit + 1))
    return [0] + [int(cumulative[k - 1]) for k in range(1, limit + 1)]


def entry_sweep(products: LevelProducts, kind: str, max_entries: int):
    """One-pass miss/victim-cache entry sweep (Figures 3-3/3-5) → ``(EntrySweep, LevelStats)``.

    Equivalent to ``max_entries`` independent capacity runs — or the
    interpreter's tracked-depth single run — but the reuse-distance rank
    pass prices every capacity at once: ``hits_by_entries[k]`` is the
    number of lookups whose unbounded LRU depth is below ``k``.  The
    stats are those of the interpreter's tracked structure, which holds
    ``max_entries + 1`` lines.
    """
    from ..experiments.sweeps import EntrySweep

    stats = LevelStats()
    if kind == "miss":
        _, depths = products.lru_depths()
        stats.miss_cache_hits = int(np.count_nonzero(depths <= max_entries))
    else:  # victim
        _, depths = products.victim_depths()
        stats.victim_hits = int(np.count_nonzero(depths <= max_entries))
    sweep = EntrySweep(
        total_misses=len(products.positions),
        conflict_misses=int(products.classification(0)["conflict"]),
        hits_by_entries=_count_at_most(depths, max_entries),
    )
    return sweep, _whole_run(stats, products)


def run_length_sweep(products: LevelProducts, ways: int, max_run: int):
    """Stream-buffer run-length sweep (Figure 4-4 style) → ``(RunLengthSweep, LevelStats)``.

    The interpreter histograms one unbounded-run simulation: single-way
    buffers read run offsets off the chain scan, multi-way buffers off
    the way-head compare (:meth:`LevelProducts.stream_hits`).  Head-only
    matching makes the result independent of the buffer's entries.
    """
    from ..experiments.sweeps import RunLengthSweep

    _, offsets = products.stream_hits(ways, None)
    stats = LevelStats()
    stats.stream_hits = len(offsets)
    removed = _count_at_most(offsets - 1, max_run)
    sweep = RunLengthSweep(total_misses=len(products.positions), removed_by_run=removed)
    return sweep, _whole_run(stats, products)


# -- engine job bodies ----------------------------------------------------------


def _observed(system, operation, *args):
    """A spec point's cached products → *operation* → one level observation.

    The observation matches the interpreter path's (``observe_level_run``
    per point), whether the products were built or read.
    """
    scope = _telemetry_scope()
    started = perf_counter() if scope is not None else 0.0
    products = level_products(system.trace.trace(), system.side, system.cache_config)
    answer, stats = operation(products, *args)
    if scope is not None:
        scope.observe_level_run(stats, perf_counter() - started)
    return answer


def simulate_assist_summary(system):
    """Vectorized structure-carrying :class:`~repro.experiments.engine.LevelJob` body."""
    return _observed(system, level_point, system.structure, system.classify, system.warmup)


def entry_sweep_summary(system, kind: str, max_entries: int):
    """Vectorized :class:`~repro.experiments.engine.EntrySweepJob` body."""
    return _observed(system, entry_sweep, kind, max_entries)


def run_length_sweep_summary(system, ways: int, entries: int, max_run: int):
    """Vectorized :class:`~repro.experiments.engine.RunSweepJob` body."""
    return _observed(system, run_length_sweep, ways, max_run)
