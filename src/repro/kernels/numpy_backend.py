"""Vectorized whole-trace simulation kernels (numpy backend).

The reference simulator is exact but interpreted: one Python-level
dispatch per memory reference.  For the *bare* direct-mapped structures
— a single cache level, or the split-L1/L2 baseline system — the entire
replay is a pure function of the reference stream, so it can be computed
in a handful of whole-trace array passes instead:

* **Direct-mapped hit resolution** (:func:`direct_mapped_hit_mask`) —
  group references by cache slot with one stable argsort of the slot
  index; within a slot's subsequence a reference hits iff the previous
  occupant of its slot is the same line, which after sorting is a single
  adjacent-element compare.
* **3C miss classification** (:func:`classify_misses`) — the classifier's
  fully-associative LRU shadow hits iff a reference's *reuse distance*
  (distinct lines referenced since its previous occurrence) is below the
  shadow capacity.  Previous occurrences come from one sort of packed
  line-and-position keys (:func:`prev_occurrence`); reuse distances
  reduce to a rank-counting problem (:func:`_rank_left_leq`): a prefix
  sum for the first occurrences, which every query counts, and a merge
  tree of block sorts in O(n log n) for the rest.

The two job bodies here, the bare level point and the bare split-L1/L2
system, read each L1 side's direct-mapped pass from the products the
trace caches per side and geometry
(:func:`repro.kernels.assist.level_products`); only the system's L2
pass is computed here.

Kernels read a materialized trace through its cached zero-copy views
(:meth:`~repro.traces.trace.MaterializedTrace.stream_array` and
:meth:`~repro.traces.trace.MaterializedTrace.as_arrays`), which are int64:
a trace holding an address of 2**63 or more raises
:class:`~repro.common.errors.AddressRangeError` there instead of
reaching a kernel as wrapped negative lines.

Equivalence with the interpreter — every counter of
:class:`~repro.hierarchy.level.LevelStats`, every classification bucket,
warm-up semantics included — is pinned by ``tests/test_kernels.py``.
Callers normally go through :func:`repro.kernels.select_backend` rather
than importing this module (which requires numpy) directly.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional

import numpy as np

from ..common.config import SystemConfig, baseline_system
from ..common.stats import percent
from ..common.types import AccessKind
from ..hierarchy.level import LevelStats
from ..hierarchy.system import L2Stats, SystemResult
from ..telemetry.core import current as _telemetry_scope

__all__ = [
    "direct_mapped_hit_mask",
    "prev_occurrence",
    "lru_shadow_hit_mask",
    "classify_misses",
    "simulate_level_summary",
    "simulate_system",
]

_INT64 = np.int64


def _index_dtype(num_lines: int):
    """Smallest dtype holding a slot index — radix-sorting 2-byte keys is
    ~2.4x faster than argsorting the int64 lines they came from."""
    if num_lines <= 1 << 16:
        return np.uint16
    if num_lines <= 1 << 32:
        return np.uint32
    return _INT64


# -- direct-mapped resolution -------------------------------------------------


def direct_mapped_hit_mask(
    lines: np.ndarray, num_lines: int, warm: Optional[np.ndarray] = None
) -> np.ndarray:
    """Hit/miss of every reference against one direct-mapped tag array.

    A direct-mapped slot holds exactly the last line that mapped to it,
    so a reference hits iff the nearest earlier reference to the same
    slot used the same line.  One stable argsort of the slot indices
    makes each slot's references adjacent (still in trace order), turning
    that into an adjacent-element compare, scattered back to trace order.

    *warm* optionally gives one initially-resident line per valid slot;
    the warm lines are prepended as pseudo-references and dropped from
    the returned mask, so a warm-started cache is the same pass over a
    slightly longer input.
    """
    if warm is not None and len(warm):
        full = np.concatenate((warm.astype(_INT64, copy=False), lines))
        prefix = len(warm)
    else:
        full = lines
        prefix = 0
    hits = _slot_pass(full, num_lines)[0]
    return hits[prefix:] if prefix else hits


def _slot_pass(lines: np.ndarray, num_lines: int):
    """One stable sort by slot: ``(hits, order, sorted_lines, same_slot)``.

    ``same_slot[k]`` says sorted reference ``k`` is the occupant that
    reference ``k + 1`` finds; a reference hits iff it is the same line.
    """
    index = (lines & (num_lines - 1)).astype(_index_dtype(num_lines), copy=False)
    order = np.argsort(index, kind="stable")
    sorted_index = index[order]
    sorted_lines = lines[order]
    same_slot = sorted_index[1:] == sorted_index[:-1]
    hit_sorted = np.zeros(len(lines), dtype=bool)
    hit_sorted[1:] = same_slot & (sorted_lines[1:] == sorted_lines[:-1])
    hits = np.empty(len(lines), dtype=bool)
    hits[order] = hit_sorted
    return hits, order, sorted_lines, same_slot


def _final_residents(lines: np.ndarray, num_lines: int) -> np.ndarray:
    """Resident line per slot after filling *lines* in order (last one wins)."""
    if not len(lines):
        return lines[:0]
    _, _, sorted_lines, same_slot = _slot_pass(lines, num_lines)
    return sorted_lines[np.append(~same_slot, True)]


# -- LRU shadow / 3C classification -------------------------------------------


def prev_occurrence(lines: np.ndarray) -> np.ndarray:
    """Position of each reference's previous reference to the same line.

    ``-1`` marks a line's first occurrence.  Same trick as the hit mask,
    grouping by line value instead of slot index, with one plain (several
    times faster) sort of ``(line - min) << bits | position`` keys in
    place of a stable argsort, which stays for lines too far apart for
    the key to fit in 63 bits.
    """
    n = len(lines)
    prev = np.full(n, -1, dtype=_INT64)
    if n < 2:
        return prev
    low = int(lines.min())
    bits = (n - 1).bit_length()
    if (int(lines.max()) - low).bit_length() + bits <= 63:
        packed = np.sort(((lines - low) << bits) | np.arange(n, dtype=_INT64))
        order = packed & ((1 << bits) - 1)
        grouped = packed >> bits
    else:
        order = np.argsort(lines, kind="stable")
        grouped = lines[order]
    same = grouped[1:] == grouped[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _rank_left_leq(values: np.ndarray, queries: Optional[np.ndarray] = None) -> np.ndarray:
    """``rank[i] = #{j < i : values[j] <= values[i]}`` for non-negative ints,
    at the *queries* positions (all when None); zero elsewhere.

    Only what a query can count reaches the merge tree
    (:func:`_merge_tree_rank`).  Every query counts the elements at or
    below the least queried value (for the LRU callers' ``prev + 1``,
    the first occurrences): one exclusive prefix sum, the whole answer
    of a query at that value.  No query counts an element above the
    greatest queried value or after the last query: those drop out.
    The tree packs a value beside a position in 63 bits, which stream
    positions (the callers' ``prev + 1`` and matched inserts) always fit.
    """
    n = len(values)
    rank = np.zeros(n, dtype=_INT64)
    if n < 2:
        return rank
    if queries is None:
        queries = np.arange(n, dtype=_INT64)
    elif not len(queries):
        return rank
    asked = values[queries]
    low, high = int(asked.min()), int(asked.max())
    below = values <= low
    rank[queries] = (np.cumsum(below) - below)[queries]
    if high > low:
        assert high.bit_length() + (n - 1).bit_length() <= 63, "values too wide to pack"
        scope = values[: int(queries.max()) + 1]
        kept = (scope > low) & (scope <= high)
        ranked = queries[asked > low]
        at = (np.cumsum(kept) - 1)[ranked]  # each query's index among the kept
        rank[ranked] += _merge_tree_rank(scope[kept], at)
    return rank


def _merge_tree_rank(values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """:func:`_rank_left_leq` over every element, one count per query.

    Every pair ``j < i`` falls in exactly one level of a merge tree where
    ``j`` sits in the left half and ``i`` in the right half of the same
    block, so summing per-level counts gives the full rank.  Each level
    sorts its blocks (block-wise ``np.sort``) of ``value << bits |
    position`` keys, so ties put the left half first.  An element of a
    right half then has as many left-half elements at or below it as its
    index in the merged block exceeds its index in its own sorted half.
    The last block may be short: nothing is padded.  O(n log n) total,
    no sequential state.  Values must be below ``2 ** (63 - bits)``.
    """
    n = len(values)
    counts = np.zeros(len(queries), dtype=_INT64)
    if n < 2:
        return counts
    bits = (n - 1).bit_length()
    slots = np.arange(n, dtype=_INT64)
    keys = (values << bits) | slots
    own = np.zeros(n, dtype=_INT64)  # each element's index in its sorted half
    merged = np.empty(n, dtype=_INT64)
    width = 1
    while width < n:
        block = width << 1
        full = n - n % block
        keys[:full] = np.sort(keys[:full].reshape(-1, block), axis=1).ravel()
        keys[full:] = np.sort(keys[full:])
        merged[keys & ((1 << bits) - 1)] = slots & (block - 1)
        right = (queries & width) != 0
        at = queries[right]
        counts[right] += merged[at] - own[at]
        own, merged = merged, own
        width = block
    return counts


def _shadow_hits(
    lines: np.ndarray,
    prev: np.ndarray,
    capacity: int,
    queries: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Hit mask of the fully-associative LRU shadow of size *capacity*.

    LRU keeps lines in recency order, so a reference hits iff fewer than
    *capacity* distinct lines were referenced since its previous
    occurrence ``p``.  That count is ``rank - (p + 1)``: each distinct
    line in the window ``(p, i)`` contributes exactly one position ``j``
    there with ``prev[j] <= p`` (its first occurrence inside the
    window), and every ``j <= p`` satisfies ``prev[j] <= p`` trivially.

    With *queries*, the mask is only valid at the queried positions —
    classification uses this to pay the rank pass for the misses it
    actually has to label, not every reference.  A window ``(p, i)``
    shorter than *capacity* cannot hold *capacity* distinct lines, so
    only the queries with longer windows are ranked; the rest hit.
    """
    seen = prev >= 0
    if len(lines) - int(np.count_nonzero(seen)) <= capacity:
        # Footprint fits: the shadow never evicts, every revisit hits.
        return seen
    if queries is None:
        queries = np.flatnonzero(seen)
    ranked = queries[queries - prev[queries] > capacity]
    # Unranked positions read a rank of 0, so a negative distance: a hit.
    distinct_since = _rank_left_leq(prev + 1, ranked) - (prev + 1)
    return seen & (distinct_since < capacity)


def lru_shadow_hit_mask(lines: np.ndarray, capacity: int) -> np.ndarray:
    """Hit mask of a fully-associative LRU cache over the whole stream."""
    return _shadow_hits(lines, prev_occurrence(lines), capacity)


def _effective_warmup(warmup: int, n: int) -> int:
    """The measurement window start, replicating ``run_level`` exactly.

    The interpreter zeroes counters *when* the warm-up boundary is
    crossed — a warm-up longer than the stream never fires, so the full
    stream is measured; a warm-up equal to the stream zeroes everything.
    """
    return warmup if 0 < warmup <= n else 0


def classify_misses(
    lines: np.ndarray, hits: np.ndarray, capacity: int, warmup: int = 0
) -> Dict[str, float]:
    """3C classification counts, in the exact shape of
    :meth:`~repro.classify.miss_classifier.MissClassifier.summary`.

    Flags (first reference, shadow hit) are computed over the *full*
    stream while counting starts at the warm-up boundary — matching the
    classifier, whose ``reset_counts`` keeps shadow and first-reference
    state so warm-touched lines are not reclassified as compulsory.
    """
    n = len(lines)
    prev = prev_occurrence(lines)
    start = _effective_warmup(warmup, n)
    # Shadow verdicts only matter where a counted miss needs the
    # conflict/capacity split: non-first misses inside the window.
    candidates = np.nonzero((~hits) & (prev >= 0))[0]
    queries = candidates[candidates >= start].astype(_INT64, copy=False)
    shadow_full = _shadow_hits(lines, prev, capacity, queries)
    window = slice(start, None)
    miss = ~hits[window]
    first = prev[window] < 0
    shadow = shadow_full[window]
    misses = int(np.count_nonzero(miss))
    compulsory = int(np.count_nonzero(miss & first))
    conflict = int(np.count_nonzero(miss & ~first & shadow))
    return {
        "accesses": len(miss),
        "misses": misses,
        "compulsory": compulsory,
        "capacity": misses - compulsory - conflict,
        "conflict": conflict,
        "coherence": 0,
        "percent_conflict": percent(conflict, misses),
    }


# -- whole-run kernels --------------------------------------------------------


def simulate_level_summary(system):
    """Execute one structure-free :class:`LevelJob` spec point vectorized.

    Cached products → :func:`repro.kernels.assist.level_point` (the bare
    level) → one telemetry observation, exactly like the assist body.
    """
    from .assist import _observed, level_point

    return _observed(system, level_point, None, system.classify, system.warmup)


def simulate_system(
    trace,
    config: Optional[SystemConfig] = None,
    prewarm_l2: bool = False,
) -> SystemResult:
    """Vectorized :meth:`MemorySystem.run` for the augmentation-free system.

    Each L1 side's misses come from the products its trace caches per
    side and geometry (:func:`repro.kernels.assist.level_products`, the
    same pass 1 the level jobs read).  They are scattered back into trace
    order to form the L2 demand stream, and the L2 pass runs the
    direct-mapped resolution at L2 geometry.  ``prewarm_l2`` starts the
    L2 with the trace's footprint resident (the interpreter's
    :meth:`~repro.hierarchy.system.MemorySystem.prewarm_l2` steady-state
    model), expressed as warm pseudo-references.  *trace* must be
    materialized (sized, repeatable).
    """
    from .assist import level_products

    config = config if config is not None else baseline_system()
    scope = _telemetry_scope()
    started = perf_counter() if scope is not None else 0.0
    kinds, addresses = trace.as_arrays()
    is_ifetch = kinds == int(AccessKind.IFETCH)
    iproducts = level_products(trace, "i", config.icache)
    dproducts = level_products(trace, "d", config.dcache)

    # L2 sees every L1 demand miss, in trace order: map each side's miss
    # positions back to trace positions and select.
    missed = np.zeros(len(addresses), dtype=bool)
    missed[np.flatnonzero(is_ifetch)[iproducts.positions]] = True
    missed[np.flatnonzero(~is_ifetch)[dproducts.positions]] = True
    l2_all = addresses >> config.l2.offset_bits
    warm = (
        _final_residents(l2_all, config.l2.num_lines) if prewarm_l2 else None
    )
    l2_demand = l2_all[missed]
    l2_hits = direct_mapped_hit_mask(l2_demand, config.l2.num_lines, warm=warm)

    side_stats = []
    for products in (iproducts, dproducts):
        stats = LevelStats()
        stats.accesses = products.length
        stats.misses_to_next_level = len(products.positions)
        stats.hits = stats.accesses - stats.misses_to_next_level
        side_stats.append(stats)
    istats, dstats = side_stats
    l2stats = L2Stats()
    l2stats.demand_accesses = len(l2_demand)
    l2stats.demand_misses = len(l2_demand) - int(np.count_nonzero(l2_hits))

    result = SystemResult(
        instructions=istats.accesses,
        data_references=dstats.accesses,
        istats=istats,
        dstats=dstats,
        l2stats=l2stats,
    )
    if scope is not None:
        scope.observe_system_run(result, perf_counter() - started)
    return result
