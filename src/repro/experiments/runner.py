"""Low-level simulation drivers shared by the experiment modules.

Most of the paper's figures treat one cache side (instruction or data)
in isolation, so the workhorse here is :func:`run_level`: replay one
side's byte-address stream through a single :class:`CacheLevel`.  The
full-system experiments (Figures 2-2 and 5-1) run as engine jobs
instead (:class:`~repro.experiments.engine.SystemJob`).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional, Sequence

from ..buffers.base import L1Augmentation
from ..caches.base import Cache
from ..common.config import CacheConfig
from ..hierarchy.level import CacheLevel
from ..telemetry.core import current as _telemetry_scope

__all__ = ["LevelRun", "run_level", "count_misses"]


@dataclass
class LevelRun:
    """Everything one single-level replay produces."""

    level: CacheLevel

    @property
    def stats(self):
        return self.level.stats

    @property
    def classifier(self):
        return self.level.classifier

    @property
    def augmentation(self):
        return self.level.augmentation

    @property
    def misses(self) -> int:
        return self.level.stats.demand_misses

    @property
    def removed(self) -> int:
        return self.level.stats.removed_misses

    @property
    def conflicts(self) -> int:
        if self.level.classifier is None:
            raise ValueError("run_level(..., classify=True) required for conflicts")
        return self.level.classifier.conflict_misses


def run_level(
    byte_addresses: Sequence[int],
    config: CacheConfig,
    augmentation: Optional[L1Augmentation] = None,
    classify: bool = False,
    warmup: int = 0,
) -> LevelRun:
    """Replay one side's byte-address stream through a cache level.

    With ``warmup > 0`` the first *warmup* references are replayed to
    warm the cache (and helper structures, and the classifier's shadow)
    and then the counters are zeroed, so the returned statistics are
    steady-state.  Compulsory classification still honours the warm-up
    prefix — a line first touched during warm-up is not compulsory
    later.
    """
    level = CacheLevel(config, augmentation, classify)
    shift = config.offset_bits
    access = level.access_line
    # Telemetry costs one global read per replay, nothing per reference.
    scope = _telemetry_scope()
    started = perf_counter() if scope is not None else 0.0
    if warmup:
        now = 0
        for address in byte_addresses:
            access(address >> shift, now)
            now += 1
            if now == warmup:
                level.reset_stats()
    else:
        # No warm-up boundary to watch for: the common case gets a loop
        # with nothing in it but the access itself.
        for now, address in enumerate(byte_addresses):
            access(address >> shift, now)
    if scope is not None:
        scope.observe_level_run(level.stats, perf_counter() - started)
    return LevelRun(level)


def count_misses(cache: Cache, byte_addresses: Sequence[int], offset_bits: int) -> int:
    """Misses of a bare tag store over one byte-address stream.

    Each reference looks up its line and fills it on a miss; the
    comparison organisations the kernels do not cover (set- and
    fully-associative arrays) replay this way.
    """
    access = cache.access_and_fill
    misses = 0
    for address in byte_addresses:
        if not access(address >> offset_bits):
            misses += 1
    return misses
