"""Set-associative cache with per-set LRU.

The paper argues (citing Hill) that direct-mapped caches beat
set-associative ones once hit *time* is accounted for, and uses
associativity only as the reference point that defines conflict misses.
We provide a general N-way set-associative model so that (a) the
direct-mapped and fully-associative caches fall out as the 1-way and
all-way special cases, which the property tests exploit, and (b) the
ablation experiments can compare a victim cache against simply making
the cache 2-way.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Optional

from ..common.address import log2_exact
from ..common.config import CacheConfig
from ..common.errors import ConfigurationError
from .base import Cache

__all__ = ["SetAssociativeCache"]


class SetAssociativeCache(Cache):
    """An N-way set-associative cache with LRU replacement per set."""

    def __init__(self, config: CacheConfig, ways: int):
        if ways < 1:
            raise ConfigurationError(f"ways must be >= 1, got {ways}")
        if config.num_lines % ways != 0:
            raise ConfigurationError(
                f"{config.num_lines} lines not divisible by {ways} ways"
            )
        self.config = config
        self.ways = ways
        self.num_sets = config.num_lines // ways
        log2_exact(self.num_sets, "number of sets")
        self._set_mask = self.num_sets - 1
        # Each set is an OrderedDict ordered LRU -> MRU.
        self._sets: List["OrderedDict[int, None]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]

    # -- Cache interface --------------------------------------------------

    def probe(self, line_addr: int) -> bool:
        return line_addr in self._sets[line_addr & self._set_mask]

    def access(self, line_addr: int) -> bool:
        target = self._sets[line_addr & self._set_mask]
        if line_addr not in target:
            return False
        target.move_to_end(line_addr)
        return True

    def fill(self, line_addr: int) -> Optional[int]:
        target = self._sets[line_addr & self._set_mask]
        if line_addr in target:
            target.move_to_end(line_addr)
            return None
        victim: Optional[int] = None
        if len(target) >= self.ways:
            victim = next(iter(target))
            del target[victim]
        target[line_addr] = None
        return victim

    def invalidate(self, line_addr: int) -> bool:
        target = self._sets[line_addr & self._set_mask]
        if line_addr in target:
            del target[line_addr]
            return True
        return False

    def resident_lines(self) -> Iterator[int]:
        for cache_set in self._sets:
            yield from cache_set

    def clear(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()

    # -- set-associative specifics -----------------------------------------

    def set_contents_lru_to_mru(self, index: int) -> List[int]:
        """Snapshot of one set ordered LRU first (testing aid)."""
        return list(self._sets[index])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssociativeCache(size={self.config.size_bytes}B, "
            f"line={self.config.line_size}B, ways={self.ways})"
        )
