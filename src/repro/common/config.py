"""Configuration dataclasses for the baseline system of the paper (§2).

The paper's baseline: a 1,000-MIPS-class processor with on-chip 4KB
direct-mapped split instruction and data caches with 16-byte lines, a
three-stage pipelined 1MB direct-mapped second-level cache with 128-byte
lines, a 24-instruction-time L1 miss penalty and a 320-instruction-time
L2 miss penalty.  :func:`baseline_system` returns exactly that
configuration; experiments derive variants with ``dataclasses.replace``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, Mapping

from .address import log2_exact
from .errors import ConfigurationError

__all__ = [
    "CacheConfig",
    "TimingConfig",
    "SystemConfig",
    "baseline_system",
    "BASELINE_L1_SIZE",
    "BASELINE_L1_LINE",
    "BASELINE_L2_SIZE",
    "BASELINE_L2_LINE",
    "BASELINE_L1_MISS_PENALTY",
    "BASELINE_L2_MISS_PENALTY",
]

BASELINE_L1_SIZE = 4 * 1024
BASELINE_L1_LINE = 16
BASELINE_L2_SIZE = 1024 * 1024
BASELINE_L2_LINE = 128
BASELINE_L1_MISS_PENALTY = 24
BASELINE_L2_MISS_PENALTY = 320


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache: total size and line size, both powers of two."""

    size_bytes: int
    line_size: int

    def __post_init__(self) -> None:
        log2_exact(self.size_bytes, "size_bytes")
        log2_exact(self.line_size, "line_size")
        if self.line_size > self.size_bytes:
            raise ConfigurationError(
                f"line_size {self.line_size} exceeds cache size {self.size_bytes}"
            )

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def offset_bits(self) -> int:
        return log2_exact(self.line_size, "line_size")

    def with_size(self, size_bytes: int) -> "CacheConfig":
        return replace(self, size_bytes=size_bytes)

    def with_line_size(self, line_size: int) -> "CacheConfig":
        return replace(self, line_size=line_size)

    def as_dict(self) -> Dict[str, int]:
        return {"size_bytes": self.size_bytes, "line_size": self.line_size}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CacheConfig":
        return cls(size_bytes=payload["size_bytes"], line_size=payload["line_size"])


@dataclass(frozen=True)
class TimingConfig:
    """Instruction-time costs of the memory hierarchy (paper §2, §5).

    All costs are in *instruction times* — the paper normalises every
    latency to the instruction issue rate, which is what lets it speak of
    a 24-instruction-time first-level miss on a 1,000 MIPS machine.
    """

    #: Full penalty of an L1 miss serviced by the L2 cache.
    l1_miss_penalty: int = BASELINE_L1_MISS_PENALTY
    #: Additional penalty when the access also misses in the L2 cache.
    l2_miss_penalty: int = BASELINE_L2_MISS_PENALTY
    #: Cost of an L1 miss removed by a miss cache / victim cache / stream
    #: buffer (the paper's "one cycle miss penalty").
    removed_miss_penalty: int = 1
    #: Pipelined L2 interface: a new request can issue every N cycles.
    l2_issue_interval: int = 4
    #: Latency of one pipelined L2 line fill, used for stream-buffer
    #: availability modelling (the paper's 12-cycle example in §4.1).
    l2_fill_latency: int = 12

    def __post_init__(self) -> None:
        for name in ("l1_miss_penalty", "l2_miss_penalty", "removed_miss_penalty"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.l2_issue_interval < 1:
            raise ConfigurationError("l2_issue_interval must be at least 1")
        if self.l2_fill_latency < 1:
            raise ConfigurationError("l2_fill_latency must be at least 1")

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TimingConfig":
        return cls(**{f.name: payload[f.name] for f in fields(cls) if f.name in payload})


@dataclass(frozen=True)
class SystemConfig:
    """The full two-level baseline system of Figure 2-1."""

    icache: CacheConfig = field(default_factory=lambda: CacheConfig(BASELINE_L1_SIZE, BASELINE_L1_LINE))
    dcache: CacheConfig = field(default_factory=lambda: CacheConfig(BASELINE_L1_SIZE, BASELINE_L1_LINE))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(BASELINE_L2_SIZE, BASELINE_L2_LINE))
    timing: TimingConfig = field(default_factory=TimingConfig)

    def __post_init__(self) -> None:
        if self.l2.line_size < self.icache.line_size or self.l2.line_size < self.dcache.line_size:
            raise ConfigurationError("L2 line size must be >= L1 line sizes")

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        return {
            "icache": self.icache.as_dict(),
            "dcache": self.dcache.as_dict(),
            "l2": self.l2.as_dict(),
            "timing": self.timing.as_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SystemConfig":
        return cls(
            icache=CacheConfig.from_dict(payload["icache"]),
            dcache=CacheConfig.from_dict(payload["dcache"]),
            l2=CacheConfig.from_dict(payload["l2"]),
            timing=TimingConfig.from_dict(payload["timing"]),
        )


def baseline_system() -> SystemConfig:
    """The exact baseline parameters assumed throughout the paper.

    One shared value per process: the config is frozen all the way down,
    so callers derive variants with ``dataclasses.replace``.
    """
    return _BASELINE


_BASELINE = SystemConfig()
