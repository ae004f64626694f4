"""repro — a reproduction of Jouppi's victim-cache / stream-buffer paper.

"Improving Direct-Mapped Cache Performance by the Addition of a Small
Fully-Associative Cache and Prefetch Buffers" proposed three structures
behind a direct-mapped first-level cache: miss caches, victim caches, and
(multi-way) stream buffers.  This package provides:

* the structures themselves (:mod:`repro.buffers`);
* the cache models and two-level hierarchy simulator they plug into
  (:mod:`repro.caches`, :mod:`repro.hierarchy`);
* 3C miss classification (:mod:`repro.classify`);
* the six synthetic benchmark workloads standing in for the paper's
  proprietary traces (:mod:`repro.traces`);
* one experiment module per table/figure of the paper
  (:mod:`repro.experiments`).

Quickstart::

    from repro import MemorySystem, VictimCache, build_trace

    trace = build_trace("ccom").materialize()
    system = MemorySystem(daugmentation=VictimCache(entries=4))
    result = system.run(trace)
    print(f"data miss rate {result.dmiss_rate:.3f}, "
          f"{result.dstats.removed_misses} misses removed by the victim cache")
"""

from .buffers import (
    CompositeAugmentation,
    L1Augmentation,
    MissCache,
    MultiWayStreamBuffer,
    MultiWayStrideBuffer,
    NullAugmentation,
    PrefetchingCache,
    PrefetchScheme,
    StreamBuffer,
    StrideStreamBuffer,
    VictimCache,
)
from .caches import (
    Cache,
    DirectMappedCache,
    FullyAssociativeCache,
    ReplacementPolicy,
    SetAssociativeCache,
)
from .classify import MissClassifier
from .common import (
    Access,
    AccessKind,
    AccessOutcome,
    CacheConfig,
    MissKind,
    SystemConfig,
    TimingConfig,
    baseline_system,
)
from .hierarchy import (
    CacheLevel,
    LevelStats,
    MemorySystem,
    SystemPerformance,
    SystemResult,
    evaluate_performance,
)
from . import telemetry
from .specs import (
    CompositeSpec,
    MissCacheSpec,
    MultiWayStreamBufferSpec,
    MultiWayStrideBufferSpec,
    SpecError,
    StreamBufferSpec,
    StrideBufferSpec,
    StructureSpec,
    SystemSpec,
    VictimCacheSpec,
    build,
    spec_hash,
)
from .traces import (
    BENCHMARK_NAMES,
    CustomWorkload,
    MaterializedTrace,
    Trace,
    build_suite,
    build_trace,
    get_workload,
    list_workloads,
    load_trace,
    save_trace,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # common
    "Access",
    "AccessKind",
    "AccessOutcome",
    "MissKind",
    "CacheConfig",
    "SystemConfig",
    "TimingConfig",
    "baseline_system",
    # caches
    "Cache",
    "DirectMappedCache",
    "FullyAssociativeCache",
    "ReplacementPolicy",
    "SetAssociativeCache",
    # buffers
    "L1Augmentation",
    "NullAugmentation",
    "CompositeAugmentation",
    "MissCache",
    "VictimCache",
    "StreamBuffer",
    "MultiWayStreamBuffer",
    "StrideStreamBuffer",
    "MultiWayStrideBuffer",
    "PrefetchingCache",
    "PrefetchScheme",
    # classification
    "MissClassifier",
    # hierarchy
    "CacheLevel",
    "LevelStats",
    "MemorySystem",
    "SystemResult",
    "SystemPerformance",
    "evaluate_performance",
    # specs
    "SpecError",
    "StructureSpec",
    "MissCacheSpec",
    "VictimCacheSpec",
    "StreamBufferSpec",
    "MultiWayStreamBufferSpec",
    "StrideBufferSpec",
    "MultiWayStrideBufferSpec",
    "CompositeSpec",
    "SystemSpec",
    "build",
    "spec_hash",
    # telemetry
    "telemetry",
    # traces
    "CustomWorkload",
    "Trace",
    "MaterializedTrace",
    "BENCHMARK_NAMES",
    "build_trace",
    "build_suite",
    "get_workload",
    "list_workloads",
    "load_trace",
    "save_trace",
]
