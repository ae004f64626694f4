"""Declarative spec layer: frozen, picklable descriptions of runs.

``StructureSpec`` variants name every helper structure the paper
studies (miss cache, victim cache, stream buffers, stride buffers,
composites); ``WorkloadSpec`` variants name every reference stream —
registry traces (``NamedWorkloadSpec``),
parameterized access patterns (Zipfian, hotspot, bursty, pointer-chase,
sequential, uniform-random), and the multi-tenant ``TenantMixSpec``
mixer; ``SystemSpec`` binds workload +
:class:`~repro.common.config.SystemConfig` + structure into one value
that fully determines a simulation point.  Structures flow one way:
``build`` turns a spec into the live structure it names, and nothing
turns a live structure back into a spec.  Canonical JSON makes specs
the stable currency of the parallel engine, the result store, the serve
daemon, and telemetry records.
"""

from .structures import (
    CompositeSpec,
    MissCacheSpec,
    MultiWayStreamBufferSpec,
    MultiWayStrideBufferSpec,
    SpecError,
    StreamBufferSpec,
    StrideBufferSpec,
    StructureSpec,
    VictimCacheSpec,
    build,
    parse_structure_code,
    register_structure,
    registered_kinds,
    structure_from_dict,
)
from .system import SystemSpec, spec_hash
from .workloads import (
    WORKLOAD_PRESETS,
    BurstySpec,
    HotspotSpec,
    NamedWorkloadSpec,
    PointerChaseSpec,
    SequentialSpec,
    TenantMixSpec,
    UniformRandomSpec,
    WorkloadSpec,
    ZipfianSpec,
    parse_workload,
    register_workload,
    registered_workload_kinds,
    unkeyed_reason,
    workload_from_dict,
    workload_from_json,
    workload_spec_of,
)

__all__ = [
    "SpecError",
    "StructureSpec",
    "MissCacheSpec",
    "VictimCacheSpec",
    "StreamBufferSpec",
    "MultiWayStreamBufferSpec",
    "StrideBufferSpec",
    "MultiWayStrideBufferSpec",
    "CompositeSpec",
    "register_structure",
    "registered_kinds",
    "build",
    "structure_from_dict",
    "parse_structure_code",
    "WorkloadSpec",
    "NamedWorkloadSpec",
    "SequentialSpec",
    "UniformRandomSpec",
    "ZipfianSpec",
    "HotspotSpec",
    "BurstySpec",
    "PointerChaseSpec",
    "TenantMixSpec",
    "register_workload",
    "registered_workload_kinds",
    "workload_from_dict",
    "workload_from_json",
    "workload_spec_of",
    "unkeyed_reason",
    "parse_workload",
    "WORKLOAD_PRESETS",
    "SystemSpec",
    "spec_hash",
]
