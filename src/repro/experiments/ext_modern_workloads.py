"""Extension: the paper's question re-asked on modern access classes.

The paper's victim-cache and stream-buffer results (Figures 3-5, 3-8)
come from six 1990-era program traces.  A cache in front of millions of
users sees different streams: Zipf-popular key lookups, hot/cold
working sets, bursty background scans, pointer chasing through linked
structures — and, above all, *mixtures* of tenants with skewed
popularity and phase churn.  This experiment replays the paper's
comparison — direct-mapped baseline vs. a 4-entry victim cache vs. a
4-way stream buffer — across one parameterized workload spec per access
class plus a multi-tenant mix, reporting per class:

* the baseline data-cache miss rate;
* percent of misses removed and the absolute miss-rate delta for each
  helper structure.

Every row is three :class:`~repro.experiments.engine.LevelJob` points
carrying the full workload spec, so the batch parallelizes under
``--jobs``/``REPRO_JOBS``, hits the result store warm, and can be
re-asked through ``repro-serve`` — the same path as every registry
benchmark.  Expected shape: the victim cache wins on conflict-prone
classes (hotspot, zipfian, the mix), the stream buffer on sequential
and bursty streams, and neither helps much on pure pointer chasing —
the paper's §5 "programs with many references to linked structures"
caveat, restated on modern traffic.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..common.config import CacheConfig
from ..specs import (
    BurstySpec,
    HotspotSpec,
    MultiWayStreamBufferSpec,
    PointerChaseSpec,
    SequentialSpec,
    SystemSpec,
    TenantMixSpec,
    UniformRandomSpec,
    VictimCacheSpec,
    WorkloadSpec,
    ZipfianSpec,
)
from .base import TableResult
from .engine import LevelJob, run_jobs

__all__ = ["run", "default_workloads", "CONFIG", "STRUCTURES"]

CONFIG = CacheConfig(4096, 16)

#: The paper's two §3 winners at their headline sizes.
STRUCTURES = [
    ("vc4", VictimCacheSpec(entries=4)),
    ("sb4x4", MultiWayStreamBufferSpec(ways=4, entries=4)),
]

#: Reference count per access class: large enough for stable miss
#: rates, small enough that the full table simulates in seconds.
_LENGTH = 30_000


def default_workloads(scale: Optional[int] = None, seed: int = 0) -> List[WorkloadSpec]:
    """One default-parameter spec per access class, plus the tenant mix.

    *scale* overrides the per-class reference count; *seed* re-rolls
    every stream (each class stays deterministic per seed).
    """
    length = scale if scale is not None else _LENGTH
    classes: List[WorkloadSpec] = [
        SequentialSpec(length=length, seed=seed),
        UniformRandomSpec(length=length, seed=seed),
        ZipfianSpec(length=length, seed=seed),
        HotspotSpec(length=length, seed=seed),
        BurstySpec(length=length, seed=seed),
        PointerChaseSpec(length=length, seed=seed),
    ]
    tenants = tuple(
        type(spec)(length=length, seed=seed)
        for spec in (ZipfianSpec(), HotspotSpec(), SequentialSpec(), PointerChaseSpec())
    )
    classes.append(
        TenantMixSpec(tenants=tenants, length=length, phase_length=max(1, length // 4),
                      seed=seed)
    )
    return classes


def _jobs_for(workloads: Sequence[WorkloadSpec]) -> List[LevelJob]:
    jobs: List[LevelJob] = []
    for workload in workloads:
        for structure in [None] + [spec for _, spec in STRUCTURES]:
            jobs.append(
                LevelJob(SystemSpec.for_level(workload, CONFIG, side="d", structure=structure))
            )
    return jobs


def run(
    scale: Optional[int] = None,
    seed: int = 0,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
) -> TableResult:
    """Victim cache vs. stream buffer across the modern access classes.

    Pass *workloads* (e.g. via ``--workload``) to replay the comparison
    on any spec list; default is one spec per access class plus a
    four-tenant mix at *scale*.
    """
    specs = list(workloads) if workloads else default_workloads(scale=scale, seed=seed)
    summaries = run_jobs(_jobs_for(specs))
    per_point = 1 + len(STRUCTURES)
    rows: List[List[object]] = []
    for index, workload in enumerate(specs):
        base, *helped = summaries[index * per_point: (index + 1) * per_point]
        row: List[object] = [workload.label, base.miss_rate]
        for summary in helped:
            row.append(summary.percent_removed)
            # Post-structure miss rate (misses that still go to the next
            # level) against the bare baseline: negative is better.
            row.append(summary.effective_miss_rate - base.miss_rate)
        rows.append(row)
    headers = ["workload", "base d-miss"]
    for label, _ in STRUCTURES:
        headers.append(f"{label} removed%")
        headers.append(f"{label} Δmiss")
    return TableResult(
        experiment_id="ext_modern_workloads",
        title="Victim cache & stream buffer on modern access classes (4KB/16B d-cache)",
        headers=headers,
        rows=rows,
        notes=[
            "Each row replays one declarative workload spec on the data side: "
            "direct-mapped baseline, +4-entry victim cache, +4-way/4-entry "
            "stream buffer.",
            "removed% = demand misses removed by the structure; Δmiss = "
            "change in demand miss rate vs. the baseline (negative is better).",
            "Every point is an engine job carrying the full workload spec — "
            "it parallelizes, memoizes in the result store, and is servable "
            "by repro-serve.",
        ],
    )
