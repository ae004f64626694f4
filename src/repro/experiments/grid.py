"""Design-space grid sweeps.

The paper explores its design space one axis at a time (entries in
Figures 3-3/3-5, cache size in 3-6/4-6, line size in 3-7/4-7).  This
module generalises that: a cartesian sweep over cache sizes, line
sizes, and helper structures, returning a long-format table — the tool
a designer points at their own workload after reading the paper.

::

    from repro.experiments.grid import GridSpec, sweep_grid
    from repro.specs import VictimCacheSpec

    spec = GridSpec(
        cache_sizes_kb=[4, 8, 16],
        line_sizes=[16, 32],
        structures={"none": None, "vc4": VictimCacheSpec(4)},
    )
    table = sweep_grid(traces, spec, side="d")

Structure axis values are declarative
:class:`~repro.specs.StructureSpec` instances (any registered structure,
any options) or None for the bare baseline; every grid point is an
engine job, so it runs on the kernels, fans out over workers, and is
memoized by an active result store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..common.config import CacheConfig
from ..common.errors import ConfigurationError
from ..specs import (
    MultiWayStreamBufferSpec,
    SpecError,
    StreamBufferSpec,
    StructureSpec,
    VictimCacheSpec,
)
from .base import TableResult

__all__ = ["GridSpec", "sweep_grid", "default_structures"]


def default_structures() -> Dict[str, Optional[StructureSpec]]:
    """The paper's §5 shortlist as a ready-made structure axis."""
    return {
        "none": None,
        "vc4": VictimCacheSpec(4),
        "sb1x4": StreamBufferSpec(4),
        "sb4x4": MultiWayStreamBufferSpec(4, 4),
    }


@dataclass
class GridSpec:
    """Axes of a design-space sweep."""

    cache_sizes_kb: Sequence[int] = (4,)
    line_sizes: Sequence[int] = (16,)
    structures: Dict[str, Optional[StructureSpec]] = field(
        default_factory=default_structures
    )
    #: Optional warm-up prefix (references) for steady-state numbers.
    warmup: int = 0

    def __post_init__(self) -> None:
        if not self.cache_sizes_kb or not self.line_sizes or not self.structures:
            raise ConfigurationError("every grid axis needs at least one point")
        for label, value in self.structures.items():
            if value is not None and not isinstance(value, StructureSpec):
                raise SpecError(
                    f"structure {label!r} must be a StructureSpec or None, "
                    f"got {type(value).__name__}"
                )

    @property
    def num_points(self) -> int:
        return len(self.cache_sizes_kb) * len(self.line_sizes) * len(self.structures)


def sweep_grid(
    traces,
    spec: GridSpec,
    side: str = "d",
    experiment_id: str = "grid",
    jobs: Optional[int] = None,
) -> TableResult:
    """Run every grid point for every trace; long-format results.

    Columns: trace, cache KB, line B, structure, miss rate, % removed,
    % reaching the next level.  Suitable for pivoting/plotting by the
    caller; each row is one independent simulation.

    Every point is an engine job: inline at ``jobs=1``, fanned out over
    worker processes with ``jobs > 1`` (or ``REPRO_JOBS``) with
    identical row order and values, and memoized by an active result
    store — a repeated grid re-simulates nothing.  Every trace needs a
    workload spec: a hand-made one raises
    :class:`~repro.common.errors.ConfigurationError`.
    """
    from ..specs import SystemSpec
    from .engine import LevelJob, run_jobs

    job_list = []
    points = []
    for trace in traces:
        for size_kb in spec.cache_sizes_kb:
            for line_size in spec.line_sizes:
                config = CacheConfig(size_kb * 1024, line_size)
                for label, structure in spec.structures.items():
                    system = SystemSpec.for_level(
                        trace, config, side=side, structure=structure, warmup=spec.warmup
                    )
                    job_list.append(LevelJob(system))
                    points.append((trace.name, size_kb, line_size, label))
    summaries = run_jobs(job_list, jobs=jobs)
    rows = [
        [
            name,
            size_kb,
            line_size,
            label,
            round(summary.miss_rate, 4),
            round(summary.percent_removed, 1),
            round(summary.effective_miss_rate, 4),
        ]
        for (name, size_kb, line_size, label), summary in zip(points, summaries)
    ]
    return TableResult(
        experiment_id=experiment_id,
        title=f"design-space grid sweep ({side}-side, {spec.num_points} points/trace)",
        headers=[
            "trace",
            "cache KB",
            "line B",
            "structure",
            "miss rate",
            "% removed",
            "effective rate",
        ],
        rows=rows,
        notes=["long format: one row per (trace, geometry, structure) simulation"],
    )
