"""§5 extension: non-unit and mixed stride access patterns.

The paper's §4.1 caveat — "if an array is accessed in the non-unit-
stride direction ... a stream buffer as presented here will be of little
benefit" — and its §5 future-work item are answered together: the
*matcol* extension workload walks a row-major matrix down its columns
(and mixes strides), and the stride-detecting stream buffer of
:mod:`repro.buffers.stride` is compared against the paper's sequential
buffers on it and, as a no-regression check, on the paper's own
unit-stride suite.
"""

from __future__ import annotations

from typing import Optional

from ..common.config import CacheConfig
from ..common.stats import percent
from ..specs import (
    MultiWayStreamBufferSpec,
    MultiWayStrideBufferSpec,
    NamedWorkloadSpec,
    StreamBufferSpec,
    StrideBufferSpec,
)
from .base import TableResult, run_point_columns
from .workloads import suite

__all__ = ["run"]

CONFIG = CacheConfig(4096, 16)

_BUFFERS = [
    ("seq 1-way", StreamBufferSpec(4)),
    ("seq 4-way", MultiWayStreamBufferSpec(4, 4)),
    ("stride 1-way", StrideBufferSpec(4)),
    ("stride 4-way", MultiWayStrideBufferSpec(4, 4)),
]


def run(scale: Optional[int] = None, seed: int = 0) -> TableResult:
    traces = suite(scale, seed)
    matcol_scale = scale if scale is not None else 60_000
    workloads = [NamedWorkloadSpec("matcol", matcol_scale, seed)] + traces
    names = ["matcol (non-unit)"] + [trace.name for trace in traces]
    columns = run_point_columns(workloads, CONFIG, [None] + [b for _, b in _BUFFERS])
    rows = [
        [name, baseline.demand_misses]
        + [round(percent(r.removed_misses, baseline.demand_misses), 1) for r in results]
        for name, baseline, *results in zip(names, *columns)
    ]
    return TableResult(
        experiment_id="ext_stride",
        title="Extension (SS5): stride-detecting vs. sequential stream buffers, data side",
        headers=["program", "D misses"] + [f"{label} %rm" for label, _ in _BUFFERS],
        rows=rows,
        notes=[
            "matcol walks a row-major matrix by columns: sequential buffers see",
            "nothing sequential, stride detection recovers nearly all of it;",
            "on the paper's unit-stride suite the stride buffer is a near no-op change",
        ],
    )
