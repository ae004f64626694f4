"""Run telemetry: counters, structured run records, bench diffs.

Three layers, importable with no dependency on the rest of the package:

* :mod:`repro.telemetry.core` — the active :class:`MetricsScope`.
  Disabled by default; instrumented code checks once per *run* (never
  per simulated reference) whether a scope is active.
* :mod:`repro.telemetry.record` — the schema-versioned per-run
  :class:`RunRecord` emitted as JSON Lines by
  ``repro-experiments --emit-metrics PATH``.
* :mod:`repro.telemetry.bench` — ``repro-bench diff``'s comparison of a
  fresh pytest-benchmark JSON against the committed ``BENCH_core.json``.
"""

from .bench import BenchDelta, BenchDiff, diff_benchmarks, load_benchmark_stats
from .core import (
    FallbackEvent,
    JobBatchStats,
    JobProgress,
    MetricsScope,
    ParallelFallbackWarning,
    activate,
    current,
    deactivate,
    enabled,
    record_fallback,
    scoped,
)
from .record import (
    SCHEMA_VERSION,
    RunRecord,
    append_record,
    build_run_record,
    config_hash,
    read_records,
    validate_record,
)

__all__ = [
    "MetricsScope",
    "FallbackEvent",
    "JobBatchStats",
    "JobProgress",
    "ParallelFallbackWarning",
    "activate",
    "deactivate",
    "current",
    "enabled",
    "scoped",
    "record_fallback",
    "SCHEMA_VERSION",
    "RunRecord",
    "build_run_record",
    "config_hash",
    "validate_record",
    "append_record",
    "read_records",
    "BenchDelta",
    "BenchDiff",
    "diff_benchmarks",
    "load_benchmark_stats",
]
