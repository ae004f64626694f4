"""Traces: record types, file I/O, pattern builders, and the benchmark suite."""

from .io import (
    load_trace,
    read_binary_trace,
    read_text_trace,
    save_trace,
    write_binary_trace,
    write_text_trace,
)
from .registry import (
    BENCHMARK_NAMES,
    DEFAULT_SCALE,
    RegistryEntry,
    build_suite,
    build_trace,
    get_workload,
    list_workloads,
)
from .synthetic import CustomWorkload
from .trace import MaterializedTrace, Trace, TraceMeta, TraceStats, trace_from_pairs

__all__ = [
    "CustomWorkload",
    "Trace",
    "TraceMeta",
    "TraceStats",
    "MaterializedTrace",
    "trace_from_pairs",
    "BENCHMARK_NAMES",
    "DEFAULT_SCALE",
    "RegistryEntry",
    "build_suite",
    "build_trace",
    "get_workload",
    "list_workloads",
    "load_trace",
    "save_trace",
    "read_text_trace",
    "write_text_trace",
    "read_binary_trace",
    "write_binary_trace",
]
