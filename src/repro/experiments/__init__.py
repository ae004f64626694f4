"""One experiment module per table/figure of the paper.

Each module exposes ``run(traces=None, scale=None, seed=0)`` returning a
:class:`~repro.experiments.base.TableResult` or
:class:`~repro.experiments.base.FigureResult`.  :data:`ALL_EXPERIMENTS`
maps experiment ids to those functions; the ``repro-experiments`` CLI
(:mod:`repro.experiments.cli`) runs them by name.
"""

from typing import Callable, Dict

from . import (
    ablations,
    ext_associativity,
    ext_bandwidth,
    ext_cold_start,
    ext_inclusion,
    ext_l2_victim,
    ext_marginal_utility,
    ext_modern_workloads,
    ext_multiprog,
    ext_os,
    ext_penalty_sweep,
    ext_prefetch_traffic,
    ext_stride,
    ext_timing_fidelity,
    ext_write_policy,
    figure_2_2,
    figure_3_1,
    figure_3_3,
    figure_3_5,
    figure_3_6,
    figure_3_7,
    figure_4_1,
    figure_4_3,
    figure_4_5,
    figure_4_6,
    figure_4_7,
    figure_5_1,
    overlap_5,
    table_1_1,
    table_2_1,
    table_2_2,
)
from .base import FigureResult, Series, TableResult
from .plotting import plot_figure, render_ascii_chart
from .checks import CheckOutcome, ShapeCheck, render_outcomes, run_checks
from .engine import (
    EntrySweepJob,
    ExperimentJob,
    ExperimentOutcome,
    JobFailedError,
    JobFailure,
    LevelJob,
    LevelSummary,
    RunSweepJob,
    SystemJob,
    default_jobs,
    execute_job,
    resolve_jobs,
    result_memo,
    run_experiments,
    run_jobs,
    validate_job_timeout,
    validate_jobs,
    validate_retries,
)
from .grid import GridSpec, default_structures, sweep_grid
from .timeseries import miss_rate_series, removal_rate_series
from .report import generate_report, write_report
from .runner import run_level
from .sweeps import (
    EntrySweep,
    RunLengthSweep,
    batch_entry_sweeps,
    batch_run_sweeps,
    miss_cache_sweep,
    stream_buffer_run_sweep,
    victim_cache_sweep,
)
from .workloads import materialized_trace, suite

#: Experiment id -> run function, in the paper's presentation order.
ALL_EXPERIMENTS: Dict[str, Callable] = {
    "table_1_1": table_1_1.run,
    "table_2_1": table_2_1.run,
    "table_2_2": table_2_2.run,
    "figure_2_2": figure_2_2.run,
    "figure_3_1": figure_3_1.run,
    "figure_3_3": figure_3_3.run,
    "figure_3_5": figure_3_5.run,
    "figure_3_6": figure_3_6.run,
    "figure_3_7": figure_3_7.run,
    "figure_4_1": figure_4_1.run,
    "figure_4_3": figure_4_3.run,
    "figure_4_5": figure_4_5.run,
    "figure_4_6": figure_4_6.run,
    "figure_4_7": figure_4_7.run,
    "figure_5_1": figure_5_1.run,
    "overlap_5": overlap_5.run,
    "ext_l2_victim": ext_l2_victim.run,
    "ext_bandwidth": ext_bandwidth.run,
    "ext_associativity": ext_associativity.run,
    "ext_marginal_utility": ext_marginal_utility.run,
    "ext_cold_start": ext_cold_start.run,
    "ext_penalty_sweep": ext_penalty_sweep.run,
    "ext_prefetch_traffic": ext_prefetch_traffic.run,
    "ext_timing_fidelity": ext_timing_fidelity.run,
    "ext_inclusion": ext_inclusion.run,
    "ext_stride": ext_stride.run,
    "ext_multiprog": ext_multiprog.run,
    "ext_modern_workloads": ext_modern_workloads.run,
    "ext_os": ext_os.run,
    "ext_write_policy": ext_write_policy.run,
    "ablations": ablations.run,
}

__all__ = [
    "ALL_EXPERIMENTS",
    "TableResult",
    "FigureResult",
    "Series",
    "suite",
    "materialized_trace",
    "run_level",
    "LevelJob",
    "LevelSummary",
    "EntrySweepJob",
    "RunSweepJob",
    "SystemJob",
    "ExperimentJob",
    "ExperimentOutcome",
    "default_jobs",
    "resolve_jobs",
    "execute_job",
    "result_memo",
    "run_jobs",
    "run_experiments",
    "JobFailure",
    "JobFailedError",
    "validate_job_timeout",
    "validate_retries",
    "validate_jobs",
    "batch_entry_sweeps",
    "batch_run_sweeps",
    "miss_cache_sweep",
    "victim_cache_sweep",
    "stream_buffer_run_sweep",
    "EntrySweep",
    "RunLengthSweep",
    "plot_figure",
    "render_ascii_chart",
    "generate_report",
    "write_report",
    "ShapeCheck",
    "CheckOutcome",
    "run_checks",
    "render_outcomes",
    "GridSpec",
    "sweep_grid",
    "default_structures",
    "miss_rate_series",
    "removal_rate_series",
]
