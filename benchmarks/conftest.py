"""Shared fixtures for the benchmark harness.

Each ``benchmarks/test_<artifact>.py`` regenerates one table or figure
of the paper through its experiment module, timed by pytest-benchmark,
and prints the reproduced rows/series (visible with ``-s``; always
written to ``bench_output.txt`` by the top-level run script).

``REPRO_BENCH_SCALE`` overrides the trace scale (instructions per unit
of Table 2-1 relative length); the default keeps the full harness in a
couple of minutes of wall clock.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.workloads import pinned_workloads, suite as benchmark_suite
from repro.specs import NamedWorkloadSpec
from repro.traces.registry import BENCHMARK_NAMES

BENCH_SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "20000"))


@pytest.fixture(scope="session")
def suite():
    """The six benchmark traces at benchmark scale, built once.

    They stay pinned in the trace memo for the session, so an experiment
    run at ``BENCH_SCALE`` finds them there and timed rounds exclude
    trace builds.
    """
    with pinned_workloads(NamedWorkloadSpec(name, BENCH_SCALE) for name in BENCHMARK_NAMES):
        yield benchmark_suite(BENCH_SCALE)


def run_experiment(benchmark, experiment_run, suite, rounds: int = 1):
    """Benchmark one experiment run at ``BENCH_SCALE`` and print its reproduction.

    *suite* is the session fixture: taking it builds the traces the run
    replays before the first timed round.
    """
    result = benchmark.pedantic(
        experiment_run, kwargs={"scale": BENCH_SCALE}, rounds=rounds, iterations=1
    )
    print()
    print(result.render())
    return result
