"""One measured process of a benchmark run, started fresh by ``run.py``.

Usage::

    python3 perfbench/child.py figures --scale 6000 [--spans FILE]
    python3 perfbench/child.py sweep --workload reuse --seed 1 --jobs 2 \\
        --store DIR --pool-cpus 0,1 [--check] [--spans FILE]
    python3 perfbench/child.py daemon --spans FILE -- <repro-serve arguments>

``figures`` and ``sweep`` print one JSON object as their last line.
Every time in it is a ``time.perf_counter()`` reading, a system-wide
monotonic clock on Linux, so the parent can line it up with its own
readings: ``ready`` is taken once the package is imported, just before
the first call into it (set-up time is ``ready`` minus the parent's
reading at spawn), and each timed region is a ``[begin, end]`` pair.
A region that runs on one CPU also reports the CPU time it took.

The parent pins each process to one CPU as it starts.  The sweep widens
its affinity to ``--pool-cpus`` for its cold passes, whose pool workers
inherit it, and returns to its own CPU for the warm passes.
``daemon`` runs the ``repro-serve`` entry point with tracing installed
and writes its spans when the daemon stops.  With ``--spans`` a process
records spans around every layer probe in :mod:`tracing` and writes
them to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter, process_time

import repro.experiments  # noqa: F401  (set-up ends once the package is imported)

READY = perf_counter()

from tracing import Tracer, instrument  # noqa: E402

#: Cold passes per process; the first warms the process up and is not
#: counted (it runs about a quarter slower, loading what later passes reuse).
COLD_PASSES = 3
WARM_BUDGET_S = 1.0
MAX_WARM_PASSES = 50


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any process it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _tracer(path):
    if not path:
        return None
    tracer = Tracer()
    instrument(tracer)
    return tracer


def figures(args) -> dict:
    from repro.experiments import ALL_EXPERIMENTS, JobFailedError, run_checks, run_experiments

    names = list(ALL_EXPERIMENTS)
    tracer = _tracer(args.spans)
    modules = {}
    failed = []
    started, cpu_started = perf_counter(), process_time()
    try:
        outcomes = run_experiments(names, scale=args.scale, jobs=1)
        modules = {outcome.name: outcome.elapsed for outcome in outcomes}
    except JobFailedError as exc:
        failed = [names[failure.index] for failure in exc.failures]
    ended, cpu_s = perf_counter(), process_time() - cpu_started
    if tracer is not None:
        tracer.dump(args.spans)
    outcomes = run_checks(scale=args.scale)
    return {
        "ready": READY,
        "elapsed": ended - started,
        "window": [started, ended],
        "cpu_s": cpu_s,
        "modules": modules,
        "attempted": len(names),
        "failed_modules": failed,
        "checks_failed": [o.check.check_id for o in outcomes if not o.passed],
        "checks_total": len(outcomes),
        "rss_mb": peak_rss_mb(),
    }


def _reference_sample(jobs, seed: int):
    """Indices of points re-run on the reference interpreter.

    At least one vector-mode point, one miss-replay point, one entry
    sweep and one bare level, drawn from the seed.
    """
    import random

    from repro.experiments import EntrySweepJob
    from repro.kernels import MISS_REPLAY, VECTOR, kernel_mode

    groups = {"bare": [], VECTOR: [], MISS_REPLAY: [], "entry": []}
    for index, job in enumerate(jobs):
        if isinstance(job, EntrySweepJob):
            groups["entry"].append(index)
        elif job.system.structure is None:
            groups["bare"].append(index)
        else:
            groups[kernel_mode(job.system)].append(index)
    rng = random.Random(f"perfbench:reference:{seed}")
    return sorted(rng.choice(indices) for indices in groups.values() if indices)


def _reference_mismatches(jobs, results, seed: int):
    """Points whose result differs from the interpreter's, counter for counter."""
    from repro.experiments import execute_job
    from repro.kernels import ENV_BACKEND, PYTHON

    previous = os.environ.get(ENV_BACKEND)
    os.environ[ENV_BACKEND] = PYTHON
    try:
        sample = _reference_sample(jobs, seed)
        bad = [index for index in sample if execute_job(jobs[index]) != results[index]]
    finally:
        if previous is None:
            del os.environ[ENV_BACKEND]
        else:
            os.environ[ENV_BACKEND] = previous
    return sample, bad


def sweep(args) -> dict:
    from repro.experiments import JobFailedError, run_jobs
    from repro.store import set_store
    from workloads import WORKLOADS, sweep_grid

    workload = WORKLOADS[args.workload]
    tracer = _tracer(args.spans)
    warmup, cold, warm = [], [], []
    failed = 0
    attempted = 0

    def timed(jobs, windows):
        nonlocal failed, attempted
        attempted += len(jobs)
        started, cpu_started = perf_counter(), process_time()
        try:
            return run_jobs(jobs, jobs=args.jobs)
        except JobFailedError as exc:
            failed += len(exc.failures)
            return None
        finally:
            windows.append((started, perf_counter(), process_time() - cpu_started))

    # COLD_PASSES cold passes, each over its own grid on its own empty
    # store, so each builds its traces afresh; then warm passes over the
    # last grid, unchanged, until WARM_BUDGET_S has been spent on them (a
    # warm pass can take milliseconds).  The first cold pass is a warm-up.
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, args.pool_cpus)
    grids, results = [], []
    for variant in range(COLD_PASSES):
        set_store(os.path.join(args.store, str(variant)))
        grids.append(sweep_grid(workload, args.seed, variant)[1])
        results.append(timed(grids[-1], cold if variant else warmup))
    os.sched_setaffinity(0, home)
    warm_results = []
    while len(warm) < MAX_WARM_PASSES and sum(e - b for b, e, _ in warm) < WARM_BUDGET_S:
        warm_results.append(timed(grids[-1], warm))
    if tracer is not None:
        tracer.dump(args.spans)
    checks_failed = []
    sample = []
    if None in results or None in warm_results:
        checks_failed.append("sweep: a pass failed, so warm and cold cannot be compared")
    else:
        if any(result != results[-1] for result in warm_results):
            checks_failed.append("sweep: a warm pass differs from the cold pass")
        if args.check:
            sample, bad = _reference_mismatches(grids[0], results[0], args.seed)
            checks_failed += [
                f"sweep: point {index} ({type(grids[0][index]).__name__}) differs from the "
                "reference interpreter"
                for index in bad
            ]
    return {
        "ready": READY,
        "points": len(grids[0]),
        "cold": cold,
        "warm": warm,
        "attempted": attempted,
        "failed": failed,
        "reference_points": sample,
        "checks_failed": checks_failed,
        "rss_mb": peak_rss_mb(),
    }


def daemon(args) -> int:
    from repro.serve.cli import main

    tracer = _tracer(args.spans)
    try:
        return main(args.serve_args)
    finally:
        tracer.dump(args.spans)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    fig = sub.add_parser("figures")
    fig.add_argument("--scale", type=int, required=True)
    fig.add_argument("--spans", default=None)
    swp = sub.add_parser("sweep")
    swp.add_argument("--workload", required=True)
    swp.add_argument("--seed", type=int, required=True)
    swp.add_argument("--jobs", type=int, required=True)
    swp.add_argument("--store", required=True)
    swp.add_argument("--pool-cpus", required=True,
                     type=lambda text: {int(cpu) for cpu in text.split(",")})
    swp.add_argument("--check", action="store_true")
    swp.add_argument("--spans", default=None)
    dmn = sub.add_parser("daemon")
    dmn.add_argument("--spans", required=True)
    dmn.add_argument("serve_args", nargs=argparse.REMAINDER)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "daemon":
        if args.serve_args[:1] == ["--"]:
            args.serve_args = args.serve_args[1:]
        return daemon(args)
    report = figures(args) if args.command == "figures" else sweep(args)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
