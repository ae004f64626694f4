"""Command-line entry point: reproduce the paper's tables and figures.

Usage::

    repro-experiments                    # run everything
    repro-experiments figure_3_5 ...     # run selected experiments
    repro-experiments --list             # list experiment ids
    repro-experiments --scale 30000      # smaller/larger traces
    repro-experiments --jobs 4           # fan experiments over 4 workers
    repro-experiments --jobs 4 --progress --emit-metrics runs.jsonl
    repro-experiments --workload zipfian --workload tenant_mix
    repro-experiments --workload '{"kind": "zipfian", "alpha": 1.1}'
    repro-experiments --report out.md    # the same run, as a Markdown file

``--report FILE`` writes the selected experiments to FILE instead of the
console.  It takes the console run's route, so ``--jobs``,
``--workload``, ``--emit-metrics`` and the result store apply to it
alike.

``--workload SPEC`` (repeatable) drives workload-aware experiments with
declarative workload specs: inline kind-tagged JSON, a preset name
(``zipfian``, ``hotspot``, ``bursty``, ``pointer_chase``,
``sequential``, ``uniform``, ``tenant_mix``), or a registry benchmark
name.  With no experiment ids it runs ``ext_modern_workloads``; naming
an experiment that does not accept workloads exits with status 2.  The
specs are embedded (replayably) in ``--emit-metrics`` run records.

The scale flag (or the REPRO_SCALE environment variable) sets the
instruction count per unit of Table 2-1 relative trace length; a
malformed or non-positive value — flag or environment — exits with
status 2 instead of leaking a traceback.  The
jobs flag (or REPRO_JOBS) sets the worker-process count; the default of
1 runs everything serially in this process, and any higher count
produces identical rendered output in whatever order the experiments
were selected.  ``--jobs 0`` (or a malformed ``REPRO_JOBS``) is
rejected with a clear error instead of being silently clamped.

``--emit-metrics PATH`` appends one JSON Lines run record per executed
experiment (see :mod:`repro.telemetry.record` for the schema): wall
time, references/sec, aggregated L1/L2 counters, the engine's job
batches and serial-fallback reasons, and result-store traffic when a
store is active — the same counters for a module at any ``--jobs``.
``--progress`` prints parallel-engine heartbeats to stderr.

``--result-store DIR`` (or the ``REPRO_RESULT_STORE`` environment
variable) activates the content-addressed result store: every engine
simulation point is looked up before running and saved after, so a
repeated invocation re-simulates nothing and still prints row-for-row
identical output.  ``repro-experiments store {stats|gc|clear}``
inspects or cleans the store.

``--backend {numpy,python}`` (or the ``REPRO_BACKEND`` environment
variable) selects the simulation kernel backend: ``numpy`` (the default)
runs every qualifying spec point on the vectorized kernels (structures
without a kernel mode still run on the interpreter — never an error),
and ``python`` forces the reference interpreter everywhere.  Malformed
values exit with status 2 like ``--jobs 0`` does.

Resilience flags: ``--job-timeout SECONDS`` (or ``REPRO_JOB_TIMEOUT``)
bounds each engine job's wall clock, ``--retries N`` (or
``REPRO_RETRIES``, default 2) re-runs transient failures with
exponential backoff, and ``--resume`` re-runs an interrupted invocation
against its result store — completed points are served from the store
(the engine flushes each result as it completes), so only unfinished
work simulates.  ``--resume`` requires a configured result store and is
rejected otherwise; malformed or non-positive timeout/retry values exit
with status 2 like ``--jobs 0`` does.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from ..common.config import baseline_system
from ..common.errors import ConfigurationError
from ..specs import SystemSpec
from ..telemetry.record import append_record, build_run_record
from . import ALL_EXPERIMENTS
from .base import FigureResult
from .plotting import plot_figure


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of Jouppi's victim-cache paper.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment ids to run (default: all); see --list",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids and exit")
    parser.add_argument(
        "--scale",
        type=int,
        default=None,
        help="instructions per unit of relative trace length (default: registry default)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload generator seed")
    parser.add_argument(
        "--workload",
        metavar="SPEC",
        action="append",
        default=None,
        help=(
            "drive workload-aware experiments with this workload: inline "
            "workload-spec JSON ('{\"kind\": \"zipfian\", ...}'), a preset "
            "name (zipfian, hotspot, bursty, pointer_chase, sequential, "
            "uniform, tenant_mix), or a registry benchmark name; repeatable "
            "(default experiment: ext_modern_workloads)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for running experiments (default: REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="also draw figures as ASCII charts (average series only)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="evaluate the paper's shape claims against a live run and exit",
    )
    parser.add_argument(
        "--report",
        metavar="FILE",
        default=None,
        help="write a Markdown report of the selected experiments to FILE",
    )
    parser.add_argument(
        "--emit-metrics",
        metavar="PATH",
        default=None,
        help="append one JSON Lines run record per executed experiment to PATH",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print parallel-engine heartbeat lines to stderr",
    )
    parser.add_argument(
        "--result-store",
        metavar="DIR",
        default=None,
        help=(
            "activate the content-addressed result store rooted at DIR "
            "(default: $REPRO_RESULT_STORE, unset = off)"
        ),
    )
    parser.add_argument(
        "--backend",
        metavar="BACKEND",
        default=None,
        help=(
            "simulation kernel backend: numpy or python "
            "(default: REPRO_BACKEND or numpy)"
        ),
    )
    parser.add_argument(
        "--job-timeout",
        metavar="SECONDS",
        type=float,
        default=None,
        help=(
            "wall-clock ceiling per engine job; a timed-out job is retried, "
            "then failed (default: REPRO_JOB_TIMEOUT or unbounded)"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        help=(
            "re-run attempts per failed engine job, with exponential "
            "backoff (default: REPRO_RETRIES or 2)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "continue an interrupted run from the result store: completed "
            "points are served from the store, only unfinished work "
            "simulates (requires --result-store or $REPRO_RESULT_STORE)"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the CLI; the settings it exports last only as long as the call.

    Flags reach engine workers through the environment, so the call
    sets them there and puts ``os.environ`` back as it found it on
    return.
    """
    saved = dict(os.environ)
    try:
        return _run(argv)
    finally:
        for key in os.environ.keys() - saved.keys():
            del os.environ[key]
        os.environ.update(saved)


def _run(argv: Optional[List[str]]) -> int:
    args = build_parser().parse_args(argv)
    if args.experiments and args.experiments[0] == "store":
        # Maintenance subcommand: repro-experiments store {stats|gc|clear}.
        from ..store.cli import run_store_command

        store_argv = args.experiments[1:]
        if args.result_store:
            store_argv += ["--result-store", args.result_store]
        return run_store_command(store_argv)
    if args.result_store:
        # Set via the environment so engine worker processes (fork or
        # spawn) resolve the same store.
        from ..store import set_store

        set_store(args.result_store)
    from ..kernels import ENV_BACKEND, validate_backend
    from .engine import (
        ENV_JOB_TIMEOUT,
        ENV_RETRIES,
        validate_job_timeout,
        validate_retries,
    )

    from ..specs import parse_workload
    from .workloads import validate_scale

    try:
        job_timeout = validate_job_timeout(args.job_timeout)
        retries = validate_retries(args.retries)
        backend = None if args.backend is None else validate_backend(args.backend)
        validate_scale(args.scale)
        workload_specs = (
            None
            if args.workload is None
            else [parse_workload(text) for text in args.workload]
        )
    except ConfigurationError as exc:
        print(f"repro-experiments: {exc}", file=sys.stderr)
        return 2
    # Resilience and backend knobs travel through the environment so
    # every nested run_jobs call — including those inside pool workers —
    # sees them.
    if args.job_timeout is not None:
        os.environ[ENV_JOB_TIMEOUT] = str(job_timeout)
    if args.retries is not None:
        os.environ[ENV_RETRIES] = str(retries)
    if backend is not None:
        os.environ[ENV_BACKEND] = backend
    if args.resume:
        from ..store import current_store

        if current_store() is None:
            print(
                "repro-experiments: --resume requires a result store "
                "(pass --result-store DIR or set $REPRO_RESULT_STORE)",
                file=sys.stderr,
            )
            return 2
    if args.list:
        for name in ALL_EXPERIMENTS:
            print(name)
        return 0
    if args.check:
        from .checks import render_outcomes, run_checks

        outcomes = run_checks(scale=args.scale, seed=args.seed)
        print(render_outcomes(outcomes))
        return 0 if all(o.passed for o in outcomes) else 1
    if workload_specs is not None:
        # Workload-driven runs default to the experiment built for them.
        selected = args.experiments or ["ext_modern_workloads"]
    else:
        selected = args.experiments or list(ALL_EXPERIMENTS)
    unknown = [name for name in selected if name not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print("use --list to see available ids", file=sys.stderr)
        return 2
    if workload_specs is not None:
        import inspect

        incompatible = [
            name
            for name in selected
            if "workloads" not in inspect.signature(ALL_EXPERIMENTS[name]).parameters
        ]
        if incompatible:
            print(
                "repro-experiments: --workload is not supported by: "
                f"{', '.join(incompatible)} (these experiments replay the "
                "paper's benchmark suite)",
                file=sys.stderr,
            )
            return 2
    from .engine import result_memo, run_experiments, validate_jobs

    try:
        jobs = validate_jobs(args.jobs)
    except ConfigurationError as exc:
        print(f"repro-experiments: {exc}", file=sys.stderr)
        return 2
    # Workload-driven experiments fan out *internally* (their jobs carry
    # full workload specs through run_jobs), so they run one module at a
    # time and hand the worker count to the engine through the
    # environment.
    if workload_specs is not None and jobs > 1:
        os.environ["REPRO_JOBS"] = str(jobs)
    module_jobs = 1 if workload_specs is not None else jobs
    # A pool returns every outcome at once; serially, each experiment is
    # its own call, so it prints as soon as it finishes.  One result map
    # covers the whole invocation: an engine job an earlier experiment
    # already ran is answered from memory, not simulated again.  A
    # report run takes the same route and renders the outcomes at the end.
    batches = [selected] if module_jobs > 1 else [[name] for name in selected]
    progress = _heartbeat_printer if args.progress and module_jobs > 1 else None
    reported = []
    with result_memo():
        for names in batches:
            outcomes = run_experiments(
                names, scale=args.scale, seed=args.seed, jobs=module_jobs,
                progress=progress, workloads=workload_specs,
            )
            reported.extend(outcomes)
            for outcome in outcomes:
                if not args.report:
                    _print_result(outcome.name, outcome.result, outcome.elapsed, args.plot)
                if args.emit_metrics:
                    _emit_record(args.emit_metrics, outcome, jobs, args, workload_specs)
    if args.report:
        from .report import render_report

        path = Path(args.report)
        text = render_report(reported, args.scale, args.seed, workload_specs)
        path.write_text(text, encoding="utf-8")
        print(f"wrote report to {path}")
    return 0


def _heartbeat_printer(update) -> None:
    print(f"[engine] {update}", file=sys.stderr, flush=True)


def _emit_record(path: str, outcome, jobs: int, args, workloads) -> None:
    # Experiments span many traces, so the embedded spec is config-only
    # (trace=None): it still pins geometry/timing and hashes canonically.
    # Explicit --workload specs are embedded in replayable form.
    record = build_run_record(
        outcome.metrics,
        run=outcome.name,
        config=baseline_system(),
        wall_time_s=outcome.elapsed,
        jobs=jobs,
        scale=args.scale,
        seed=args.seed,
        spec=SystemSpec(trace=None, config=baseline_system()),
        workloads=workloads,
    )
    append_record(path, record)


def _print_result(name: str, result, elapsed: float, plot: bool) -> None:
    print(result.render())
    if plot and isinstance(result, FigureResult):
        print()
        print(plot_figure(result))
    print(f"[{name} in {elapsed:.1f}s]")
    print()


if __name__ == "__main__":
    sys.exit(main())
