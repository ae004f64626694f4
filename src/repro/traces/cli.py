"""Trace tooling CLI: generate, inspect, convert, and simulate traces.

Usage::

    repro-trace gen ccom -o ccom.trc --scale 60000 --seed 0
    repro-trace stats ccom.trc
    repro-trace convert ccom.trc ccom.din
    repro-trace simulate ccom.trc --victim 4 --stream 4x4

``simulate`` runs any trace file — including one recorded by another
tool in the Dinero-style text format — through the baseline system with
a chosen set of the paper's structures and prints miss rates, removal
counts, and the modelled speedup.  This is the bring-your-own-trace
path: record your program, then ask whether a victim cache or stream
buffer would have helped it.

Generated files use the compact binary format for ``.trc`` and the
Dinero-style text format otherwise (see :mod:`repro.traces.io`), so
traces can be exchanged with other cache simulators or archived for
exactly-reproducible experiments.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..common.errors import ReproError
from .io import load_trace, save_trace
from .registry import BENCHMARK_NAMES, EXTENSION_NAMES, build_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Generate, inspect, and convert repro trace files.",
    )
    subcommands = parser.add_subparsers(dest="command", required=True)

    gen = subcommands.add_parser("gen", help="generate a synthetic workload trace")
    gen.add_argument(
        "workload",
        choices=BENCHMARK_NAMES + EXTENSION_NAMES,
        help="workload name",
    )
    gen.add_argument("-o", "--output", required=True, help="output file (.trc = binary)")
    gen.add_argument("--scale", type=int, default=None, help="instruction count")
    gen.add_argument("--seed", type=int, default=0, help="generator seed")

    stats = subcommands.add_parser("stats", help="print Table 2-1 style statistics")
    stats.add_argument("trace", help="trace file to inspect")
    stats.add_argument(
        "--line-size", type=int, default=16, help="line size for footprint stats"
    )

    convert = subcommands.add_parser("convert", help="convert between trace formats")
    convert.add_argument("source", help="input trace file")
    convert.add_argument("destination", help="output trace file (.trc = binary)")

    simulate = subcommands.add_parser(
        "simulate", help="run a trace through the baseline system"
    )
    simulate.add_argument("trace", help="trace file to simulate")
    simulate.add_argument(
        "--cache-kb", type=int, default=4, help="L1 size in KB (each side; default 4)"
    )
    simulate.add_argument(
        "--line", type=int, default=16, help="L1 line size in bytes (default 16)"
    )
    simulate.add_argument(
        "--victim", type=int, default=0, metavar="N",
        help="add an N-entry victim cache to the data side",
    )
    simulate.add_argument(
        "--miss-cache", type=int, default=0, metavar="N",
        help="add an N-entry miss cache to the data side",
    )
    simulate.add_argument(
        "--stream", default="", metavar="WAYSxENTRIES",
        help="add stream buffers, e.g. 1x4 (instruction side gets a single buffer too)",
    )
    simulate.add_argument(
        "--classify", action="store_true", help="also report the 3C miss breakdown"
    )

    return parser


def _cmd_gen(args) -> int:
    trace = build_trace(args.workload, args.scale, args.seed)
    count = save_trace(args.output, trace)
    print(f"wrote {count} references of '{args.workload}' to {args.output}")
    return 0


def _cmd_stats(args) -> int:
    trace = load_trace(args.trace)
    stats = trace.stats()
    print(f"trace: {args.trace}")
    print(f"  instructions:     {stats.instructions}")
    print(f"  loads:            {stats.loads}")
    print(f"  stores:           {stats.stores}")
    print(f"  data refs:        {stats.data_references}")
    print(f"  total refs:       {stats.total_references}")
    print(f"  data/instr:       {stats.data_per_instruction:.3f}")
    line = args.line_size
    print(f"  I footprint:      {trace.unique_lines('i', line)} lines of {line}B")
    print(f"  D footprint:      {trace.unique_lines('d', line)} lines of {line}B")
    return 0


def _cmd_convert(args) -> int:
    trace = load_trace(args.source)
    count = save_trace(args.destination, trace)
    print(f"converted {count} references: {args.source} -> {args.destination}")
    return 0


def _parse_stream(spec: str):
    try:
        ways_text, entries_text = spec.lower().split("x")
        ways, entries = int(ways_text), int(entries_text)
    except ValueError:
        raise ReproError(f"--stream expects WAYSxENTRIES (e.g. 4x4), got {spec!r}") from None
    if ways < 1 or entries < 1:
        raise ReproError("--stream ways and entries must be >= 1")
    return ways, entries


def _cmd_simulate(args) -> int:
    import dataclasses

    from ..common.config import CacheConfig, baseline_system
    from ..hierarchy.performance import evaluate_performance
    from ..hierarchy.system import MemorySystem
    from ..specs import (
        CompositeSpec,
        MissCacheSpec,
        MultiWayStreamBufferSpec,
        StreamBufferSpec,
        VictimCacheSpec,
        build,
    )

    trace = load_trace(args.trace)
    l1 = CacheConfig(args.cache_kb * 1024, args.line)
    config = dataclasses.replace(baseline_system(), icache=l1, dcache=l1)

    dspecs = []
    if args.victim and args.miss_cache:
        raise ReproError("choose either --victim or --miss-cache, not both")
    if args.victim:
        dspecs.append(VictimCacheSpec(args.victim))
    if args.miss_cache:
        dspecs.append(MissCacheSpec(args.miss_cache))
    ispec = None
    if args.stream:
        ways, entries = _parse_stream(args.stream)
        ispec = StreamBufferSpec(entries=entries)
        dspecs.append(
            ispec if ways == 1 else MultiWayStreamBufferSpec(ways=ways, entries=entries)
        )
    dspec = None
    if len(dspecs) == 1:
        dspec = dspecs[0]
    elif dspecs:
        dspec = CompositeSpec(tuple(dspecs))

    baseline = MemorySystem(config, classify=args.classify)
    base_result = baseline.run(trace)
    print(f"trace: {args.trace}  ({base_result.total_references} references)")
    print(f"L1: {args.cache_kb}KB direct-mapped, {args.line}B lines (split I/D)")
    print(f"  baseline I miss rate: {base_result.imiss_rate:.4f}")
    print(f"  baseline D miss rate: {base_result.dmiss_rate:.4f}")
    if args.classify:
        for label, classifier in (
            ("I", baseline.ilevel.classifier),
            ("D", baseline.dlevel.classifier),
        ):
            summary = classifier.summary()
            print(
                f"  {label} misses: {summary['misses']} "
                f"(compulsory {summary['compulsory']}, capacity {summary['capacity']}, "
                f"conflict {summary['conflict']} = {summary['percent_conflict']:.0f}%)"
            )
    if dspec is None and ispec is None:
        return 0
    improved = MemorySystem(config, iaugmentation=build(ispec), daugmentation=build(dspec))
    improved_result = improved.run(trace)
    print("with the requested structures:")
    print(
        f"  I misses removed: {improved_result.istats.removed_misses}"
        f" of {improved_result.istats.demand_misses}"
    )
    print(
        f"  D misses removed: {improved_result.dstats.removed_misses}"
        f" of {improved_result.dstats.demand_misses}"
    )
    timing = config.timing
    base_perf = evaluate_performance(base_result, timing)
    improved_perf = evaluate_performance(improved_result, timing)
    print(
        f"  modelled speedup (24/320-cycle penalties): "
        f"{improved_perf.speedup_over(base_perf):.2f}x"
    )
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "stats": _cmd_stats,
    "convert": _cmd_convert,
    "simulate": _cmd_simulate,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
