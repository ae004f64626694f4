"""Host-speed probe that runs beside a measured phase, one per CPU.

A virtual machine that shares its host with other tenants slows down and
speeds up by a quarter or more, within a second and over tens of
seconds, and each of its CPUs does so on its own: the speeds of two CPUs
measured side by side barely correlate.  Raw times then spread more
across runs than any bound worth setting.  This probe measures one CPU's
current speed: pinned to that CPU, every ``PERIOD_S`` it times (in thread
CPU time, so waiting for the CPU does not count) one fixed unit of work
shaped like the simulator's inner loop — a direct-mapped cache with a
small victim list over a fixed trace — and records
``(perf_counter(), unit seconds)``.  The unit uses no code of the program
under test, so no change to the program changes its cost.

``run.py`` pins each single-CPU phase to one CPU and divides its time by
the mean unit time that CPU's probe took during it, times
:data:`REFERENCE_UNIT_S`: the result reads as the time the work would
take on a CPU running the unit in exactly that long.  A phase that uses
every CPU is divided by the mean over all probes.

Usage: ``python3 perfbench/calibrate.py OUT.json CPU`` pins itself to
CPU, prints ``ready``, samples until SIGTERM, then writes the samples to
OUT.json.
"""

from __future__ import annotations

import json
import os
import random
import signal
import sys
import time
from array import array
from typing import List, Sequence, Tuple

#: Nominal unit time: host-normalized times are expressed at this speed.
REFERENCE_UNIT_S = 0.001
#: Seconds between the starts of two samples (the probe uses ~3% of a CPU).
PERIOD_S = 0.03
#: Shortest window a speed factor averages over, by default (about 65
#: samples).  A time measured on the probe's own CPU can use a shorter one.
MIN_WINDOW_S = 2.0
#: References simulated per unit.
UNIT_REFS = 3000
TRACE_REFS = 200_000


def _trace() -> array:
    rng = random.Random(20261017)
    return array("q", (
        rng.randrange(1 << 24) & ~15 if rng.random() < 0.5 else (16 * index) % (1 << 20)
        for index in range(TRACE_REFS)
    ))


def unit(trace: Sequence[int], start: int) -> int:
    """Direct-mapped 1024-line cache plus a 4-entry victim list."""
    tags = [-1] * 1024
    victims: List[int] = []
    hits = 0
    for address in trace[start:start + UNIT_REFS]:
        line = address >> 4
        slot = line & 1023
        if tags[slot] == line:
            hits += 1
            continue
        if line in victims:
            victims.remove(line)
            hits += 1
        old = tags[slot]
        if old >= 0:
            victims.append(old)
            if len(victims) > 4:
                victims.pop(0)
        tags[slot] = line
    return hits


def sample(stop: List[bool], trace: Sequence[int]) -> List[Tuple[float, float]]:
    samples = []
    start = 0
    while not stop[0]:
        began = time.perf_counter()
        cpu = time.thread_time()
        unit(trace, start)
        samples.append((began, time.thread_time() - cpu))
        start = (start + UNIT_REFS) % (TRACE_REFS - UNIT_REFS)
        pause = began + PERIOD_S - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
    return samples


def cpus() -> List[int]:
    """The CPUs this process may run on, in order."""
    return sorted(os.sched_getaffinity(0))


def pin(cpu_set, pid: int = 0) -> None:
    """Restrict a thread (``pid`` 0: the calling one) to the CPUs in *cpu_set*."""
    os.sched_setaffinity(pid, set(cpu_set))


def speed_factor(samples: Sequence[Tuple[float, float]], begin: float, end: float,
                 min_window: float = MIN_WINDOW_S) -> float:
    """Mean unit time around ``[begin, end]`` over :data:`REFERENCE_UNIT_S`.

    Dividing a time measured in that window by this factor normalizes it
    to the reference speed.  A window shorter than *min_window* is
    widened about its middle to that length, so the factor always
    averages enough samples; with none inside, every sample is used.
    """
    middle = (begin + end) / 2
    half = max(end - begin, min_window) / 2
    inside = [unit_s for at, unit_s in samples if middle - half <= at <= middle + half]
    if not inside:
        inside = [unit_s for _, unit_s in samples]
    return sum(inside) / len(inside) / REFERENCE_UNIT_S


def main(argv=None) -> int:
    out, cpu = (argv or sys.argv[1:])[:2]
    pin({int(cpu)})
    stop = [False]
    signal.signal(signal.SIGTERM, lambda *_: stop.__setitem__(0, True))
    trace = _trace()
    print("ready", flush=True)
    samples = sample(stop, trace)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(samples, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
