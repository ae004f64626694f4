"""Keep one CPU from idling while the serve load runs.

On a virtual machine a CPU with nothing to run halts, and the next
request that wakes it waits until the hypervisor schedules that CPU
again: a delay set by the host's other tenants, not by the program, and
large while they are busy.  Loopback requests wake the daemon's and the
load generator's CPUs once or twice each, so their latencies swung with
the host's load.  This process, pinned to one CPU at idle scheduling
priority (``SCHED_IDLE``: the CPU runs it only when nothing else there
wants to run, and preempts it at once when something does), spins while
told to, so the CPU never halts and a wake-up is an ordinary context
switch.

Usage: ``python3 perfbench/keepawake.py CPU`` prints ``ready``, then reads
commands from standard input: ``spin`` starts spinning, ``rest`` stops,
end of input exits.
"""

from __future__ import annotations

import os
import select
import sys
from time import perf_counter

#: Seconds spun between two checks for a command.
CHECK_S = 0.002


def main(argv=None) -> int:
    cpu = int((argv or sys.argv[1:])[0])
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except OSError:  # a kernel or sandbox without SCHED_IDLE: the lowest nice value
        os.nice(19)
    print("ready", flush=True)
    spinning = False
    while True:
        readable, _, _ = select.select([0], [], [], 0 if spinning else None)
        if readable:
            data = os.read(0, 256)
            if not data:
                return 0
            words = data.split()
            if words:
                spinning = words[-1] == b"spin"
            continue
        until = perf_counter() + CHECK_S
        while perf_counter() < until:
            pass


if __name__ == "__main__":
    sys.exit(main())
