"""§5 extension: operating-system execution.

The paper's final sentence lists "operating system execution" beside
multiprogramming as unsimulated territory.  Where multiprogramming
(:mod:`.ext_multiprog`) models coarse time slices, OS execution is the
fine-grained version: interrupts and system calls splice short bursts
of *kernel* code and data into the user stream thousands of times a
second, each burst evicting a sliver of the user's working set.

This experiment injects synthetic kernel activity into ccom — a timer/
device handler every *interval* instructions, drawn from a rotating set
of handler routines in a dedicated kernel text region, touching kernel
stack and device-buffer data — and reports, per interrupt rate:

* instruction and data miss-rate inflation over the uninterrupted run;
* how much of the combined system's benefit survives.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..common.config import CacheConfig
from ..common.stats import percent, safe_div
from ..common.types import AccessKind
from ..hierarchy.level import CacheLevel
from ..specs import build
from .base import TableResult
from .figure_5_1 import IMPROVED_DSTRUCTURE, IMPROVED_ISTRUCTURE
from .workloads import suite

__all__ = ["run", "inject_interrupts", "INTERVALS"]

CONFIG = CacheConfig(4096, 16)
#: Instructions between interrupts (the x axis).
INTERVALS = [1000, 4000, 16000]

_KERNEL_CODE = 0x0060_0000 + 77 * 4096
_KERNEL_STACK = 0x9F00_0000 + 13 * 4096 + 1024
_DEVICE_BUF = 0x9E00_0000 + 151 * 4096 + 2048

_NUM_HANDLERS = 6
_HANDLER_INSTRS = 180
_HANDLER_DATA_REFS = 40

Pair = Tuple[int, int]


def _handler_burst(rng: random.Random, buffer_cursor: int) -> List[Pair]:
    """One interrupt: a handler body plus kernel stack / buffer traffic."""
    handler = rng.randrange(_NUM_HANDLERS)
    code_base = _KERNEL_CODE + handler * _HANDLER_INSTRS * 4
    burst: List[Pair] = []
    data_every = max(1, _HANDLER_INSTRS // _HANDLER_DATA_REFS)
    for i in range(_HANDLER_INSTRS):
        burst.append((int(AccessKind.IFETCH), code_base + i * 4))
        if i % data_every == 0:
            if rng.random() < 0.5:
                address = _KERNEL_STACK + rng.randrange(64) * 4
            else:
                address = _DEVICE_BUF + (buffer_cursor + len(burst) * 4) % (64 * 1024)
            kind = AccessKind.STORE if rng.random() < 0.4 else AccessKind.LOAD
            burst.append((int(kind), address))
    return burst


def inject_interrupts(
    user_pairs, interval_instructions: int, seed: int = 0
) -> List[Pair]:
    """Splice a kernel handler burst every *interval* user instructions."""
    rng = random.Random(seed)
    out: List[Pair] = []
    since_interrupt = 0
    buffer_cursor = 0
    ifetch = int(AccessKind.IFETCH)
    for pair in user_pairs:
        out.append(pair)
        if pair[0] == ifetch:
            since_interrupt += 1
            if since_interrupt >= interval_instructions:
                since_interrupt = 0
                burst = _handler_burst(rng, buffer_cursor)
                buffer_cursor += 4096
                out.extend(burst)
    return out


def _run_split(pairs, istructure=None, dstructure=None) -> Tuple[CacheLevel, CacheLevel]:
    """Replay through split I/D levels, each with its structure (None: bare)."""
    ilevel = CacheLevel(CONFIG, build(istructure))
    dlevel = CacheLevel(CONFIG, build(dstructure))
    shift = CONFIG.offset_bits
    ifetch = int(AccessKind.IFETCH)
    for kind, address in pairs:
        level = ilevel if kind == ifetch else dlevel
        level.access_line(address >> shift)
    return ilevel, dlevel


def _rates(pairs) -> Tuple[float, float]:
    ilevel, dlevel = _run_split(pairs)
    return ilevel.stats.miss_rate, dlevel.stats.miss_rate


def run(scale: Optional[int] = None, seed: int = 0) -> TableResult:
    user = next(t for t in suite(scale, seed) if t.name == "ccom")
    pure_i, pure_d = _rates(user)
    rows = []
    for interval in INTERVALS:
        mixed = inject_interrupts(user, interval, seed)
        i_rate, d_rate = _rates(mixed)
        ilevel, dlevel = _run_split(mixed, IMPROVED_ISTRUCTURE, IMPROVED_DSTRUCTURE)
        removed = ilevel.stats.removed_misses + dlevel.stats.removed_misses
        misses = ilevel.stats.demand_misses + dlevel.stats.demand_misses
        rows.append(
            [
                interval,
                round(safe_div(i_rate, pure_i), 2),
                round(safe_div(d_rate, pure_d), 2),
                round(percent(removed, misses), 1),
            ]
        )
    rows.append(["no OS", 1.0, 1.0, ""])
    return TableResult(
        experiment_id="ext_os",
        title="Extension (SS5): OS execution — interrupt bursts injected into ccom",
        headers=[
            "instrs / interrupt",
            "I rate x pure",
            "D rate x pure",
            "combined removed %",
        ],
        rows=rows,
        notes=[
            "each interrupt runs a ~180-instruction kernel handler with stack",
            "and device-buffer traffic; frequent interrupts inflate both miss",
            "rates, while the helper structures keep removing a large share",
        ],
    )
