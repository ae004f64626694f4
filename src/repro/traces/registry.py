"""Registry of the six benchmark workloads of Table 2-1.

The registry maps the paper's benchmark names to their synthetic
builders, keeps the Table 2-1 metadata alongside, and provides suite
helpers: experiments iterate ``for name in BENCHMARK_NAMES`` exactly the
way the paper's figures enumerate ccom, grr, yacc, met, linpack, liver.

Relative trace lengths follow Table 2-1 (grr is the longest program,
liver the shortest) so suite-wide averages weight benchmarks roughly the
way the paper's traces did, while the per-benchmark *metrics* remain the
paper's equal-weight percent reductions (see
:func:`repro.common.stats.average_percent_reduction`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from ..common.errors import UnknownWorkloadError
from .trace import Trace
from .synthetic import ccom, grr, linpack, liver, matcol, met, yacc

__all__ = [
    "RegistryEntry",
    "BENCHMARK_NAMES",
    "EXTENSION_NAMES",
    "get_workload",
    "list_workloads",
    "build_trace",
    "build_suite",
    "DEFAULT_SCALE",
]

#: Default instruction count per unit of relative length.  Chosen so the
#: whole six-benchmark suite is large enough for stable statistics yet
#: simulates in seconds per configuration in pure Python.
DEFAULT_SCALE = 60_000


@dataclass(frozen=True)
class RegistryEntry:
    """One benchmark: identity, Table 2-1 metadata, and a builder."""

    name: str
    program_type: str
    builder: Callable[[int, int], Trace]
    #: Data references per instruction (Table 2-1).
    data_per_instr: float
    #: Relative dynamic length (Table 2-1 instruction counts, normalised
    #: to ccom = 1.0).
    relative_length: float
    description: str = ""

    def build(self, scale: int, seed: int = 0) -> Trace:
        return self.builder(scale, seed)


_SPECS: Dict[str, RegistryEntry] = {
    spec.name: spec
    for spec in [
        RegistryEntry(
            name="ccom",
            program_type=ccom.PROGRAM_TYPE,
            builder=ccom.build,
            data_per_instr=ccom.DATA_PER_INSTR,
            relative_length=1.0,
            description="C compiler front end",
        ),
        RegistryEntry(
            name="grr",
            program_type=grr.PROGRAM_TYPE,
            builder=grr.build,
            data_per_instr=grr.DATA_PER_INSTR,
            relative_length=4.26,
            description="PC board CAD router",
        ),
        RegistryEntry(
            name="yacc",
            program_type=yacc.PROGRAM_TYPE,
            builder=yacc.build,
            data_per_instr=yacc.DATA_PER_INSTR,
            relative_length=1.62,
            description="Unix parser generator",
        ),
        RegistryEntry(
            name="met",
            program_type=met.PROGRAM_TYPE,
            builder=met.build,
            data_per_instr=met.DATA_PER_INSTR,
            relative_length=3.16,
            description="PC board CAD timing verifier",
        ),
        RegistryEntry(
            name="linpack",
            program_type=linpack.PROGRAM_TYPE,
            builder=linpack.build,
            data_per_instr=linpack.DATA_PER_INSTR,
            relative_length=4.60,
            description="100x100 LINPACK (saxpy)",
        ),
        RegistryEntry(
            name="liver",
            program_type=liver.PROGRAM_TYPE,
            builder=liver.build,
            data_per_instr=liver.DATA_PER_INSTR,
            relative_length=0.75,
            description="Livermore Fortran kernels",
        ),
    ]
}

#: Extension workloads (SS5 future work), not part of the paper's suite.
_EXTENSION_SPECS: Dict[str, RegistryEntry] = {
    spec.name: spec
    for spec in [
        RegistryEntry(
            name="matcol",
            program_type=matcol.PROGRAM_TYPE,
            builder=matcol.build,
            data_per_instr=matcol.DATA_PER_INSTR,
            relative_length=1.0,
            description="non-unit / mixed stride numeric kernels",
        ),
    ]
}
_SPECS.update(_EXTENSION_SPECS)

#: The paper's presentation order.
BENCHMARK_NAMES: List[str] = ["ccom", "grr", "yacc", "met", "linpack", "liver"]

#: Extension workload names (buildable via build_trace, excluded from suites).
EXTENSION_NAMES: List[str] = sorted(_EXTENSION_SPECS)


def get_workload(name: str) -> RegistryEntry:
    """Look up a benchmark by its Table 2-1 name."""
    try:
        return _SPECS[name]
    except KeyError:
        known = ", ".join(BENCHMARK_NAMES + EXTENSION_NAMES)
        raise UnknownWorkloadError(f"unknown workload {name!r}; known: {known}") from None


def list_workloads() -> List[RegistryEntry]:
    """All benchmarks in the paper's presentation order."""
    return [_SPECS[name] for name in BENCHMARK_NAMES]


def build_trace(name: str, scale: Optional[int] = None, seed: int = 0) -> Trace:
    """Build one benchmark trace.

    When *scale* is omitted the benchmark gets ``DEFAULT_SCALE`` times
    its Table 2-1 relative length, mirroring the paper's unequal trace
    lengths.
    """
    spec = get_workload(name)
    if scale is None:
        scale = int(DEFAULT_SCALE * spec.relative_length)
    trace = spec.build(scale, seed)
    # Stamp spec provenance so any materialization of this trace — at any
    # scale, including 0 — keys the engine memo and the result store.
    from ..specs.workloads import NamedWorkloadSpec

    source = NamedWorkloadSpec(name=name, scale=scale, seed=seed).to_json()
    trace.meta = dataclasses.replace(trace.meta, source=source)
    return trace


def build_suite(
    scale: Optional[int] = None,
    seed: int = 0,
    materialize: bool = True,
) -> Iterator:
    """Yield all six benchmark traces in order.

    With ``materialize=True`` (the default) each trace is replayed into
    memory once so experiments can re-run it against many configurations
    cheaply.
    """
    for name in BENCHMARK_NAMES:
        trace = build_trace(name, scale, seed)
        yield trace.materialize() if materialize else trace
