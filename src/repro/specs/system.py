"""System-level specs: workload reference + system config + structure.

A :class:`~repro.specs.workloads.WorkloadSpec` (named registry trace,
parameterized pattern, or tenant mix) names the reference stream — the
same key the parallel engine uses to memoize materialized traces in
worker processes.  :class:`SystemSpec` combines a workload spec, a
:class:`~repro.common.config.SystemConfig`, and an optional
:class:`~repro.specs.structures.StructureSpec` into one frozen,
picklable value that fully determines a simulation run.  Canonical JSON
via :meth:`SystemSpec.to_json` is what telemetry hashes and embeds, so a
run record carries everything needed to replay the run.  A spec is
immutable, so its canonical JSON and :func:`spec_hash` are computed once
and remembered on the spec itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Dict, Mapping, Optional

from ..common.config import BASELINE_L2_LINE, CacheConfig, SystemConfig, baseline_system
from ..common.errors import ConfigurationError
from .structures import SpecError, StructureSpec, structure_from_dict
from .workloads import WorkloadSpec, unkeyed_reason, workload_from_dict, workload_spec_of

__all__ = ["SystemSpec", "spec_hash"]

_SIDES = ("i", "d")


@dataclass(frozen=True)
class SystemSpec:
    """One fully-determined simulation point.

    ``trace`` may be None for specs that describe configuration only
    (e.g. the CLI's run-record spec, where the trace varies per
    experiment); such specs still hash canonically but cannot be
    materialized into a run.
    """

    trace: Optional[WorkloadSpec] = None
    config: SystemConfig = field(default_factory=baseline_system)
    structure: Optional[StructureSpec] = None
    side: str = "d"
    warmup: int = 0
    classify: bool = False

    def __post_init__(self) -> None:
        if self.side not in _SIDES:
            raise ConfigurationError(f"side must be one of {_SIDES}, got {self.side!r}")
        if self.warmup < 0:
            raise ConfigurationError("warmup must be non-negative")
        if self.trace is not None and not isinstance(self.trace, WorkloadSpec):
            raise SpecError(
                f"trace must be a WorkloadSpec or None, got {type(self.trace).__name__}"
            )
        if self.structure is not None and not isinstance(self.structure, StructureSpec):
            raise SpecError(
                f"structure must be a StructureSpec or None, got {type(self.structure).__name__}"
            )

    @property
    def cache_config(self) -> CacheConfig:
        """The L1 geometry this spec's side replays against."""
        return self.config.icache if self.side == "i" else self.config.dcache

    @classmethod
    def for_level(
        cls,
        trace,
        cache_config: CacheConfig,
        side: str = "d",
        structure: Optional[StructureSpec] = None,
        warmup: int = 0,
        classify: bool = False,
    ) -> "SystemSpec":
        """Spec for a single-level replay.

        ``trace`` may be any :class:`WorkloadSpec` (named, pattern, or
        mix), or a materialized trace whose spec is recovered via
        :func:`~repro.specs.workloads.workload_spec_of`; a trace with no
        spec (a hand-made one) raises :class:`ConfigurationError` naming
        :func:`~repro.specs.workloads.unkeyed_reason` — simulate such a
        stream directly with :func:`repro.experiments.runner.run_level`.
        ``structure`` is a :class:`StructureSpec` or None; anything else,
        a live structure included, raises :class:`SpecError`.  The L2
        line size is widened to the L1 line when the sweep's geometry
        exceeds the baseline L2 line — single-level replays never touch
        the L2, so only the config invariant (L2 line >= L1 line)
        matters.
        """
        return cls(
            trace=_trace_spec(trace),
            config=_level_config(cache_config),
            structure=structure,
            side=side,
            warmup=warmup,
            classify=classify,
        )

    @classmethod
    def for_system(cls, trace) -> "SystemSpec":
        """Spec for a full baseline-system replay (``trace`` as in :meth:`for_level`)."""
        return cls(trace=_trace_spec(trace))

    def build_structure(self):
        """Live structure for this point (None for the bare baseline)."""
        from .structures import build

        return build(self.structure)

    def as_dict(self) -> Dict[str, object]:
        return {
            "trace": None if self.trace is None else self.trace.as_dict(),
            "config": self.config.as_dict(),
            "structure": None if self.structure is None else self.structure.as_dict(),
            "side": self.side,
            "warmup": self.warmup,
            "classify": self.classify,
        }

    def to_json(self) -> str:
        """Canonical JSON: key-sorted, minimal separators."""
        return self._canonical_json

    # Memoized in the instance ``__dict__`` (which a frozen dataclass
    # still has): every field is immutable, so neither value can go stale.
    @cached_property
    def _canonical_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @cached_property
    def _hash(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SystemSpec":
        trace = payload.get("trace")
        structure = payload.get("structure")
        return cls(
            trace=None if trace is None else workload_from_dict(trace),
            config=SystemConfig.from_dict(payload["config"]),
            structure=None if structure is None else structure_from_dict(structure),
            side=payload.get("side", "d"),
            warmup=payload.get("warmup", 0),
            classify=payload.get("classify", False),
        )

    @classmethod
    def from_json(cls, text: str) -> "SystemSpec":
        return cls.from_dict(json.loads(text))


@lru_cache(maxsize=64)
def _level_config(cache_config: CacheConfig) -> SystemConfig:
    """The baseline with both L1s set to *cache_config*, one value per geometry."""
    base = baseline_system()
    return replace(
        base,
        icache=cache_config,
        dcache=cache_config,
        l2=base.l2.with_line_size(max(BASELINE_L2_LINE, cache_config.line_size)),
    )


def _trace_spec(trace) -> WorkloadSpec:
    """*trace* itself when a workload spec, else its recovered spec."""
    trace_spec = trace if isinstance(trace, WorkloadSpec) else workload_spec_of(trace)
    if trace_spec is None:
        raise ConfigurationError(
            f"trace has no workload spec: {unkeyed_reason(trace)}; simulate "
            "hand-made streams with repro.experiments.runner.run_level or "
            "repro.hierarchy.system.MemorySystem.run"
        )
    return trace_spec


def spec_hash(spec: SystemSpec) -> str:
    """Short stable hash of a spec's canonical JSON.

    Unlike hashing ``repr(config)``, this is independent of field
    declaration order and Python version, and every spec field — trace,
    geometry, structure options, side, warmup — perturbs it.  Computed
    once per spec object.
    """
    return spec._hash
