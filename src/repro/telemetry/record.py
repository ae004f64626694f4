"""Structured per-run records, emitted as JSON Lines.

One :class:`RunRecord` describes one logical run — typically one
experiment module executed by ``repro-experiments --emit-metrics PATH``.
The record is a flat, schema-versioned JSON object so downstream tools
(dashboards, regression gates, ad-hoc ``jq``) can consume it without
importing this package:

.. code-block:: json

    {"schema_version": 2, "run": "figure_3_3", "trace": null,
     "scale": 1500, "seed": 0, "config_hash": "9f2c...",
     "spec": {"trace": null, "config": {"...": "..."}, "structure": null,
              "side": "d", "warmup": 0, "classify": false},
     "jobs": 4, "mode": "parallel", "wall_time_s": 1.93,
     "sim_wall_time_s": 1.81,
     "references": 612000, "references_per_sec": 338121.5,
     "system_runs": 0, "level_runs": 12,
     "l1i": {}, "l1d": {}, "l2": {}, "level": {"accesses": 612000},
     "engine": {"job_batches": [], "fallbacks": []},
     "store": {"hits": 10, "misses": 2, "bytes_read": 5120},
     "resilience": {"retries": 1, "timeouts": 0, "pool_rebuilds": 0,
                    "poisoned_jobs": 0},
     "backends": {"numpy": 1, "miss-replay": 1}, "serving": {},
     "workloads": []}

Schema version 2 embeds the run's :class:`~repro.specs.SystemSpec` (as
its canonical dict) and derives ``config_hash`` from the spec's
canonical JSON, so a record is replayable from itself:
``SystemSpec.from_dict(record.spec)`` rebuilds the exact configuration
that produced it, and equal hashes mean equal specs field-for-field.

Counter groups (``l1i``/``l1d``/``l2`` from full-system runs,
``level`` from single-level replays) aggregate every simulation executed
in the emitting process while the run's scope was active.  Parallel runs
execute their simulations in worker processes, so their counter groups
stay empty and the record's value is the timing plus the ``engine``
section — job batches and serial-fallback reasons.

The optional ``store``, ``resilience``, ``backends`` and ``serving``
sections are counter sections like the four above: each producer (the
engine for the first three, the repro-serve daemon for ``serving``)
adds its counts to the scope under the section's name, or adds nothing
when it has nothing to report, and the record copies every section as
it was left.  Records from older emitters lack them and still validate.

:func:`validate_record` is the schema the tests pin; bump
:data:`SCHEMA_VERSION` when changing the shape.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional

from .core import MetricsScope

__all__ = [
    "SCHEMA_VERSION",
    "RunRecord",
    "build_run_record",
    "config_hash",
    "validate_record",
    "append_record",
    "read_records",
]

SCHEMA_VERSION = 2

#: Required top-level fields and the types their values must have.
_SCHEMA: Dict[str, tuple] = {
    "schema_version": (int,),
    "run": (str,),
    "trace": (str, type(None)),
    "scale": (int, type(None)),
    "seed": (int,),
    "config_hash": (str,),
    "spec": (dict, type(None)),
    "jobs": (int,),
    "mode": (str,),
    "wall_time_s": (int, float),
    "sim_wall_time_s": (int, float),
    "references": (int,),
    "references_per_sec": (int, float),
    "system_runs": (int,),
    "level_runs": (int,),
    "l1i": (dict,),
    "l1d": (dict,),
    "l2": (dict,),
    "level": (dict,),
    "engine": (dict,),
}

#: Optional top-level fields: validated when present, absent in records
#: written by older emitters.  Additive extensions land here so the
#: schema version (and every stored record) survives unchanged.
_OPTIONAL_SCHEMA: Dict[str, tuple] = {
    # Result-store traffic: {"hits": int, "misses": int, "bytes_read": int};
    # empty when no result store was active for the run.
    "store": (dict,),
    # Fault-recovery activity: {"retries": int, "timeouts": int,
    # "pool_rebuilds": int, "poisoned_jobs": int}; empty on healthy runs.
    "resilience": (dict,),
    # Simulation-kernel backend selection: backend name -> job count
    # (e.g. {"numpy": 12, "python": 3}); empty when the run dispatched
    # no backend-selected simulations.
    "backends": (dict,),
    # Serving-layer traffic from the repro-serve daemon: {"requests": int,
    # "warm_hits": int, "cold_misses": int, "coalesced": int,
    # "rejected": int, "failed": int, ...}; empty for non-serving runs.
    "serving": (dict,),
    # Replayable workload specs the run was driven with: a list of
    # kind-tagged dicts (repro.specs.workload_from_dict rebuilds each);
    # absent/empty when the run used the implicit benchmark suite.
    "workloads": (list,),
}

_MODES = ("serial", "parallel")

#: The record's ``str -> int`` counter sections, under the names a
#: :class:`~repro.telemetry.core.MetricsScope` collects them
#: (``MetricsScope.sections``); :func:`build_run_record` copies each one
#: as its producer left it.
COUNTER_SECTIONS = ("l1i", "l1d", "l2", "level", "store", "resilience", "backends", "serving")


def config_hash(config: object) -> str:
    """Stable short hash of a configuration object.

    Objects with canonical JSON (:class:`~repro.specs.SystemSpec`,
    :class:`~repro.specs.StructureSpec`) hash that JSON, which is
    key-sorted and process/version independent — equal hashes mean
    field-for-field equal specs.  Plain dataclasses
    (``SystemConfig``, ``CacheConfig``, ...) hash their field dict;
    anything else hashes its ``repr``.  The hash identifies "same
    configuration" across runs and machines — it is not cryptographic
    provenance.
    """
    to_json = getattr(config, "to_json", None)
    if callable(to_json):
        payload = to_json()
    elif dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = json.dumps(dataclasses.asdict(config), sort_keys=True, default=repr)
    else:
        payload = repr(config)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return digest[:16]


@dataclass
class RunRecord:
    """One run's telemetry, shaped for JSON Lines emission."""

    run: str
    seed: int
    config_hash: str
    jobs: int
    mode: str
    wall_time_s: float
    trace: Optional[str] = None
    scale: Optional[int] = None
    #: Canonical dict of the run's SystemSpec (schema v2); None when the
    #: emitter had no spec to attach.  ``SystemSpec.from_dict(spec)``
    #: rebuilds the exact configuration that produced the record.
    spec: Optional[Dict[str, object]] = None
    sim_wall_time_s: float = 0.0
    references: int = 0
    references_per_sec: float = 0.0
    system_runs: int = 0
    level_runs: int = 0
    l1i: Dict[str, int] = field(default_factory=dict)
    l1d: Dict[str, int] = field(default_factory=dict)
    l2: Dict[str, int] = field(default_factory=dict)
    level: Dict[str, int] = field(default_factory=dict)
    engine: Dict[str, list] = field(default_factory=lambda: {"job_batches": [], "fallbacks": []})
    #: Result-store traffic for the run (empty when no store was active).
    store: Dict[str, int] = field(default_factory=dict)
    #: Fault-recovery activity (empty when the run needed none).
    resilience: Dict[str, int] = field(default_factory=dict)
    #: Kernel-backend selection counts (empty when nothing dispatched).
    backends: Dict[str, int] = field(default_factory=dict)
    #: Serving-layer request counters (empty for non-serving runs).
    serving: Dict[str, int] = field(default_factory=dict)
    #: Replayable workload specs (kind-tagged dicts) the run was driven
    #: with; empty when the run used the implicit benchmark suite.
    workloads: list = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunRecord":
        validate_record(payload)
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in fields})


def build_run_record(
    scope: MetricsScope,
    run: str,
    config: object,
    wall_time_s: float,
    jobs: int = 1,
    scale: Optional[int] = None,
    seed: int = 0,
    trace: Optional[str] = None,
    spec=None,
    workloads=None,
) -> RunRecord:
    """Fold a finished scope into a :class:`RunRecord`.

    When *spec* (a :class:`~repro.specs.SystemSpec`) is given, it is
    embedded in the record and the config hash is derived from its
    canonical JSON, superseding *config*.  *workloads* is an optional
    sequence of :class:`~repro.specs.WorkloadSpec` (or their dicts)
    naming the streams the run was driven with; each is embedded in
    replayable kind-tagged dict form.
    """
    return RunRecord(
        run=run,
        trace=trace,
        scale=scale,
        seed=seed,
        config_hash=config_hash(spec if spec is not None else config),
        spec=None if spec is None else spec.as_dict(),
        jobs=jobs,
        mode="parallel" if jobs > 1 else "serial",
        wall_time_s=round(wall_time_s, 6),
        sim_wall_time_s=round(scope.sim_wall_time, 6),
        references=scope.references,
        references_per_sec=round(scope.references_per_sec, 3),
        system_runs=scope.system_runs,
        level_runs=scope.level_runs,
        engine={
            "job_batches": [batch.as_dict() for batch in scope.job_batches],
            "fallbacks": [event.as_dict() for event in scope.fallbacks],
        },
        **{name: dict(scope.sections.get(name, {})) for name in COUNTER_SECTIONS},
        workloads=[
            w.as_dict() if hasattr(w, "as_dict") else dict(w) for w in (workloads or ())
        ],
    )


def validate_record(payload: Mapping) -> None:
    """Raise ``ValueError`` unless *payload* matches the run-record schema."""
    if not isinstance(payload, Mapping):
        raise ValueError(f"run record must be a JSON object, got {type(payload).__name__}")
    missing = [key for key in _SCHEMA if key not in payload]
    if missing:
        raise ValueError(f"run record missing fields: {', '.join(missing)}")
    for key, types in _SCHEMA.items():
        value = payload[key]
        # bool is an int subclass; reject it explicitly for counter fields.
        if isinstance(value, bool) or not isinstance(value, types):
            expected = "/".join(t.__name__ for t in types)
            raise ValueError(f"run record field {key!r} must be {expected}, got {value!r}")
    if payload["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"run record schema_version {payload['schema_version']} "
            f"not supported (expected {SCHEMA_VERSION})"
        )
    if payload["mode"] not in _MODES:
        raise ValueError(f"run record mode must be one of {_MODES}, got {payload['mode']!r}")
    engine = payload["engine"]
    for section in ("job_batches", "fallbacks"):
        if not isinstance(engine.get(section), list):
            raise ValueError(f"run record engine.{section} must be a list")
    for key, types in _OPTIONAL_SCHEMA.items():
        if key in payload and not isinstance(payload[key], types):
            expected = "/".join(t.__name__ for t in types)
            raise ValueError(f"run record field {key!r} must be {expected}, got {payload[key]!r}")
    for entry in payload.get("workloads", ()):
        if not isinstance(entry, dict):
            raise ValueError(f"run record workloads entries must be objects, got {entry!r}")
    for group in (key for key in COUNTER_SECTIONS if key in payload):
        for name, count in payload[group].items():
            if not isinstance(name, str) or isinstance(count, bool) or not isinstance(count, int):
                raise ValueError(f"run record {group} must map str -> int, got {name!r}: {count!r}")


def append_record(path: str, record: RunRecord) -> None:
    """Append one record to a JSON Lines file (creating it if needed)."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(record.to_json())
        handle.write("\n")


def read_records(path: str) -> Iterator[RunRecord]:
    """Read and validate every record of a JSON Lines file."""
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_number}: not valid JSON: {exc}") from None
            yield RunRecord.from_dict(payload)
