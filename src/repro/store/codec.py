"""JSON codec for the result types the engine memoizes.

Each cacheable job result — :class:`~repro.experiments.engine.LevelSummary`,
:class:`~repro.experiments.sweeps.EntrySweep`,
:class:`~repro.experiments.sweeps.RunLengthSweep`,
:class:`~repro.hierarchy.system.SystemResult` — is all integers, so JSON
round trips are *exact*: a decoded result compares equal to the
original, which is what lets a warm store reproduce every output row
bit-for-bit.

Imports of the result types are deferred to the first codec call (and
then remembered): ``repro.experiments.engine`` imports the store, so
importing engine types at module level here would close a cycle.

Only simulation results are storable; anything else is a ``TypeError``
on encode and a miss on decode.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict

__all__ = ["encode_result", "decode_result"]


@lru_cache(maxsize=None)
def _result_types() -> Dict[str, type]:
    from ..experiments.engine import LevelSummary
    from ..experiments.sweeps import EntrySweep, RunLengthSweep
    from ..hierarchy.system import SystemResult

    return {
        "LevelSummary": LevelSummary,
        "EntrySweep": EntrySweep,
        "RunLengthSweep": RunLengthSweep,
        "SystemResult": SystemResult,
    }


def encode_result(result: object) -> Dict[str, object]:
    """``{"type": ..., "fields": ...}`` for a supported result object."""
    types = _result_types()
    for name, cls in types.items():
        if type(result) is cls:
            fields = {
                key: value.as_dict() if hasattr(value, "as_dict") else value
                for key, value in vars(result).items()
            }
            return {"type": name, "fields": fields}
    raise TypeError(f"result type {type(result).__name__} is not storable")


def _int_list(value: object) -> list:
    if not isinstance(value, list):
        raise TypeError("expected a list")
    return [int(item) for item in value]


def _decode_level_summary(cls: type, fields: Dict[str, object]):
    conflicts = fields.get("conflict_misses")
    return cls(
        accesses=int(fields["accesses"]),
        demand_misses=int(fields["demand_misses"]),
        removed_misses=int(fields["removed_misses"]),
        misses_to_next_level=int(fields["misses_to_next_level"]),
        stream_stall_cycles=int(fields.get("stream_stall_cycles", 0)),
        conflict_misses=None if conflicts is None else int(conflicts),
    )


def _decode_entry_sweep(cls: type, fields: Dict[str, object]):
    return cls(
        total_misses=int(fields["total_misses"]),
        conflict_misses=int(fields["conflict_misses"]),
        hits_by_entries=_int_list(fields["hits_by_entries"]),
    )


def _decode_run_sweep(cls: type, fields: Dict[str, object]):
    return cls(
        total_misses=int(fields["total_misses"]),
        removed_by_run=_int_list(fields["removed_by_run"]),
    )


def _counters(cls: type, fields):
    """A slotted counter group from its ``as_dict`` snapshot (derived keys ignored)."""
    counters = cls()
    for slot in cls.__slots__:
        setattr(counters, slot, int(fields[slot]))
    return counters


def _decode_system_result(cls: type, fields: Dict[str, object]):
    from ..hierarchy.level import LevelStats
    from ..hierarchy.system import L2Stats

    return cls(
        instructions=int(fields["instructions"]),
        data_references=int(fields["data_references"]),
        istats=_counters(LevelStats, fields["istats"]),
        dstats=_counters(LevelStats, fields["dstats"]),
        l2stats=_counters(L2Stats, fields["l2stats"]),
    )


_DECODERS: Dict[str, Callable] = {
    "LevelSummary": _decode_level_summary,
    "EntrySweep": _decode_entry_sweep,
    "RunLengthSweep": _decode_run_sweep,
    "SystemResult": _decode_system_result,
}


def decode_result(payload: object) -> object:
    """Rebuild a result object from its :func:`encode_result` form.

    Raises ``KeyError``/``TypeError``/``ValueError`` on malformed
    payloads — :meth:`ResultStore.get` turns any of those into a miss.
    """
    if not isinstance(payload, dict):
        raise TypeError("result payload must be a mapping")
    name = payload["type"]
    fields = payload["fields"]
    if not isinstance(fields, dict):
        raise TypeError("result fields must be a mapping")
    decoder = _DECODERS[name]
    return decoder(_result_types()[name], fields)
