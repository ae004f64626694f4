"""Declarative specs for the paper's helper structures.

A :class:`StructureSpec` is a frozen, picklable, hashable dataclass that
names one helper-structure configuration *completely*: kind, geometry,
and every behavioural option (replacement policy, ablation flags,
instrumentation).  Specs are the currency of the parallel engine — a
worker process rebuilds the exact structure from the spec — and of the
telemetry layer, whose run records embed the spec so a run is replayable
from the record alone.

The contract, pinned by ``tests/test_specs.py``:

* ``build(spec)`` constructs the live structure the spec names, honouring
  every field.  It is the one bridge between specs and live structures:
  structures flow spec -> structure, never back;
* ``StructureSpec.from_dict(spec.as_dict()) == spec`` and the JSON
  rendering (:meth:`StructureSpec.to_json`) is canonical — key-sorted,
  so equal specs serialize to equal strings.

The legacy string codes (``"mc4"``, ``"vc4"``, ``"sb4"``, ``"sb4x4"``)
parse into specs via :func:`parse_structure_code`.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass
from typing import ClassVar, Dict, Mapping, Optional, Tuple, Type

from ..common.errors import ConfigurationError

__all__ = [
    "SpecError",
    "StructureSpec",
    "MissCacheSpec",
    "VictimCacheSpec",
    "StreamBufferSpec",
    "MultiWayStreamBufferSpec",
    "StrideBufferSpec",
    "MultiWayStrideBufferSpec",
    "CompositeSpec",
    "register_structure",
    "registered_kinds",
    "build",
    "structure_from_dict",
    "parse_structure_code",
]


class SpecError(ConfigurationError):
    """A spec that fails validation: a wrong type, an unknown kind or field, a bad value."""


#: kind tag -> spec class, populated by :func:`register_structure`.
_KINDS: Dict[str, Type["StructureSpec"]] = {}


def register_structure(cls: Type["StructureSpec"]) -> Type["StructureSpec"]:
    """Class decorator: make a spec class reachable by its ``kind`` tag."""
    if not cls.kind:
        raise SpecError(f"{cls.__name__} must define a non-empty kind tag")
    if cls.kind in _KINDS:
        raise SpecError(f"duplicate structure kind {cls.kind!r}")
    _KINDS[cls.kind] = cls
    return cls


def registered_kinds() -> Dict[str, Type["StructureSpec"]]:
    """Kind tag -> spec class for every registered structure."""
    return dict(_KINDS)


@dataclass(frozen=True)
class StructureSpec:
    """Base of all structure specs: canonical (de)serialization."""

    #: Tag identifying the spec class in serialized form.
    kind: ClassVar[str] = ""

    def build(self):
        """Construct the live structure this spec names."""
        raise NotImplementedError

    def as_dict(self) -> Dict[str, object]:
        """Kind-tagged plain-data dict (JSON-safe, recursively)."""
        payload: Dict[str, object] = {"kind": self.kind}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, StructureSpec):
                value = value.as_dict()
            elif isinstance(value, tuple):
                value = [
                    member.as_dict() if isinstance(member, StructureSpec) else member
                    for member in value
                ]
            payload[field.name] = value
        return payload

    def to_json(self) -> str:
        """Canonical JSON: key-sorted, no whitespace variance."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StructureSpec":
        """Rebuild any registered spec from its :meth:`as_dict` form."""
        return structure_from_dict(payload)

    @classmethod
    def from_json(cls, text: str) -> "StructureSpec":
        return structure_from_dict(json.loads(text))


def structure_from_dict(payload: Mapping) -> StructureSpec:
    """Spec instance from a kind-tagged dict (inverse of ``as_dict``)."""
    if not isinstance(payload, Mapping):
        raise SpecError(f"structure spec payload must be a mapping, got {payload!r}")
    try:
        kind = payload["kind"]
    except KeyError:
        raise SpecError(f"structure spec payload has no 'kind' tag: {payload!r}") from None
    spec_cls = _KINDS.get(kind)
    if spec_cls is None:
        known = ", ".join(sorted(_KINDS))
        raise SpecError(f"unknown structure kind {kind!r}; known: {known}")
    field_names = {field.name for field in dataclasses.fields(spec_cls)}
    unknown = set(payload) - field_names - {"kind"}
    if unknown:
        raise SpecError(f"{kind} spec has unknown fields: {sorted(unknown)}")
    kwargs: Dict[str, object] = {}
    for name in field_names:
        if name not in payload:
            continue
        value = payload[name]
        if name == "members":
            value = tuple(structure_from_dict(member) for member in value)
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    return spec_cls(**kwargs)


def build(spec: Optional[StructureSpec]):
    """Live structure from a spec (None stays None: the bare baseline)."""
    if spec is None:
        return None
    if not isinstance(spec, StructureSpec):
        raise SpecError(
            f"expected a StructureSpec or None, got {type(spec).__name__}: {spec!r}"
        )
    return spec.build()


# -- the registered spec classes ----------------------------------------------


@register_structure
@dataclass(frozen=True)
class MissCacheSpec(StructureSpec):
    """§3.1 miss cache: caches the *requested* line on every L1 miss."""

    kind: ClassVar[str] = "miss_cache"

    entries: int
    policy: str = "lru"
    track_depths: bool = False

    def build(self):
        from ..buffers.miss_cache import MissCache
        from ..caches.fully_associative import ReplacementPolicy

        return MissCache(
            self.entries,
            track_depths=self.track_depths,
            policy=ReplacementPolicy(self.policy),
        )


@register_structure
@dataclass(frozen=True)
class VictimCacheSpec(StructureSpec):
    """§3.2 victim cache: caches the L1 *victim*, swapping on a hit."""

    kind: ClassVar[str] = "victim_cache"

    entries: int
    policy: str = "lru"
    swap_on_hit: bool = True
    track_depths: bool = False

    def build(self):
        from ..buffers.victim_cache import VictimCache
        from ..caches.fully_associative import ReplacementPolicy

        return VictimCache(
            self.entries,
            track_depths=self.track_depths,
            swap_on_hit=self.swap_on_hit,
            policy=ReplacementPolicy(self.policy),
        )


@register_structure
@dataclass(frozen=True)
class StreamBufferSpec(StructureSpec):
    """§4.1 sequential stream buffer (single way)."""

    kind: ClassVar[str] = "stream_buffer"

    entries: int = 4
    max_run: Optional[int] = None
    track_run_offsets: bool = False
    model_availability: bool = False
    fill_latency: int = 12
    issue_interval: int = 4
    head_only: bool = True
    allocation_filter: bool = False

    def build(self):
        from ..buffers.stream_buffer import StreamBuffer

        return StreamBuffer(
            entries=self.entries,
            max_run=self.max_run,
            track_run_offsets=self.track_run_offsets,
            model_availability=self.model_availability,
            fill_latency=self.fill_latency,
            issue_interval=self.issue_interval,
            head_only=self.head_only,
            allocation_filter=self.allocation_filter,
        )


@register_structure
@dataclass(frozen=True)
class MultiWayStreamBufferSpec(StructureSpec):
    """§4.2 multi-way stream buffer: parallel ways, LRU allocation."""

    kind: ClassVar[str] = "multi_way_stream_buffer"

    ways: int = 4
    entries: int = 4
    max_run: Optional[int] = None
    track_run_offsets: bool = False
    model_availability: bool = False
    fill_latency: int = 12
    issue_interval: int = 4
    head_only: bool = True
    allocation_filter: bool = False

    def build(self):
        from ..buffers.stream_buffer import MultiWayStreamBuffer

        return MultiWayStreamBuffer(
            ways=self.ways,
            entries=self.entries,
            max_run=self.max_run,
            track_run_offsets=self.track_run_offsets,
            model_availability=self.model_availability,
            fill_latency=self.fill_latency,
            issue_interval=self.issue_interval,
            head_only=self.head_only,
            allocation_filter=self.allocation_filter,
        )


@register_structure
@dataclass(frozen=True)
class StrideBufferSpec(StructureSpec):
    """§5-extension stride prefetch buffer (single way)."""

    kind: ClassVar[str] = "stride_buffer"

    entries: int = 4
    max_stride: int = 256
    min_stride: int = 1
    track_run_offsets: bool = False

    def build(self):
        from ..buffers.stride import StrideStreamBuffer

        return StrideStreamBuffer(
            entries=self.entries,
            max_stride=self.max_stride,
            min_stride=self.min_stride,
            track_run_offsets=self.track_run_offsets,
        )


@register_structure
@dataclass(frozen=True)
class MultiWayStrideBufferSpec(StructureSpec):
    """§5-extension multi-way stride prefetcher."""

    kind: ClassVar[str] = "multi_way_stride_buffer"

    ways: int = 4
    entries: int = 4
    max_stride: int = 256
    min_stride: int = 1
    track_run_offsets: bool = False

    def build(self):
        from ..buffers.stride import MultiWayStrideBuffer

        return MultiWayStrideBuffer(
            ways=self.ways,
            entries=self.entries,
            max_stride=self.max_stride,
            min_stride=self.min_stride,
            track_run_offsets=self.track_run_offsets,
        )


@register_structure
@dataclass(frozen=True)
class CompositeSpec(StructureSpec):
    """§5 combined system: several structures behind one cache."""

    kind: ClassVar[str] = "composite"

    members: Tuple[StructureSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.members:
            raise SpecError("CompositeSpec needs at least one member")
        if not all(isinstance(member, StructureSpec) for member in self.members):
            raise SpecError("CompositeSpec members must be StructureSpecs")

    def build(self):
        from ..buffers.base import CompositeAugmentation

        return CompositeAugmentation([member.build() for member in self.members])


# -- legacy short codes --------------------------------------------------------

_CODE_PATTERNS: Tuple[Tuple[re.Pattern, str], ...] = (
    (re.compile(r"^mc(\d+)$"), "mc"),
    (re.compile(r"^vc(\d+)$"), "vc"),
    (re.compile(r"^sb(\d+)$"), "sb"),
    (re.compile(r"^sb(\d+)x(\d+)$"), "msb"),
)


def parse_structure_code(code: Optional[str]) -> Optional[StructureSpec]:
    """Spec for a legacy string code (``"none"``/None -> None).

    Codes name only the paper's default-option structures: ``mc<N>``,
    ``vc<N>``, ``sb<N>``, and ``sb<W>x<N>``.
    """
    if code is None or code == "none":
        return None
    for pattern, tag in _CODE_PATTERNS:
        match = pattern.match(code)
        if match is None:
            continue
        if tag == "mc":
            return MissCacheSpec(int(match.group(1)))
        if tag == "vc":
            return VictimCacheSpec(int(match.group(1)))
        if tag == "sb":
            return StreamBufferSpec(int(match.group(1)))
        return MultiWayStreamBufferSpec(int(match.group(1)), int(match.group(2)))
    raise ConfigurationError(
        f"unknown structure spec {code!r}; expected none/mc<N>/vc<N>/sb<N>/sb<W>x<N>"
    )
