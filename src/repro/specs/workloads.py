"""Declarative workload specs: trace identity beyond the name registry.

A trace's identity is a kind-tagged hierarchy of frozen, hashable,
picklable specs with canonical JSON — the same shape structure specs
have — so any spec-built trace is visible to the parallel engine, the
result store, and the serve daemon:

* :class:`NamedWorkloadSpec` (kind ``"named"``) wraps the registry
  losslessly as ``(name, scale, seed)``, and legacy kind-less
  ``{"name", "scale", "seed"}`` payloads still parse;
* the parameterized pattern specs (:class:`ZipfianSpec`,
  :class:`HotspotSpec`, :class:`BurstySpec`, :class:`PointerChaseSpec`,
  :class:`SequentialSpec`, :class:`UniformRandomSpec`) build finite
  data-reference traces from the generators in
  :mod:`repro.traces.patterns` — the access classes a cache in front of
  many users actually sees;
* :class:`TenantMixSpec` composes N tenant sub-specs into one stream
  with Zipfian tenant popularity, deterministic phase changes, and
  per-tenant address spaces (the multi-tenant traffic mixer).

The contract mirrors ``StructureSpec``, pinned by
``tests/test_workload_specs.py``:

* ``spec.build()`` constructs the :class:`~repro.traces.trace.Trace`
  the spec names, and stamps the spec's canonical JSON into
  ``TraceMeta.source`` so :func:`workload_spec_of` recovers the spec
  from any materialized trace built through a spec (or through
  :func:`repro.traces.registry.build_trace`);
* ``workload_from_dict(spec.as_dict()) == spec`` and ``to_json`` is
  canonical — key-sorted, so equal specs serialize to equal strings;
* ``spec.trace()`` materializes through the per-process memo in
  :mod:`repro.experiments.workloads` and ``spec.fingerprint()`` is the
  content hash the result store keys on, remembered per process beyond
  the trace's own lifetime — equal reference streams share a
  fingerprint no matter which spec produced them.

Every pattern stream is driven by an explicit :class:`random.Random`
seeded from a *string* (stable across processes and Python versions),
so a spec's trace is exactly reproducible anywhere.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import json
import random
from dataclasses import dataclass
from typing import ClassVar, Dict, Iterator, Mapping, Optional, Tuple, Type

from ..common.errors import ConfigurationError, UnknownWorkloadError
from ..common.types import AccessKind
from .structures import SpecError

__all__ = [
    "WorkloadSpec",
    "NamedWorkloadSpec",
    "SequentialSpec",
    "UniformRandomSpec",
    "ZipfianSpec",
    "HotspotSpec",
    "BurstySpec",
    "PointerChaseSpec",
    "TenantMixSpec",
    "register_workload",
    "registered_workload_kinds",
    "workload_from_dict",
    "workload_from_json",
    "workload_spec_of",
    "unkeyed_reason",
    "parse_workload",
    "WORKLOAD_PRESETS",
]

Pair = Tuple[int, int]

_IFETCH = int(AccessKind.IFETCH)
_LOAD = int(AccessKind.LOAD)
_STORE = int(AccessKind.STORE)

#: kind tag -> spec class, populated by :func:`register_workload`.
_KINDS: Dict[str, Type["WorkloadSpec"]] = {}


def register_workload(cls: Type["WorkloadSpec"]) -> Type["WorkloadSpec"]:
    """Class decorator: make a workload spec reachable by its ``kind`` tag."""
    if not cls.kind:
        raise SpecError(f"{cls.__name__} must define a non-empty kind tag")
    if cls.kind in _KINDS:
        raise SpecError(f"duplicate workload kind {cls.kind!r}")
    _KINDS[cls.kind] = cls
    return cls


def registered_workload_kinds() -> Dict[str, Type["WorkloadSpec"]]:
    """Kind tag -> spec class for every registered workload."""
    return dict(_KINDS)


# -- validation helpers --------------------------------------------------------


def _positive_int(kind: str, name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SpecError(f"{kind} spec: {name} must be a positive integer, got {value!r}")


def _base_address(kind: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SpecError(f"{kind} spec: base must be a non-negative integer, got {value!r}")


def _fraction(kind: str, name: str, value) -> None:
    if not isinstance(value, (int, float)) or not 0.0 <= float(value) <= 1.0:
        raise SpecError(f"{kind} spec: {name} must be in [0, 1], got {value!r}")


@dataclass(frozen=True)
class WorkloadSpec:
    """Base of all workload specs: canonical (de)serialization + identity.

    A workload spec names a reference stream *completely*: two equal
    specs build byte-identical traces in any process.  Subclasses
    implement :meth:`build` (or the :meth:`_stream` hook plus a
    ``length`` field for finite pattern traces).
    """

    #: Tag identifying the spec class in serialized form.
    kind: ClassVar[str] = ""

    # -- identity -------------------------------------------------------------

    @property
    def label(self) -> str:
        """Short human-readable name (heartbeats, error messages)."""
        return self.kind

    def resolve(self) -> "WorkloadSpec":
        """The spec with ambient defaults pinned — the trace-memo key.

        Pattern specs are already fully explicit; the named spec
        resolves ``scale=None`` against ``REPRO_SCALE`` the way the
        engine's per-worker memo always has.
        """
        return self

    @classmethod
    def of(cls, trace) -> Optional["WorkloadSpec"]:
        """Spec for a materialized trace, or None when it has none.

        Any trace built through a spec (or the registry) carries its
        spec's canonical JSON in ``meta.source`` and round-trips; see
        :func:`workload_spec_of` for the recovery rules and
        :func:`unkeyed_reason` for why a trace has none.
        """
        return workload_spec_of(trace)

    # -- materialization ------------------------------------------------------

    def build(self):
        """Construct the :class:`~repro.traces.trace.Trace` this spec names.

        The default implementation covers finite pattern specs: a
        ``length``-reference replay of :meth:`pairs`, with the spec's
        canonical JSON stamped into ``TraceMeta.source``.
        """
        from ..traces.trace import Trace, TraceMeta

        length = getattr(self, "length", None)
        if length is None:
            raise SpecError(f"{type(self).__name__} does not define build()")
        resolved = self.resolve()
        meta = TraceMeta(
            name=self.kind,
            program_type="synthetic access pattern",
            description=self.label,
            seed=getattr(self, "seed", 0),
            scale=length,
            source=resolved.to_json(),
        )
        return Trace(meta, lambda: itertools.islice(resolved.pairs(), length))

    def trace(self):
        """Materialize (memoized per process) the referenced trace."""
        from ..experiments.workloads import materialized_workload

        return materialized_workload(self)

    def fingerprint(self) -> str:
        """Content hash of the spec's reference stream.

        Materializes the trace (through the process memo) on first use;
        the hash is then remembered per resolved spec, even after the
        trace itself is evicted, so later calls build nothing.  This is
        the content half of the result store's key: the spec hash pins
        the *reference*, the fingerprint pins what the reference
        actually resolved to.
        """
        from ..experiments.workloads import workload_fingerprint

        return workload_fingerprint(self)

    def pairs(self, salt: str = "") -> Iterator[Pair]:
        """Infinite ``(kind, address)`` stream, reproducible from the seed.

        *salt* decorrelates multiple independent draws of the same spec
        (the tenant mixer feeds each tenant slot its own salt).  String
        seeding keeps the stream stable across processes.
        """
        rng = random.Random(f"workload:{self.kind}:{getattr(self, 'seed', 0)}:{salt}")
        return self._stream(rng)

    def _stream(self, rng: random.Random) -> Iterator[Pair]:
        raise NotImplementedError

    def _data_pairs(self, rng: random.Random, addresses: Iterator[int]) -> Iterator[Pair]:
        """Tag an address stream with LOAD/STORE kinds by ``store_fraction``."""
        store_fraction = getattr(self, "store_fraction", 0.0)
        for address in addresses:
            kind = _STORE if rng.random() < store_fraction else _LOAD
            yield (kind, address)

    # -- serialization --------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Kind-tagged plain-data dict (JSON-safe, recursively)."""
        payload: Dict[str, object] = {"kind": self.kind}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, WorkloadSpec):
                value = value.as_dict()
            elif isinstance(value, tuple):
                value = [
                    member.as_dict() if isinstance(member, WorkloadSpec) else member
                    for member in value
                ]
            payload[field.name] = value
        return payload

    def to_json(self) -> str:
        """Canonical JSON: key-sorted, no whitespace variance."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: Mapping) -> "WorkloadSpec":
        """Rebuild any registered spec from its :meth:`as_dict` form."""
        return workload_from_dict(payload)

    @classmethod
    def from_json(cls, text: str) -> "WorkloadSpec":
        return workload_from_dict(json.loads(text))


def workload_from_dict(payload: Mapping) -> WorkloadSpec:
    """Spec instance from a kind-tagged dict (inverse of ``as_dict``).

    Legacy kind-less payloads with a ``"name"`` key — the original
    named-trace wire shape, still present in stored telemetry records
    — parse as :class:`NamedWorkloadSpec`.
    """
    if not isinstance(payload, Mapping):
        raise SpecError(f"workload spec payload must be a mapping, got {payload!r}")
    kind = payload.get("kind")
    if kind is None:
        if "name" in payload:
            kind = NamedWorkloadSpec.kind
        else:
            raise SpecError(f"workload spec payload has no 'kind' tag: {payload!r}")
    spec_cls = _KINDS.get(kind)
    if spec_cls is None:
        known = ", ".join(sorted(_KINDS))
        raise SpecError(f"unknown workload kind {kind!r}; known: {known}")
    field_names = {field.name for field in dataclasses.fields(spec_cls)}
    unknown = set(payload) - field_names - {"kind"}
    if unknown:
        raise SpecError(f"{kind} workload spec has unknown fields: {sorted(unknown)}")
    kwargs: Dict[str, object] = {}
    for name in field_names:
        if name not in payload:
            continue
        value = payload[name]
        if name == "tenants":
            value = tuple(workload_from_dict(member) for member in value)
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    return spec_cls(**kwargs)


def workload_from_json(text: str) -> WorkloadSpec:
    """Spec instance from canonical (or any) JSON text."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"workload spec is not valid JSON: {exc}") from None
    return workload_from_dict(payload)


# -- trace -> spec recovery ----------------------------------------------------


def workload_spec_of(trace) -> Optional[WorkloadSpec]:
    """The workload spec of a materialized trace, or None for hand-made ones.

    Recovery order:

    1. ``meta.source`` — every trace built through a spec or through
       :func:`repro.traces.registry.build_trace` carries its spec's
       canonical JSON (any scale, including 0);
    2. legacy registry provenance — a trace whose meta predates the
       ``source`` field but names a registry benchmark at a nonzero
       recorded scale is still rebuildable by reference;
    3. anything else (hand-made traces, foreign metas) has no spec.
    """
    meta = getattr(trace, "meta", None)
    if meta is None:
        return None
    source = getattr(meta, "source", "")
    if source:
        try:
            return workload_from_json(source)
        except SpecError:
            return None
    if not getattr(meta, "scale", 0):
        return None
    from ..traces.registry import get_workload

    try:
        get_workload(meta.name)
    except UnknownWorkloadError:
        return None
    return NamedWorkloadSpec(name=meta.name, scale=meta.scale, seed=getattr(meta, "seed", 0))


def unkeyed_reason(trace) -> str:
    """Why :func:`workload_spec_of` returned None for *trace*.

    Quoted by the :class:`~repro.common.errors.ConfigurationError` that
    :meth:`~repro.specs.SystemSpec.for_level` raises for an unkeyed
    trace, so "hand-made trace" and "registry trace built at scale 0
    without provenance" are reported as the distinct situations they
    are.
    """
    meta = getattr(trace, "meta", None)
    name = getattr(trace, "name", "<unnamed>")
    if meta is None:
        return f"{name!r} has no trace metadata"
    if getattr(meta, "source", ""):
        return f"{name!r} carries unparseable workload provenance"
    from ..traces.registry import get_workload

    try:
        get_workload(meta.name)
    except UnknownWorkloadError:
        return f"{name!r} is hand-made (no workload spec provenance)"
    if not getattr(meta, "scale", 0):
        return (
            f"{name!r} is a registry trace built at scale 0 without recorded "
            "provenance (rebuild it via build_trace to key it)"
        )
    return f"{name!r} unexpectedly has no workload spec"


# -- the registered spec classes ----------------------------------------------


@register_workload
@dataclass(frozen=True)
class NamedWorkloadSpec(WorkloadSpec):
    """Reference to a registry workload trace: (name, scale, seed).

    ``scale=None`` means "the ambient default scale", resolved against
    ``REPRO_SCALE`` by :meth:`resolve` exactly like the engine's
    per-worker memo key.
    """

    kind: ClassVar[str] = "named"

    name: str
    scale: Optional[int] = None
    seed: int = 0

    @property
    def label(self) -> str:
        return self.name

    def resolve(self) -> "NamedWorkloadSpec":
        if self.scale is not None:
            return self
        from ..experiments.workloads import default_scale

        scale = default_scale()
        if scale is None:
            return self
        return NamedWorkloadSpec(name=self.name, scale=scale, seed=self.seed)

    def build(self):
        from ..traces.registry import build_trace

        return build_trace(self.name, self.scale, self.seed)

    def _stream(self, rng: random.Random) -> Iterator[Pair]:
        # Tenant-mix hook: cycle the materialized replay endlessly.
        trace = self.trace()
        if not len(trace):
            raise SpecError(f"named workload {self.name!r} produced an empty trace")
        while True:
            yield from trace


@register_workload
@dataclass(frozen=True)
class SequentialSpec(WorkloadSpec):
    """Wrap-around unit-or-larger-stride sweep (bcopy / streaming scans)."""

    kind: ClassVar[str] = "sequential"

    length: int = 50_000
    extent: int = 256 * 1024
    stride: int = 16
    base: int = 0x10_0000
    store_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        _positive_int(self.kind, "length", self.length)
        _base_address(self.kind, self.base)
        _positive_int(self.kind, "extent", self.extent)
        _positive_int(self.kind, "stride", self.stride)
        _fraction(self.kind, "store_fraction", self.store_fraction)

    def _stream(self, rng: random.Random) -> Iterator[Pair]:
        from ..traces.patterns import stride_stream

        return self._data_pairs(rng, stride_stream(self.base, self.extent, self.stride))


@register_workload
@dataclass(frozen=True)
class UniformRandomSpec(WorkloadSpec):
    """Uniform random references within a working set (capacity traffic)."""

    kind: ClassVar[str] = "uniform_random"

    length: int = 50_000
    working_set: int = 256 * 1024
    granule: int = 16
    base: int = 0x20_0000
    store_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        _positive_int(self.kind, "length", self.length)
        _base_address(self.kind, self.base)
        _positive_int(self.kind, "working_set", self.working_set)
        _positive_int(self.kind, "granule", self.granule)
        _fraction(self.kind, "store_fraction", self.store_fraction)

    def _stream(self, rng: random.Random) -> Iterator[Pair]:
        from ..traces.patterns import random_working_set

        return self._data_pairs(
            rng, random_working_set(rng, self.base, self.working_set, self.granule)
        )


@register_workload
@dataclass(frozen=True)
class ZipfianSpec(WorkloadSpec):
    """Zipf-distributed key popularity over a shuffled key layout.

    Key rank r is drawn with probability proportional to
    ``1 / (r + 1) ** alpha``; ranks are shuffled across the address
    range once per build so popularity is decorrelated from spatial
    layout, the way hot keys scatter across a real heap.
    """

    kind: ClassVar[str] = "zipfian"

    length: int = 50_000
    keys: int = 1_024
    alpha: float = 1.1
    granule: int = 64
    base: int = 0x40_0000
    store_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        _positive_int(self.kind, "length", self.length)
        _base_address(self.kind, self.base)
        _positive_int(self.kind, "keys", self.keys)
        _positive_int(self.kind, "granule", self.granule)
        _fraction(self.kind, "store_fraction", self.store_fraction)
        if self.keys > 1 << 24:
            raise SpecError(f"{self.kind} spec: keys capped at 2^24, got {self.keys}")
        if not isinstance(self.alpha, (int, float)) or self.alpha <= 0:
            raise SpecError(f"{self.kind} spec: alpha must be positive, got {self.alpha!r}")

    def _addresses(self, rng: random.Random) -> Iterator[int]:
        cumulative = []
        total = 0.0
        for rank in range(self.keys):
            total += (rank + 1) ** -self.alpha
            cumulative.append(total)
        slots = list(range(self.keys))
        rng.shuffle(slots)
        while True:
            rank = bisect.bisect_left(cumulative, rng.random() * total)
            rank = min(rank, self.keys - 1)
            yield self.base + slots[rank] * self.granule

    def _stream(self, rng: random.Random) -> Iterator[Pair]:
        return self._data_pairs(rng, self._addresses(rng))


@register_workload
@dataclass(frozen=True)
class HotspotSpec(WorkloadSpec):
    """A hot region absorbing most references over a larger cold set."""

    kind: ClassVar[str] = "hotspot"

    length: int = 50_000
    working_set: int = 64 * 1024
    hot_fraction: float = 0.05
    hot_prob: float = 0.95
    granule: int = 16
    base: int = 0x60_0000
    store_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        _positive_int(self.kind, "length", self.length)
        _base_address(self.kind, self.base)
        _positive_int(self.kind, "working_set", self.working_set)
        _positive_int(self.kind, "granule", self.granule)
        _fraction(self.kind, "hot_fraction", self.hot_fraction)
        _fraction(self.kind, "hot_prob", self.hot_prob)
        _fraction(self.kind, "store_fraction", self.store_fraction)
        if self.working_set < 2 * self.granule:
            raise SpecError(
                f"{self.kind} spec: working_set must hold at least two granules"
            )

    def _addresses(self, rng: random.Random) -> Iterator[int]:
        hot_slots = max(1, int(self.working_set * self.hot_fraction) // self.granule)
        total_slots = max(hot_slots + 1, self.working_set // self.granule)
        cold_slots = total_slots - hot_slots
        while True:
            if rng.random() < self.hot_prob:
                slot = rng.randrange(hot_slots)
            else:
                slot = hot_slots + rng.randrange(cold_slots)
            yield self.base + slot * self.granule

    def _stream(self, rng: random.Random) -> Iterator[Pair]:
        return self._data_pairs(rng, self._addresses(rng))


@register_workload
@dataclass(frozen=True)
class BurstySpec(WorkloadSpec):
    """Random background traffic punctuated by sequential bursts.

    The background is uniform traffic over ``working_set``; with
    probability ``burst_prob`` per reference a ``burst_bytes``-long
    unit-stride burst sweeps through a separate ``region``-byte segment
    — the widely spaced sequential miss runs a single stream buffer can
    follow (§4.1).
    """

    kind: ClassVar[str] = "bursty"

    length: int = 50_000
    working_set: int = 64 * 1024
    region: int = 256 * 1024
    burst_prob: float = 0.02
    burst_bytes: int = 512
    stride: int = 16
    granule: int = 16
    base: int = 0x80_0000
    store_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        _positive_int(self.kind, "length", self.length)
        _base_address(self.kind, self.base)
        _positive_int(self.kind, "working_set", self.working_set)
        _positive_int(self.kind, "region", self.region)
        _positive_int(self.kind, "burst_bytes", self.burst_bytes)
        _positive_int(self.kind, "stride", self.stride)
        _positive_int(self.kind, "granule", self.granule)
        _fraction(self.kind, "burst_prob", self.burst_prob)
        _fraction(self.kind, "store_fraction", self.store_fraction)

    def _stream(self, rng: random.Random) -> Iterator[Pair]:
        from ..traces.patterns import bursty, random_working_set

        background = random_working_set(rng, self.base, self.working_set, self.granule)
        addresses = bursty(
            rng,
            background,
            burst_region_base=self.base + self.working_set,
            burst_region_bytes=self.region,
            burst_prob=self.burst_prob,
            burst_bytes=self.burst_bytes,
            stride=self.stride,
        )
        return self._data_pairs(rng, addresses)


@register_workload
@dataclass(frozen=True)
class PointerChaseSpec(WorkloadSpec):
    """Linked-data-structure walk: poor spatial locality, few fields/node."""

    kind: ClassVar[str] = "pointer_chase"

    length: int = 50_000
    nodes: int = 4_096
    node_size: int = 64
    fields_per_visit: int = 2
    base: int = 0xA0_0000
    store_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        _positive_int(self.kind, "length", self.length)
        _base_address(self.kind, self.base)
        _positive_int(self.kind, "nodes", self.nodes)
        _positive_int(self.kind, "node_size", self.node_size)
        _positive_int(self.kind, "fields_per_visit", self.fields_per_visit)
        _fraction(self.kind, "store_fraction", self.store_fraction)

    def _stream(self, rng: random.Random) -> Iterator[Pair]:
        from ..traces.patterns import pointer_chase

        addresses = pointer_chase(
            rng, self.base, self.nodes, self.node_size, self.fields_per_visit
        )
        return self._data_pairs(rng, addresses)


@register_workload
@dataclass(frozen=True)
class TenantMixSpec(WorkloadSpec):
    """N tenant sub-specs interleaved with Zipfian popularity and phases.

    Each reference picks a tenant by Zipf(alpha) over the current
    popularity ranking and takes the tenant's next reference, offset
    into a private ``tenant_span``-byte address space (distinct tenants
    never alias).  Every ``phase_length`` references (0 = never) the
    rank-to-tenant assignment rotates deterministically, modelling the
    popularity churn a long-lived cache serves through.
    """

    kind: ClassVar[str] = "tenant_mix"

    tenants: Tuple[WorkloadSpec, ...] = ()
    length: int = 60_000
    alpha: float = 0.9
    phase_length: int = 0
    tenant_span: int = 1 << 40
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.tenants, list):
            object.__setattr__(self, "tenants", tuple(self.tenants))
        if not self.tenants:
            raise SpecError("tenant_mix spec needs at least one tenant")
        if not all(isinstance(tenant, WorkloadSpec) for tenant in self.tenants):
            raise SpecError("tenant_mix tenants must be WorkloadSpecs")
        _positive_int(self.kind, "length", self.length)
        _positive_int(self.kind, "tenant_span", self.tenant_span)
        if not isinstance(self.alpha, (int, float)) or self.alpha <= 0:
            raise SpecError(f"{self.kind} spec: alpha must be positive, got {self.alpha!r}")
        if isinstance(self.phase_length, bool) or not isinstance(self.phase_length, int) \
                or self.phase_length < 0:
            raise SpecError(
                f"{self.kind} spec: phase_length must be a non-negative integer, "
                f"got {self.phase_length!r}"
            )

    @property
    def label(self) -> str:
        return f"tenant_mix[{len(self.tenants)}]"

    def _stream(self, rng: random.Random) -> Iterator[Pair]:
        count = len(self.tenants)
        streams = [
            iter(tenant.pairs(salt=f"tenant{index}:{self.seed}"))
            for index, tenant in enumerate(self.tenants)
        ]
        cumulative = []
        total = 0.0
        for rank in range(count):
            total += (rank + 1) ** -self.alpha
            cumulative.append(total)
        drawn = 0
        while True:
            phase = 0 if not self.phase_length else drawn // self.phase_length
            rank = bisect.bisect_left(cumulative, rng.random() * total)
            rank = min(rank, count - 1)
            # Deterministic phase change: the popularity ranking rotates
            # across tenants, so every phase has a different hot tenant.
            tenant = (rank + phase) % count
            kind, address = next(streams[tenant])
            yield (kind, address + tenant * self.tenant_span)
            drawn += 1


# -- CLI / serve parsing -------------------------------------------------------

#: Preset names accepted by ``--workload`` and :func:`parse_workload`:
#: each is one default-parameter spec per access class, plus a
#: four-tenant mixer with phase churn.
WORKLOAD_PRESETS: Dict[str, WorkloadSpec] = {
    "zipfian": ZipfianSpec(),
    "hotspot": HotspotSpec(),
    "bursty": BurstySpec(),
    "pointer_chase": PointerChaseSpec(),
    "sequential": SequentialSpec(),
    "uniform": UniformRandomSpec(),
    "tenant_mix": TenantMixSpec(
        tenants=(
            ZipfianSpec(length=20_000),
            PointerChaseSpec(length=20_000),
            SequentialSpec(length=20_000),
            HotspotSpec(length=20_000),
        ),
        length=60_000,
        phase_length=15_000,
    ),
}


def parse_workload(text: str) -> WorkloadSpec:
    """Workload spec from CLI text: inline JSON, preset, or registry name.

    Raises :class:`~repro.common.errors.ConfigurationError` (of which
    :class:`SpecError` is a subclass) for anything unparsable, so CLI
    boundaries report exit code 2 the way ``--jobs`` validation does.
    """
    text = text.strip()
    if text.startswith("{"):
        return workload_from_json(text)
    if text in WORKLOAD_PRESETS:
        return WORKLOAD_PRESETS[text]
    from ..traces.registry import get_workload

    try:
        get_workload(text)
    except UnknownWorkloadError:
        presets = ", ".join(sorted(WORKLOAD_PRESETS))
        raise ConfigurationError(
            f"unknown workload {text!r}: not inline spec JSON, not a preset "
            f"({presets}), and not a registry benchmark"
        ) from None
    return NamedWorkloadSpec(name=text)
