"""Property tests for the declarative spec layer (repro.specs).

The spec layer's contract: ``build(spec)`` honours every field of every
registered structure spec, serialization is lossless and canonical
(``from_json(to_json(spec)) == spec``, equal specs give equal strings),
and the telemetry config hash is a pure function of the spec — stable
across processes and perturbed by every field.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.buffers.base import CompositeAugmentation
from repro.buffers.miss_cache import MissCache
from repro.buffers.stream_buffer import MultiWayStreamBuffer, StreamBuffer
from repro.buffers.stride import MultiWayStrideBuffer, StrideStreamBuffer
from repro.buffers.victim_cache import VictimCache
from repro.common.config import CacheConfig, baseline_system
from repro.specs import (
    CompositeSpec,
    MissCacheSpec,
    MultiWayStreamBufferSpec,
    MultiWayStrideBufferSpec,
    NamedWorkloadSpec,
    SpecError,
    StreamBufferSpec,
    StrideBufferSpec,
    StructureSpec,
    SystemSpec,
    VictimCacheSpec,
    build,
    parse_structure_code,
    registered_kinds,
    spec_hash,
    structure_from_dict,
)
from repro.telemetry import config_hash

#: One default-option and one everything-non-default point per registered
#: structure kind, plus a nested composite.  Every contract test below
#: runs over all of these.
SPEC_POINTS = [
    MissCacheSpec(4),
    MissCacheSpec(2, policy="fifo", track_depths=True),
    VictimCacheSpec(4),
    VictimCacheSpec(6, policy="random", swap_on_hit=False, track_depths=True),
    StreamBufferSpec(4),
    StreamBufferSpec(
        entries=8,
        max_run=32,
        track_run_offsets=True,
        model_availability=True,
        fill_latency=10,
        issue_interval=2,
        head_only=False,
        allocation_filter=True,
    ),
    MultiWayStreamBufferSpec(4, 4),
    MultiWayStreamBufferSpec(ways=2, entries=6, max_run=8, head_only=False),
    StrideBufferSpec(4),
    StrideBufferSpec(entries=2, max_stride=64, min_stride=2, track_run_offsets=True),
    MultiWayStrideBufferSpec(4, 4),
    MultiWayStrideBufferSpec(ways=2, entries=2, max_stride=16),
    CompositeSpec(members=(VictimCacheSpec(4), StreamBufferSpec(4))),
    CompositeSpec(
        members=(
            MissCacheSpec(2, policy="fifo"),
            CompositeSpec(members=(StreamBufferSpec(2), StrideBufferSpec(2))),
        )
    ),
]

point_ids = [f"{type(s).__name__}-{i}" for i, s in enumerate(SPEC_POINTS)]

#: Spec class -> the live class ``build`` must return.
BUILT_CLASS = {
    MissCacheSpec: MissCache,
    VictimCacheSpec: VictimCache,
    StreamBufferSpec: StreamBuffer,
    MultiWayStreamBufferSpec: MultiWayStreamBuffer,
    StrideBufferSpec: StrideStreamBuffer,
    MultiWayStrideBufferSpec: MultiWayStrideBuffer,
    CompositeSpec: CompositeAugmentation,
}

#: Spec field -> how a built structure shows it, where that is not an
#: attribute of the same name.  A field that is neither raises
#: AttributeError, so a new spec field cannot go unchecked.
FIELD_READERS = {
    "policy": lambda structure: structure._store.policy.value,
    "track_depths": lambda structure: structure.hit_depths is not None,
    "track_run_offsets": lambda structure: structure.run_offsets is not None,
}


def assert_honours_every_field(spec, structure):
    assert type(structure) is BUILT_CLASS[type(spec)]
    for field in dataclasses.fields(spec):
        expected = getattr(spec, field.name)
        if field.name == "members":
            assert len(structure.members) == len(expected)
            for member_spec, member in zip(expected, structure.members):
                assert_honours_every_field(member_spec, member)
        elif field.name == "ways":
            assert structure.ways == len(structure.way_buffers()) == expected
        else:
            # A multi-way spec's per-buffer fields must reach every way.
            targets = structure.way_buffers() if hasattr(structure, "ways") else [structure]
            read = FIELD_READERS.get(field.name, operator.attrgetter(field.name))
            for target in targets:
                assert read(target) == expected, field.name


class TestStructureRoundTrip:
    @pytest.mark.parametrize("spec", SPEC_POINTS, ids=point_ids)
    def test_build_honours_every_field(self, spec):
        assert_honours_every_field(spec, build(spec))

    @pytest.mark.parametrize("spec", SPEC_POINTS, ids=point_ids)
    def test_dict_round_trip(self, spec):
        assert structure_from_dict(spec.as_dict()) == spec

    @pytest.mark.parametrize("spec", SPEC_POINTS, ids=point_ids)
    def test_json_round_trip(self, spec):
        assert StructureSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("spec", SPEC_POINTS, ids=point_ids)
    def test_pickle_round_trip(self, spec):
        assert pickle.loads(pickle.dumps(spec)) == spec

    @pytest.mark.parametrize("spec", SPEC_POINTS, ids=point_ids)
    def test_hashable_and_consistent(self, spec):
        clone = StructureSpec.from_json(spec.to_json())
        assert hash(spec) == hash(clone)
        assert len({spec, clone}) == 1

    def test_none_is_the_bare_baseline(self):
        assert build(None) is None

    def test_every_registered_kind_is_covered(self):
        covered = {type(spec).kind for spec in SPEC_POINTS}
        assert covered == set(registered_kinds())

    def test_canonical_json_is_key_sorted(self):
        text = VictimCacheSpec(4).to_json()
        payload = json.loads(text)
        assert text == json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestStructureValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError, match="unknown structure kind"):
            structure_from_dict({"kind": "nonsense"})

    def test_missing_kind_rejected(self):
        with pytest.raises(SpecError, match="kind"):
            structure_from_dict({"entries": 4})

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown fields"):
            structure_from_dict({"kind": "victim_cache", "entries": 4, "bogus": 1})

    def test_non_mapping_rejected(self):
        with pytest.raises(SpecError, match="mapping"):
            structure_from_dict("vc4")

    def test_build_rejects_non_specs(self):
        with pytest.raises(SpecError, match="StructureSpec"):
            build("vc4")

    def test_empty_composite_rejected(self):
        with pytest.raises(SpecError, match="at least one member"):
            CompositeSpec(members=())

    def test_composite_members_must_be_specs(self):
        with pytest.raises(SpecError, match="members"):
            CompositeSpec(members=(VictimCacheSpec(4), "sb4"))


class TestLegacyCodes:
    @pytest.mark.parametrize(
        "code, spec",
        [
            ("none", None),
            ("mc4", MissCacheSpec(4)),
            ("vc8", VictimCacheSpec(8)),
            ("sb4", StreamBufferSpec(4)),
            ("sb4x4", MultiWayStreamBufferSpec(4, 4)),
        ],
    )
    def test_codes_round_trip(self, code, spec):
        assert parse_structure_code(code) == spec


class TestSystemSpec:
    def _spec(self, **overrides):
        base = dict(
            trace=NamedWorkloadSpec("ccom", scale=4_000, seed=0),
            config=baseline_system(),
            structure=VictimCacheSpec(4),
            side="d",
            warmup=0,
            classify=False,
        )
        base.update(overrides)
        return SystemSpec(**base)

    def test_json_round_trip(self):
        spec = self._spec()
        assert SystemSpec.from_json(spec.to_json()) == spec

    def test_json_round_trip_minimal(self):
        spec = SystemSpec()
        assert SystemSpec.from_json(spec.to_json()) == spec

    def test_pickle_round_trip(self):
        spec = self._spec()
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_equal_specs_serialize_identically(self):
        assert self._spec().to_json() == self._spec().to_json()

    def test_for_level_from_live_objects(self, small_by_name):
        """A materialized trace yields its workload spec; a live structure
        is not a spec and is rejected."""
        trace = small_by_name["ccom"]
        spec = SystemSpec.for_level(
            trace, CacheConfig(4096, 16), side="d", structure=VictimCacheSpec(4)
        )
        assert spec.trace == NamedWorkloadSpec("ccom", scale=4_000, seed=0)
        assert SystemSpec.from_json(spec.to_json()) == spec
        with pytest.raises(SpecError, match="must be a StructureSpec"):
            SystemSpec.for_level(trace, CacheConfig(4096, 16), structure=VictimCache(4))

    def test_for_level_widens_l2_line(self, small_by_name):
        spec = SystemSpec.for_level(small_by_name["ccom"], CacheConfig(16384, 256))
        assert spec.config.l2.line_size == 256

    def test_for_level_rejects_handmade_trace(self):
        from repro.common.errors import ConfigurationError
        from repro.traces.trace import trace_from_pairs

        trace = trace_from_pairs("adhoc", [(0, 0)])
        with pytest.raises(ConfigurationError, match="'adhoc' is hand-made"):
            SystemSpec.for_level(trace, CacheConfig(4096, 16))

    def test_invalid_side_rejected(self):
        with pytest.raises(Exception, match="side"):
            self._spec(side="x")

    def test_negative_warmup_rejected(self):
        with pytest.raises(Exception, match="warmup"):
            self._spec(warmup=-1)

    def test_structure_must_be_spec(self):
        from repro.buffers.victim_cache import VictimCache

        with pytest.raises(SpecError, match="StructureSpec"):
            self._spec(structure=VictimCache(4))


def _field_variants(base: SystemSpec):
    """One variant of *base* per spec field, labelled."""
    config = base.config
    return {
        "trace.name": dataclasses.replace(base, trace=NamedWorkloadSpec("liver", 4_000)),
        "trace.scale": dataclasses.replace(base, trace=NamedWorkloadSpec("ccom", 5_000)),
        "trace.seed": dataclasses.replace(base, trace=NamedWorkloadSpec("ccom", 4_000, seed=7)),
        "config.dcache.size": dataclasses.replace(
            base, config=dataclasses.replace(config, dcache=CacheConfig(8192, 16))
        ),
        "config.dcache.line": dataclasses.replace(
            base, config=dataclasses.replace(config, dcache=CacheConfig(4096, 32))
        ),
        "config.icache": dataclasses.replace(
            base, config=dataclasses.replace(config, icache=CacheConfig(8192, 16))
        ),
        "config.l2": dataclasses.replace(
            base, config=dataclasses.replace(config, l2=CacheConfig(2 * 1024 * 1024, 128))
        ),
        "config.timing": dataclasses.replace(
            base,
            config=dataclasses.replace(
                config, timing=dataclasses.replace(config.timing, l1_miss_penalty=30)
            ),
        ),
        "structure.kind": dataclasses.replace(base, structure=MissCacheSpec(4)),
        "structure.entries": dataclasses.replace(base, structure=VictimCacheSpec(8)),
        "structure.policy": dataclasses.replace(
            base, structure=VictimCacheSpec(4, policy="fifo")
        ),
        "structure.flag": dataclasses.replace(
            base, structure=VictimCacheSpec(4, swap_on_hit=False)
        ),
        "structure.none": dataclasses.replace(base, structure=None),
        "side": dataclasses.replace(base, side="i"),
        "warmup": dataclasses.replace(base, warmup=100),
        "classify": dataclasses.replace(base, classify=True),
    }


class TestSpecHash:
    BASE = SystemSpec(
        trace=NamedWorkloadSpec("ccom", scale=4_000, seed=0),
        structure=VictimCacheSpec(4),
        side="d",
    )

    def test_hash_is_deterministic_in_process(self):
        clone = SystemSpec.from_json(self.BASE.to_json())
        assert spec_hash(self.BASE) == spec_hash(clone)

    def test_every_field_perturbs_the_hash(self):
        variants = _field_variants(self.BASE)
        base_hash = spec_hash(self.BASE)
        hashes = {label: spec_hash(spec) for label, spec in variants.items()}
        for label, digest in hashes.items():
            assert digest != base_hash, f"variant {label} did not change the hash"
        assert len(set(hashes.values())) == len(hashes), "two variants collided"

    def test_telemetry_config_hash_tracks_the_spec(self):
        """config_hash() of a spec is the spec-JSON hash, not a repr hash."""
        assert config_hash(self.BASE) == config_hash(
            SystemSpec.from_json(self.BASE.to_json())
        )
        assert config_hash(self.BASE) != config_hash(
            dataclasses.replace(self.BASE, structure=VictimCacheSpec(8))
        )

    def test_hash_is_stable_across_processes(self):
        """Same spec, fresh interpreter, same digest (no repr/id leakage)."""
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        program = (
            "from repro.specs import SystemSpec, spec_hash;"
            "from repro.telemetry import config_hash;"
            "import sys;"
            "spec = SystemSpec.from_json(sys.stdin.read());"
            "print(spec_hash(spec));"
            "print(config_hash(spec))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", program],
            input=self.BASE.to_json(),
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        child_spec_hash, child_config_hash = result.stdout.split()
        assert child_spec_hash == spec_hash(self.BASE)
        assert child_config_hash == config_hash(self.BASE)


class TestTraceSpec:
    """Registry trace references (:class:`NamedWorkloadSpec`)."""

    def test_of_registry_trace(self, small_by_name):
        key = NamedWorkloadSpec.of(small_by_name["linpack"])
        assert key == NamedWorkloadSpec("linpack", scale=4_000, seed=0)

    def test_of_handmade_trace_is_none(self):
        from repro.traces.trace import MaterializedTrace, TraceMeta

        trace = MaterializedTrace.from_pairs(TraceMeta(name="adhoc"), [(0, 0)])
        assert NamedWorkloadSpec.of(trace) is None

    def test_trace_materializes_the_referenced_workload(self):
        key = NamedWorkloadSpec("ccom", scale=2_000, seed=0)
        trace = key.trace()
        assert trace.name == "ccom"
        assert key.trace() is trace  # memoized

    def test_dict_round_trip(self):
        key = NamedWorkloadSpec("fppp", scale=3_000, seed=5)
        assert NamedWorkloadSpec.from_dict(key.as_dict()) == key


class TestTraceCacheCap:
    @pytest.fixture
    def memo(self, monkeypatch):
        """The trace memo, emptied, with its cap patched down to two."""
        from repro.experiments import workloads

        monkeypatch.setattr(workloads, "DEFAULT_TRACE_CACHE_CAP", 2)
        monkeypatch.setattr(workloads, "_TRACE_CACHE", type(workloads._TRACE_CACHE)())
        return workloads

    def test_memo_evicts_least_recently_used(self, memo):
        def trace(name):
            return memo.materialized_workload(NamedWorkloadSpec(name, 1_000))

        a = trace("ccom")
        b = trace("liver")
        assert trace("ccom") is a  # refreshes ccom
        trace("linpack")  # evicts liver
        assert trace("ccom") is a
        assert trace("liver") is not b
        assert len(memo._TRACE_CACHE) == 2

    def test_pinned_traces_outlive_the_cap(self, memo):
        keys = [NamedWorkloadSpec(name, 1_000) for name in ("ccom", "liver", "linpack")]
        with memo.pinned_workloads(keys):
            first = [key.trace() for key in keys]
            assert len(memo._TRACE_CACHE) == 3  # one over the cap, none evicted
            assert all(key.trace() is trace for key, trace in zip(keys, first))
        # Released: back to the cap, least recently used (ccom) first.
        assert len(memo._TRACE_CACHE) == 2
        assert keys[1].trace() is first[1]
        assert keys[0].trace() is not first[0]
