"""The declarative workload-spec hierarchy (PR 8).

Pins the contract :mod:`repro.specs.workloads` documents: specs are
frozen/hashable/picklable with canonical JSON; equal specs build
identical traces in any process; every spec-built trace carries
recoverable provenance in ``meta.source``; and — the acceptance test —
a ``TenantMixSpec`` job round-trips the whole stack (canonical JSON →
parallel engine → result store warm hit → ``repro-serve``) with no
serial fallback.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import pickle
import warnings

import pytest

from repro.common.config import CacheConfig
from repro.common.errors import ConfigurationError
from repro.common.types import IFETCH, LOAD, STORE
from repro.experiments.engine import LevelJob, run_jobs
from repro.experiments.workloads import (
    default_scale,
    materialized_workload,
    validate_scale,
)
from repro.specs import (
    WORKLOAD_PRESETS,
    BurstySpec,
    HotspotSpec,
    NamedWorkloadSpec,
    PointerChaseSpec,
    SequentialSpec,
    SpecError,
    SystemSpec,
    TenantMixSpec,
    UniformRandomSpec,
    WorkloadSpec,
    ZipfianSpec,
    parse_structure_code,
    parse_workload,
    registered_workload_kinds,
    unkeyed_reason,
    workload_from_dict,
    workload_from_json,
    workload_spec_of,
)
from repro.store import current_store
from repro.telemetry.core import MetricsScope, ParallelFallbackWarning
from repro.traces.registry import build_trace
from repro.traces.trace import Trace, TraceMeta


def take(iterator, n):
    return list(itertools.islice(iter(iterator), n))


#: One instance per registered kind, all with non-default fields, so the
#: round-trip tests cover every branch of (de)serialization.
SAMPLES = [
    NamedWorkloadSpec(name="linpack", scale=1_000, seed=2),
    SequentialSpec(length=500, extent=4096, stride=8, seed=1),
    UniformRandomSpec(length=500, working_set=8192, granule=8, seed=1),
    ZipfianSpec(length=500, keys=64, alpha=1.2, seed=1),
    HotspotSpec(length=500, working_set=8192, hot_fraction=0.1, seed=1),
    BurstySpec(length=500, working_set=4096, burst_prob=0.05, seed=1),
    PointerChaseSpec(length=500, nodes=32, seed=1),
    TenantMixSpec(
        tenants=(ZipfianSpec(length=200, keys=64), SequentialSpec(length=200)),
        length=400,
        alpha=1.0,
        phase_length=100,
        seed=3,
    ),
]

#: The pattern subset (everything that synthesizes its own stream).
PATTERN_SAMPLES = [spec for spec in SAMPLES if not isinstance(spec, NamedWorkloadSpec)]


class TestRoundTrips:
    def test_samples_cover_every_registered_kind(self):
        assert {type(s).kind for s in SAMPLES} == set(registered_workload_kinds())

    @pytest.mark.parametrize("spec", SAMPLES, ids=lambda s: s.kind)
    def test_dict_round_trip(self, spec):
        assert workload_from_dict(spec.as_dict()) == spec
        assert WorkloadSpec.from_dict(spec.as_dict()) == spec

    @pytest.mark.parametrize("spec", SAMPLES, ids=lambda s: s.kind)
    def test_json_round_trip_and_canonical_form(self, spec):
        text = spec.to_json()
        assert workload_from_json(text) == spec
        # Canonical: key-sorted, whitespace-free — equal specs always
        # serialize to byte-equal strings.
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize("spec", SAMPLES, ids=lambda s: s.kind)
    def test_pickle_and_hash(self, spec):
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert {spec: "v"}[clone] == "v"

    def test_legacy_nameless_payload_parses_as_named(self):
        # The old TraceSpec wire shape, still present in stored records.
        spec = workload_from_dict({"name": "linpack", "scale": 5})
        assert spec == NamedWorkloadSpec(name="linpack", scale=5, seed=0)

    def test_tenant_list_payload_coerces_to_tuple(self):
        payload = {
            "kind": "tenant_mix",
            "tenants": [ZipfianSpec(length=100, keys=16).as_dict()],
            "length": 100,
        }
        spec = workload_from_dict(payload)
        assert isinstance(spec.tenants, tuple)
        assert spec.tenants[0] == ZipfianSpec(length=100, keys=16)

    def test_unknown_kind_is_spec_error(self):
        with pytest.raises(SpecError, match="unknown workload kind"):
            workload_from_dict({"kind": "quantum"})

    def test_unknown_fields_are_spec_errors(self):
        with pytest.raises(SpecError, match="unknown fields"):
            workload_from_dict({"kind": "zipfian", "skew": 2})

    def test_non_mapping_payload_is_spec_error(self):
        with pytest.raises(SpecError, match="must be a mapping"):
            workload_from_dict([1, 2])

    def test_kindless_nameless_payload_is_spec_error(self):
        with pytest.raises(SpecError, match="no 'kind' tag"):
            workload_from_dict({"length": 5})

    def test_invalid_json_is_spec_error(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            workload_from_json("{nope")


class TestValidation:
    def test_rejects_nonpositive_length(self):
        with pytest.raises(SpecError, match="length"):
            ZipfianSpec(length=0)

    def test_rejects_bool_length(self):
        with pytest.raises(SpecError, match="length"):
            SequentialSpec(length=True)

    def test_rejects_out_of_range_fraction(self):
        with pytest.raises(SpecError, match="store_fraction"):
            HotspotSpec(store_fraction=1.5)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(SpecError, match="alpha"):
            ZipfianSpec(alpha=0)

    def test_tenant_mix_needs_tenants(self):
        with pytest.raises(SpecError, match="at least one tenant"):
            TenantMixSpec(tenants=())

    def test_tenant_mix_rejects_non_spec_tenants(self):
        with pytest.raises(SpecError, match="must be WorkloadSpecs"):
            TenantMixSpec(tenants=("zipfian",))

    @pytest.mark.parametrize(
        "spec_cls",
        [SequentialSpec, UniformRandomSpec, ZipfianSpec, HotspotSpec, BurstySpec,
         PointerChaseSpec],
    )
    @pytest.mark.parametrize("base", [-1, -(2**63), True, 1.5])
    def test_pattern_specs_reject_bad_base(self, spec_cls, base):
        with pytest.raises(SpecError, match="base"):
            spec_cls(base=base)
        with pytest.raises(SpecError, match="base"):
            workload_from_dict({"kind": spec_cls.kind, "base": base})

    def test_tenant_mix_rejects_negative_phase_length(self):
        with pytest.raises(SpecError, match="phase_length"):
            TenantMixSpec(tenants=(ZipfianSpec(),), phase_length=-1)


class TestDeterminism:
    @pytest.mark.parametrize("spec", PATTERN_SAMPLES, ids=lambda s: s.kind)
    def test_equal_specs_equal_streams(self, spec):
        clone = workload_from_json(spec.to_json())
        assert take(spec.pairs(), 300) == take(clone.pairs(), 300)

    @pytest.mark.parametrize("spec", PATTERN_SAMPLES, ids=lambda s: s.kind)
    def test_kinds_are_data_references(self, spec):
        kinds = {kind for kind, _ in take(spec.pairs(), 300)}
        assert kinds <= {int(LOAD), int(STORE)}
        assert int(IFETCH) not in kinds

    def test_seed_changes_stream(self):
        a = ZipfianSpec(length=500, keys=64, seed=1)
        b = ZipfianSpec(length=500, keys=64, seed=2)
        assert take(a.pairs(), 200) != take(b.pairs(), 200)

    def test_salt_decorrelates_draws(self):
        spec = UniformRandomSpec(length=500, working_set=8192, seed=1)
        assert take(spec.pairs(salt="a"), 200) != take(spec.pairs(salt="b"), 200)

    def test_tenant_addresses_never_alias(self):
        mix = TenantMixSpec(
            tenants=(ZipfianSpec(length=200, keys=16), SequentialSpec(length=200)),
            length=400,
            tenant_span=1 << 30,
            seed=1,
        )
        spans = {address >> 30 for _, address in take(mix.pairs(), 400)}
        assert spans <= {0, 1}
        assert len(spans) == 2, "both tenants must contribute references"

    def test_phase_churn_changes_the_stream(self):
        tenants = (ZipfianSpec(length=400, keys=16), SequentialSpec(length=400))
        static = TenantMixSpec(tenants=tenants, length=400, phase_length=0, seed=1)
        churning = TenantMixSpec(tenants=tenants, length=400, phase_length=100, seed=1)
        a, b = take(static.pairs(), 400), take(churning.pairs(), 400)
        assert a[:100] == b[:100], "identical until the first phase boundary"
        assert a[100:] != b[100:], "rotation must reassign popularity ranks"


class TestMaterialization:
    def test_build_stamps_canonical_provenance(self):
        spec = ZipfianSpec(length=300, keys=64, seed=9)
        trace = spec.build()
        assert trace.meta.source == spec.to_json()
        assert workload_spec_of(trace) == spec

    def test_build_length_matches_spec(self):
        spec = SequentialSpec(length=321, extent=4096)
        assert len(spec.build().materialize()) == 321

    def test_trace_is_memoized_by_value(self):
        a = HotspotSpec(length=300, working_set=4096, seed=11)
        b = workload_from_json(a.to_json())
        assert a.trace() is b.trace()
        assert a.trace() is materialized_workload(a)

    def test_different_seed_different_memo_entry(self):
        a = HotspotSpec(length=300, working_set=4096, seed=12)
        b = HotspotSpec(length=300, working_set=4096, seed=13)
        assert a.trace() is not b.trace()

    def test_fingerprint_pins_content(self):
        a = PointerChaseSpec(length=300, nodes=32, seed=4)
        assert a.fingerprint() == workload_from_json(a.to_json()).fingerprint()
        assert a.fingerprint() != PointerChaseSpec(length=300, nodes=32, seed=5).fingerprint()

    def test_named_spec_resolves_ambient_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "1234")
        assert NamedWorkloadSpec(name="linpack").resolve() == NamedWorkloadSpec(
            name="linpack", scale=1234, seed=0
        )

    def test_pattern_specs_resolve_to_themselves(self):
        spec = BurstySpec(length=300)
        assert spec.resolve() is spec


class TestProvenanceRecovery:
    """Satellite: ``of()`` separates hand-made traces from keyable ones."""

    def test_registry_trace_round_trips(self):
        trace = build_trace("linpack", 800, seed=1)
        assert workload_spec_of(trace) == NamedWorkloadSpec(name="linpack", scale=800, seed=1)
        assert WorkloadSpec.of(trace) == NamedWorkloadSpec(name="linpack", scale=800, seed=1)

    def test_registry_trace_at_scale_zero_is_still_keyed(self):
        # The old path conflated "hand-made" with "scale 0": both had
        # falsy meta.scale and lost their spec.  Stamped provenance
        # keeps a zero-scale registry build keyable.
        trace = build_trace("linpack", 0, seed=0)
        assert workload_spec_of(trace) == NamedWorkloadSpec(name="linpack", scale=0, seed=0)

    def _hand_made(self, name="custom", scale=0, source=""):
        meta = TraceMeta(name=name, program_type="test", scale=scale, source=source)
        return Trace(meta, lambda: iter([(int(LOAD), 64)])).materialize()

    def test_hand_made_trace_has_no_spec(self):
        trace = self._hand_made()
        assert workload_spec_of(trace) is None
        assert "hand-made" in unkeyed_reason(trace)

    def test_scale_zero_registry_meta_without_provenance(self):
        # Distinct from hand-made: the name is rebuildable, the scale
        # record just predates provenance stamping.
        trace = self._hand_made(name="linpack", scale=0)
        assert workload_spec_of(trace) is None
        assert "scale 0 without recorded provenance" in unkeyed_reason(trace)

    def test_unparseable_provenance_is_reported_as_such(self):
        trace = self._hand_made(source="{bogus")
        assert workload_spec_of(trace) is None
        assert "unparseable workload provenance" in unkeyed_reason(trace)

    def test_legacy_registry_meta_with_scale_recovers(self):
        trace = self._hand_made(name="linpack", scale=700)
        assert workload_spec_of(trace) == NamedWorkloadSpec(name="linpack", scale=700, seed=0)

    def test_metaless_object_has_no_spec(self):
        assert workload_spec_of(object()) is None
        assert "no trace metadata" in unkeyed_reason(object())

    def test_fallback_warning_names_the_reason(self):
        """Unkeyed traces raise a typed error quoting ``unkeyed_reason``."""
        from repro.experiments.sweeps import batch_entry_sweeps

        for trace in (
            self._hand_made(),
            self._hand_made(name="linpack", scale=0),
            self._hand_made(source="{bogus"),
        ):
            with pytest.raises(ConfigurationError) as caught:
                batch_entry_sweeps(
                    [trace], CacheConfig(1024, 16), kind="victim", sides=("d",),
                    max_entries=2, jobs=4,
                )
            message = str(caught.value)
            assert "trace has no workload spec" in message
            assert unkeyed_reason(trace) in message


class TestScaleValidation:
    """Satellite: malformed ``REPRO_SCALE`` is a clean configuration error."""

    def test_unset_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert default_scale() is None

    def test_valid_value_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2048")
        assert default_scale() == 2048

    @pytest.mark.parametrize("raw", ["abc", "1.5", "-5", "0"])
    def test_malformed_or_nonpositive_env_raises(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SCALE", raw)
        with pytest.raises(ConfigurationError, match="REPRO_SCALE"):
            default_scale()

    def test_validate_scale_passes_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2048")
        assert validate_scale(None) == 2048
        assert validate_scale(7) == 7

    def test_validate_scale_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError, match="scale must be positive"):
            validate_scale(0)


class TestParseWorkload:
    @pytest.mark.parametrize("name", sorted(WORKLOAD_PRESETS))
    def test_presets_parse(self, name):
        assert parse_workload(name) == WORKLOAD_PRESETS[name]

    def test_inline_json_parses(self):
        spec = ZipfianSpec(length=500, keys=64)
        assert parse_workload(spec.to_json()) == spec

    def test_registry_name_parses_as_named(self):
        assert parse_workload("linpack") == NamedWorkloadSpec(name="linpack")

    def test_unknown_name_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            parse_workload("definitely_not_a_workload")

    def test_spec_error_is_a_configuration_error(self):
        # The CLI's exit-2 boundary catches ConfigurationError only.
        with pytest.raises(ConfigurationError):
            parse_workload('{"kind": "quantum"}')


class TestTelemetryWorkloads:
    def test_run_record_embeds_replayable_specs(self):
        from repro.common.config import baseline_system
        from repro.telemetry.record import build_run_record, validate_record

        spec = WORKLOAD_PRESETS["zipfian"]
        record = build_run_record(
            MetricsScope(), "x", baseline_system(), 0.1, workloads=[spec]
        )
        payload = record.as_dict()
        validate_record(payload)
        assert [workload_from_dict(w) for w in payload["workloads"]] == [spec]

    def test_records_without_workloads_still_validate(self):
        from repro.common.config import baseline_system
        from repro.telemetry.record import build_run_record, validate_record

        record = build_run_record(MetricsScope(), "x", baseline_system(), 0.1)
        payload = record.as_dict()
        assert payload["workloads"] == []
        validate_record(payload)

    def test_non_dict_workload_entries_rejected(self):
        from repro.common.config import baseline_system
        from repro.telemetry.record import build_run_record, validate_record

        payload = build_run_record(MetricsScope(), "x", baseline_system(), 0.1).as_dict()
        payload["workloads"] = ["zipfian"]
        with pytest.raises(ValueError, match="workloads"):
            validate_record(payload)


MIX = TenantMixSpec(
    tenants=(
        ZipfianSpec(length=400, keys=64, seed=5),
        SequentialSpec(length=400, extent=4096, seed=5),
    ),
    length=800,
    phase_length=200,
    seed=5,
)
E2E_CACHE = CacheConfig(1024, 16)


class TestEndToEnd:
    """Acceptance: a TenantMixSpec job crosses every layer with no
    serial fallback — spec → canonical JSON → parallel engine →
    result-store warm hit → repro-serve answered from the store."""

    @pytest.fixture
    def store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
        yield current_store()

    def _jobs(self):
        spec = workload_from_json(MIX.to_json())  # the wire round trip
        assert spec == MIX
        jobs = []
        for workload in (spec, ZipfianSpec(length=400, keys=64, seed=5)):
            for structure in (None, parse_structure_code("vc4")):
                system = SystemSpec.for_level(
                    workload, E2E_CACHE, side="d", structure=structure
                )
                assert system is not None
                jobs.append(LevelJob(system))
        return jobs

    def test_mix_round_trips_engine_store_and_serve(self, store):
        heartbeats = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", ParallelFallbackWarning)
            cold = run_jobs(self._jobs(), jobs=4, progress=heartbeats.append)
        assert len(cold) == 4
        assert store.stats().entries >= 4

        # Rerun: every point must be answered from the store, not
        # simulated — the fully-warm batch reports hits == total.
        heartbeats.clear()
        warm = run_jobs(self._jobs(), jobs=4, progress=heartbeats.append)
        assert [s.miss_rate for s in warm] == [s.miss_rate for s in cold]
        assert heartbeats[-1].store_hits == len(warm)

        # Serve the same point: inline workload-spec JSON in the query,
        # answered warm from the same store.
        from repro.serve.daemon import CacheAdvisorDaemon, ServeConfig
        from repro.serve.httpio import request_json

        async def check():
            daemon = CacheAdvisorDaemon(ServeConfig(port=0))
            await daemon.start()
            try:
                status, _, body = await request_json(
                    "127.0.0.1",
                    daemon.port,
                    "POST",
                    "/v1/advise",
                    {
                        "trace": MIX.as_dict(),
                        "structure": "vc4",
                        "side": "d",
                        "warmup": 0,
                        "cache": {
                            "size_bytes": E2E_CACHE.size_bytes,
                            "line_size": E2E_CACHE.line_size,
                        },
                    },
                    timeout=60,
                )
            finally:
                await daemon.aclose()
            return status, body

        status, body = asyncio.run(check())
        assert status == 200
        assert body["served_from"] == "store"
