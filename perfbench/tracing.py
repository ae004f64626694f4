"""In-memory span tracing around the public entry points of each layer.

The program under test is not edited: :func:`instrument` replaces each
probed function, wherever a ``repro`` module has bound it, with a wrapper
that records one span (name, layer, start, end, parent) per call.  Spans
stay in memory and are written out once, when the traced process ends
(:meth:`Tracer.dump`).  :func:`layer_metrics` turns a span list into the
per-layer metrics named in ``BENCHMARK.json``.

A span's parent is the innermost span open on the same thread when it
started.  Spans opened inside coroutines (the serve probes) have no
parent: the event loop interleaves them, so nesting carries no meaning
there.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "instrument", "layer_metrics", "load_spans", "merge_spans"]

# Span record: (span id, parent id or 0, name, layer, start, end, attrs).
Span = Tuple[int, int, str, str, float, float, Dict[str, object]]


class Tracer:
    """Collects spans from any thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, layer: str, attrs: Optional[Callable] = None):
        """*fn* recording one span per call; *attrs(args, result)* adds counts."""
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span_id = next(tracer._ids)
                start = perf_counter()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end = perf_counter()
                    extra = attrs(args, result) if attrs is not None else {}
                    tracer.spans.append((span_id, 0, name, layer, start, end, extra))

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = perf_counter()
            result = None
            error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                extra = attrs(args, result) if attrs is not None and error is None else {}
                if error is not None:
                    extra = {"error": type(error).__name__,
                             "failed_jobs": len(getattr(error, "failures", ()))}
                tracer.spans.append((span_id, parent, name, layer, start, end, extra))

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def load_spans(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]


# -- what is probed ------------------------------------------------------------


def _len_first(args, result) -> Dict[str, object]:
    return {"refs": len(args[0])}


def _trace_built(args, result) -> Dict[str, object]:
    meta = result.meta
    return {"refs": len(result), "trace": f"{meta.name}:{meta.scale}:{meta.seed}:{meta.source}"}


def _system_run(args, result) -> Dict[str, object]:
    return {"refs": len(args[1])}


def _store_get(args, result) -> Dict[str, object]:
    cached, nbytes = result
    return {"hit": cached is not None, "bytes": nbytes}


def _level_summary(args, result) -> Dict[str, object]:
    return {"refs": result.accesses}


def _assist_summary(args, result) -> Dict[str, object]:
    from repro.kernels import kernel_mode

    return {"refs": result.accesses, "mode": kernel_mode(args[0])}


def _run_jobs(args, result) -> Dict[str, object]:
    return {"jobs": len(args[0])}


#: (layer, span name, module[:class], attribute, attrs).  Each entry is a
#: public function or method a caller outside its layer calls.
PROBES: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("traces", "traces.build", "repro.traces.trace:Trace", "materialize", _trace_built),
    ("traces", "traces.lookup", "repro.experiments.workloads", "materialized_workload", None),
    ("traces", "traces.fingerprint", "repro.traces.trace:MaterializedTrace", "fingerprint", None),
    ("specs", "specs.hash", "repro.specs.system", "spec_hash", None),
    ("store", "store.get", "repro.store.core:ResultStore", "get", _store_get),
    ("store", "store.put", "repro.store.core:ResultStore", "put", None),
    ("kernels", "kernels.level", "repro.kernels.numpy_backend", "simulate_level_summary",
     _level_summary),
    ("kernels", "kernels.assist", "repro.kernels.assist", "simulate_assist_summary",
     _assist_summary),
    ("kernels", "kernels.pass1", "repro.kernels.assist", "extract_miss_stream", None),
    ("kernels", "kernels.sweep", "repro.kernels.assist", "entry_sweep_summary", None),
    ("kernels", "kernels.sweep", "repro.kernels.assist", "run_length_sweep_summary", None),
    ("interp", "interp.run_level", "repro.experiments.runner", "run_level", _len_first),
    ("interp", "interp.system_run", "repro.hierarchy.system:MemorySystem", "run", _system_run),
    ("interp", "interp.sweep", "repro.experiments.sweeps", "miss_cache_sweep", _len_first),
    ("interp", "interp.sweep", "repro.experiments.sweeps", "victim_cache_sweep", _len_first),
    ("interp", "interp.sweep", "repro.experiments.sweeps", "stream_buffer_run_sweep",
     _len_first),
    ("engine", "engine.batch", "repro.experiments.engine", "run_jobs", _run_jobs),
    ("serve", "serve.parse", "repro.serve.service", "parse_query", None),
    ("serve", "serve.negative_probe", "repro.serve.service:AdvisorService",
     "cached_bad_request", None),
    ("serve", "serve.advise", "repro.serve.service:AdvisorService", "advise", None),
)

#: Imported before patching so every module that binds a probed name is
#: already in ``sys.modules``.
_ROOT_MODULES = ("repro", "repro.experiments", "repro.kernels.assist", "repro.serve.daemon")


def instrument(tracer: Tracer) -> int:
    """Wrap every probe wherever ``repro`` binds it; returns bindings patched."""
    for module_name in _ROOT_MODULES:
        importlib.import_module(module_name)
    patched = 0
    for layer, name, owner, attribute, attrs in PROBES:
        module_name, _, class_name = owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            cls = getattr(module, class_name)
            setattr(cls, attribute, tracer.wrap(getattr(cls, attribute), name, layer, attrs))
            patched += 1
            continue
        original = getattr(module, attribute)
        wrapper = tracer.wrap(original, name, layer, attrs)
        for loaded_name, loaded in list(sys.modules.items()):
            if not loaded_name.startswith("repro") or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                    patched += 1
    return patched


# -- per-layer metrics -----------------------------------------------------------


def _outermost(spans: List[Span], key: Callable[[Span], str]) -> List[Span]:
    """Spans with no ancestor sharing ``key(span)``: their durations add up."""
    by_id = {span[0]: span for span in spans}
    keep = []
    for span in spans:
        mark = key(span)
        parent = by_id.get(span[1])
        while parent is not None and key(parent) != mark:
            parent = by_id.get(parent[1])
        if parent is None:
            keep.append(span)
    return keep


def _ancestor_named(span: Span, by_id: Dict[int, Span], name: str) -> Optional[Span]:
    parent = by_id.get(span[1])
    while parent is not None and parent[2] != name:
        parent = by_id.get(parent[1])
    return parent


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Busy time, work counts and useful-outcome ratios per layer."""
    by_id = {span[0]: span for span in spans}
    per_name = _outermost(spans, key=lambda span: span[2])
    per_layer = _outermost(spans, key=lambda span: span[3])

    def total(name: str, where: Callable[[Span], bool] = lambda span: True) -> float:
        return sum(s[5] - s[4] for s in per_name if s[2] == name and where(s))

    def count(name: str, where: Callable[[Span], bool] = lambda span: True) -> int:
        return sum(1 for s in spans if s[2] == name and where(s))

    def attr_sum(name: str, attr: str, where: Callable[[Span], bool] = lambda span: True):
        return sum(s[6].get(attr, 0) for s in per_name if s[2] == name and where(s))

    builds = [s for s in spans if s[2] == "traces.build"]
    lookups = count("traces.lookup")
    lookup_misses = {
        parent[0]
        for parent in (_ancestor_named(s, by_id, "traces.lookup") for s in builds)
        if parent is not None
    }
    build_s = total("traces.build")

    gets = [s for s in spans if s[2] == "store.get"]
    store_hits = sum(1 for s in gets if s[6].get("hit"))

    def vector(span: Span) -> bool:
        return span[2] == "kernels.level" or span[6].get("mode") == "vector"

    def replay(span: Span) -> bool:
        return span[6].get("mode") == "miss-replay"

    vector_s = total("kernels.level") + total("kernels.assist", vector)
    replay_s = total("kernels.assist", replay)
    kernel_refs = (
        attr_sum("kernels.level", "refs")
        + attr_sum("kernels.assist", "refs", vector)
        + attr_sum("kernels.assist", "refs", replay)
    )

    interp = [s for s in per_layer if s[3] == "interp"]
    interp_s = sum(s[5] - s[4] for s in interp)
    interp_refs = sum(s[6].get("refs", 0) for s in interp)

    batches = [s for s in per_name if s[2] == "engine.batch"]
    return {
        "traces.build_s": build_s,
        "traces.builds": len(builds),
        "traces.distinct": len({s[6].get("trace") for s in builds}),
        "traces.memo_hit_ratio": _ratio(lookups - len(lookup_misses), lookups),
        "traces.fingerprint_s": total("traces.fingerprint"),
        "traces.refs_per_s": _ratio(sum(s[6].get("refs", 0) for s in builds), build_s),
        "specs.hash_s": total("specs.hash"),
        "store.get_s": total("store.get"),
        "store.gets": len(gets),
        "store.hit_ratio": _ratio(store_hits, len(gets)),
        "store.put_s": total("store.put"),
        "store.puts": count("store.put"),
        "store.bytes_read": sum(s[6].get("bytes", 0) for s in gets),
        "kernels.vector_s": vector_s,
        "kernels.vector_jobs": count("kernels.level") + count("kernels.assist", vector),
        "kernels.miss_replay_s": replay_s,
        "kernels.miss_replay_jobs": count("kernels.assist", replay),
        "kernels.pass1_s": total("kernels.pass1"),
        "kernels.sweep_s": total("kernels.sweep"),
        "kernels.refs_per_s": _ratio(kernel_refs, vector_s + replay_s),
        "interp.run_level_s": interp_s,
        "interp.calls": len(interp),
        "interp.refs_per_s": _ratio(interp_refs, interp_s),
        "engine.batch_s": sum(s[5] - s[4] for s in batches),
        "engine.jobs": sum(s[6].get("jobs", 0) for s in batches),
        "engine.failed_jobs": sum(s[6].get("failed_jobs", 0) for s in batches),
        "serve.parse_s": total("serve.parse"),
        "serve.negative_probe_s": total("serve.negative_probe"),
        "serve.advise_s": total("serve.advise"),
    }


def merge_spans(span_lists: List[List[Span]]) -> List[Span]:
    """One span list from several processes, with span ids kept distinct."""
    merged: List[Span] = []
    for offset, spans in enumerate(span_lists):
        base = offset << 40
        for span_id, parent, *rest in spans:
            merged.append((base + span_id, base + parent if parent else 0, *rest))
    return merged
