"""The benchmark's workloads and the seeded inputs each one feeds the program.

Every run drives the three paths a user touches, in rounds (:class:`Plan`):

* ``figures`` — ``run_experiments`` over every module of
  ``ALL_EXPERIMENTS`` at one scale, ``jobs=1``, no result store, each
  pass in a fresh process;
* ``sweep`` — one ``run_jobs`` batch at ``jobs=2`` over a grid of
  workload specs crossed with structures of both kernel modes plus two
  entry sweeps per spec, run cold on an empty store and then warm;
* ``serve`` — a ``repro-serve`` daemon on an empty store, driven over
  loopback HTTP by an open loop and a closed loop.

The two workloads differ in how much their inputs share, which is what
the program's caches (the eight-entry trace memo, the result store and
the daemon's warm path) depend on.  ``reuse`` sweeps 8 traces, which fit the
memo, and sends mostly repeated serve keys; ``distinct`` sweeps 9, which
overflow it, and sends more new serve keys.  The figure pass is
the paper's fixed suite in both.

Only this module turns ``--seed`` into inputs: sweep spec seeds, and the
serve arrival schedule and key popularity.  The same seed gives the same
inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

__all__ = [
    "Workload",
    "WORKLOADS",
    "Plan",
    "plan",
    "sweep_grid",
    "serve_pool",
    "serve_schedule",
    "closed_loop_requests",
    "Request",
]


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is recorded in ``BENCHMARK.json``."""

    name: str
    #: Registry traces added to the seven ``WORKLOAD_PRESETS`` in the
    #: sweep grid.  Eight traces fit the trace memo's default capacity;
    #: nine overflow it, and replayed in a fixed order through an LRU memo
    #: every lookup then misses.
    sweep_registry: Tuple[str, ...]
    #: Share of open-loop serve requests that carry a never-seen key.
    cold_share: float


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(name="reuse", sweep_registry=("ccom",), cold_share=0.12),
        Workload(name="distinct", sweep_registry=("ccom", "linpack"), cold_share=0.20),
    )
}

#: Registry trace scale of the figure pass (instructions per Table 2-1 unit).
FIGURE_SCALE = 6_000
#: Registry trace scale of sweep-grid registry traces.
SWEEP_REGISTRY_SCALE = 5_000
#: Pattern trace lengths (references) of sweep and serve workload specs.
SWEEP_PATTERN_LENGTH = 25_000
SERVE_PATTERN_LENGTH = 8_000
#: Structures per sweep spec: bare, vector-mode (LRU miss/victim caches,
#: single-way stream buffers) and miss-replay (multi-way stream buffers).
SWEEP_STRUCTURES = (
    "none", "vc1", "vc2", "vc4", "mc1", "mc2", "mc4", "sb1", "sb4", "sb2x4", "sb4x4",
)
#: One-pass entry sweeps per sweep spec.
SWEEP_ENTRY_KINDS = ("miss", "victim")
#: Structures crossed with the serve traces to form the primed key pool.
SERVE_STRUCTURES = ("vc4", "mc4", "sb4", "sb4x4")
#: Open-loop arrival rate (requests/s).  Low enough that requests rarely
#: wait for one of the two connections, so latency reflects the daemon
#: rather than client-side queueing: at 120 requests/s, or at 80 with 30%
#: new keys, a costly simulation often held both connections, and how
#: late the generator ran, and with it every latency, swung with the
#: host's speed.
SERVE_RATE = 80.0
#: Requests per duplicate burst (one per connection, so both are in
#: flight together), and bursts per second of open loop.
BURST_SIZE = 2
BURSTS_PER_S = 0.5
#: Share of open-loop requests that are malformed bodies.
BAD_SHARE = 0.02
#: Zipf exponent of warm-key popularity.
ZIPF_ALPHA = 1.0


@dataclass(frozen=True)
class Plan:
    """How much work one run does, from ``--seconds``.

    A run is ``rounds`` rounds, each one figure pass, one slice of the
    serve load, one sweep round and another serve slice, so every path is
    sampled across the whole run rather than in one stretch of it: a
    shared virtual machine changes speed over seconds.
    """

    rounds: int
    open_loop_s: float
    closed_loop_s: float
    setup_rounds: int = 3


def plan(seconds: int) -> Plan:
    """Split the measured time: the serve slices take over half of it."""
    return Plan(
        rounds=max(1, seconds // 10),
        open_loop_s=max(2.0, 0.5 * seconds),
        closed_loop_s=max(1.0, 0.1 * seconds),
    )


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}:{stream}")


# -- sweep -----------------------------------------------------------------------


def sweep_grid(workload: Workload, seed: int, variant: int = 0):
    """``(workload specs, jobs)``: one design-sweep batch.

    *variant* draws another grid of the same shape from the same seed.
    """
    from repro.common.config import baseline_system
    from repro.experiments import EntrySweepJob, LevelJob
    from repro.specs import SystemSpec
    from repro.specs.structures import parse_structure_code
    from repro.specs.workloads import WORKLOAD_PRESETS, NamedWorkloadSpec

    rng = _rng(workload.name, seed, f"sweep:{variant}")
    specs = []
    for preset in WORKLOAD_PRESETS.values():
        specs.append(
            replace(preset, seed=rng.randrange(1, 1 << 30), length=SWEEP_PATTERN_LENGTH)
        )
    for name in workload.sweep_registry:
        specs.append(NamedWorkloadSpec(name, SWEEP_REGISTRY_SCALE, rng.randrange(1, 1 << 30)))
    cache = baseline_system().dcache
    jobs = []
    for spec in specs:
        for code in SWEEP_STRUCTURES:
            system = SystemSpec.for_level(spec, cache, side="d",
                                          structure=parse_structure_code(code))
            jobs.append(LevelJob(system))
        for kind in SWEEP_ENTRY_KINDS:
            jobs.append(EntrySweepJob(SystemSpec.for_level(spec, cache, side="d"), kind=kind))
    return specs, jobs


# -- serve -------------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One scheduled request: when it is due, what it sends, what it expects."""

    due: float
    klass: str  # "warm" | "cold" | "burst" | "bad"
    body: bytes
    #: Index into the request's key list (warm: primed key; cold/burst: new key).
    key: int = -1
    burst: int = -1

    @property
    def expected_status(self) -> int:
        return 400 if self.klass == "bad" else 200


def _query(trace: dict, structure: str, warmup: int) -> dict:
    return {"trace": trace, "structure": structure, "side": "d", "warmup": warmup}


#: Pattern kinds of the serve traces.
SERVE_TRACE_KINDS = ("zipfian", "hotspot", "bursty", "sequential", "pointer_chase")


def serve_pool() -> List[dict]:
    """The primed keys: serve traces crossed with structures, as query dicts.

    The pool is the same for every seed, as a daemon's popular traces are
    from day to day; the seed decides when each key is asked for.  With
    it, a new key's simulation cost, which varies by a factor of 30
    across the pool, is drawn from the same mix in every run.
    """
    traces = [{"kind": kind, "length": SERVE_PATTERN_LENGTH, "seed": 0}
              for kind in SERVE_TRACE_KINDS]
    return [_query(trace, code, 0) for trace in traces for code in SERVE_STRUCTURES]


#: Bodies the daemon must answer 400: unparsable, wrong shape, unknown trace.
BAD_BODIES = (
    b'{"trace": ',
    b'["not", "an", "object"]',
    b'{"trace": {"name": "no-such-trace"}, "structure": "vc4"}',
)


def encode(query: dict) -> bytes:
    return json.dumps(query, sort_keys=True).encode("utf-8")


def pool_key(body: bytes) -> str:
    """The pool key a request body was made from: the query without its warm-up.

    Malformed bodies are their own key.
    """
    try:
        query = json.loads(body)
    except ValueError:
        return body.decode("utf-8", "replace")
    if not isinstance(query, dict):
        return body.decode("utf-8", "replace")
    return json.dumps({k: v for k, v in query.items() if k != "warmup"}, sort_keys=True)


def serve_schedule(
    workload: Workload, seed: int, pool: List[dict], duration: float
) -> List[Request]:
    """The requests of the open-loop phase, in the order they are due.

    Arrivals are evenly spaced at :data:`SERVE_RATE`.  Every
    ``1 / BURSTS_PER_S`` seconds a slot holds a burst: one new key sent
    :data:`BURST_SIZE` times at the same instant.  The other slots are
    dealt, in an order shuffled by the seed, exactly
    ``round(share * slots)`` malformed and new-key requests and warm keys
    for the rest, so every seed sends the same number of each.  New keys
    reuse the pool's traces, cycling through the pool, with a warm-up
    never used before, so they simulate without building a trace.  Warm
    keys follow a Zipf popularity over a seeded ranking of the pool.
    """
    rng = _rng(workload.name, seed, "serve-schedule")
    slots = int(duration * SERVE_RATE)
    burst_every = max(1, int(SERVE_RATE / BURSTS_PER_S))
    burst_slots = {slot for slot in range(slots) if slot % burst_every == burst_every // 2}
    single = slots - len(burst_slots)
    deck = ["bad"] * round(BAD_SHARE * single) + ["cold"] * round(workload.cold_share * single)
    deck += ["warm"] * (single - len(deck))
    rng.shuffle(deck)
    popularity = list(range(len(pool)))
    rng.shuffle(popularity)
    weights = [1.0 / (rank + 1) ** ZIPF_ALPHA for rank in range(len(pool))]
    cold_order = list(range(len(pool)))
    rng.shuffle(cold_order)
    requests: List[Request] = []
    fresh: List[dict] = []

    def new_key() -> int:
        base = pool[cold_order[len(fresh) % len(pool)]]
        fresh.append(dict(base, warmup=len(fresh) + 1))
        return len(fresh) - 1

    dealt = iter(deck)
    bursts = 0
    for slot in range(slots):
        due = slot / SERVE_RATE
        if slot in burst_slots:
            key = new_key()
            requests += [Request(due, "burst", encode(fresh[key]), key, bursts)] * BURST_SIZE
            bursts += 1
            continue
        klass = next(dealt)
        if klass == "bad":
            requests.append(Request(due, "bad", BAD_BODIES[rng.randrange(len(BAD_BODIES))]))
        elif klass == "cold":
            key = new_key()
            requests.append(Request(due, "cold", encode(fresh[key]), key))
        else:
            key = popularity[rng.choices(range(len(pool)), weights)[0]]
            requests.append(Request(due, "warm", encode(pool[key]), key))
    return requests


def closed_loop_requests(workload: Workload, seed: int, pool: List[dict]) -> List[Request]:
    """Warm keys for the closed loop, Zipf-skewed like the open loop's."""
    rng = _rng(workload.name, seed, "closed-loop")
    weights = [1.0 / (rank + 1) ** ZIPF_ALPHA for rank in range(len(pool))]
    keys = rng.choices(range(len(pool)), weights, k=4096)
    return [Request(0.0, "warm", encode(pool[key]), key) for key in keys]
