"""The cache-advisor service layer: ``repro-serve`` and its clients.

Turns the batch reproduction into an online question-answering service:
an asyncio HTTP/JSON daemon (:mod:`repro.serve.daemon`) keyed by
``spec_hash`` + trace fingerprint, answering warm keys straight from the
:mod:`result store <repro.store>` and coalescing duplicate concurrent
cold keys into single :mod:`engine <repro.experiments.engine>` jobs,
with admission control and streamed progress heartbeats.  See
``docs/API.md`` ("Serving") for the endpoint and schema reference.
"""

from .breaker import CircuitBreaker
from .daemon import CacheAdvisorDaemon, ServeConfig
from .loadgen import LoadReport, percentiles, run_loadgen
from .service import (
    AdviseError,
    AdviseQuery,
    AdvisorService,
    BadRequestError,
    BreakerOpenError,
    DeadlineExceededError,
    OverloadedError,
    RetryLaterError,
    SERVING_COUNTERS,
    StoreDegradedWarning,
    UpstreamError,
    parse_query,
)

__all__ = [
    "CacheAdvisorDaemon",
    "ServeConfig",
    "AdvisorService",
    "AdviseQuery",
    "AdviseError",
    "BadRequestError",
    "BreakerOpenError",
    "CircuitBreaker",
    "DeadlineExceededError",
    "OverloadedError",
    "RetryLaterError",
    "StoreDegradedWarning",
    "UpstreamError",
    "SERVING_COUNTERS",
    "parse_query",
    "LoadReport",
    "run_loadgen",
    "percentiles",
]
