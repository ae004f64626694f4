"""Simulation kernel backends: whole-trace array passes vs. the interpreter.

The reference simulator walks traces one reference at a time through
live cache objects — exact, fully general, and bounded by the Python
interpreter.  This package adds a second implementation of that work: a
numpy backend (:mod:`repro.kernels.numpy_backend`) that simulates a
direct-mapped cache level — and the bare split-L1/L2 system — over an
entire packed trace in vectorized array passes, including 3C miss
classification, and an assist-structure layer
(:mod:`repro.kernels.assist`) that extends the same treatment to the
paper's helper structures.  Because every structure is consulted only on
an L1 miss and updated only on a refill, the direct-mapped pass first
emits the *ordered miss stream* (positions, lines) and the
structure is then resolved over that much shorter stream, in one of two
modes (:func:`kernel_mode`):

* :data:`VECTOR` — the structure's hit condition closes over the miss
  stream in array form: LRU miss/victim caches reduce to one
  reuse-distance rank pass (which yields hits for *every* capacity at
  once, collapsing entry sweeps to a single pass), the single-way
  sequential stream buffer reduces to a consecutive-chain scan, and the
  multi-way stream buffer to a compare of stored way heads per miss.
* :data:`MISS_REPLAY` — the live interpreter structure replays only the
  compressed miss stream (stride prefetchers, non-LRU policies,
  availability modelling, allocation filters, full-comparator stream
  buffers, composites).

Neither pass depends on a point's capacity or warm-up window, so the
kernels take one input: the products cached on the materialized trace
per side and geometry (:class:`repro.kernels.assist.LevelProducts`, via
:func:`~repro.kernels.assist.level_products`), computed once per trace,
not once per point.  Every job body reads them, the bare split-L1/L2
system's two L1 sides included.

Both backends produce **identical statistics**, pinned by the
equivalence suite in ``tests/test_kernels.py``; which one runs is a pure
performance decision.

Backend selection
-----------------

:func:`select_backend` is the single dispatch point.  It combines two
inputs:

* the **request** — ``REPRO_BACKEND`` (``numpy`` | ``python``, default
  ``numpy``) or the CLI's ``--backend`` flag, validated by
  :func:`validate_backend`; ``python`` forces the reference interpreter;
* the **spec** — its :func:`kernel_mode`: a
  :class:`~repro.specs.SystemSpec` whose structure is ``None`` or a
  registered spec kind has one; non-spec inputs and unregistered
  structure types have none and run on python.

The engine turns this into one route label per job
(``repro.experiments.engine._job_backend``): ``execute_job`` dispatches
on it, and heartbeats, run records and the serving daemon report it.

numpy is a required dependency, imported lazily by the kernel modules
on first use so that importing the package stays cheap.
"""

from __future__ import annotations

import os
from typing import Optional

from ..common.errors import ConfigurationError

__all__ = [
    "PYTHON",
    "NUMPY",
    "BACKENDS",
    "VECTOR",
    "MISS_REPLAY",
    "ENV_BACKEND",
    "validate_backend",
    "default_backend",
    "structure_mode",
    "kernel_mode",
    "select_backend",
]

NUMPY = "numpy"
PYTHON = "python"
BACKENDS = (NUMPY, PYTHON)

#: Assist-structure execution modes on the numpy backend.
VECTOR = "vector"
MISS_REPLAY = "miss-replay"

#: Environment knob mirrored by the CLI's ``--backend`` flag.
ENV_BACKEND = "REPRO_BACKEND"


# -- request validation -------------------------------------------------------


def validate_backend(value: str) -> str:
    """Validate a user-supplied backend name (CLI boundary: reject loudly)."""
    if value not in BACKENDS:
        raise ConfigurationError(
            f"backend must be one of {', '.join(BACKENDS)}; got {value!r}"
        )
    return value


def default_backend() -> str:
    """The requested backend from ``REPRO_BACKEND`` (default ``numpy``)."""
    raw = os.environ.get(ENV_BACKEND, "")
    if not raw:
        return NUMPY
    if raw not in BACKENDS:
        raise ConfigurationError(
            f"{ENV_BACKEND} must be one of {', '.join(BACKENDS)}; got {raw!r}"
        )
    return raw


# -- execution modes ----------------------------------------------------------


def structure_mode(spec) -> Optional[str]:
    """Execution mode of one structure spec on the numpy backend.

    ``VECTOR`` when the structure's hit condition is expressible as
    array passes over the miss stream, ``MISS_REPLAY`` when the live
    interpreter structure must replay the (compressed) miss stream, and
    ``None`` for ``spec`` values that are not registered structure
    specs.  The vector conditions mirror
    :mod:`repro.kernels.assist` exactly:

    * miss cache — LRU replacement (the reuse-distance rank pass *is*
      LRU stack depth);
    * victim cache — LRU replacement with ``swap_on_hit`` (a hit must
      invalidate, which is what keeps the finite cache a prefix of the
      unbounded stack);
    * stream buffer, single- or multi-way — head-only matching without
      availability modelling or the allocation filter (a single way's
      hit condition then closes over consecutive-miss chains alone; a
      multi-way buffer reduces to each way's head line and allocating
      miss).
    """
    from ..specs.structures import StructureSpec

    if spec is None:
        return VECTOR
    if not isinstance(spec, StructureSpec):
        return None
    kind = spec.kind
    if kind == "miss_cache":
        return VECTOR if spec.policy == "lru" else MISS_REPLAY
    if kind == "victim_cache":
        return VECTOR if spec.policy == "lru" and spec.swap_on_hit else MISS_REPLAY
    if kind in ("stream_buffer", "multi_way_stream_buffer"):
        vector = (
            spec.head_only
            and not spec.model_availability
            and not spec.allocation_filter
        )
        return VECTOR if vector else MISS_REPLAY
    if kind == "composite":
        if any(structure_mode(member) is None for member in spec.members):
            return None
        return MISS_REPLAY
    if kind in ("stride_buffer", "multi_way_stride_buffer"):
        return MISS_REPLAY
    return None


def kernel_mode(system) -> Optional[str]:
    """How *system* would execute on the numpy backend, or None.

    ``VECTOR`` for structure-free points and vectorizable structures,
    ``MISS_REPLAY`` for structures that replay the compressed miss
    stream, ``None`` for non-spec inputs and unregistered structures.
    This is a property of the spec alone — combine with
    :func:`select_backend` to learn what actually runs.
    """
    from ..specs import SystemSpec

    if not isinstance(system, SystemSpec):
        return None
    return structure_mode(system.structure)


def select_backend(system, requested: Optional[str] = None) -> str:
    """The backend one spec point will execute on: ``"numpy"`` | ``"python"``.

    *requested* overrides the environment (it must already be a valid
    backend name; CLI input goes through :func:`validate_backend`
    first).  Points without a :func:`kernel_mode` run on python.
    """
    request = default_backend() if requested is None else requested
    if request == PYTHON or kernel_mode(system) is None:
        return PYTHON
    return NUMPY
