"""Persistent, content-addressed result store for simulation points.

Every engine job is a pure function of its inputs: a frozen
:class:`~repro.specs.SystemSpec` (trace reference, geometry, structure,
side, warmup, classify) plus a handful of job parameters, replayed over
a deterministic trace.  That makes simulation results memoizable by
*configuration identity* — the software analogue of way-memoization in
hardware caches — and this module is the memo: a directory of one JSON
file per ``(spec hash, trace fingerprint, job parameters)`` key.

Design points:

* **Content addressing.**  The key hashes the spec's canonical JSON
  *and* the trace's content fingerprint, so a changed generator, scale
  resolution, or seed can never serve a stale result — the key simply
  differs.  The result-schema version is part of the key, so bumping
  :data:`RESULT_SCHEMA_VERSION` invalidates every old entry at once.
* **Atomic writes.**  Entries are written to a temp file in the target
  directory and ``os.replace``-d into place, so concurrent writers
  (parallel engines sharing one store) can never interleave bytes; the
  worst case is both simulating the same point and one rename winning.
* **Corruption-tolerant reads.**  A truncated, hand-edited, or
  wrong-schema entry is a *miss*, never a crash: :meth:`ResultStore.get`
  swallows decode errors and the engine recomputes (and rewrites) the
  point.
* **A front tier for hot keys.**  Each store keeps the last
  :data:`FRONT_TIER_ENTRIES` entries it read from disk in memory — the
  small fully-associative buffer in front of the slower level — so a key
  read again is answered without touching the disk.  Only successful
  disk reads fill it (``put`` never does, and drops the key instead), it
  re-checks the stored key like a disk read (against the verified key's
  memo content, so a hit builds no key dict), and it holds each result in
  its encoded form, decoding on every hit, so no caller ever shares a
  mutable result object.  :meth:`ResultStore.clear` empties it.
* **One digest per key content.**  A key's digest (its file name) is
  computed once per key content per process: a memo of up to
  :data:`DIGEST_MEMO_ENTRIES` digests (emptied when full) answers every
  equal key built later, so a warm lookup costs one front-tier probe.
  Keys whose extras hold other than ``str``/``int``/``bool``/``None``
  values (a structure dict, a float) are hashed once per key object.

The active store is resolved from the ``REPRO_RESULT_STORE`` environment
variable (or ``repro-experiments --result-store``, which sets it so
worker processes inherit the store too); with neither set, the engine
runs exactly as before — no store reads, no store writes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

from .codec import decode_result, encode_result

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "ENV_RESULT_STORE",
    "ResultKey",
    "StoreStats",
    "StoreWriteWarning",
    "ResultStore",
    "current_store",
    "set_store",
]


class StoreWriteWarning(UserWarning):
    """The result store could not persist an entry (run continues uncached)."""

#: Version of the stored-result schema: part of every key, so bumping it
#: orphans (and :meth:`ResultStore.gc` later removes) all older entries.
RESULT_SCHEMA_VERSION = 1

ENV_RESULT_STORE = "REPRO_RESULT_STORE"

#: Entries each store's in-memory front tier holds (least recently used go first).
FRONT_TIER_ENTRIES = 1024

#: Key digests the process remembers (four front tiers' worth).
DIGEST_MEMO_ENTRIES = 4 * FRONT_TIER_ENTRIES

#: Guards every store's front tier: the serve daemon's event loop, lookup
#: threads and simulation threads all read through one store.
_FRONT_LOCK = threading.Lock()

if hasattr(os, "register_at_fork"):
    # Hold the lock across a fork so an engine worker never starts with a
    # copy some other thread held.
    os.register_at_fork(
        before=_FRONT_LOCK.acquire,
        after_in_parent=_FRONT_LOCK.release,
        after_in_child=_FRONT_LOCK.release,
    )

#: The digest memo: key content (see ``ResultKey._content``) -> digest.
#: No lock: each access is one atomic dict call, every value is a pure
#: function of its key, and racing threads overshoot the bound by one each.
_DIGESTS: Dict[tuple, str] = {}

#: Extras values whose equality implies equal JSON (``1 == 1.0`` and
#: ``0.0 == -0.0`` do not, so floats are left out).
_MEMO_VALUE_TYPES = frozenset((str, int, bool, type(None)))
_STR = frozenset((str,))


@dataclass(frozen=True)
class ResultKey:
    """Identity of one cacheable simulation point.

    ``spec_hash`` pins the full :class:`~repro.specs.SystemSpec`
    (including the trace *reference*), ``trace_fingerprint`` pins the
    trace *content*, and ``extras`` carries job parameters outside the
    spec (sweep kind, entry counts, run lengths).
    """

    job_kind: str
    spec_hash: str
    trace_fingerprint: str
    extras: Mapping = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "job_kind": self.job_kind,
            "spec_hash": self.spec_hash,
            "trace_fingerprint": self.trace_fingerprint,
            "extras": dict(self.extras),
            "result_schema": RESULT_SCHEMA_VERSION,
        }

    def digest(self) -> str:
        """The entry's file name; computed once per key content."""
        return self._digest

    def _content(self) -> Optional[tuple]:
        """The memo's key under the current schema, or None."""
        typed = self._typed_fields
        return None if typed is None else (RESULT_SCHEMA_VERSION, typed)

    def _identity(self) -> object:
        """What the front tier compares: the memo content (equal contents
        mean equal :meth:`as_dict` forms), or the key dict without one."""
        content = self._content()
        return self.as_dict() if content is None else content

    @cached_property
    def _typed_fields(self) -> Optional[tuple]:
        """The fields and the typed extras, or None (``True`` and ``1`` are
        equal in Python, not in JSON, so types are part of it)."""
        names = tuple(self.extras)
        values = tuple(self.extras.values())
        kinds = tuple(map(type, values))
        fields = (self.job_kind, self.spec_hash, self.trace_fingerprint, *names)
        if not _STR.issuperset(map(type, fields)) or not _MEMO_VALUE_TYPES.issuperset(kinds):
            return None
        return fields, kinds, values

    @cached_property
    def _digest(self) -> str:
        content = self._content()
        digest = None if content is None else _DIGESTS.get(content)
        if digest is None:
            digest = _hash_key(self.as_dict())
            if content is not None:
                if len(_DIGESTS) >= DIGEST_MEMO_ENTRIES:
                    _DIGESTS.clear()
                _DIGESTS[content] = digest
        return digest


def _hash_key(key_dict: Mapping) -> str:
    """The digest itself: SHA-256 of the key's canonical JSON, 32 hex digits."""
    payload = json.dumps(key_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


@dataclass
class StoreStats:
    """One walk of the store tree, for ``repro-experiments store stats``."""

    root: str
    entries: int = 0
    total_bytes: int = 0
    #: Entries under version directories other than the current schema.
    stale_entries: int = 0
    #: ``.tmp-*`` files orphaned by writers that died mid-insert.
    orphaned_tmp: int = 0

    def render(self) -> str:
        lines = [
            f"result store at {self.root}",
            f"  schema version:  {RESULT_SCHEMA_VERSION}",
            f"  current entries: {self.entries}",
            f"  stale entries:   {self.stale_entries}",
            f"  orphaned tmp:    {self.orphaned_tmp}",
            f"  total size:      {self.total_bytes} bytes",
        ]
        return "\n".join(lines)


class ResultStore:
    """JSON-per-key result store under one root directory.

    Layout: ``<root>/v<schema>/<digest[:2]>/<digest>.json`` — the
    two-character fan-out keeps directories small for stores holding the
    tens of thousands of points a full design-space sweep produces.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._warned_write = False
        #: The front tier: digest -> (verified key's ``_identity()``,
        #: encoded result, entry bytes), least recently used first.
        self._front: "OrderedDict[str, Tuple[object, Dict, int]]" = OrderedDict()

    # -- paths ----------------------------------------------------------------

    def _version_dir(self) -> Path:
        return self.root / _version_name()

    def _entry_file(self, digest: str) -> str:
        """An entry's path as one formatted string (``get``/``put`` skip pathlib)."""
        return f"{self.root}/{_version_name()}/{digest[:2]}/{digest}.json"

    # -- read/write -----------------------------------------------------------

    def get(self, key: ResultKey) -> Tuple[Optional[object], int]:
        """``(result, bytes_read)`` for a key, or ``(None, 0)`` on a miss.

        The front tier answers first (``bytes_read`` is then the size of
        the entry it holds); otherwise the entry file is read, and a
        good one joins the front tier.  *Any* failure — missing file,
        truncated JSON, schema mismatch, unknown result type, wrong field
        types — degrades to a miss so a damaged store can only cost
        recomputation, never correctness.
        """
        cached, nbytes = self.peek(key)
        if cached is not None:
            return cached, nbytes
        digest = key.digest()
        try:
            with open(self._entry_file(digest), "rb") as handle:
                raw = handle.read()
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                return None, 0
            if payload.get("result_schema") != RESULT_SCHEMA_VERSION:
                return None, 0
            if payload.get("key") != key.as_dict():
                # Digest collision or tampered entry: treat as absent.
                return None, 0
            result = decode_result(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            return None, 0
        with _FRONT_LOCK:
            self._front[digest] = (key._identity(), payload["result"], len(raw))
            self._front.move_to_end(digest)
            if len(self._front) > FRONT_TIER_ENTRIES:
                self._front.popitem(last=False)
        return result, len(raw)

    def peek(self, key: ResultKey) -> Tuple[Optional[object], int]:
        """:meth:`get` answered by the front tier alone: never touches the disk."""
        digest = key.digest()
        with _FRONT_LOCK:
            entry = self._front.get(digest)
            if entry is None:
                return None, 0
            self._front.move_to_end(digest)
        stored_key, encoded, nbytes = entry
        if stored_key != key._identity():
            return None, 0
        return decode_result(encoded), nbytes

    def put(self, key: ResultKey, result: object) -> None:
        """Insert (or overwrite) one result atomically.

        Serialization failures for unknown result types propagate (a
        programming error); filesystem races lose benignly because the
        final ``os.replace`` is atomic.

        Filesystem failures — ``ENOSPC``, a read-only store directory,
        permission loss mid-sweep — must never take a long run down when
        the store is a pure accelerator: the first one triggers a single
        :class:`StoreWriteWarning` and every insert after it degrades to
        a silent no-op (reads keep working).
        """
        # Encode before touching the filesystem so unknown-result-type
        # errors (programming bugs) still propagate loudly.
        payload = {
            "result_schema": RESULT_SCHEMA_VERSION,
            "key": key.as_dict(),
            "result": encode_result(result),
        }
        # The next get reads what this put wrote.
        with _FRONT_LOCK:
            self._front.pop(key.digest(), None)
        try:
            path = self._entry_file(key.digest())
            directory = os.path.dirname(path)
            try:
                handle = _temp_entry(directory)
            except FileNotFoundError:  # the first write to this fan-out directory
                os.makedirs(directory, exist_ok=True)
                handle = _temp_entry(directory)
            try:
                with handle:
                    json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
                os.replace(handle.name, path)
            except BaseException:
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass
                raise
        except OSError as exc:
            if not self._warned_write:
                self._warned_write = True
                warnings.warn(
                    f"result store at {self.root} is not writable "
                    f"({exc}); continuing without persisting results",
                    StoreWriteWarning,
                    stacklevel=2,
                )

    # -- maintenance ----------------------------------------------------------

    def _iter_entries(self):
        """Yield ``(path, is_current_version)`` for every stored entry."""
        if not self.root.is_dir():
            return
        current = self._version_dir().name
        for version_dir in sorted(self.root.iterdir()):
            if not version_dir.is_dir() or not version_dir.name.startswith("v"):
                continue
            for path in sorted(version_dir.glob("*/*.json")):
                yield path, version_dir.name == current

    def _iter_tmp_files(self):
        """Yield ``.tmp-*`` files orphaned by writers that died mid-insert.

        (``glob("*/*.json")`` above never matches them: pathlib's ``*``
        skips dotfiles, which is exactly why in-flight writes are
        invisible to :meth:`stats` and entry iteration.)
        """
        if not self.root.is_dir():
            return
        yield from sorted(self.root.rglob(".tmp-*.json"))

    def stats(self) -> StoreStats:
        stats = StoreStats(root=str(self.root))
        for path, is_current in self._iter_entries():
            size = path.stat().st_size
            stats.total_bytes += size
            if is_current:
                stats.entries += 1
            else:
                stats.stale_entries += 1
        stats.orphaned_tmp = sum(1 for _ in self._iter_tmp_files())
        return stats

    def gc(self) -> int:
        """Remove superseded-schema entries and orphaned temp files.

        Returns the number of files removed.  Temp files are left behind
        only by writers that died between creating one and the atomic
        ``os.replace`` (a kill -9, an injected worker crash), so they
        are always garbage by the time ``gc`` runs.
        """
        removed = 0
        for path, is_current in self._iter_entries():
            if not is_current:
                path.unlink(missing_ok=True)
                removed += 1
        for path in self._iter_tmp_files():
            path.unlink(missing_ok=True)
            removed += 1
        self._prune_empty_dirs()
        return removed

    def clear(self) -> int:
        """Remove every entry, current schema included, and empty the
        front tier; return the count of files removed."""
        with _FRONT_LOCK:
            self._front.clear()
        removed = 0
        for path, _ in self._iter_entries():
            path.unlink(missing_ok=True)
            removed += 1
        self._prune_empty_dirs()
        return removed

    def _prune_empty_dirs(self) -> None:
        if not self.root.is_dir():
            return
        for version_dir in self.root.iterdir():
            if not version_dir.is_dir():
                continue
            for fan_dir in list(version_dir.iterdir()):
                if fan_dir.is_dir() and not any(fan_dir.iterdir()):
                    fan_dir.rmdir()
            if not any(version_dir.iterdir()):
                version_dir.rmdir()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.root)!r})"


def _version_name() -> str:
    """The current schema's directory name, read per call so a schema bump
    moves a live store to the new directory."""
    return f"v{RESULT_SCHEMA_VERSION}"


def _temp_entry(directory: str):
    """An open temp file in *directory*, renamed into place once written."""
    return tempfile.NamedTemporaryFile(
        mode="w", encoding="utf-8", dir=directory, prefix=".tmp-", suffix=".json", delete=False
    )


# -- the active store ---------------------------------------------------------

_CACHED: Optional[ResultStore] = None


def current_store() -> Optional[ResultStore]:
    """The active result store, or None when memoization is off (default).

    Resolved from ``REPRO_RESULT_STORE`` on every call (cheap: one env
    read plus a cached object), so worker processes and late
    ``--result-store`` flags all see the same answer.
    """
    global _CACHED
    path = os.environ.get(ENV_RESULT_STORE, "")
    if not path:
        return None
    if _CACHED is None or str(_CACHED.root) != path:
        _CACHED = ResultStore(path)
    return _CACHED


def set_store(path: Optional[str]) -> Optional[ResultStore]:
    """Point the active store at *path* (None disables it).

    Sets the environment variable, so engine worker processes — fork or
    spawn — inherit the same store.
    """
    if path:
        os.environ[ENV_RESULT_STORE] = str(path)
    else:
        os.environ.pop(ENV_RESULT_STORE, None)
    return current_store()
