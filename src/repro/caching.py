"""Content-addressed caches: one LRU, one stats type, four disk stores.

The transcription, front-end feature and pair-score caches
(:class:`repro.pipeline.cache.TranscriptionCache`,
:class:`repro.dsp.feature_cache.FeatureCache`,
:class:`repro.similarity.score_cache.PairScoreCache`) differ only in
their key and value type.  The thread-safe LRU, the statistics, the disk
stores and the rule for merging stored records are :class:`ContentCache`,
written once here, next to the cache-policy parser the three share
(``"shared"`` / ``"private"`` / ``"off"`` / an on-disk path).  A
subclass picks its store from the path with :func:`json_store` or
:func:`array_store`; ``docs/ARCHITECTURE.md`` ("Content caches") tables
the keys, stores and concurrency guarantees.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import UnknownComponentError
from repro.store import (
    ContentDirectoryStore,
    Journal,
    atomic_write_bytes,
    atomic_write_text,
)


def audio_fingerprint(samples: np.ndarray, sample_rate: int) -> str:
    """Content hash identifying one clip's audio (samples + rate)."""
    digest = hashlib.sha1()
    # Hash the C-order buffer, so the digest does not depend on the
    # array's memory layout.  A C-contiguous array (every Waveform's
    # samples) is hashed in place; only other layouts are copied.
    digest.update(np.ascontiguousarray(samples).data)
    digest.update(str(int(sample_rate)).encode("ascii"))
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`ContentCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


# ------------------------------------------------------------------ stores
# A store maps ``(key, payload)`` records to disk.  ``items()`` reads every
# record, ``write_all()`` replaces the store's content.  Shared stores are
# also written through on every put (``write``), and may hold records
# other processes added since the last look (``replay``) or serve single
# keys on a memory miss (``read``, when ``lazy``).

class _JsonSnapshot:
    """A ``{key: payload}`` JSON file, replaced atomically on save."""

    shared = lazy = False

    def __init__(self, path: str):
        self.path = os.fspath(path)

    def items(self) -> list[tuple[str, object]]:
        with open(self.path, encoding="utf-8") as handle:
            return list(json.load(handle).items())

    def write_all(self, items) -> None:
        atomic_write_text(self.path, json.dumps(dict(items)))


class _NpzSnapshot(_JsonSnapshot):
    """One ``.npz`` of ``__keys__`` plus ``arr_<i>``, replaced atomically."""

    def items(self) -> list[tuple[str, np.ndarray]]:
        with np.load(self.path, allow_pickle=False) as payload:
            keys = [str(key) for key in payload["__keys__"]]
            return [(key, payload[f"arr_{i}"]) for i, key in enumerate(keys)]

    def write_all(self, items) -> None:
        items = list(items)
        buffer = io.BytesIO()
        np.savez(buffer, __keys__=np.array([key for key, _ in items],
                                           dtype=str),
                 **{f"arr_{i}": value for i, (_, value) in enumerate(items)})
        atomic_write_bytes(self.path, buffer.getvalue())


class _JournalStore:
    """An append-only ``{"k", "v"}`` journal shared across processes."""

    shared, lazy = True, False

    def __init__(self, path: str):
        self.journal = Journal(path)

    def replay(self) -> list[tuple[object, object]]:
        """Records appended since the last look (all, on a fresh store)."""
        return [(record["k"], record["v"]) for record in self.journal.replay()
                if "k" in record and "v" in record]

    items = replay

    def write(self, key: str, payload) -> None:
        self.journal.append({"k": key, "v": payload})

    def write_all(self, items) -> None:
        """Compact the journal: single-writer, see :meth:`Journal.rewrite`."""
        self.journal.rewrite({"k": key, "v": payload}
                             for key, payload in items)


class _DirectoryStore(ContentDirectoryStore):
    """One atomically written ``.npz`` per entry, read lazily per key."""

    shared = lazy = True

    def replay(self) -> list:
        return []

    def write_all(self, items) -> None:
        for key, value in items:
            self.write(key, value)


def json_store(path: str):
    """Store rule of JSON-valued caches: ``.jsonl`` journal, else snapshot."""
    if os.fspath(path).endswith(".jsonl"):
        return _JournalStore(path)
    return _JsonSnapshot(path)


def array_store(path: str):
    """Store rule of array-valued caches: ``.npz`` snapshot, else directory."""
    if os.fspath(path).endswith(".npz"):
        return _NpzSnapshot(path)
    return _DirectoryStore(path)


# ------------------------------------------------------------------- cache
class ContentCache:
    """Thread-safe LRU of values keyed by content hash, optionally on disk.

    Subclasses state their key (a ``key_for`` staticmethod), their
    ``default_capacity``, their store rule (``_open_store``, see
    :func:`json_store` / :func:`array_store`) and their value handling:
    ``_prepare`` turns a value given to :meth:`put` into the cached one,
    ``_encode`` turns a cached value into a store payload and ``_decode``
    turns a payload back (raising ``KeyError``/``TypeError``/
    ``ValueError`` for one it rejects).

    Args:
        capacity: maximum number of entries kept in memory (default: the
            subclass's ``default_capacity``); the least recently used
            entry is evicted first.
        path: optional on-disk store, chosen from the path by
            ``_open_store``.  A snapshot file is loaded eagerly and
            written by an explicit :meth:`save`; a journal is replayed
            eagerly; a directory is read lazily on memory misses.
    """

    default_capacity = 1024
    _open_store = staticmethod(json_store)
    _prepare = _encode = _decode = staticmethod(lambda value: value)

    def __init__(self, capacity: int | None = None, path: str | None = None):
        if capacity is None:
            capacity = self.default_capacity
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.path = path
        self.stats = CacheStats()
        self._entries: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.Lock()
        store = self._open_store(path) if path is not None else None
        #: The shared store puts write through to (journal or directory).
        self._store = store if store is not None and store.shared else None
        self._lazy = store is not None and store.lazy
        if self._store is None and path is not None and os.path.exists(path):
            self.load(path)
        self.refresh()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str):
        """Look up ``key``, updating LRU order and hit/miss statistics.

        With a directory store a memory miss falls through to disk, so
        entries other processes wrote count as hits here.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return value
            if not self._lazy:
                self.stats.misses += 1
                return None
        payload = self._store.read(key)
        with self._lock:
            if payload is None:
                self.stats.misses += 1
                return None
            value = self._entries[key] = self._decode(payload)
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self._evict()
            return value

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key``, evicting the LRU entry if full.

        With a shared store (journal or directory) the entry is also
        written through immediately, so other processes sharing the path
        see it.
        """
        value = self._prepare(value)
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._evict()
        if self._store is not None:
            self._store.write(key, self._encode(value))

    def refresh(self) -> int:
        """Merge journal entries other processes appended; returns count.

        A no-op that returns 0 without a journal.  Merged entries do not
        touch the hit/miss statistics.
        """
        if self._store is None:
            return 0
        return self._merge(self._store.replay())

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    def save(self, path: str | None = None) -> str:
        """Write the cache to ``path`` (default: the constructor path).

        Snapshot files are written atomically (temp file +
        ``os.replace``), so a crash mid-save leaves the previous store
        intact.  Saving to the cache's own journal compacts it to the
        current in-memory entries (a single-writer operation); a
        directory gets every in-memory entry written through.
        """
        path = self._resolve_path(path)
        with self._lock:
            entries = list(self._entries.items())
        store = (self._store if self._store is not None and path == self.path
                 else self._open_store(path))
        store.write_all((key, self._encode(value)) for key, value in entries)
        return path

    def load(self, path: str | None = None) -> int:
        """Merge every record of ``path``; returns the count merged."""
        return self._merge(self._open_store(self._resolve_path(path)).items())

    # ------------------------------------------------------------ internals
    def _resolve_path(self, path: str | None) -> str:
        path = path or self.path
        if path is None:
            raise ValueError("no path given and cache has no backing file")
        return path

    def _merge(self, records) -> int:
        """Insert decodable ``(key, payload)`` records; skip the rest."""
        merged = 0
        with self._lock:
            for key, payload in records:
                if not isinstance(key, str):
                    continue
                try:
                    value = self._decode(payload)
                except (KeyError, TypeError, ValueError):
                    continue
                self._entries[key] = value
                self._entries.move_to_end(key)
                merged += 1
            self._evict()
        return merged

    def _evict(self) -> None:
        """Drop LRU entries beyond capacity (caller holds the lock)."""
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1


# ---------------------------------------------------------------- policies
def _path_like(value: str, suffixes: tuple[str, ...]) -> bool:
    return (os.sep in value or "/" in value
            or any(value.endswith(suffix) for suffix in suffixes))


def check_cache_policy(spec, kind: str,
                       suffixes: tuple[str, ...] = (".json", ".jsonl")
                       ) -> None:
    """Validate a policy without constructing (or reading) any cache.

    Raises :class:`UnknownComponentError` for a mistyped policy name;
    accepts everything :func:`resolve_cache_policy` would.  Used by spec
    validation so ``repro config validate`` never touches cache files.
    """
    if isinstance(spec, str) and spec not in ("shared", "private", "off") \
            and not _path_like(spec, suffixes):
        raise UnknownComponentError(
            kind, spec, ("shared", "private", "off",
                         f"<path ending in {'/'.join(suffixes)}>"))


def resolve_cache_policy(spec, cache_type: type, kind: str,
                         make_shared: Callable[[], object] | None = None,
                         suffixes: tuple[str, ...] = (".json", ".jsonl")):
    """Coerce a cache policy into an engine ``cache`` argument.

    Accepted policies: an instance of ``cache_type`` (used as given), a
    bool, ``None``/``"off"`` (disabled), ``"shared"`` (``True`` — the
    engine substitutes its process-wide cache), ``"private"`` (a fresh
    in-memory cache) or a path-like string (an on-disk store — must
    contain a path separator or end in one of ``suffixes``, so a
    mistyped policy name errors instead of silently creating a cache
    file).  ``suffixes`` follows the cache's store rule: ``.json`` /
    ``.jsonl`` for :func:`json_store`, ``.npz`` for :func:`array_store`
    (whose separator-containing paths without that suffix select a
    content-addressed directory).
    """
    if isinstance(spec, cache_type) or isinstance(spec, bool):
        return spec
    if spec is None or spec == "off":
        return False
    if spec == "shared":
        return True if make_shared is None else make_shared()
    if spec == "private":
        return cache_type()
    path = str(spec)
    check_cache_policy(path, kind, suffixes)
    return cache_type(path=path)
