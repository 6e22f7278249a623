"""A thread-safe LRU cache with hit/miss/eviction statistics.

This is the storage substrate for the service layer: one instance holds cell
decompositions (keyed by decomposition namespace and query region), another
holds finished contingency reports (keyed by session identity and query
fingerprint).  The design constraints come from the batch executor:

* **Thread safety** — service callers may be concurrent threads, so every
  operation takes an internal lock.
* **Compute deduplication** — fifty concurrent queries over the same region
  must trigger *one* decomposition, not fifty.  :meth:`get_or_compute`
  serialises the factory per key (other keys proceed in parallel) so the
  losers of the race reuse the winner's value.
* **Observability** — hit/miss/eviction counters feed the service statistics
  that the benchmark suite and the CLI report.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, TypeVar

__all__ = ["CacheStatistics", "LRUCache"]

_MISSING = object()
Value = TypeVar("Value")


@dataclass
class CacheStatistics:
    """Counters describing one cache's traffic (``evictions`` counts
    capacity-driven removals)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "puts": self.puts,
            "hit_rate": self.hit_rate,
        }

    def snapshot(self) -> "CacheStatistics":
        return CacheStatistics(self.hits, self.misses, self.evictions,
                               self.puts)


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Parameters
    ----------
    max_entries:
        Capacity; the least recently *used* entry is evicted on overflow.
        Must be positive — a service that wants caching off should simply not
        pass a cache.
    name:
        Label used in statistics summaries.

    A persistent tier may be attached via :meth:`attach_store` (see
    :mod:`repro.service.store`): writes then go through to the store, and a
    memory miss falls back to a store read before reporting a true miss, so
    warm entries survive process restarts.  The store never affects
    correctness — a store failure or absent row is simply a miss.
    """

    def __init__(self, max_entries: int = 256, name: str = "cache"):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self._max_entries = max_entries
        self._name = name
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._statistics = CacheStatistics()
        self._lock = threading.RLock()
        self._key_locks: dict[Hashable, threading.Lock] = {}
        self._store = None
        self._store_kind = name

    def attach_store(self, store: object, kind: str | None = None) -> None:
        """Back this cache with a persistent tier.

        ``store`` is duck-typed: it must expose ``read(kind, key)`` (returning
        ``None`` on miss/failure) and ``write(kind, key, value)``.  ``kind``
        namespaces this cache's rows inside the shared store file (defaults
        to the cache name).  Entries loaded from the store are promoted into
        memory without being written back.
        """
        self._store = store
        self._store_kind = kind if kind is not None else self._name

    @property
    def store(self) -> object | None:
        return self._store

    @property
    def name(self) -> str:
        return self._name

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def statistics(self) -> CacheStatistics:
        """Live statistics (take :meth:`CacheStatistics.snapshot` to freeze)."""
        return self._statistics

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[Hashable]:
        with self._lock:
            return list(self._entries)

    # ------------------------------------------------------------------ #
    # Core operations
    # ------------------------------------------------------------------ #
    def get(self, key: Hashable, default: object = None) -> object:
        """Look up ``key``, counting a hit or a miss and refreshing recency.

        With a persistent tier attached, a memory miss falls back to a store
        read; a store hit promotes the value into memory (without writing it
        back to the store).  The memory counters still record the miss — the
        store keeps its own hit/read counters — so in-memory statistics stay
        comparable with and without a persistent tier.
        """
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self._statistics.hits += 1
                return value
            self._statistics.misses += 1
        store = self._store
        if store is None:
            return default
        loaded = store.read(self._store_kind, key)
        if loaded is None:
            return default
        with self._lock:
            self._entries[key] = loaded
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self._statistics.evictions += 1
        return loaded

    def peek(self, key: Hashable, default: object = None) -> object:
        """Look up ``key`` without touching recency or the counters."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            return default if value is _MISSING else value

    def put(self, key: Hashable, value: object) -> None:
        """Insert or overwrite ``key``, evicting the LRU entry on overflow.

        Write-through: with a persistent tier attached the value is also
        written to the store (capacity eviction never touches the store —
        evicted entries remain readable from disk).
        """
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._statistics.puts += 1
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self._statistics.evictions += 1
        store = self._store
        if store is not None:
            store.write(self._store_kind, key, value)

    def get_or_compute(self, key: Hashable,
                       factory: Callable[[], Value]) -> Value:
        """Return the cached value, computing (once) and caching on a miss.

        Concurrent callers with the same key block on a per-key lock while
        the first caller runs ``factory``; callers with different keys never
        block each other.  The hit/miss counters see exactly one event per
        call, so single-threaded traffic has exact, reproducible counts.
        """
        value = self.get(key, _MISSING)
        if value is not _MISSING:
            return value  # type: ignore[return-value]
        with self._lock:
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            try:
                # A concurrent computation may have finished while we waited
                # on the key lock; peek so the race loser does not
                # double-count.
                value = self.peek(key, _MISSING)
                if value is _MISSING:
                    value = factory()
                    self.put(key, value)
            finally:
                # Popped on a raise too, or each failed compute would keep
                # its lock for the life of the cache.
                with self._lock:
                    self._key_locks.pop(key, None)
        return value  # type: ignore[return-value]

    def clear(self) -> None:
        """Drop every in-memory entry (statistics and the store persist).

        An attached persistent tier is deliberately untouched: ``clear`` is a
        memory-pressure valve, not an invalidation.
        """
        with self._lock:
            self._entries.clear()

    def reset_statistics(self) -> None:
        with self._lock:
            self._statistics = CacheStatistics()

    def __repr__(self) -> str:
        with self._lock:
            return (f"LRUCache({self._name!r}, {len(self._entries)}/"
                    f"{self._max_entries} entries, "
                    f"hits={self._statistics.hits}, "
                    f"misses={self._statistics.misses}, "
                    f"evictions={self._statistics.evictions})")
