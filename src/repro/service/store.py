"""A persistent, corruption-tolerant cache tier backed by sqlite.

:class:`PersistentStore` is the disk side of the service cache stack: the
in-memory :class:`~repro.service.cache.LRUCache` instances for decompositions
and missing-row ranges attach a store (see :meth:`LRUCache.attach_store`) and
from then on every ``put`` writes through and every memory miss falls back
to a store read, so warm work survives process restarts and can be shared
between replicas pointing at the same directory.  Reports are not stored: a
report is its missing-row range combined with one scan of the observed rows,
so a stored range already rebuilds it.

Design rules, in order of importance:

* **Never wrong, never fatal.**  Cache keys embed content fingerprints, so a
  row can only ever be stale-keyed, not stale-valued — and any failure on the
  read path (missing file, truncated database, unpicklable row, schema drift)
  degrades to a plain cache miss.  A corrupted store file is recreated in
  place; the caller recomputes and repopulates.
* **Schema versioned.**  ``PRAGMA user_version`` stamps the on-disk layout;
  opening a store written by an incompatible version drops and recreates the
  table rather than guessing at row meaning.
* **Content-addressed rows.**  Lookup keys are the SHA-256 of the pickled
  cache key (cache keys are tuples of fingerprints/predicates, already
  content-derived); values are pickled Python objects.  Two processes running
  the same code produce the same key bytes for the same logical entry.
* **Cheap commits.**  The file runs in sqlite's write-ahead-log mode with
  ``synchronous=NORMAL``: a commit appends to the ``-wal`` file without an
  fsync.  A power loss can drop the last commits but cannot corrupt the
  file, and a dropped commit is only a cold miss.  WAL needs shared memory,
  so processes may share a directory only on one host (no network
  filesystems).

Rows are namespaced by ``kind`` (one per attached cache) so decompositions
and missing-row ranges share one file without colliding.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable

from ..obs.metrics import get_registry

__all__ = ["PersistentStore", "StoreStatistics", "default_cache_dir"]

#: Bump whenever the table layout or value encoding changes incompatibly,
#: or when entries an older version wrote may be unsound.  Version 2: box-SAT
#: keeps integral cells next to fractional endpoints, which version 1
#: decompositions and reports could miss.  Version 3: under a cell budget
#: the early-stop depth follows from the plan alone, while version 2 entries
#: may carry a depth learned from earlier traffic.  Version 4: a cell whose
#: covering constraints' bounds on any attribute are empty holds no rows,
#: where version 3 ranges (COUNT above all) could still place rows there.
#: Version 5 stores no reports, keeps no pickled key beside the digest (only
#: key iteration read it), and range keys carry the observed sum and count
#: (AVG's, else 0.0), so version 4 report and range rows are dropped.
#: Version 6: AVG endpoints are the exact extremes rounded outward, where
#: version 5 AVG ranges are the bisection's ends, loose by up to 1e-6.
#: Version 7: a range key names one program per region plus the attribute,
#: where a version 6 key names a per-attribute program no lookup forms any
#: more; and an AVG with an unlimited cell approaches that cell's value,
#: where version 6 answered the bracket end.  Version 8: a region's
#: ``Predicate`` pickles its constraints as the SAT solver's ``Interval`` and
#: ``CategoricalSet``, so the digest of every range and decomposition key
#: changes and version 7 rows are unreachable.
SCHEMA_VERSION = 8

_DB_FILENAME = "repro-cache.sqlite"

_ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def default_cache_dir() -> str | None:
    """The cache directory from ``REPRO_CACHE_DIR`` (``None`` when unset)."""
    value = os.environ.get(_ENV_CACHE_DIR, "").strip()
    return value or None


@dataclass
class StoreStatistics:
    """Counters describing one store's traffic (reads include misses)."""

    reads: int = 0
    hits: int = 0
    writes: int = 0
    errors: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "reads": self.reads,
            "hits": self.hits,
            "writes": self.writes,
            "errors": self.errors,
        }

    def snapshot(self) -> "StoreStatistics":
        return StoreStatistics(self.reads, self.hits, self.writes, self.errors)


class PersistentStore:
    """A sqlite-backed key/value tier for the service caches.

    Parameters
    ----------
    cache_dir:
        Directory holding the database file (created if absent).  Multiple
        stores — even in different processes on one host — may point at the
        same directory; sqlite serialises writers.
    """

    def __init__(self, cache_dir: str | Path):
        self._directory = Path(cache_dir)
        self._path = self._directory / _DB_FILENAME
        self._lock = threading.RLock()
        self._statistics = StoreStatistics()
        self._connection: sqlite3.Connection | None = None
        self._closed = False
        try:
            self._directory.mkdir(parents=True, exist_ok=True)
        except OSError:
            # An unusable directory is a permanently cold store, not an
            # error: every read misses, every write no-ops.  The query
            # path must never pay for a misconfigured cache location.
            self._count_error()
            return
        self._open()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Path:
        return self._path

    @property
    def statistics(self) -> StoreStatistics:
        return self._statistics

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._connection is not None:
                try:
                    self._connection.close()
                except sqlite3.Error:
                    pass
                self._connection = None

    def _open(self) -> None:
        """Open (or create) the database, recreating it when incompatible."""
        try:
            self._connection = self._connect()
        except sqlite3.Error:
            self._recreate()

    def _connect(self) -> sqlite3.Connection:
        connection = sqlite3.connect(str(self._path), check_same_thread=False)
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        version = connection.execute("PRAGMA user_version").fetchone()[0]
        if version not in (0, SCHEMA_VERSION):
            # Written by an incompatible layout: drop rather than guess.
            connection.execute("DROP TABLE IF EXISTS entries")
        connection.execute(
            "CREATE TABLE IF NOT EXISTS entries ("
            " kind TEXT NOT NULL,"
            " key BLOB NOT NULL,"
            " value BLOB NOT NULL,"
            " PRIMARY KEY (kind, key))"
        )
        connection.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
        connection.commit()
        return connection

    def _recreate(self) -> None:
        """Replace a corrupted/truncated database file with a fresh one.

        Losing the warm entries is exactly the contract: a bad store is a
        cold cache, never an error surfaced to a query.  The ``-wal`` and
        ``-shm`` files go with the main file: they belong to the old file,
        so a leftover log replayed into the fresh one brings old rows back,
        and an index a live writer still holds leaves the fresh one
        unreadable.
        """
        if self._connection is not None:
            try:
                self._connection.close()
            except sqlite3.Error:
                pass
            self._connection = None
        try:
            for suffix in ("", "-wal", "-shm"):
                Path(f"{self._path}{suffix}").unlink(missing_ok=True)
            self._connection = self._connect()
        except (OSError, sqlite3.Error):
            self._connection = None
        self._count_error()

    def _count_error(self) -> None:
        self._statistics.errors += 1
        get_registry().counter("store.errors").inc()

    # ------------------------------------------------------------------ #
    # Key/value encoding
    # ------------------------------------------------------------------ #
    @staticmethod
    def _encode_key(key: Hashable) -> bytes:
        """The sha256 lookup key of a cache key tuple's pickle."""
        return hashlib.sha256(pickle.dumps(key, protocol=4)).digest()

    # ------------------------------------------------------------------ #
    # Read / write
    # ------------------------------------------------------------------ #
    def read(self, kind: str, key: Hashable) -> object | None:
        """Return the stored value, or ``None`` on any miss or failure."""
        self._statistics.reads += 1
        get_registry().counter("store.reads").inc()
        with self._lock:
            if self._closed or self._connection is None:
                return None
            try:
                digest = self._encode_key(key)
                row = self._connection.execute(
                    "SELECT value FROM entries WHERE kind = ? AND key = ?",
                    (kind, digest),
                ).fetchone()
            except (pickle.PicklingError, sqlite3.Error, TypeError, ValueError):
                self._recreate()
                return None
        if row is None:
            return None
        try:
            value = pickle.loads(row[0])
        except Exception:
            # A bad row is a miss, never an error: drop it and move on.
            self._count_error()
            self.delete(kind, key)
            return None
        self._statistics.hits += 1
        get_registry().counter("store.hits").inc()
        return value

    def write(self, kind: str, key: Hashable, value: object) -> None:
        """Persist ``value`` (best-effort — failures are swallowed)."""
        try:
            digest = self._encode_key(key)
            value_pickle = pickle.dumps(value, protocol=4)
        except Exception:
            self._count_error()
            return
        with self._lock:
            if self._closed or self._connection is None:
                return
            try:
                self._connection.execute(
                    "INSERT OR REPLACE INTO entries (kind, key, value)"
                    " VALUES (?, ?, ?)",
                    (kind, digest, value_pickle),
                )
                self._connection.commit()
            except sqlite3.Error:
                self._recreate()
                return
        self._statistics.writes += 1
        get_registry().counter("store.writes").inc()

    def delete(self, kind: str, key: Hashable) -> None:
        """Remove one entry (best-effort)."""
        with self._lock:
            if self._closed or self._connection is None:
                return
            try:
                digest = self._encode_key(key)
                self._connection.execute(
                    "DELETE FROM entries WHERE kind = ? AND key = ?",
                    (kind, digest),
                )
                self._connection.commit()
            except Exception:
                self._count_error()

    def entry_count(self, kind: str | None = None) -> int:
        """Number of persisted rows (``-1`` when the store is unusable)."""
        with self._lock:
            if self._closed or self._connection is None:
                return -1
            try:
                if kind is None:
                    row = self._connection.execute(
                        "SELECT COUNT(*) FROM entries").fetchone()
                else:
                    row = self._connection.execute(
                        "SELECT COUNT(*) FROM entries WHERE kind = ?",
                        (kind,)).fetchone()
                return int(row[0])
            except sqlite3.Error:
                self._recreate()
                return -1

    def __repr__(self) -> str:
        return (f"PersistentStore({str(self._path)!r}, "
                f"reads={self._statistics.reads}, "
                f"hits={self._statistics.hits}, "
                f"writes={self._statistics.writes}, "
                f"errors={self._statistics.errors})")
