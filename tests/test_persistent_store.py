"""Tests for the persistent cache tier: the sqlite store, the LRU cache's
write-through/read-on-miss integration, and the service-level warm-restart
acceptance (write -> kill the process' state -> reopen -> bit-identical
answers without recomputation; a corrupted store degrades to a cold miss,
never an error).
"""

from __future__ import annotations

import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import repro
from repro.core.bounds import BoundOptions
from repro.core.engine import ContingencyQuery
from repro.core.predicates import Predicate
from repro.service import ContingencyService, LRUCache, PersistentStore
from repro.service.store import SCHEMA_VERSION, default_cache_dir

from test_service import build_observed, build_pcset, mixed_queries

FAST = BoundOptions(check_closure=False)

#: Opens the store in the directory ``argv[1]``, commits five rows into the
#: write-ahead log, reports ``ready`` and exits with ``os._exit`` (no close,
#: no checkpoint) once a line arrives on stdin.
_WAL_WRITER = """
import os, sys
from repro.service.store import PersistentStore
store = PersistentStore(sys.argv[1])
for index in range(5):
    store.write("report", ("mid", index), "y" * 200)
print("ready", flush=True)
sys.stdin.readline()
os._exit(0)
"""


class TestPersistentStore:
    def test_round_trip_across_reopen(self, tmp_path):
        store = PersistentStore(tmp_path)
        key = ("decomposition", "abc123", Predicate.range("utc", 11, 13))
        store.write("decomposition", key, {"cells": [1, 2, 3]})
        store.close()

        reopened = PersistentStore(tmp_path)
        assert reopened.read("decomposition", key) == {"cells": [1, 2, 3]}
        assert reopened.statistics.hits == 1
        reopened.close()

    def test_miss_returns_none_and_counts_read(self, tmp_path):
        store = PersistentStore(tmp_path)
        assert store.read("report", ("missing",)) is None
        assert store.statistics.reads == 1
        assert store.statistics.hits == 0
        store.close()

    def test_kinds_do_not_collide(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.write("decomposition", ("k",), "cells")
        store.write("report", ("k",), "report")
        assert store.read("decomposition", ("k",)) == "cells"
        assert store.read("report", ("k",)) == "report"
        assert store.entry_count() == 2
        assert store.entry_count("report") == 1
        store.close()

    def test_bad_row_is_a_miss_and_is_dropped(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.write("report", ("k",), "value")
        # Corrupt the pickled value in place: the row decodes no more.
        digest, _ = PersistentStore._encode_key(("k",))
        connection = sqlite3.connect(str(store.path))
        connection.execute(
            "UPDATE entries SET value = ? WHERE kind = ? AND key = ?",
            (b"not a pickle", "report", digest))
        connection.commit()
        connection.close()

        assert store.read("report", ("k",)) is None  # miss, not an exception
        assert store.statistics.errors >= 1
        assert store.entry_count("report") == 0  # the bad row was deleted
        store.close()

    def test_corrupted_file_is_recreated(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.write("report", ("k",), "value")
        store.close()
        store.path.write_bytes(b"this is not a sqlite database file")

        reopened = PersistentStore(tmp_path)
        assert reopened.read("report", ("k",)) is None  # cold, not fatal
        reopened.write("report", ("k",), "fresh")  # and usable again
        assert reopened.read("report", ("k",)) == "fresh"
        store_errors = reopened.statistics.errors
        assert store_errors >= 1
        reopened.close()

    def test_schema_version_mismatch_drops_table(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.write("report", ("k",), "value")
        store.close()
        connection = sqlite3.connect(str(store.path))
        connection.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 7}")
        connection.commit()
        connection.close()

        reopened = PersistentStore(tmp_path)
        assert reopened.read("report", ("k",)) is None  # unknown layout: drop
        assert reopened.entry_count() == 0
        reopened.close()

    def test_unpicklable_key_or_value_is_swallowed(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.write("report", ("k",), lambda: None)  # unpicklable value
        assert store.statistics.writes == 0
        assert store.statistics.errors == 1
        assert store.read("report", ("k",)) is None
        store.close()

    def test_keys_and_invalidate_where(self, tmp_path):
        store = PersistentStore(tmp_path)
        for index in range(4):
            store.write("report", ("fp", index), index * 10)
        assert sorted(store.keys("report")) == [("fp", 0), ("fp", 1),
                                                ("fp", 2), ("fp", 3)]
        removed = store.invalidate_where("report", lambda key: key[1] % 2 == 0)
        assert removed == 2
        assert sorted(store.keys("report")) == [("fp", 1), ("fp", 3)]
        assert store.read("report", ("fp", 1)) == 10
        store.close()

    def test_closed_store_is_inert(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.close()
        store.write("report", ("k",), "value")  # no-ops, no exceptions
        assert store.read("report", ("k",)) is None
        assert store.entry_count() == -1

    def test_unusable_directory_is_inert(self, tmp_path):
        # A file where the directory should be: mkdir fails, and the
        # store must degrade to a permanently cold tier, not raise.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        store = PersistentStore(blocker / "cache")
        assert store.statistics.errors == 1
        store.write("report", ("k",), "value")
        assert store.read("report", ("k",)) is None
        assert store.statistics.hits == 0
        assert store.statistics.writes == 0
        assert store.entry_count() == -1
        store.close()

    def test_commits_run_in_wal_mode(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.write("report", ("k",), "value")
        connection = sqlite3.connect(str(store.path))
        assert connection.execute(
            "PRAGMA journal_mode").fetchone()[0] == "wal"
        connection.close()
        store.close()

    def test_recreation_drops_a_live_writers_log(self, tmp_path):
        """A writer still holding the store leaves WAL frames and shared
        memory behind; once the main file is corrupted, the reopened store
        must be cold and usable, and its rows must survive the writer's
        ``os._exit`` and a reopen."""
        store = PersistentStore(tmp_path)
        for index in range(50):
            store.write("report", ("old", index), "x" * 200)
        store.close()  # checkpointed: every page lives in the main file
        writer = subprocess.Popen(
            [sys.executable, "-c", _WAL_WRITER, str(tmp_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ,
                 "PYTHONPATH": str(Path(repro.__file__).parents[1])})
        try:
            assert writer.stdout.readline().strip() == "ready"
            assert Path(f"{store.path}-wal").stat().st_size > 0
            store.path.write_bytes(b"\xa5" * store.path.stat().st_size)

            reopened = PersistentStore(tmp_path)
            assert reopened.read("report", ("old", 1)) is None  # cold
            assert reopened.statistics.errors >= 1
            for index in range(5):
                reopened.write("report", ("new", index), "fresh")
            assert reopened.entry_count("report") == 5  # and usable
        finally:
            writer.stdin.write("exit\n")
            writer.stdin.flush()
            writer.wait(timeout=30)
        reopened.close()

        survivor = PersistentStore(tmp_path)
        assert survivor.entry_count("report") == 5
        assert survivor.read("report", ("new", 3)) == "fresh"
        assert survivor.read("report", ("mid", 1)) is None
        survivor.close()

    def test_default_cache_dir_reads_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
        assert default_cache_dir() == "/tmp/somewhere"
        monkeypatch.setenv("REPRO_CACHE_DIR", "   ")
        assert default_cache_dir() is None


class TestLRUCacheStoreIntegration:
    def test_put_writes_through_and_miss_promotes(self, tmp_path):
        store = PersistentStore(tmp_path)
        cache = LRUCache(max_entries=8, name="report")
        cache.attach_store(store)
        cache.put(("k",), "value")
        assert store.entry_count("report") == 1

        cache.clear()  # drop memory; the store keeps the entry
        assert cache.get(("k",)) == "value"  # promoted from the store
        assert cache.statistics.misses == 1  # memory miss still counted
        assert store.statistics.hits == 1
        assert cache.peek(("k",)) == "value"  # now resident in memory
        # Promotion must not write back: still exactly one store write.
        assert store.statistics.writes == 1
        store.close()

    def test_capacity_eviction_keeps_store_rows(self, tmp_path):
        store = PersistentStore(tmp_path)
        cache = LRUCache(max_entries=2, name="report")
        cache.attach_store(store)
        for index in range(4):
            cache.put(("k", index), index)
        assert cache.statistics.evictions == 2
        assert store.entry_count("report") == 4  # evicted but not erased
        assert cache.get(("k", 0)) == 0  # re-readable from disk
        store.close()

    def test_invalidate_where_removes_both_tiers(self, tmp_path):
        store = PersistentStore(tmp_path)
        cache = LRUCache(max_entries=8, name="report")
        cache.attach_store(store)
        cache.put(("keep",), 1)
        cache.put(("drop",), 2)
        removed = cache.invalidate_where(lambda key: key[0] == "drop")
        assert removed == 1
        assert cache.statistics.invalidations == 1
        assert cache.statistics.evictions == 0  # invalidation != eviction
        assert store.entry_count("report") == 1
        cache.clear()
        assert cache.get(("drop",)) is None  # cannot resurrect from disk
        assert cache.get(("keep",)) == 1
        store.close()

    def test_invalidate_where_without_store(self):
        cache = LRUCache(max_entries=8, name="plain")
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.invalidate_where(lambda key: key == "a") == 1
        assert cache.statistics.invalidations == 1
        assert "a" not in cache and "b" in cache


class TestServiceWarmRestart:
    def test_restart_answers_from_store_without_recompute(self, tmp_path):
        """Acceptance: write -> kill -> reopen -> bit-identical, no solves."""
        query = ContingencyQuery.sum("price", Predicate.range("utc", 11, 13))
        with ContingencyService(max_workers=2,
                                cache_dir=str(tmp_path)) as cold:
            cold.register("outage", build_pcset(), observed=build_observed(),
                          options=FAST)
            first = cold.analyze("outage", query)
            assert cold.store.statistics.writes >= 1

        with ContingencyService(max_workers=2,
                                cache_dir=str(tmp_path)) as warm:
            warm.register("outage", build_pcset(), observed=build_observed(),
                          options=FAST)
            second = warm.analyze("outage", ContingencyQuery.sum(
                "price", Predicate.range("utc", 11, 13)))
            statistics = warm.statistics()
            assert statistics.decompositions_computed == 0  # nothing solved
            assert statistics.store is not None
            assert statistics.store["hits"] >= 1
            assert "persistent store" in statistics.summary()

        assert second.result_range.lower == first.result_range.lower
        assert second.result_range.upper == first.result_range.upper
        assert second.missing_range.lower == first.missing_range.lower
        assert second.missing_range.upper == first.missing_range.upper
        assert second.observed_value == first.observed_value

    def test_restart_batch_round_trip_bit_identical(self, tmp_path):
        queries = mixed_queries(15)
        with ContingencyService(max_workers=2,
                                cache_dir=str(tmp_path)) as cold:
            cold.register("outage", build_pcset(), observed=build_observed(),
                          options=FAST)
            first = cold.execute_batch("outage", queries)

        with ContingencyService(max_workers=2,
                                cache_dir=str(tmp_path)) as warm:
            warm.register("outage", build_pcset(), observed=build_observed(),
                          options=FAST)
            second = warm.execute_batch("outage", queries)
            assert warm.statistics().decompositions_computed == 0

        for a, b in zip(first.reports, second.reports):
            assert a.result_range.lower == b.result_range.lower
            assert a.result_range.upper == b.result_range.upper
            assert a.missing_range.lower == b.missing_range.lower
            assert a.missing_range.upper == b.missing_range.upper
            assert a.observed_value == b.observed_value

    def test_corrupted_store_degrades_to_cold_miss(self, tmp_path):
        query = ContingencyQuery.count(Predicate.range("utc", 11, 13))
        with ContingencyService(max_workers=1,
                                cache_dir=str(tmp_path)) as cold:
            cold.register("outage", build_pcset(), observed=build_observed(),
                          options=FAST)
            first = cold.analyze("outage", query)
            store_path = cold.store.path
        store_path.write_bytes(b"\x00" * 64)  # truncated garbage

        with ContingencyService(max_workers=1,
                                cache_dir=str(tmp_path)) as recovered:
            recovered.register("outage", build_pcset(),
                               observed=build_observed(), options=FAST)
            second = recovered.analyze("outage", ContingencyQuery.count(
                Predicate.range("utc", 11, 13)))
            # Cold recompute, same answer; the file was recreated in place.
            assert recovered.statistics().decompositions_computed >= 1
        assert second.result_range.lower == first.result_range.lower
        assert second.result_range.upper == first.result_range.upper

    def test_environment_toggle_enables_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with ContingencyService(max_workers=1) as service:
            assert service.store is not None
            assert service.store.path.parent == tmp_path

    def test_no_cache_dir_means_no_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with ContingencyService(max_workers=1) as service:
            assert service.store is None
            assert service.statistics().store is None

    def test_store_survives_cache_clear(self, tmp_path):
        """clear_caches is a memory valve: the store still warms a restart."""
        query = ContingencyQuery.count(Predicate.range("utc", 11, 13))
        with ContingencyService(max_workers=1,
                                cache_dir=str(tmp_path)) as service:
            service.register("outage", build_pcset(), options=FAST)
            service.analyze("outage", query)
            service.clear_caches()
            service.analyze("outage", ContingencyQuery.count(
                Predicate.range("utc", 11, 13)))
            # The post-clear query was answered from the persistent tier.
            assert service.statistics().decompositions_computed == 1
            assert service.store.statistics.hits >= 1
