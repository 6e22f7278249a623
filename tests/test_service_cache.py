"""Tests for the thread-safe LRU cache behind the service layer."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service.cache import CacheStatistics, LRUCache


class TestBasics:
    def test_get_put_and_counters(self):
        cache = LRUCache(max_entries=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.statistics
        assert (stats.hits, stats.misses, stats.puts) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_peek_does_not_count(self):
        cache = LRUCache(max_entries=4)
        cache.put("a", 1)
        assert cache.peek("a") == 1
        assert cache.peek("b", "fallback") == "fallback"
        assert cache.statistics.lookups == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(max_entries=0)

    def test_contains_len_clear(self):
        cache = LRUCache(max_entries=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache and len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        assert cache.statistics.puts == 2  # statistics survive clear()


class TestEviction:
    def test_lru_eviction_order(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a": "b" is now least recently used
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.statistics.evictions == 1

    def test_overwrite_does_not_evict(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("a", 2)
        cache.put("b", 3)
        assert cache.get("a") == 2
        assert cache.statistics.evictions == 0


class TestGetOrCompute:
    def test_computes_once_then_hits(self):
        cache = LRUCache(max_entries=4)
        calls = []
        factory = lambda: calls.append(1) or "value"
        assert cache.get_or_compute("k", factory) == "value"
        assert cache.get_or_compute("k", factory) == "value"
        assert len(calls) == 1
        assert cache.statistics.hits == 1
        assert cache.statistics.misses == 1

    def test_concurrent_same_key_computes_once(self):
        cache = LRUCache(max_entries=8)
        calls = []
        barrier = threading.Barrier(8)

        def factory():
            calls.append(1)
            return "value"

        def worker():
            barrier.wait()
            return cache.get_or_compute("shared", factory)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [future.result()
                       for future in [pool.submit(worker) for _ in range(8)]]
        assert results == ["value"] * 8
        assert len(calls) == 1

    def test_different_keys_do_not_serialise(self):
        cache = LRUCache(max_entries=8)
        started = threading.Event()
        release = threading.Event()

        def slow_factory():
            started.set()
            assert release.wait(timeout=5.0)
            return "slow"

        with ThreadPoolExecutor(max_workers=2) as pool:
            slow = pool.submit(cache.get_or_compute, "slow-key", slow_factory)
            assert started.wait(timeout=5.0)
            # While the slow key computes, another key must go straight through.
            assert cache.get_or_compute("fast-key", lambda: "fast") == "fast"
            release.set()
            assert slow.result(timeout=5.0) == "slow"

    def test_raising_factories_leave_no_key_locks(self):
        cache = LRUCache(max_entries=8)

        def failing():
            raise RuntimeError("compute failed")

        for index in range(100):
            with pytest.raises(RuntimeError):
                cache.get_or_compute(("key", index), failing)
        assert cache._key_locks == {}
        assert len(cache) == 0


class TestStatistics:
    def test_snapshot_is_frozen_copy(self):
        cache = LRUCache(max_entries=4)
        cache.put("a", 1)
        snapshot = cache.statistics.snapshot()
        cache.get("a")
        assert snapshot.hits == 0 and cache.statistics.hits == 1

    def test_as_dict(self):
        stats = CacheStatistics(hits=3, misses=1, evictions=2, puts=4)
        rendered = stats.as_dict()
        assert rendered["hits"] == 3 and rendered["hit_rate"] == 0.75

    def test_reset(self):
        cache = LRUCache(max_entries=4)
        cache.put("a", 1)
        cache.get("a")
        cache.reset_statistics()
        assert cache.statistics.lookups == 0
        assert cache.get("a") == 1  # entries themselves survive the reset
