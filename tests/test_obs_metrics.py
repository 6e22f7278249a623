"""The metrics registry: instruments, thread safety, timed() plumbing."""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
    timed,
)


@pytest.fixture
def registry():
    """Swap in a fresh global registry, restoring the previous afterwards."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


class TestCounter:
    def test_counts_and_exposes_value(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("x").inc(-1)


class TestHistogram:
    def test_percentiles_on_known_inputs(self):
        """1..1000 ms uniformly: percentiles land within bucket resolution."""
        histogram = Histogram("latency")
        values = [i / 1000.0 for i in range(1, 1001)]  # 1ms .. 1000ms
        for value in values:
            histogram.observe(value)
        assert histogram.count == 1000
        assert histogram.sum == pytest.approx(sum(values))
        # Exact percentiles are 0.5s / 0.95s / 0.99s; the fixed buckets
        # around them are (0.25, 0.5], (0.5, 1.0] — interpolation must land
        # inside the right bucket, i.e. within a factor ~2 of truth.
        p50 = histogram.percentile(0.50)
        p95 = histogram.percentile(0.95)
        p99 = histogram.percentile(0.99)
        assert 0.25 <= p50 <= 0.75
        assert 0.5 <= p95 <= 1.0
        assert 0.5 <= p99 <= 1.0
        assert p50 <= p95 <= p99

    def test_percentiles_clamped_to_observed_extremes(self):
        histogram = Histogram("latency")
        for _ in range(10):
            histogram.observe(0.003)
        assert histogram.percentile(0.0) == pytest.approx(0.003)
        assert histogram.percentile(1.0) == pytest.approx(0.003)
        assert histogram.percentile(0.5) == pytest.approx(0.003)

    def test_empty_percentile_is_none(self):
        assert Histogram("latency").percentile(0.5) is None

    def test_overflow_bucket_catches_outliers(self):
        histogram = Histogram("latency", buckets=[0.1, 1.0])
        histogram.observe(50.0)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 1
        assert snapshot["max"] == 50.0
        assert snapshot["p99"] == pytest.approx(50.0)

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            Histogram("latency").percentile(1.5)


class TestRegistry:
    def test_create_on_first_use_and_identity(self, registry):
        assert registry.counter("a") is registry.counter("a")
        assert len(registry) == 1

    def test_kind_conflict_raises(self, registry):
        registry.counter("x")
        with pytest.raises(ValueError, match="already a counter"):
            registry.histogram("x")

    def test_empty_snapshot_and_render(self, registry):
        snapshot = registry.snapshot()
        assert snapshot == {"counters": {}, "histograms": {}}
        assert registry.render() == "(no metrics recorded)"

    def test_snapshot_is_plain_data(self, registry):
        registry.counter("c").inc(3)
        registry.histogram("h").observe(0.01)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 3.0}
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_thread_safety_under_concurrent_increments(self, registry):
        """N threads x M increments on one counter lose no updates."""
        threads_count, per_thread = 8, 2500
        counter = registry.counter("contested")
        histogram = registry.histogram("contested_latency")
        barrier = threading.Barrier(threads_count)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                counter.inc()
                histogram.observe(0.001)

        threads = [threading.Thread(target=hammer)
                   for _ in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == threads_count * per_thread
        assert histogram.count == threads_count * per_thread

    def test_concurrent_instrument_creation_yields_one_instrument(self,
                                                                  registry):
        instruments = []
        barrier = threading.Barrier(8)

        def create():
            barrier.wait()
            instruments.append(registry.counter("raced"))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(instrument) for instrument in instruments}) == 1


class TestTimed:
    def test_records_into_named_histogram(self, registry):
        with timed("block_seconds") as timer:
            pass
        assert timer.seconds >= 0.0
        assert registry.histogram("block_seconds").count == 1

    def test_timer_seconds_live_then_final(self, registry):
        with timed("block_seconds") as timer:
            live = timer.seconds
            assert live >= 0.0
        final = timer.seconds
        assert final == timer.seconds  # frozen after exit

    def test_decorator_form(self, registry):
        @timed("fn_seconds")
        def work(x):
            return x * 2

        assert work(21) == 42
        assert registry.histogram("fn_seconds").count == 1

    def test_explicit_registry_wins(self, registry):
        private = MetricsRegistry()
        with timed("t", registry=private):
            pass
        assert private.histogram("t").count == 1
        assert get_registry().histogram("t").count == 0

    def test_records_even_when_block_raises(self, registry):
        with pytest.raises(RuntimeError):
            with timed("err_seconds"):
                raise RuntimeError("boom")
        assert registry.histogram("err_seconds").count == 1
