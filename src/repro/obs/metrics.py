"""The shared metrics registry: counters and latency histograms.

The statistics classes (``ServiceStatistics``, ``PoolStatistics``,
``AdmissionStatistics`` and the batch counters) are snapshot *views*; every
increment also lands on a named instrument in the :class:`MetricsRegistry`,
so ``repro stats`` sees the whole system through one interface.

Two instrument kinds, both thread-safe:

* :class:`Counter` — monotone event counts (``pool.tasks_dispatched``).
* :class:`Histogram` — fixed-bucket latency distributions with estimated
  p50/p95/p99 snapshots.  Buckets are fixed at construction so concurrent
  ``observe`` calls are one bisect + one array increment, never a resize.

:func:`timed` is the one code path wall-time measurement flows through: a
context manager (usable as a decorator) that records elapsed seconds into a
registry histogram and exposes ``.seconds`` for callers that also keep the
number locally (the batch executor's per-phase statistics do).

The fault-tolerance machinery publishes through the same registry:
``pool.tasks_retried`` (re-dispatches after a worker crash),
``pool.tasks_quarantined`` (poison tasks that exhausted their retry
budget), ``pool.clean_restarts`` (deliberate ``restart()`` calls, as
opposed to ``pool.worker_restarts`` which counts crash respawns),
``pool.breaker_trips`` (circuit-breaker trips to the serial path),
``queries.deadline_exceeded`` and ``queries.degraded``.  All appear in
``repro stats`` once the corresponding event has happened — counters are
created on first increment, so an incident leaves a visible trail.

Importing this module — and snapshotting an empty registry — never starts
pools or touches solver state; ``repro stats`` on a fresh process prints an
empty snapshot rather than raising.
"""

from __future__ import annotations

import bisect
import functools
import threading
import time
from typing import Callable, Iterator, Sequence

__all__ = ["Counter", "Histogram", "MetricsRegistry",
           "get_registry", "set_registry", "timed"]

#: Default latency buckets (seconds): 100us .. 30s, roughly 3 per decade.
#: Fixed — not adaptive — so percentile estimates are stable across runs
#: and observe() stays lock-plus-increment cheap.
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class Counter:
    """A monotone, thread-safe event counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0; counters never go down)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease "
                             f"(inc({amount}))")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A fixed-bucket histogram with estimated percentile snapshots.

    ``observe(value)`` increments the first bucket whose upper edge is
    >= value (one overflow bucket catches the rest).  Percentiles are
    estimated by linear interpolation inside the target bucket — exact to
    bucket resolution, which is the standard trade for lock-cheap concurrent
    observation (the Prometheus histogram model).
    """

    __slots__ = ("name", "_edges", "_counts", "_count", "_sum", "_min",
                 "_max", "_lock")

    def __init__(self, name: str, buckets: Sequence[float] | None = None):
        self.name = name
        edges = tuple(sorted(buckets or DEFAULT_LATENCY_BUCKETS))
        if not edges:
            raise ValueError("histograms need at least one bucket edge")
        self._edges = edges
        self._counts = [0] * (len(edges) + 1)  # +1 = overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self._edges, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, quantile: float) -> float | None:
        """The estimated ``quantile`` (0..1) value, None when empty."""
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        with self._lock:
            if self._count == 0:
                return None
            target = quantile * self._count
            seen = 0.0
            for index, bucket_count in enumerate(self._counts):
                if bucket_count == 0:
                    continue
                if seen + bucket_count >= target:
                    # Interpolate inside this bucket, clamped to the
                    # observed extremes so tiny samples stay sensible.
                    low = self._edges[index - 1] if index > 0 else 0.0
                    high = (self._edges[index] if index < len(self._edges)
                            else (self._max if self._max is not None else low))
                    fraction = ((target - seen) / bucket_count
                                if bucket_count else 0.0)
                    estimate = low + fraction * (high - low)
                    if self._min is not None:
                        estimate = max(estimate, self._min)
                    if self._max is not None:
                        estimate = min(estimate, self._max)
                    return estimate
                seen += bucket_count
            return self._max  # pragma: no cover - numeric edge

    def snapshot(self) -> dict[str, float | int | None]:
        """count/sum/mean/min/max plus the standard latency percentiles."""
        with self._lock:
            count, total = self._count, self._sum
            low, high = self._min, self._max
        return {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else None,
            "min": low,
            "max": high,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class _Timer:
    """The object :func:`timed` yields: elapsed seconds, live and final."""

    __slots__ = ("_started", "_elapsed")

    def __init__(self) -> None:
        self._started = time.perf_counter()
        self._elapsed: float | None = None

    def stop(self) -> float:
        if self._elapsed is None:
            self._elapsed = time.perf_counter() - self._started
        return self._elapsed

    @property
    def seconds(self) -> float:
        """Elapsed wall seconds (final after the block exits, live inside)."""
        if self._elapsed is not None:
            return self._elapsed
        return time.perf_counter() - self._started


class _TimedContext:
    """Context manager *and* decorator recording wall time into a histogram."""

    __slots__ = ("_name", "_registry", "_timer")

    def __init__(self, name: str, registry: "MetricsRegistry | None"):
        self._name = name
        self._registry = registry
        self._timer: _Timer | None = None

    def __enter__(self) -> _Timer:
        self._timer = _Timer()
        return self._timer

    def __exit__(self, *_exc) -> None:
        assert self._timer is not None
        elapsed = self._timer.stop()
        registry = self._registry if self._registry is not None else get_registry()
        registry.histogram(self._name).observe(elapsed)

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with _TimedContext(self._name, self._registry):
                return fn(*args, **kwargs)

        return wrapped


def timed(name: str, registry: "MetricsRegistry | None" = None) -> _TimedContext:
    """Measure a block (or a decorated function) into histogram ``name``.

    Usage::

        with timed("batch.warm_seconds") as timer:
            warm_everything()
        statistics.warm_seconds = timer.seconds

        @timed("experiments.fit_seconds")
        def fit(): ...

    The registry defaults to the process-global one at *exit* time, so a
    test that swaps the global registry mid-block still records into the
    registry active when the measurement lands.
    """
    return _TimedContext(name, registry)


class MetricsRegistry:
    """A named, typed instrument store — the one sink telemetry flows into.

    Instruments are created on first use (``counter(name)`` etc.) and a name
    is pinned to its first kind: asking for ``counter("x")`` after
    ``histogram("x")`` raises, because a single exported name must mean one
    thing.  All operations are thread-safe; ``snapshot()`` is a consistent
    point-in-time read of every instrument.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    # Instrument accessors
    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                self._check_unclaimed(name, "counter")
                instrument = self._counters[name] = Counter(name)
            return instrument

    def histogram(self, name: str,
                  buckets: Sequence[float] | None = None) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                self._check_unclaimed(name, "histogram")
                instrument = self._histograms[name] = Histogram(name, buckets)
            return instrument

    def _check_unclaimed(self, name: str, kind: str) -> None:
        for kind_name, table in (("counter", self._counters),
                                 ("histogram", self._histograms)):
            if name in table:
                raise ValueError(
                    f"metric name {name!r} is already a {kind_name}; "
                    f"cannot re-register it as a {kind}")

    def names(self) -> list[str]:
        with self._lock:
            return sorted([*self._counters, *self._histograms])

    def __len__(self) -> int:
        with self._lock:
            return len(self._counters) + len(self._histograms)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, dict]:
        """A plain-data view of every instrument (empty dicts when idle)."""
        with self._lock:
            counters = list(self._counters.values())
            histograms = list(self._histograms.values())
        return {
            "counters": {c.name: c.value for c in counters},
            "histograms": {h.name: h.snapshot() for h in histograms},
        }

    def render(self) -> str:
        """A human-readable snapshot (the ``repro stats`` output)."""
        snapshot = self.snapshot()
        lines: list[str] = []
        if snapshot["counters"]:
            lines.append("counters:")
            for name, value in sorted(snapshot["counters"].items()):
                lines.append(f"  {name:<44s} {value:,.0f}")
        if snapshot["histograms"]:
            lines.append("histograms (seconds):")
            for name, stats in sorted(snapshot["histograms"].items()):
                if not stats["count"]:
                    lines.append(f"  {name:<44s} (empty)")
                    continue
                lines.append(
                    f"  {name:<44s} n={stats['count']} "
                    f"mean={stats['mean'] * 1000:.2f}ms "
                    f"p50={stats['p50'] * 1000:.2f}ms "
                    f"p95={stats['p95'] * 1000:.2f}ms "
                    f"p99={stats['p99'] * 1000:.2f}ms")
        if not lines:
            return "(no metrics recorded)"
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop every instrument (tests; production registries only grow)."""
        with self._lock:
            self._counters.clear()
            self._histograms.clear()

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())


# --------------------------------------------------------------------- #
# The process-global registry
# --------------------------------------------------------------------- #
_registry_lock = threading.Lock()
_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry every subsystem publishes into."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry (tests); returns the previous one."""
    global _registry
    with _registry_lock:
        previous = _registry
        _registry = registry
        return previous
