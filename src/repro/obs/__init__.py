"""Unified observability: metrics registry, span tracing, query profiles.

Importing this package is always safe — it starts no pools, reads no solver
state, and an empty registry snapshots to empty dicts.  The three layers:

* :mod:`~repro.obs.metrics` — the process-global :class:`MetricsRegistry`
  every subsystem's counters publish into, plus the :func:`timed` wall-time
  helper.
* :mod:`~repro.obs.trace` — span tracing with cross-process propagation
  through the worker pool (off unless ``REPRO_TRACE=1`` or a caller passes
  ``profile=True``).
* :mod:`~repro.obs.profile` — EXPLAIN ANALYZE-style :class:`QueryProfile`
  rendered from a span tree, with JSON export.
"""

from .metrics import (Counter, Histogram, MetricsRegistry, get_registry,
                      set_registry, timed)
from .profile import ProfileNode, QueryProfile
from .trace import Span, Trace, Tracer, get_tracer, tracing_enabled

__all__ = [
    "Counter", "Histogram", "MetricsRegistry",
    "get_registry", "set_registry", "timed",
    "ProfileNode", "QueryProfile",
    "Span", "Trace", "Tracer", "get_tracer", "tracing_enabled",
]
