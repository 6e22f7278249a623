"""Lightweight span tracing with cross-process propagation.

A *span* is one timed region of the pipeline — ``plan``, ``compile``,
``solve.shard``, ``avg.round`` — with a monotonic start/end, a parent
pointer, and a small attribute dict (solver-call counts, cache verdicts,
shard ids).  A *trace* is the tree of spans for one query; the
:class:`~repro.obs.profile.QueryProfile` renders it EXPLAIN ANALYZE-style.

Design constraints, in priority order:

1. **Disabled ⇒ near-zero cost.**  Tracing is off unless ``REPRO_TRACE=1``
   is set or a caller forces a trace (``profile=True``).  The disabled hot
   path through :meth:`Tracer.span` is one attribute load and returning a
   shared no-op context manager — no allocation, no clock read, no string
   formatting.  Instrumentation sites therefore use *constant* span names
   and attach dynamic data via :meth:`Tracer.annotate`, which also no-ops
   when no span is active.
2. **Cross-process coherence.**  The worker pool ships a trace context
   (trace id + parent span id) inside task payloads; workers run their
   handler under :func:`capture` and return finished spans as plain tuples
   in the reply, which the coordinator re-parents with :meth:`Tracer.adopt`.
   Clocks are ``time.perf_counter`` — CLOCK_MONOTONIC on Linux, a shared
   boot-relative timebase across processes on one host, so parent and child
   timestamps land on one axis.
3. **Bounded overhead when enabled.**  Root traces honour a sampling knob
   (``sample_every=N`` keeps one trace in N); forced traces (explicit
   profile requests) bypass sampling.  Span storage is append-only per
   trace, flat, and bounded by pipeline depth × shard count.

State is thread-local: each coordinator thread owns its active trace.

Fault-tolerance events leave span tags rather than new span kinds: a task
span whose result came from a re-dispatch after a worker crash carries
``attempts=N`` (N > 1), a round abandoned by an expired query deadline
annotates ``deadline_abandoned=N``, and a sharded bound that fell back to
worst-case ranges annotates ``degraded_shards=(...)`` — all of which the
profile layer folds into its EXPLAIN ANALYZE summary.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

__all__ = ["Span", "Trace", "Tracer", "get_tracer", "tracing_enabled"]

# Wire format for a finished span crossing the process boundary:
# (span_id, parent_id, name, start, end, attributes-or-None).
SpanTuple = tuple[str, "str | None", str, float, float, "dict | None"]

_span_counter = itertools.count(1)


def _new_span_id() -> str:
    """Process-unique, collision-free across pool workers (pid-prefixed)."""
    return f"{os.getpid():x}-{next(_span_counter):x}"


def tracing_enabled() -> bool:
    """Whether ambient tracing is on for this process (``REPRO_TRACE=1``)."""
    return os.environ.get("REPRO_TRACE", "") == "1"


@dataclass
class Span:
    """One timed region; ``end`` is None while the region is still open."""

    span_id: str
    parent_id: str | None
    name: str
    start: float
    end: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        if self.end is None:
            return None
        return self.end - self.start

    def add(self, key: str, amount: float = 1) -> None:
        """Accumulate a numeric attribute (solver-call tallies and kin)."""
        self.attributes[key] = self.attributes.get(key, 0) + amount

    def as_tuple(self) -> SpanTuple:
        """The picklable wire form shipped in pool replies."""
        end = self.end if self.end is not None else self.start
        return (self.span_id, self.parent_id, self.name, self.start, end,
                dict(self.attributes) or None)

    @classmethod
    def from_tuple(cls, data: SpanTuple) -> "Span":
        span_id, parent_id, name, start, end, attributes = data
        return cls(span_id=span_id, parent_id=parent_id, name=name,
                   start=start, end=end,
                   attributes=dict(attributes) if attributes else {})


class Trace:
    """An append-only collection of spans sharing one root."""

    __slots__ = ("trace_id", "spans", "_lock")

    def __init__(self, trace_id: str | None = None):
        self.trace_id = trace_id or _new_span_id()
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    def append(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def extend(self, spans: Sequence[Span]) -> None:
        with self._lock:
            self.spans.extend(spans)

    @property
    def root(self) -> Span | None:
        for span in self.spans:
            if span.parent_id is None:
                return span
        return self.spans[0] if self.spans else None

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(list(self.spans))


class _NoopSpanContext:
    """The shared do-nothing context the disabled fast path returns."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *_exc) -> None:
        return None


_NOOP = _NoopSpanContext()


class _SpanContext:
    """Opens a live span on enter, closes and pops it on exit."""

    __slots__ = ("_tracer", "_name", "_span", "_token")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._tracer._push(self._name)
        return self._span

    def __exit__(self, exc_type, exc, _tb) -> None:
        assert self._span is not None
        if exc is not None:
            self._span.attributes.setdefault("error", type(exc).__name__)
        self._tracer._pop(self._span)


class _TraceContext:
    """Root context: installs a trace on enter, deactivates it on exit.

    When a trace is already active on this thread, the "root" degrades to a
    plain child span — nested ``tracer.trace(...)`` calls (a profiled
    service call running a profiled batch) compose instead of clobbering.
    """

    __slots__ = ("_tracer", "_name", "_inner", "_installed")

    def __init__(self, tracer: "Tracer", name: str, active: bool):
        self._tracer = tracer
        self._name = name
        self._inner: _SpanContext | None = None
        self._installed = active

    def __enter__(self) -> "Trace | Span | None":
        if not self._installed:
            return None
        state = self._tracer._state
        if getattr(state, "trace", None) is None:
            state.trace = Trace()
            state.stack = []
        else:
            self._installed = False  # join the active trace as a child
        self._inner = _SpanContext(self._tracer, self._name)
        span = self._inner.__enter__()
        return self._tracer._state.trace if self._installed else span

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._inner is None:
            return
        self._inner.__exit__(exc_type, exc, tb)
        if self._installed:
            state = self._tracer._state
            state.trace = None
            state.stack = []


class Tracer:
    """Thread-local span stacks over a process-wide enable switch.

    The ambient switch is ``REPRO_TRACE=1`` (read at construction, so spawned
    pool workers inherit it through the environment); individual traces can
    be *forced* regardless — that is how ``profile=True`` works without
    turning tracing on globally.
    """

    def __init__(self, enabled: bool | None = None, sample_every: int = 1):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self._enabled = tracing_enabled() if enabled is None else enabled
        self._sample_every = sample_every
        self._sample_counter = itertools.count()
        self._state = threading.local()

    @property
    def enabled(self) -> bool:
        return self._enabled

    def configure(self, enabled: bool | None = None,
                  sample_every: int | None = None) -> None:
        """Adjust the ambient switch / sampling (tests, CLI flags)."""
        if enabled is not None:
            self._enabled = enabled
        if sample_every is not None:
            if sample_every < 1:
                raise ValueError(
                    f"sample_every must be >= 1, got {sample_every}")
            self._sample_every = sample_every

    # ------------------------------------------------------------------ #
    # Thread-local state
    # ------------------------------------------------------------------ #
    @property
    def active(self) -> bool:
        """Whether a trace is live on the calling thread."""
        return getattr(self._state, "trace", None) is not None

    @property
    def current_trace(self) -> Trace | None:
        return getattr(self._state, "trace", None)

    @property
    def current_span(self) -> Span | None:
        stack = getattr(self._state, "stack", None)
        return stack[-1] if stack else None

    def _push(self, name: str) -> Span:
        state = self._state
        parent = state.stack[-1].span_id if state.stack else None
        span = Span(span_id=_new_span_id(), parent_id=parent, name=name,
                    start=time.perf_counter())
        state.stack.append(span)
        return span

    def _pop(self, span: Span) -> None:
        state = self._state
        span.end = time.perf_counter()
        # Tolerate a mid-stack pop (exception paths): close up to the span.
        while state.stack:
            top = state.stack.pop()
            if top is span:
                break
            if top.end is None:
                top.end = span.end
            state.trace.append(top)
        state.trace.append(span)

    # ------------------------------------------------------------------ #
    # Public instrumentation surface
    # ------------------------------------------------------------------ #
    def trace(self, name: str, force: bool = False) -> _TraceContext:
        """Open a root trace (or join the active one as a child span).

        ``force=True`` bypasses both the ambient enable switch and
        sampling — the ``profile=True`` path.  Unforced roots are sampled:
        with ``sample_every=N`` only every Nth root actually records.
        """
        if force:
            return _TraceContext(self, name, active=True)
        if not self._enabled and not self.active:
            return _TraceContext(self, name, active=False)
        if not self.active and self._sample_every > 1:
            if next(self._sample_counter) % self._sample_every != 0:
                return _TraceContext(self, name, active=False)
        return _TraceContext(self, name, active=True)

    def span(self, name: str):
        """A child span under the current one; no-op when not tracing.

        The disabled path is the hot path: one thread-local read, then the
        shared no-op singleton.  Never build the span name dynamically at
        call sites — pass constants and use :meth:`annotate` for data.
        """
        if getattr(self._state, "trace", None) is None:
            return _NOOP
        return _SpanContext(self, name)

    def annotate(self, **attributes: Any) -> None:
        """Set attributes on the current span; no-op when not tracing."""
        stack = getattr(self._state, "stack", None)
        if not stack:
            return
        stack[-1].attributes.update(attributes)

    def add(self, key: str, amount: float = 1) -> None:
        """Accumulate a numeric attribute on the current span (no-op idle)."""
        stack = getattr(self._state, "stack", None)
        if not stack:
            return
        stack[-1].add(key, amount)

    # ------------------------------------------------------------------ #
    # Cross-process propagation (process-mode pools)
    # ------------------------------------------------------------------ #
    def context(self) -> tuple[str, str] | None:
        """(trace_id, parent_span_id) to ship with a task, or None.

        The coordinator calls this when building pool payloads; a None
        context tells the worker not to record at all.
        """
        state = self._state
        trace = getattr(state, "trace", None)
        if trace is None or not state.stack:
            return None
        return (trace.trace_id, state.stack[-1].span_id)

    def capture(self, name: str, context: tuple[str, str] | None):
        """Worker side: record ``name`` and its children for export.

        With a None ``context`` this is the no-op singleton.  Otherwise the
        worker runs under a local trace whose root is parented directly at
        the coordinator's requesting span id; on exit the finished spans are
        available as :meth:`_CaptureContext.export` wire tuples (placed in
        the task reply by the pool loop).
        """
        if context is None:
            return _CaptureContext(self, name, None)
        return _CaptureContext(self, name, context)

    def adopt(self, spans: Sequence[SpanTuple] | None) -> Span | None:
        """Coordinator side: splice worker spans into the active trace.

        The tuples already carry coordinator span ids as parents (the
        worker rooted them at the shipped context), so adoption is a bulk
        append.  Returns the adopted subtree's root span so the caller can
        annotate it (shard index, worker index).  No-op when the reply
        carried no spans or the local trace has ended.
        """
        if not spans:
            return None
        trace = getattr(self._state, "trace", None)
        if trace is None:
            return None
        adopted = [Span.from_tuple(data) for data in spans]
        trace.extend(adopted)
        local_ids = {span.span_id for span in adopted}
        for span in adopted:
            if span.parent_id not in local_ids:
                return span
        return adopted[0]  # pragma: no cover - cyclic wire data


class _CaptureContext:
    """Worker-side recording scope; exports finished spans as wire tuples."""

    __slots__ = ("_tracer", "_name", "_context", "_trace", "_saved", "_root")

    def __init__(self, tracer: Tracer, name: str,
                 context: tuple[str, str] | None):
        self._tracer = tracer
        self._name = name
        self._context = context
        self._trace: Trace | None = None
        self._saved: tuple | None = None
        self._root: Span | None = None

    def __enter__(self) -> "_CaptureContext":
        if self._context is None:
            return self
        trace_id, parent_id = self._context
        state = self._tracer._state
        self._saved = (getattr(state, "trace", None),
                       getattr(state, "stack", None))
        self._trace = Trace(trace_id)
        state.trace = self._trace
        self._root = Span(span_id=_new_span_id(), parent_id=parent_id,
                          name=self._name, start=time.perf_counter())
        state.stack = [self._root]
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        if self._trace is None:
            return
        state = self._tracer._state
        if exc is not None and self._root is not None:
            self._root.attributes.setdefault("error", type(exc).__name__)
        # Close everything still open (exception paths included).
        now = time.perf_counter()
        for span in state.stack:
            if span.end is None:
                span.end = now
            self._trace.append(span)
        saved_trace, saved_stack = self._saved or (None, None)
        state.trace = saved_trace
        state.stack = saved_stack if saved_stack is not None else []

    def export(self) -> list[SpanTuple] | None:
        """The finished spans as wire tuples (None when not recording)."""
        if self._trace is None:
            return None
        return [span.as_tuple() for span in self._trace]


# --------------------------------------------------------------------- #
# The process-global tracer
# --------------------------------------------------------------------- #
_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer every instrumentation site uses."""
    return _tracer
