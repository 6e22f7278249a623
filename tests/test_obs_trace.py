"""Span tracing: disabled fast path, span trees, cross-process re-parenting."""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.obs.trace import Span, Trace, Tracer, _NOOP, get_tracer
from repro.parallel.pool import WorkerPool
from repro.relational.aggregates import AggregateFunction


def chain_pcset(count: int = 6) -> PredicateConstraintSet:
    """Overlapping windows chained along ``t`` — one constraint component."""
    return PredicateConstraintSet([
        PredicateConstraint(Predicate.range("t", float(i), i + 1.5),
                            ValueConstraint({"v": (float(i), float(i + 5))}),
                            FrequencyConstraint(1 if i % 2 else 0, 10 + i),
                            name=f"c{i}")
        for i in range(count)])


def region_options(**overrides) -> BoundOptions:
    return BoundOptions(check_closure=False, solve_workers=3, **overrides)


# --------------------------------------------------------------------- #
# Disabled fast path
# --------------------------------------------------------------------- #
class TestDisabledPath:
    def test_span_returns_shared_noop_singleton(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("anything") is _NOOP
        assert tracer.span("anything") is tracer.span("other")

    def test_annotate_and_add_are_noops_when_idle(self):
        tracer = Tracer(enabled=False)
        tracer.annotate(key="value")  # must not raise
        tracer.add("count", 5)
        assert tracer.current_trace is None
        assert tracer.current_span is None

    def test_unforced_trace_records_nothing_when_disabled(self):
        tracer = Tracer(enabled=False)
        with tracer.trace("query") as handle:
            assert handle is None
            with tracer.span("child"):
                pass
        assert tracer.current_trace is None

    def test_profile_off_has_no_per_call_allocation(self):
        """The zero-overhead contract: the disabled span path allocates no
        span, no context object, and reads no clock — it is one thread-local
        getattr plus the shared singleton.  Pin it by identity so an
        accidental per-call object creation fails loudly rather than slowly.
        """
        tracer = Tracer(enabled=False)
        contexts = {id(tracer.span("bound")) for _ in range(100)}
        assert contexts == {id(_NOOP)}

    def test_analyze_without_profile_records_no_spans(self):
        solver = PCBoundSolver(chain_pcset(4),
                               BoundOptions(check_closure=False))
        tracer = get_tracer()
        solver.bound(AggregateFunction.COUNT)
        assert tracer.current_trace is None
        assert not tracer.active


# --------------------------------------------------------------------- #
# Forced traces and span trees
# --------------------------------------------------------------------- #
class TestForcedTrace:
    def test_force_bypasses_disabled_switch(self):
        tracer = Tracer(enabled=False)
        with tracer.trace("query", force=True) as trace:
            assert isinstance(trace, Trace)
            with tracer.span("child") as span:
                tracer.annotate(cells=3)
                tracer.add("solver_calls", 2)
                tracer.add("solver_calls", 1)
        assert tracer.current_trace is None  # deactivated on exit
        names = {span.name for span in trace}
        assert names == {"query", "child"}
        child = next(span for span in trace if span.name == "child")
        assert child.attributes == {"cells": 3, "solver_calls": 3}
        assert child.parent_id == trace.root.span_id

    def test_nested_trace_joins_as_child_span(self):
        tracer = Tracer(enabled=False)
        with tracer.trace("outer", force=True) as outer:
            with tracer.trace("inner", force=True) as inner:
                pass
        assert isinstance(outer, Trace)
        assert isinstance(inner, Span)  # degraded to a child, not a new root
        assert inner.parent_id == outer.root.span_id
        assert tracer.current_trace is None

    def test_exception_closes_spans_and_tags_error(self):
        tracer = Tracer(enabled=False)
        with pytest.raises(RuntimeError):
            with tracer.trace("query", force=True) as trace:
                with tracer.span("child"):
                    raise RuntimeError("boom")
        child = next(span for span in trace if span.name == "child")
        assert child.end is not None
        assert child.attributes["error"] == "RuntimeError"
        assert trace.root.attributes["error"] == "RuntimeError"

    def test_sampling_keeps_one_in_n(self):
        tracer = Tracer(enabled=True, sample_every=3)
        recorded = 0
        for _ in range(9):
            with tracer.trace("query") as trace:
                if trace is not None:
                    recorded += 1
        assert recorded == 3

    def test_forced_traces_bypass_sampling(self):
        tracer = Tracer(enabled=True, sample_every=1000)
        with tracer.trace("query", force=True) as trace:
            pass
        assert isinstance(trace, Trace)


# --------------------------------------------------------------------- #
# Wire round-trip (capture/adopt without a pool)
# --------------------------------------------------------------------- #
class TestWireRoundTrip:
    def test_span_tuple_round_trip(self):
        span = Span(span_id="a-1", parent_id="a-0", name="pool.solve",
                    start=1.0, end=2.5, attributes={"shard": 1})
        restored = Span.from_tuple(span.as_tuple())
        assert restored == span

    def test_capture_exports_spans_rooted_at_shipped_parent(self):
        worker_tracer = Tracer(enabled=False)
        with worker_tracer.capture("pool.solve", ("trace-1", "parent-9")) \
                as capture:
            with worker_tracer.span("inner"):
                worker_tracer.add("solver_calls", 4)
        exported = capture.export()
        assert exported is not None
        spans = [Span.from_tuple(data) for data in exported]
        roots = [span for span in spans if span.parent_id == "parent-9"]
        assert len(roots) == 1
        inner = next(span for span in spans if span.name == "inner")
        assert inner.parent_id == roots[0].span_id
        assert inner.attributes == {"solver_calls": 4}

    def test_capture_without_context_is_non_recording(self):
        worker_tracer = Tracer(enabled=False)
        with worker_tracer.capture("pool.solve", None) as capture:
            with worker_tracer.span("inner"):
                pass
        assert capture.export() is None

    def test_adopt_splices_and_returns_subtree_root(self):
        tracer = Tracer(enabled=False)
        with tracer.trace("query", force=True) as trace:
            parent_id = tracer.current_span.span_id
            wire = [("w-1", parent_id, "pool.solve", 1.0, 2.0, None),
                    ("w-2", "w-1", "milp", 1.1, 1.9, {"solver_calls": 3})]
            root = tracer.adopt(wire)
            assert root is not None
            root.attributes.setdefault("shard", 0)
        assert root.span_id == "w-1"
        assert root.attributes["shard"] == 0
        adopted_names = {span.name for span in trace}
        assert {"pool.solve", "milp"} <= adopted_names

    def test_adopt_is_noop_without_active_trace(self):
        tracer = Tracer(enabled=False)
        assert tracer.adopt([("w-1", None, "x", 0.0, 1.0, None)]) is None
        assert tracer.adopt(None) is None


# --------------------------------------------------------------------- #
# Real process-pool re-parenting
# --------------------------------------------------------------------- #
class TestProcessPoolReParenting:
    def test_sharded_solve_yields_one_tree_with_per_shard_spans(self):
        pcset = chain_pcset(6)
        tracer = get_tracer()
        with WorkerPool(max_workers=3, mode="process",
                        name="trace-test") as pool:
            solver = PCBoundSolver(pcset, region_options(), worker_pool=pool)
            with tracer.trace("query", force=True) as trace:
                solver.bound(AggregateFunction.SUM, "v")
        spans = list(trace)
        shard_spans = [span for span in spans
                       if "shard" in span.attributes]
        assert len(shard_spans) >= 2  # region split fanned out
        shard_ids = {span.attributes["shard"] for span in shard_spans}
        assert shard_ids == set(range(len(shard_spans)))
        # Worker spans carry their pid prefix — genuinely cross-process —
        # and every adopted span links back into this trace's tree.
        coordinator_prefix = f"{os.getpid():x}-"
        worker_spans = [span for span in spans
                        if not span.span_id.startswith(coordinator_prefix)]
        assert worker_spans, "no spans crossed the process boundary"
        ids = {span.span_id for span in spans}
        roots = [span for span in spans if span.parent_id is None]
        assert len(roots) == 1  # one coherent tree
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in ids, f"dangling parent: {span}"
        # Per-shard decompose spans tally their SAT probe calls.
        decomposes = [span for span in spans if span.name == "pool.decompose"]
        assert decomposes
        assert all(span.attributes.get("solver_calls", 0) > 0
                   for span in decomposes)
        assert all(span.duration is not None and span.duration >= 0
                   for span in spans)

    def test_killed_worker_does_not_corrupt_the_trace(self):
        """SIGKILL one worker mid-service; the re-dispatched round must still
        produce a well-formed single tree (degraded is fine, corrupt is not).
        """
        from repro.obs.profile import QueryProfile

        pcset = chain_pcset(6)
        tracer = get_tracer()
        with WorkerPool(max_workers=3, mode="process",
                        name="trace-kill-test") as pool:
            solver = PCBoundSolver(pcset, region_options(), worker_pool=pool)
            baseline = solver.bound(AggregateFunction.SUM, "v")
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.1)
            fresh = PCBoundSolver(pcset, region_options(), worker_pool=pool)
            with tracer.trace("query", force=True) as trace:
                recovered = fresh.bound(AggregateFunction.SUM, "v")
        assert (recovered.lower, recovered.upper) == \
            (baseline.lower, baseline.upper)
        assert pool.statistics.worker_restarts >= 1
        # Tracer state fully unwound, trace builds into a valid profile.
        assert tracer.current_trace is None
        assert not tracer.active
        profile = QueryProfile.from_trace(trace)
        assert profile is not None
        rendered = profile.render()
        assert "query" in rendered
        roots = [span for span in trace if span.parent_id is None]
        assert len(roots) == 1
