"""EXPLAIN ANALYZE profiles: tree building, skew, JSON, service surface."""

from __future__ import annotations

import json

import pytest

from repro.core.engine import ContingencyQuery
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.profile import PROFILE_SCHEMA, ProfileNode, QueryProfile
from repro.obs.trace import Span, Trace
from repro.service.service import ContingencyService
from test_obs_trace import chain_pcset


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def make_trace(spans: list[Span], trace_id: str = "t-1") -> Trace:
    trace = Trace(trace_id)
    trace.extend(spans)
    return trace


def sharded_trace() -> Trace:
    """root -> solve -> three shard spans with solver-call tallies."""
    return make_trace([
        Span("1", None, "query", 0.0, 10.0),
        Span("2", "1", "solve.sharded", 1.0, 9.0),
        Span("3", "2", "pool.solve", 1.0, 5.0,
             {"shard": 0, "solver_calls": 4}),
        Span("4", "2", "pool.solve", 1.0, 3.0,
             {"shard": 1, "solver_calls": 2}),
        Span("5", "2", "pool.solve", 1.0, 3.0,
             {"shard": 2, "solver_calls": 2}),
    ])


class TestTreeBuilding:
    def test_children_nest_and_sort_by_start(self):
        trace = make_trace([
            Span("1", None, "query", 0.0, 10.0),
            Span("3", "1", "later", 5.0, 6.0),
            Span("2", "1", "earlier", 1.0, 2.0),
        ])
        profile = QueryProfile.from_trace(trace)
        assert [child.name for child in profile.root.children] == \
            ["earlier", "later"]

    def test_orphans_hang_under_root_tagged(self):
        """A span whose parent never came back (killed worker) degrades to
        an ``orphaned`` child of the root instead of corrupting the tree."""
        trace = make_trace([
            Span("1", None, "query", 0.0, 10.0),
            Span("9", "missing-parent", "pool.solve", 2.0, 3.0),
        ])
        profile = QueryProfile.from_trace(trace)
        orphan = profile.root.find("pool.solve")
        assert orphan is not None
        assert orphan.attributes["orphaned"] is True

    def test_empty_trace_gives_none(self):
        assert QueryProfile.from_trace(Trace("empty")) is None

    def test_node_find_and_total(self):
        profile = QueryProfile.from_trace(sharded_trace())
        assert profile.root.find("solve.sharded") is not None
        assert len(profile.root.find_all("pool.solve")) == 3
        assert profile.root.total("solver_calls") == 8.0


class TestDerivedAggregates:
    def test_solver_calls_and_wall_seconds(self):
        profile = QueryProfile.from_trace(sharded_trace())
        assert profile.solver_calls == 8.0
        assert profile.wall_seconds == 10.0

    def test_shard_skew_is_max_over_mean(self):
        profile = QueryProfile.from_trace(sharded_trace())
        # Shard durations 4, 2, 2 -> mean 8/3, skew 4/(8/3) = 1.5.
        assert sorted(profile.shard_times()) == [2.0, 2.0, 4.0]
        assert profile.shard_skew() == pytest.approx(1.5)

    def test_no_shards_means_no_skew(self):
        trace = make_trace([Span("1", None, "query", 0.0, 1.0)])
        profile = QueryProfile.from_trace(trace)
        assert profile.shard_times() == []
        assert profile.shard_skew() is None

    def test_render_includes_skew_and_totals(self):
        rendered = QueryProfile.from_trace(sharded_trace()).render()
        assert "solver calls 8" in rendered
        assert "shard-time skew 1.50x (max/mean)" in rendered
        assert "shard=1" in rendered
        assert "100.0%" in rendered


class TestJsonRoundTrip:
    def test_to_dict_schema_and_fields(self):
        payload = QueryProfile.from_trace(sharded_trace()).to_dict()
        assert payload["schema"] == PROFILE_SCHEMA
        assert payload["solver_calls"] == 8.0
        assert payload["shard_count"] == 3
        assert payload["shard_skew"] == pytest.approx(1.5)
        assert payload["tree"]["name"] == "query"

    def test_export_json_round_trips(self, tmp_path):
        profile = QueryProfile.from_trace(sharded_trace())
        path = tmp_path / "profile.json"
        payload = profile.export_json(path)
        assert json.loads(path.read_text()) == json.loads(payload)
        restored = QueryProfile.from_json(payload)
        assert restored.trace_id == profile.trace_id
        assert restored.solver_calls == profile.solver_calls
        assert restored.shard_skew() == pytest.approx(profile.shard_skew())
        assert restored.root.to_dict() == profile.root.to_dict()

    def test_from_dict_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="unsupported profile schema"):
            QueryProfile.from_dict({"schema": "bogus/9", "tree": {}})

    def test_node_round_trip(self):
        node = ProfileNode(name="x", span_id="1", start=0.0, duration=1.0,
                           attributes={"shard": 2},
                           children=[ProfileNode("y", "2", 0.1, 0.5)])
        assert ProfileNode.from_dict(node.to_dict()) == node


class TestServiceSurface:
    def test_analyze_profile_true_attaches_profile(self, registry):
        with ContingencyService() as service:
            service.register("s", chain_pcset(4))
            report = service.analyze("s", ContingencyQuery.count(),
                                     profile=True)
            assert report.profile is not None
            assert report.profile.wall_seconds > 0
            assert report.profile.solver_calls > 0
            assert report.profile.root.name == "query"
            assert "report_cache=miss" in report.profile.render()

    def test_cached_report_is_never_mutated(self, registry):
        with ContingencyService() as service:
            service.register("s", chain_pcset(4))
            profiled = service.analyze("s", ContingencyQuery.count(),
                                       profile=True)
            plain = service.analyze("s", ContingencyQuery.count())
            assert profiled.profile is not None
            assert plain.profile is None  # the cache keeps the lean report
            assert (plain.lower, plain.upper) == \
                (profiled.lower, profiled.upper)

    def test_profiled_cache_hit_shows_hit_verdict(self, registry):
        with ContingencyService() as service:
            service.register("s", chain_pcset(4))
            service.analyze("s", ContingencyQuery.count())
            warm = service.analyze("s", ContingencyQuery.count(),
                                   profile=True)
            assert "report_cache=hit" in warm.profile.render()

    def test_service_counters_publish_into_registry(self, registry):
        with ContingencyService() as service:
            service.register("s", chain_pcset(4))
            service.analyze("s", ContingencyQuery.count())
            service.execute_batch("s", [ContingencyQuery.count(),
                                        ContingencyQuery.sum("v")])
        snapshot = registry.snapshot()["counters"]
        assert snapshot["service.queries_answered"] == 3.0
        assert snapshot["service.batches_executed"] == 1.0

    def test_admission_counters_publish_into_registry(self, registry):
        with ContingencyService(max_query_cost=1e9) as service:
            service.register("s", chain_pcset(4))
            service.analyze("s", ContingencyQuery.count())
        counters = registry.snapshot()["counters"]
        assert counters["admission.priced"] == 1.0
        assert counters["admission.admitted"] == 1.0
        assert counters["admission.units_admitted"] > 0.0
