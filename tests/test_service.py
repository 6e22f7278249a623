"""Tests for the session registry, batch executor and service facade.

Includes the subsystem's acceptance criteria: a warm service answers a
repeated query without re-running cell decomposition, and batch execution of
50+ mixed queries returns exactly what sequential ``PCAnalyzer`` calls do.
"""

from __future__ import annotations

import pytest

from repro.core.bounds import BoundOptions
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.engine import ContingencyQuery, PCAnalyzer
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.exceptions import ReproError
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema
from repro.service import (
    BatchExecutor,
    ContingencyService,
    LRUCache,
    SessionRegistry,
)

FAST = BoundOptions(check_closure=False)


def build_pcset() -> PredicateConstraintSet:
    """Two overlapping outage-day constraints (forces real decomposition)."""
    day1 = PredicateConstraint(Predicate.range("utc", 11, 12),
                               ValueConstraint({"price": (1.0, 100.0)}),
                               FrequencyConstraint(0, 10), name="day1")
    day2 = PredicateConstraint(Predicate.range("utc", 11.5, 13),
                               ValueConstraint({"price": (1.0, 200.0)}),
                               FrequencyConstraint(2, 5), name="day2")
    return PredicateConstraintSet([day1, day2])


def build_observed() -> Relation:
    schema = Schema.from_pairs([("utc", ColumnType.FLOAT),
                                ("price", ColumnType.FLOAT)])
    rows = [(10.0, 5.0), (10.5, 15.0), (11.2, 25.0), (12.5, 35.0)]
    return Relation.from_rows(schema, rows, name="observed")


def mixed_queries(count: int) -> list[ContingencyQuery]:
    """``count`` queries mixing all five aggregates over three regions."""
    queries: list[ContingencyQuery] = []
    makers = [
        lambda region: ContingencyQuery.count(region),
        lambda region: ContingencyQuery.sum("price", region),
        lambda region: ContingencyQuery.avg("price", region),
        lambda region: ContingencyQuery.min("price", region),
        lambda region: ContingencyQuery.max("price", region),
    ]
    for index in range(count):
        region = Predicate.range("utc", 11, 12 + (index % 3) * 0.5)
        queries.append(makers[index % len(makers)](region))
    return queries


class TestSessionRegistry:
    def test_register_and_get_latest(self):
        registry = SessionRegistry()
        session = registry.register("outage", build_pcset())
        assert session.version == 1
        assert registry.get("outage") is session
        assert "outage" in registry and len(registry) == 1

    def test_idempotent_reregistration(self):
        registry = SessionRegistry()
        first = registry.register("outage", build_pcset())
        second = registry.register("outage", build_pcset())
        assert second is first  # same content fingerprint, no version fork

    def test_changed_content_bumps_version(self):
        registry = SessionRegistry()
        registry.register("outage", build_pcset())
        changed = build_pcset()
        changed.add(PredicateConstraint(Predicate.range("utc", 13, 14),
                                        ValueConstraint({"price": (0.0, 10.0)}),
                                        FrequencyConstraint(0, 3), name="day3"))
        session = registry.register("outage", changed)
        assert session.version == 2
        assert registry.get("outage").version == 2
        assert registry.get("outage", version=1).version == 1
        assert [s.version for s in registry.versions("outage")] == [1, 2]

    def test_lookup_errors(self):
        registry = SessionRegistry()
        with pytest.raises(ReproError):
            registry.get("missing")
        registry.register("outage", build_pcset())
        with pytest.raises(ReproError):
            registry.get("outage", version=7)
        with pytest.raises(ReproError):
            registry.register("", build_pcset())

    def test_sessions_listing_ordered(self):
        registry = SessionRegistry()
        registry.register("b", build_pcset())
        registry.register("a", build_pcset())
        assert [s.name for s in registry.sessions()] == ["a", "b"]


class TestBatchExecutor:
    def test_groups_by_content_equal_region(self):
        executor = BatchExecutor(max_workers=2)
        region_a = Predicate.range("utc", 11, 12)
        region_b = Predicate.range("utc", 11, 12)  # equal content, new object
        queries = [ContingencyQuery.count(region_a),
                   ContingencyQuery.sum("price", region_b),
                   ContingencyQuery.count(None)]
        groups = executor.group_by_region(queries)
        assert len(groups) == 2
        assert groups[region_a] == [0, 1]
        assert groups[None] == [2]

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            BatchExecutor(max_workers=0)

    def test_empty_batch(self):
        executor = BatchExecutor(max_workers=2)
        analyzer = PCAnalyzer(build_pcset(), options=FAST)
        result = executor.execute(analyzer, [])
        assert result.reports == [] and result.statistics.total_queries == 0

    def test_batch_matches_sequential_analyzer(self):
        """Acceptance: >= 50 mixed queries, identical to sequential analysis."""
        pcset = build_pcset()
        observed = build_observed()
        queries = mixed_queries(55)

        shared_cache = LRUCache(max_entries=64, name="decomposition")
        concurrent = PCAnalyzer(pcset, observed=observed, options=FAST,
                                decomposition_cache=shared_cache)
        batch = BatchExecutor(max_workers=4).execute(concurrent, queries)

        sequential = PCAnalyzer(pcset, observed=observed, options=FAST)
        assert len(batch.reports) == len(queries)
        for query, report in zip(queries, batch.reports):
            expected = sequential.analyze(query)
            assert report.query == query  # input order preserved
            assert report.result_range.lower == expected.result_range.lower
            assert report.result_range.upper == expected.result_range.upper
            assert report.missing_range.lower == expected.missing_range.lower
            assert report.missing_range.upper == expected.missing_range.upper
            assert report.observed_value == expected.observed_value
        assert batch.statistics.region_groups == 3
        # Three distinct regions -> exactly three decompositions, ever.
        assert concurrent.solver.decompositions_computed == 3


class TestContingencyService:
    def test_repeated_query_skips_decomposition(self):
        """Acceptance: cache hits increment, solver-call counters do not."""
        service = ContingencyService(max_workers=2)
        service.register("outage", build_pcset(), observed=build_observed(),
                         options=FAST)
        query = ContingencyQuery.sum("price", Predicate.range("utc", 11, 13))

        first = service.analyze("outage", query)
        session = service.session("outage")
        counters_after_first = session.solver_counters()
        hits_after_first = service.report_cache.statistics.hits

        second = service.analyze("outage", ContingencyQuery.sum(
            "price", Predicate.range("utc", 11, 13)))  # equal content, new object
        assert second.result_range.lower == first.result_range.lower
        assert second.result_range.upper == first.result_range.upper
        assert service.report_cache.statistics.hits == hits_after_first + 1
        assert session.solver_counters() == counters_after_first

    def test_region_sharing_queries_share_decomposition(self):
        service = ContingencyService(max_workers=2)
        service.register("outage", build_pcset(), options=FAST)
        region = Predicate.range("utc", 11, 13)
        service.analyze("outage", ContingencyQuery.count(region))
        misses = service.decomposition_cache.statistics.misses
        # A different aggregate over the same region reuses the program
        # compiled from the region's decomposition.
        service.analyze("outage", ContingencyQuery.sum("price", region))
        assert service.decomposition_cache.statistics.misses == misses
        assert service.program_cache.statistics.hits >= 1
        assert service.statistics().programs_compiled == 1

    def test_decomposition_lru_is_capped(self):
        """40 regions of one session, COUNT then SUM on each: the LRU never
        holds more than 16 decompositions, and SUM reads none, because the
        program its region's COUNT compiled answers it."""
        service = ContingencyService()
        service.register("outage", build_pcset(), options=FAST)
        cache = service.decomposition_cache
        for index in range(40):
            region = Predicate.range("utc", 11, 12 + index / 40)
            service.analyze("outage", ContingencyQuery.count(region))
            assert len(cache) <= 16
            hits, misses = cache.statistics.hits, cache.statistics.misses
            service.analyze("outage", ContingencyQuery.sum("price", region))
            assert (cache.statistics.hits, cache.statistics.misses) == \
                (hits, misses)
        assert len(cache) == 16
        assert service.statistics().programs_compiled == 40

    def test_equal_pcsets_share_cache_across_sessions(self):
        service = ContingencyService(max_workers=2)
        service.register("first", build_pcset(), options=FAST)
        service.register("second", build_pcset(), options=FAST)
        query = ContingencyQuery.count(Predicate.range("utc", 11, 13))
        service.analyze("first", query)
        computed = service.statistics().decompositions_computed
        service.analyze("second", query)
        # Same content fingerprint -> same namespace -> no new decomposition.
        assert service.statistics().decompositions_computed == computed

    def test_execute_batch_mixes_cached_and_fresh(self):
        service = ContingencyService(max_workers=2)
        service.register("outage", build_pcset(), observed=build_observed(),
                         options=FAST)
        queries = mixed_queries(10)
        first = service.execute_batch("outage", queries)
        second = service.execute_batch("outage", queries)
        assert len(second.reports) == len(queries)
        for a, b in zip(first.reports, second.reports):
            assert a.result_range.lower == b.result_range.lower
            assert a.result_range.upper == b.result_range.upper
        # The repeat batch is served from the report cache entirely.
        assert second.statistics.region_groups == 0
        stats = service.statistics()
        assert stats.batches_executed == 2
        assert stats.queries_answered == 2 * len(queries)
        assert stats.report_cache.hits >= len(queries)

    def test_batch_deduplicates_identical_queries(self):
        service = ContingencyService(max_workers=2)
        service.register("outage", build_pcset(), options=FAST)
        query = ContingencyQuery.count(Predicate.range("utc", 11, 13))
        duplicated = [query,
                      ContingencyQuery.count(Predicate.range("utc", 11, 13)),
                      query,
                      ContingencyQuery.sum("price",
                                           Predicate.range("utc", 11, 13))]
        result = service.execute_batch("outage", duplicated)
        assert len(result.reports) == 4
        assert result.reports[0].result_range.upper \
            == result.reports[2].result_range.upper
        # Only the two *distinct* queries were solved and cached.
        assert service.report_cache.statistics.puts == 2

    def test_reregistration_with_changed_observed_data_bumps_version(self):
        service = ContingencyService(max_workers=1)
        schema = Schema.from_pairs([("utc", ColumnType.FLOAT),
                                    ("price", ColumnType.FLOAT)])
        # Same row count, min, max and sum — only the middle values differ.
        before = Relation.from_rows(schema, [(11.0, 0.0), (11.2, 3.0),
                                             (11.4, 3.0), (11.6, 6.0)])
        after = Relation.from_rows(schema, [(11.0, 0.0), (11.2, 2.0),
                                            (11.4, 4.0), (11.6, 6.0)])
        service.register("outage", build_pcset(), observed=before,
                         options=FAST)
        session = service.register("outage", build_pcset(), observed=after,
                                   options=FAST)
        assert session.version == 2
        query = ContingencyQuery.count(Predicate.range("price", 2.5, 4.5))
        report = service.analyze("outage", query)
        # Served against the *new* data: one observed row is in [2.5, 4.5].
        assert report.observed_value == 1.0

    def test_statistics_summary_renders(self):
        service = ContingencyService(max_workers=1)
        service.register("outage", build_pcset(), options=FAST)
        service.analyze("outage", ContingencyQuery.count())
        text = service.statistics().summary()
        assert "decomposition cache" in text and "queries answered" in text

    def test_clear_caches_forces_recompute(self, monkeypatch):
        # Pin the memory-only semantics: with a persistent tier attached
        # (the REPRO_CACHE_DIR CI leg) clear() is just a memory valve and
        # the second analyze would warm from the store instead.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        service = ContingencyService(max_workers=1)
        service.register("outage", build_pcset(), options=FAST)
        query = ContingencyQuery.count(Predicate.range("utc", 11, 13))
        service.analyze("outage", query)
        service.clear_caches()
        service.analyze("outage", query)
        # Two decompositions total: one before, one after the clear.
        assert service.statistics().decompositions_computed == 2

    def test_versioned_sessions_answer_independently(self):
        service = ContingencyService(max_workers=1)
        service.register("outage", build_pcset(), options=FAST)
        widened = build_pcset().map_constraints(
            lambda pc: PredicateConstraint(
                pc.predicate, pc.values,
                FrequencyConstraint(pc.min_rows(), pc.max_rows() * 2),
                name=pc.name))
        service.register("outage", widened, options=FAST)
        query = ContingencyQuery.count(Predicate.range("utc", 11, 13))
        old = service.analyze("outage", query, version=1)
        new = service.analyze("outage", query, version=2)
        assert new.result_range.upper == 2 * old.result_range.upper

    def test_editing_a_registered_set_leaves_its_versions_alone(self):
        """A session holds its own copy of the constraint set, digest
        included: adding to the caller's set and registering it again forks
        version 2 and leaves version 1's answers as they were."""
        def day(max_rows: int) -> PredicateConstraint:
            return PredicateConstraint(
                Predicate.range("utc", 11, 12),
                ValueConstraint({"price": (0.99, 129.99)}),
                FrequencyConstraint(0, max_rows), name="day")

        pcset = PredicateConstraintSet([day(10)])
        service = ContingencyService(max_workers=1)
        first = service.register("s", pcset, options=FAST)
        digest = pcset.fingerprint_memo
        pcset.add(day(7))
        assert service.register("s", pcset, options=FAST).version == 2
        query = ContingencyQuery.count()
        ranges = [service.analyze("s", query, version=version).result_range
                  for version in (1, 2)]
        assert [(r.lower, r.upper) for r in ranges] == [(0.0, 10.0),
                                                        (0.0, 7.0)]
        assert len(first.pcset) == 1
        assert first.pcset.fingerprint_memo == digest is not None
