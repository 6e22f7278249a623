"""Tests for incremental, versioned result reuse.

Three layers, each checked for the same invariant — reuse is *provably
bit-identical* to cold computation:

* lineage-aware fingerprints: :meth:`Relation.append` remembers its deltas,
  ``fingerprint_relation`` hashes only the delta bytes, and the digest
  equals a cold full-content pass;
* delta-aware invalidation: :meth:`ContingencyService.append_rows` migrates
  cached reports whose query region the delta provably cannot touch and
  drops (only) the intersecting ones;
* the range tier: COUNT, SUM, MIN and MAX ranges over the missing rows are
  keyed by compiled program, not data, so a dropped report recomputes
  without compiling or solving.
"""

from __future__ import annotations

import os

import pytest

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.builders import build_partition_pcs
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.engine import ContingencyQuery, PCAnalyzer
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.exceptions import ReproError
from repro.faults import FAULTS_ENV
from repro.relational.aggregates import AggregateFunction
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema
from repro.service import ContingencyService
from repro.service.fingerprint import (
    RelationVersion,
    fingerprint_relation,
    relation_version,
)
from repro.solvers.milp import CompiledMILP

from test_fault_injection import make_relation
from test_service import build_observed, build_pcset

FAST = BoundOptions(check_closure=False)

ALL_AGGREGATES = [
    lambda region: ContingencyQuery.count(region),
    lambda region: ContingencyQuery.sum("price", region),
    lambda region: ContingencyQuery.avg("price", region),
    lambda region: ContingencyQuery.min("price", region),
    lambda region: ContingencyQuery.max("price", region),
]


def observed_schema() -> Schema:
    return Schema.from_pairs([("utc", ColumnType.FLOAT),
                              ("price", ColumnType.FLOAT)])


def assert_reports_identical(actual, expected):
    assert actual.result_range.lower == expected.result_range.lower
    assert actual.result_range.upper == expected.result_range.upper
    assert actual.missing_range.lower == expected.missing_range.lower
    assert actual.missing_range.upper == expected.missing_range.upper
    assert actual.observed_value == expected.observed_value


def window_chain() -> PredicateConstraintSet:
    """Five windows that all contain ``utc = 12``: one overlap component
    whose 31 worst-case cells clear the region-sharding gate for every
    region the delta tests probe."""
    return PredicateConstraintSet([
        PredicateConstraint(
            Predicate.range("utc", 10.0 + 0.4 * index, 12.2 + 0.4 * index),
            ValueConstraint({"price": (1.0, 50.0 + 10 * index)}),
            FrequencyConstraint(0, 5 + index), name=f"w{index}")
        for index in range(5)])


def disjoint_windows() -> PredicateConstraintSet:
    """Three pairwise-disjoint windows: every region the delta tests probe
    meets at least two of them, so its plan splits into constraint
    components."""
    return PredicateConstraintSet([
        PredicateConstraint(
            Predicate.range("utc", low, high),
            ValueConstraint({"price": (1.0, 40.0 + 20 * index)}),
            FrequencyConstraint(0, 4 + index), name=f"d{index}")
        for index, (low, high) in enumerate([(10.0, 11.4), (11.5, 12.4),
                                             (12.5, 13.5)])])


# --------------------------------------------------------------------- #
# Layer 1: append lineage + incremental fingerprints
# --------------------------------------------------------------------- #
class TestAppendLineage:
    def test_append_records_lineage(self):
        base = build_observed()
        appended = base.append([(13.5, 45.0)])
        assert appended.num_rows == base.num_rows + 1
        lineage_base, deltas = appended.append_lineage
        assert lineage_base is base
        assert len(deltas) == 1 and deltas[0].num_rows == 1
        assert base.append_lineage is None  # the base is untouched

    def test_chained_appends_share_one_base(self):
        base = build_observed()
        twice = base.append([(13.5, 45.0)]).append([{"utc": 14.0,
                                                     "price": 50.0}])
        lineage_base, deltas = twice.append_lineage
        assert lineage_base is base
        assert [delta.num_rows for delta in deltas] == [1, 1]
        assert twice.num_rows == base.num_rows + 2

    def test_append_accepts_relation_dicts_and_tuples(self):
        base = build_observed()
        as_relation = base.append(
            Relation.from_rows(observed_schema(), [(14.0, 50.0)]))
        as_dicts = base.append([{"utc": 14.0, "price": 50.0}])
        as_tuples = base.append([(14.0, 50.0)])
        fingerprints = {fingerprint_relation(r)
                        for r in (as_relation, as_dicts, as_tuples)}
        assert len(fingerprints) == 1  # same content, same identity

    def test_incremental_fingerprint_equals_cold_pass(self):
        rows = [(10.0, 5.0), (10.5, 15.0), (11.2, 25.0), (12.5, 35.0)]
        delta = [(13.5, 45.0), (14.0, 55.0)]
        appended = Relation.from_rows(observed_schema(), rows).append(delta)
        cold = Relation.from_rows(observed_schema(), rows + delta)
        assert fingerprint_relation(appended) == fingerprint_relation(cold)

    def test_incremental_fingerprint_with_string_columns(self):
        schema = Schema.from_pairs([("branch", ColumnType.STRING),
                                    ("price", ColumnType.FLOAT)])
        rows = [("New York", 3.0), ("Chicago", 6.7)]
        delta = [("Trenton", 19.0)]
        appended = Relation.from_rows(schema, rows).append(delta)
        cold = Relation.from_rows(schema, rows + delta)
        assert fingerprint_relation(appended) == fingerprint_relation(cold)

    def test_fingerprint_memoized_and_base_isolated(self):
        base = build_observed()
        base_fingerprint = fingerprint_relation(base)
        assert fingerprint_relation(base) is base_fingerprint  # memo hit
        appended = base.append([(13.5, 45.0)])
        assert fingerprint_relation(appended) != base_fingerprint
        # Hashing the appended relation must not corrupt the base's state.
        assert fingerprint_relation(base) == base_fingerprint

    def test_relation_version_tracks_delta_chain(self):
        base = build_observed()
        version = relation_version(base)
        assert version.delta_count == 0
        assert version.base == fingerprint_relation(base)
        assert version.describe() == f"base {version.base[:12]}"

        appended = base.append([(13.5, 45.0)]).append([(14.0, 50.0)])
        appended_version = relation_version(appended)
        assert appended_version.base == version.base
        assert appended_version.delta_count == 2
        assert appended_version.describe().endswith("+2 delta(s)")
        # The combined chain digest distinguishes versions.
        assert appended_version.fingerprint != version.fingerprint
        assert RelationVersion(version.base).fingerprint == version.fingerprint

    def test_session_describe_reports_relation_version(self):
        service = ContingencyService(max_workers=1)
        service.register("outage", build_pcset(), observed=build_observed(),
                         options=FAST)
        service.append_rows("outage", [(13.5, 45.0)])
        description = service.session("outage").describe()
        assert "+1 delta(s)" in description["relation_version"]
        service.shutdown()


# --------------------------------------------------------------------- #
# Layer 2: delta-aware report migration
# --------------------------------------------------------------------- #
class TestDeltaInvalidation:
    def test_only_intersecting_reports_invalidated(self):
        service = ContingencyService(max_workers=2)
        service.register("outage", build_pcset(), observed=build_observed(),
                         options=FAST)
        q_far = ContingencyQuery.sum("price", Predicate.range("utc", 11, 12))
        q_near = ContingencyQuery.count(Predicate.range("utc", 12, 13))
        far_before = service.analyze("outage", q_far)
        service.analyze("outage", q_near)

        session = service.append_rows("outage", [(12.6, 9.0)])
        assert session.version == 2
        statistics = service.statistics()
        assert statistics.delta_migrations == 1  # q_far: region untouched
        assert statistics.delta_invalidations == 1  # q_near: row lands inside
        assert "1 report(s) migrated / 1 invalidated" in statistics.summary()

        # The migrated report answers from cache — no new solve.
        hits = service.report_cache.statistics.hits
        misses = service.report_cache.statistics.misses
        far_after = service.analyze("outage", ContingencyQuery.sum(
            "price", Predicate.range("utc", 11, 12)))
        assert service.report_cache.statistics.hits == hits + 1
        assert_reports_identical(far_after, far_before)

        # The invalidated one is a genuine miss and recomputes cold.
        near_after = service.analyze("outage", ContingencyQuery.count(
            Predicate.range("utc", 12, 13)))
        assert service.report_cache.statistics.misses == misses + 1
        assert near_after.observed_value == 2.0  # 12.5 and the new 12.6
        service.shutdown()

    def test_append_matches_cold_registration(self):
        """The appended session fingerprints identically to registering the
        concatenated relation from scratch — so migrated entries are exactly
        the entries a cold service would cache."""
        rows = [(10.0, 5.0), (10.5, 15.0), (11.2, 25.0), (12.5, 35.0)]
        delta = [(13.5, 45.0)]
        service = ContingencyService(max_workers=1)
        service.register(
            "outage", build_pcset(),
            observed=Relation.from_rows(observed_schema(), rows),
            options=FAST)
        appended = service.append_rows("outage", delta)

        cold = ContingencyService(max_workers=1)
        cold_session = cold.register(
            "outage", build_pcset(),
            observed=Relation.from_rows(observed_schema(), rows + delta),
            options=FAST)
        assert appended.fingerprint == cold_session.fingerprint
        service.shutdown()
        cold.shutdown()

    def test_empty_delta_is_a_no_op(self):
        service = ContingencyService(max_workers=1)
        service.register("outage", build_pcset(), observed=build_observed(),
                         options=FAST)
        session = service.append_rows("outage", [])
        assert session.version == 1  # same fingerprint, no version fork
        assert service.statistics().delta_migrations == 0
        service.shutdown()

    def test_append_requires_observed_relation(self):
        service = ContingencyService(max_workers=1)
        service.register("outage", build_pcset(), options=FAST)
        with pytest.raises(ReproError):
            service.append_rows("outage", [(13.5, 45.0)])
        service.shutdown()

    def test_old_version_stays_queryable_after_append(self):
        service = ContingencyService(max_workers=1)
        service.register("outage", build_pcset(), observed=build_observed(),
                         options=FAST)
        query = ContingencyQuery.count(Predicate.range("utc", 12, 13))
        before = service.analyze("outage", query)
        service.append_rows("outage", [(12.6, 9.0)])
        # Version 1 still answers from its own (untouched) cache entry.
        again = service.analyze("outage", query, version=1)
        assert_reports_identical(again, before)
        assert service.analyze("outage", query).observed_value \
            == before.observed_value + 1
        service.shutdown()

    # Ids name the layout the sharding pass picks on its own; "auto" is
    # the two-constraint set it leaves unsharded.
    @pytest.mark.parametrize("build, layout", [
        pytest.param(disjoint_windows, "component", id="component"),
        pytest.param(window_chain, "region", id="region"),
        pytest.param(build_pcset, "serial", id="auto"),
    ])
    def test_appended_session_matches_cold_analyzer(self, build, layout):
        """Property: after an append, every aggregate over every probed
        region is bit-identical to a cold analyzer on the full data, for
        plans that component-shard, region-shard or stay unsharded."""
        options = BoundOptions(check_closure=False, solve_workers=2)
        rows = [(10.0, 5.0), (10.5, 15.0), (11.2, 25.0), (12.5, 35.0)]
        delta = [(12.6, 9.0), (10.1, 2.0)]
        regions = [Predicate.range("utc", 11, 12),
                   Predicate.range("utc", 12, 13),
                   Predicate.range("utc", 11, 13)]

        service = ContingencyService(max_workers=2)
        session = service.register(
            "outage", build(),
            observed=Relation.from_rows(observed_schema(), rows),
            options=options)
        for region in regions:
            sharded = session.analyzer.solver.sharded_plan(region, "price")
            assert (sharded.strategy if sharded.is_sharded
                    else "serial") == layout
        for region in regions:  # warm the caches pre-append
            for maker in ALL_AGGREGATES:
                service.analyze("outage", maker(region))
        service.append_rows("outage", delta)

        cold = PCAnalyzer(
            build(),
            observed=Relation.from_rows(observed_schema(), rows + delta),
            options=options)
        for region in regions:
            for maker in ALL_AGGREGATES:
                assert_reports_identical(service.analyze("outage",
                                                         maker(region)),
                                         cold.analyze(maker(region)))
        service.shutdown()

    def test_append_with_persistent_store_migrates_on_disk(self, tmp_path):
        """Migrated reports written through the store warm the *new* version
        after a restart."""
        q_far = ContingencyQuery.sum("price", Predicate.range("utc", 11, 12))
        with ContingencyService(max_workers=1,
                                cache_dir=str(tmp_path)) as service:
            service.register("outage", build_pcset(),
                             observed=build_observed(), options=FAST)
            before = service.analyze("outage", q_far)
            service.append_rows("outage", [(13.5, 45.0)])

        with ContingencyService(max_workers=1,
                                cache_dir=str(tmp_path)) as warm:
            warm.register(
                "outage", build_pcset(),
                observed=build_observed().append([(13.5, 45.0)]),
                options=FAST)
            after = warm.analyze("outage", ContingencyQuery.sum(
                "price", Predicate.range("utc", 11, 12)))
            assert warm.statistics().decompositions_computed == 0
        assert_reports_identical(after, before)


# --------------------------------------------------------------------- #
# Layer 3: the range tier (missing-row ranges keyed by compiled program)
# --------------------------------------------------------------------- #
NON_AVG = ALL_AGGREGATES[:2] + ALL_AGGREGATES[3:]  # every aggregate but AVG


class TestRangeTier:
    def test_restart_after_append_answers_from_stored_ranges(
            self, tmp_path, monkeypatch):
        """A restarted service over the appended relation answers a region
        the delta invalidated with no compile and no solve, bit-identical
        to a cold analyzer on the appended data."""
        region = Predicate.range("utc", 12, 13)
        delta = [(12.6, 9.0)]
        with ContingencyService(max_workers=1,
                                cache_dir=str(tmp_path)) as service:
            service.register("outage", build_pcset(),
                             observed=build_observed(), options=FAST)
            for maker in NON_AVG:
                service.analyze("outage", maker(region))
            service.append_rows("outage", delta)
            assert service.statistics().delta_invalidations == len(NON_AVG)

        appended = build_observed().append(delta)
        with ContingencyService(max_workers=1,
                                cache_dir=str(tmp_path)) as warm:
            warm.register("outage", build_pcset(), observed=appended,
                          options=FAST)

            def solve(*_args, **_kwargs):
                raise AssertionError("a range hit must not solve")

            with monkeypatch.context() as guarded:
                guarded.setattr(CompiledMILP, "solve_objective", solve)
                guarded.setattr(CompiledMILP, "solve_objectives", solve)
                reports = [warm.analyze("outage", maker(region))
                           for maker in NON_AVG]
            statistics = warm.statistics()
            assert statistics.programs_compiled == 0
            assert statistics.decompositions_computed == 0
            assert statistics.range_cache.misses == len(NON_AVG)
            assert statistics.store["hits"] == len(NON_AVG)

        cold = PCAnalyzer(build_pcset(), observed=appended, options=FAST)
        for maker, report in zip(NON_AVG, reports):
            expected = cold.analyze(maker(region))
            assert_reports_identical(report, expected)
            assert report.observed_rows == expected.observed_rows

    def test_avg_is_never_memoized(self):
        region = Predicate.range("utc", 11, 13)
        query = ContingencyQuery.avg("price", region)
        service = ContingencyService(max_workers=1)
        service.register("outage", build_pcset(), observed=build_observed(),
                         options=FAST)
        before = service.analyze("outage", query)
        service.append_rows("outage", [(12.6, 90.0)])
        after = service.analyze("outage", query)

        cold = PCAnalyzer(build_pcset(),
                          observed=build_observed().append([(12.6, 90.0)]),
                          options=FAST)
        assert_reports_identical(after, cold.analyze(query))
        assert after.result_range.upper != before.result_range.upper
        assert len(service.range_cache) == 0
        if service.store is not None:
            assert service.store.entry_count("range") == 0
        service.shutdown()

    def test_degraded_range_is_not_served_later(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "kill:shard=0,count=2")
        relation = make_relation(seed=11)
        pcset = build_partition_pcs(relation, ["t"], 6)
        workers = max(2, int(os.environ.get("REPRO_TEST_WORKERS", "3")))
        options = BoundOptions(check_closure=False, solve_workers=workers,
                               degrade="worst-case")
        query = ContingencyQuery.sum("v")
        with ContingencyService(max_workers=workers, pool_mode="process",
                                default_options=options) as service:
            service.register("chaos", pcset, observed=relation)
            degraded = service.analyze("chaos", query)
            assert degraded.degraded_shards == (0,)
            assert len(service.range_cache) == 0
            monkeypatch.delenv(FAULTS_ENV)  # the plan is spent, and gone
            service.append_rows("chaos", [(5.0, 30.0)])
            later = service.analyze("chaos", query)
            assert len(service.range_cache) == 1
        assert later.degraded_shards == ()  # solved again, not served
        exact = PCAnalyzer(pcset, observed=relation.append([(5.0, 30.0)]),
                           options=BoundOptions(check_closure=False)
                           ).analyze(query)
        assert later.lower == pytest.approx(exact.lower, rel=1e-9)
        assert later.upper == pytest.approx(exact.upper, rel=1e-9)

    def test_serial_and_sharded_sessions_keep_separate_ranges(self):
        """Under a cell budget sharded and serial ranges may differ, so the
        fan-out width is part of the key."""
        region = Predicate.range("utc", 11, 13)
        query = ContingencyQuery.count(region)
        serial = BoundOptions(check_closure=False, cell_budget=4)
        sharded = BoundOptions(check_closure=False, cell_budget=4,
                               solve_workers=2)
        service = ContingencyService(max_workers=2)
        service.register("serial", window_chain(), options=serial)
        service.register("sharded", window_chain(), options=sharded)
        reports = {name: service.analyze(name, query)
                   for name in ("serial", "sharded")}

        keys = service.range_cache.keys()
        assert len(keys) == 2
        assert {key[:-1] for key in keys} == {keys[0][:-1]}
        assert {key[-1] for key in keys} == {None, 2}
        for name, options in (("serial", serial), ("sharded", sharded)):
            expected = PCAnalyzer(window_chain(), options=options
                                  ).analyze(query)
            assert_reports_identical(reports[name], expected)
        service.shutdown()

    def test_hit_is_still_widened_and_cross_checked(self, monkeypatch):
        """Only the closed-world range is memoized: open-world widening and
        cross-backend verification run on a hit too."""
        checks = []
        cross_check = PCBoundSolver._cross_check

        def counting(self, *args, **kwargs):
            checks.append(args[1])
            return cross_check(self, *args, **kwargs)

        monkeypatch.setattr(PCBoundSolver, "_cross_check", counting)
        options = BoundOptions(verify_backend="branch-and-bound")
        region = Predicate.range("utc", 10, 13)  # [10, 11) is uncovered
        query = ContingencyQuery.count(region)
        service = ContingencyService(max_workers=1)
        service.register("outage", build_pcset(), observed=build_observed(),
                         options=options)
        service.analyze("outage", query)
        service.append_rows("outage", [(12.6, 9.0)])
        hits = service.range_cache.statistics.hits
        report = service.analyze("outage", query)
        assert service.range_cache.statistics.hits == hits + 1
        assert checks == [AggregateFunction.COUNT] * 2

        cold = PCAnalyzer(build_pcset(),
                          observed=build_observed().append([(12.6, 9.0)]),
                          options=options)
        expected = cold.analyze(query)
        assert_reports_identical(report, expected)
        assert report.upper == float("inf")
        assert report.missing_range.closed is False
        service.shutdown()
