"""Tests for incremental, versioned result reuse.

Three layers, each checked for the same invariant — reuse is *provably
bit-identical* to cold computation:

* lineage-aware fingerprints: :meth:`Relation.append` links each version to
  its parent and its delta, ``fingerprint_relation`` starts from the
  parent's hashers and streams only the version's own delta, whatever the
  chain's length, and the digest equals a cold full-content pass;
* delta-aware migration: :meth:`ContingencyService.append_rows` tests each
  cached region against the delta once, re-keys the reports whose region
  the delta provably cannot touch, merges touched COUNT, SUM, MIN and MAX
  reports from the delta, and drops (only) touched AVG reports; appends to
  one service are serialized, so racing appends lose no rows;
* the range tier: ranges over the missing rows are keyed by compiled
  program, not data (AVG's also by the observed sum and count), so a
  dropped report recomputes without compiling or solving.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.service import fingerprint as fingerprint_module
from repro.service.fingerprint import (
    RelationVersion,
    fingerprint_query,
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


def refuse_solves(patch) -> None:
    """Make every compiled MILP solve raise: a range hit must not solve."""
    def solve(*_args, **_kwargs):
        raise AssertionError("a range hit must not solve")

    patch.setattr(CompiledMILP, "solve_objective", solve)
    patch.setattr(CompiledMILP, "solve_objectives", solve)


def count_streamed(patch) -> list[int]:
    """Record the length of every column chunk streamed into a fingerprint
    hasher; returns the list the calls append to."""
    streamed = []
    update = fingerprint_module._update_column_hasher

    def counting(hasher, is_numeric, values):
        streamed.append(len(values))
        update(hasher, is_numeric, values)

    patch.setattr(fingerprint_module, "_update_column_hasher", counting)
    return streamed


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

    def test_each_append_streams_only_its_own_delta(self, monkeypatch):
        """A registered version starts from its parent's hashers, so every
        append streams one delta per column, however long the chain."""
        streamed = count_streamed(monkeypatch)
        rows = [(10.0, 5.0), (10.5, 15.0), (11.2, 25.0), (12.5, 35.0)]
        with ContingencyService(max_workers=1) as service:
            service.register(
                "outage", build_pcset(),
                observed=Relation.from_rows(observed_schema(), rows),
                options=FAST)
            for index in range(2000):
                streamed.clear()
                row = (13.0 + index / 1000, float(index))
                rows.append(row)
                service.append_rows("outage", [row])
                assert streamed == [1, 1]  # one one-row delta per column
            latest = service.session("outage")
        assert latest.version == 2001
        assert fingerprint_relation(latest.observed) == fingerprint_relation(
            Relation.from_rows(observed_schema(), rows))

    def test_deep_chain_fingerprints_walks_and_pickles(self):
        """No step of an unfingerprinted 5,000-version chain recurses per
        version: fingerprint, lineage and pickle all work on its tip."""
        rows = [(10.0, 5.0), (10.5, 15.0)]
        version = Relation.from_rows(observed_schema(), rows)
        for index in range(5000):
            row = (11.0 + index / 1000, float(index % 97))
            rows.append(row)
            version = version.append([row])
        cold = Relation.from_rows(observed_schema(), rows)

        base, deltas = version.append_lineage
        assert base.num_rows == 2 and len(deltas) == 5000
        assert fingerprint_relation(version) == fingerprint_relation(cold)
        restored = pickle.loads(pickle.dumps(version))
        assert restored.append_lineage is None
        assert restored.column("price").tolist() == cold.column(
            "price").tolist()

    def test_pickled_version_carries_only_its_own_rows(self):
        """A pickled appended version ships its rows, not its chain: the
        2,000th one-row version pickles to the cold relation's size."""
        rows = [(float(index), float(index)) for index in range(100)]
        version = Relation.from_rows(observed_schema(), rows)
        for index in range(2000):
            row = (100.0 + index, float(index % 13))
            rows.append(row)
            version = version.append([row])
        cold = Relation.from_rows(observed_schema(), rows)
        fingerprint = fingerprint_relation(version)
        assert fingerprint == fingerprint_relation(cold)

        payload = pickle.dumps(version)
        assert len(payload) <= 1.05 * len(pickle.dumps(cold))
        restored = pickle.loads(payload)
        assert restored.append_lineage is None
        assert fingerprint_relation(restored) == fingerprint
        assert restored.column("utc").tolist() == cold.column("utc").tolist()


# --------------------------------------------------------------------- #
# Layer 2: delta-aware report migration
# --------------------------------------------------------------------- #
class TestDeltaInvalidation:
    def test_only_intersecting_reports_invalidated(self):
        service = ContingencyService(max_workers=2)
        service.register("outage", build_pcset(), observed=build_observed(),
                         options=FAST)
        q_far = ContingencyQuery.sum("price", Predicate.range("utc", 11, 12))
        q_near = ContingencyQuery.sum("price", Predicate.range("utc", 12, 13))
        q_count = ContingencyQuery.count(Predicate.range("utc", 12, 13))
        q_avg = ContingencyQuery.avg("price", Predicate.range("utc", 12, 13))
        far_before = service.analyze("outage", q_far)
        service.analyze("outage", q_near)
        service.analyze("outage", q_count)
        service.analyze("outage", q_avg)

        session = service.append_rows("outage", [(12.6, 9.0)])
        assert session.version == 2
        statistics = service.statistics()
        # q_far re-keyed; q_count and q_near merged: the row lands inside.
        assert statistics.delta_migrations == 3
        assert statistics.delta_merges == 2
        assert statistics.delta_invalidations == 1  # q_avg: an AVG it lands in
        assert ("3 report(s) migrated / 1 invalidated / 2 merged from the "
                "delta") in statistics.summary()

        # The migrated report answers from cache — no new solve.
        hits = service.report_cache.statistics.hits
        misses = service.report_cache.statistics.misses
        far_after = service.analyze("outage", ContingencyQuery.sum(
            "price", Predicate.range("utc", 11, 12)))
        assert service.report_cache.statistics.hits == hits + 1
        assert_reports_identical(far_after, far_before)

        # The merged COUNT and SUM answer from cache too, with the new row.
        count_after = service.analyze("outage", ContingencyQuery.count(
            Predicate.range("utc", 12, 13)))
        near_after = service.analyze("outage", ContingencyQuery.sum(
            "price", Predicate.range("utc", 12, 13)))
        assert service.report_cache.statistics.hits == hits + 3
        assert count_after.observed_value == 2.0  # 12.5 and the new 12.6
        assert near_after.observed_value == 44.0  # 35.0 and the new 9.0

        # The invalidated AVG is a genuine miss and recomputes cold.
        avg_after = service.analyze("outage", ContingencyQuery.avg(
            "price", Predicate.range("utc", 12, 13)))
        assert service.report_cache.statistics.misses == misses + 1
        assert avg_after.observed_value == 22.0
        service.shutdown()

    def test_batch_cached_reports_migrate_on_append(self):
        """Reports cached by ``execute_batch`` migrate like ``analyze``'s."""
        q_far = ContingencyQuery.sum("price", Predicate.range("utc", 11, 12))
        q_near = ContingencyQuery.avg("price", Predicate.range("utc", 12, 13))
        q_count = ContingencyQuery.count(Predicate.range("utc", 12, 13))
        with ContingencyService(max_workers=1) as service:
            service.register("outage", build_pcset(),
                             observed=build_observed(), options=FAST)
            before = service.execute_batch("outage",
                                           [q_far, q_near, q_far, q_count])
            service.append_rows("outage", [(12.6, 9.0)])
            statistics = service.statistics()
            assert statistics.delta_migrations == 2
            assert statistics.delta_merges == 1
            assert statistics.delta_invalidations == 1  # q_near, an AVG

            hits = service.report_cache.statistics.hits
            far_after = service.analyze("outage", q_far)
            count_after = service.analyze("outage", q_count)
            assert service.report_cache.statistics.hits == hits + 2
            assert_reports_identical(far_after, before.reports[0])
            assert count_after.observed_value == 2.0

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
            sharded = session.analyzer.solver.sharded_plan(region)
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
        """Migrated reports stay in memory, so no report reaches the store;
        the stored range warms the *new* version after a restart."""
        q_far = ContingencyQuery.sum("price", Predicate.range("utc", 11, 12))
        with ContingencyService(max_workers=1,
                                cache_dir=str(tmp_path)) as service:
            service.register("outage", build_pcset(),
                             observed=build_observed(), options=FAST)
            before = service.analyze("outage", q_far)
            service.append_rows("outage", [(13.5, 45.0)])
            assert service.statistics().delta_migrations == 1
            assert service.store.entry_count("report") == 0

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


    def test_concurrent_appends_lose_no_rows(self):
        """Racing appends to one session each extend the latest version:
        the last version holds every row, and each version extends its
        predecessor by one row."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ContingencyService(max_workers=1) as service:
                for trial in range(25):
                    name = f"race-{trial}"
                    service.register(name, build_pcset(),
                                     observed=build_observed(), options=FAST)
                    barrier = threading.Barrier(4)

                    def append(index: int) -> None:
                        barrier.wait()
                        service.append_rows(name, [(20.0 + index, 1.0)])

                    threads = [threading.Thread(target=append, args=(index,))
                               for index in range(4)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=10.0)
                    assert not any(thread.is_alive() for thread in threads)

                    versions = service.registry.versions(name)
                    assert len(versions) == 5
                    for older, newer in zip(versions, versions[1:]):
                        rows = older.observed.to_rows()
                        assert newer.observed.to_rows()[:len(rows)] == rows
                        assert newer.observed.num_rows == len(rows) + 1
                    latest = sorted(versions[-1].observed.column(
                        "utc").tolist()[4:])
                    assert latest == [20.0, 21.0, 22.0, 23.0]
        finally:
            sys.setswitchinterval(previous)


# --------------------------------------------------------------------- #
# Merging COUNT, SUM, MIN and MAX from the delta, against a cold analyzer
# --------------------------------------------------------------------- #
_NAN = float("nan")
_T_POINTS = (0.0, 1.0, 2.0, 3.0, 4.0)
_V_VALUES = (-2.5, 0.0, 1.5, 7.25, 0.1, _NAN)
_K_VALUES = (-3, 0, 4, 9)
_MERGED = (AggregateFunction.COUNT, AggregateFunction.SUM,
           AggregateFunction.MIN, AggregateFunction.MAX)


def merge_schema() -> Schema:
    return Schema.from_pairs([("t", ColumnType.FLOAT),
                              ("v", ColumnType.FLOAT),
                              ("k", ColumnType.INT)])


def merge_pcset() -> PredicateConstraintSet:
    """Two disjoint windows on ``t`` bounding both value columns (disjoint,
    so AVG's search stays cheap)."""
    return PredicateConstraintSet([
        PredicateConstraint(Predicate.range("t", 0.0, 2.5),
                            ValueConstraint({"v": (-3.0, 8.0),
                                             "k": (-5.0, 10.0)}),
                            FrequencyConstraint(0, 2), name="early"),
        PredicateConstraint(Predicate.range("t", 3.0, 4.0),
                            ValueConstraint({"v": (0.0, 5.0),
                                             "k": (0.0, 4.0)}),
                            FrequencyConstraint(1, 3), name="late")])


_rows = st.lists(st.tuples(st.sampled_from(_T_POINTS),
                           st.sampled_from(_V_VALUES),
                           st.sampled_from(_K_VALUES)), max_size=5)
_regions = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(_T_POINTS), st.sampled_from(_T_POINTS)).map(
        lambda ends: Predicate.range("t", min(ends), max(ends))))


def _same(actual: float | None, expected: float | None) -> bool:
    """Bit-level equality of two endpoints, with NaN equal to NaN."""
    if actual is None or expected is None:
        return actual is expected
    return actual == expected or (math.isnan(actual)
                                  and math.isnan(expected))


def _assert_report_equals_cold(actual, expected) -> None:
    for name in ("result_range", "missing_range"):
        for end in ("lower", "upper"):
            assert _same(getattr(getattr(actual, name), end),
                         getattr(getattr(expected, name), end)), (name, end)
    assert _same(actual.observed_value, expected.observed_value)
    assert actual.observed_rows == expected.observed_rows


def _touches(region: Predicate | None, rows: list[tuple]) -> bool:
    return any(region is None or region.matches_row({"t": row[0]})
               for row in rows)


@settings(max_examples=15, deadline=None)
@given(base=_rows,
       deltas=st.lists(_rows.filter(bool), min_size=1, max_size=3),
       regions=st.lists(_regions, min_size=1, max_size=2),
       attribute=st.sampled_from(["v", "k"]))
def test_merged_reports_equal_a_cold_analyzer(base, deltas, regions,
                                              attribute):
    """After 1-3 appends every cached report equals a cold analyzer on the
    concatenated rows (NaN equal to NaN); COUNT, SUM, MIN and MAX reports
    whose region gained rows are merged, and AVG ones invalidated."""
    queries = list(dict.fromkeys(
        ContingencyQuery(aggregate, None if aggregate is
                         AggregateFunction.COUNT else attribute, region)
        for region in regions for aggregate in AggregateFunction))
    rows = list(base)
    with ContingencyService(max_workers=1) as service:
        service.register("merge", merge_pcset(),
                         observed=Relation.from_rows(merge_schema(), rows),
                         options=FAST)
        for query in queries:
            service.analyze("merge", query)
        for delta in deltas:
            before = service.statistics()
            session = service.append_rows("merge", delta)
            rows.extend(delta)
            after = service.statistics()
            touched = [query for query in queries
                       if _touches(query.region, delta)]
            merged = [query for query in touched
                      if query.aggregate in _MERGED]
            assert after.delta_merges - before.delta_merges == len(merged)
            assert (after.delta_invalidations - before.delta_invalidations
                    == len(touched) - len(merged))
            for query in queries:  # merged reports are cached, rescans not
                cached = service.report_cache.peek(
                    ("report", session.fingerprint, fingerprint_query(query)))
                assert (cached is None) == (query in touched
                                            and query not in merged)

            cold = PCAnalyzer(merge_pcset(),
                              observed=Relation.from_rows(merge_schema(),
                                                          rows),
                              options=FAST)
            for query in queries:
                _assert_report_equals_cold(service.analyze("merge", query),
                                           cold.analyze(query))


# --------------------------------------------------------------------- #
# Layer 3: the range tier (missing-row ranges keyed by compiled program)
# --------------------------------------------------------------------- #
NON_AVG = ALL_AGGREGATES[:2] + ALL_AGGREGATES[3:]  # every aggregate but AVG


class TestRangeTier:
    def test_restart_after_append_answers_from_stored_ranges(
            self, tmp_path, monkeypatch):
        """A restarted service over the appended relation answers a region
        the delta touched with no compile and no solve, bit-identical to a
        cold analyzer on the appended data."""
        region = Predicate.range("utc", 12, 13)
        delta = [(12.6, 9.0)]
        with ContingencyService(max_workers=1,
                                cache_dir=str(tmp_path)) as service:
            service.register("outage", build_pcset(),
                             observed=build_observed(), options=FAST)
            for maker in NON_AVG:
                service.analyze("outage", maker(region))
            service.append_rows("outage", delta)
            statistics = service.statistics()
            assert statistics.delta_invalidations == 0
            assert statistics.delta_merges == len(NON_AVG)

        appended = build_observed().append(delta)
        with ContingencyService(max_workers=1,
                                cache_dir=str(tmp_path)) as warm:
            warm.register("outage", build_pcset(), observed=appended,
                          options=FAST)

            with monkeypatch.context() as guarded:
                refuse_solves(guarded)
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

    def test_restarted_batch_compiles_nothing_the_range_tier_answers(
            self, tmp_path):
        """A batch compiles a program only when a query misses the range
        tier: the same restart through ``execute_batch`` reads every range
        from the store and compiles nothing.  The pool mode is pinned,
        because a process batch compiles each program to ship it."""
        region = Predicate.range("utc", 12, 13)
        queries = [maker(region) for maker in NON_AVG]
        with ContingencyService(max_workers=1, pool_mode="serial",
                                cache_dir=str(tmp_path)) as service:
            service.register("outage", build_pcset(),
                             observed=build_observed(), options=FAST)
            service.execute_batch("outage", queries)
            service.append_rows("outage", [(12.6, 9.0)])

        appended = build_observed().append([(12.6, 9.0)])
        with ContingencyService(max_workers=1, pool_mode="serial",
                                cache_dir=str(tmp_path)) as warm:
            warm.register("outage", build_pcset(), observed=appended,
                          options=FAST)
            result = warm.execute_batch("outage", queries)
            statistics = warm.statistics()
            assert statistics.programs_compiled == 0
            assert statistics.decompositions_computed == 0
            assert statistics.store["hits"] == len(NON_AVG)
            assert result.statistics.warm_seconds == 0.0

        cold = PCAnalyzer(build_pcset(), observed=appended, options=FAST)
        for query, report in zip(queries, result.reports):
            assert_reports_identical(report, cold.analyze(query))

    def test_avg_is_memoized_under_its_observed_sum_and_count(self):
        """A delta row inside the region changes AVG's observed sum and
        count, so AVG solves again under a new key beside the old one."""
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
        keys = service.range_cache.keys()
        assert len(keys) == 2
        assert {key[2] for key in keys} == {AggregateFunction.AVG}
        assert {key[-2:] for key in keys} == {(60.0, 2.0), (150.0, 3.0)}
        if service.store is not None:
            assert service.store.entry_count("range") == 2
        service.shutdown()

    def test_session_differing_outside_the_region_reuses_avg(
            self, monkeypatch):
        """Observed rows that differ only outside the region leave AVG's
        observed sum and count, hence its key, unchanged: a second session
        answers AVG without solving."""
        region = Predicate.range("utc", 11, 13)
        query = ContingencyQuery.avg("price", region)
        other = Relation.from_rows(observed_schema(), [
            (10.0, 5.0), (10.7, 80.0), (11.2, 25.0), (12.5, 35.0)])
        with ContingencyService(max_workers=1) as service:
            service.register("first", build_pcset(),
                             observed=build_observed(), options=FAST)
            service.register("second", build_pcset(), observed=other,
                             options=FAST)
            service.analyze("first", query)
            with monkeypatch.context() as guarded:
                refuse_solves(guarded)
                report = service.analyze("second", query)
            assert service.range_cache.statistics.hits == 1

        cold = PCAnalyzer(build_pcset(), observed=other, options=FAST)
        assert_reports_identical(report, cold.analyze(query))

    def test_restart_after_append_answers_avg_from_stored_range(
            self, tmp_path, monkeypatch):
        """A restarted service over the appended relation answers AVG over
        a region the delta missed from the stored range: no compile, no
        solve, bit-identical to a cold analyzer."""
        region = Predicate.range("utc", 11, 12)
        query = ContingencyQuery.avg("price", region)
        delta = [(12.6, 9.0)]
        with ContingencyService(max_workers=1,
                                cache_dir=str(tmp_path)) as service:
            service.register("outage", build_pcset(),
                             observed=build_observed(), options=FAST)
            service.analyze("outage", query)
            service.append_rows("outage", delta)
            assert service.statistics().delta_migrations == 1

        appended = build_observed().append(delta)
        with ContingencyService(max_workers=1,
                                cache_dir=str(tmp_path)) as warm:
            warm.register("outage", build_pcset(), observed=appended,
                          options=FAST)
            with monkeypatch.context() as guarded:
                refuse_solves(guarded)
                report = warm.analyze("outage", query)
            statistics = warm.statistics()
            assert statistics.programs_compiled == 0
            assert statistics.decompositions_computed == 0
            assert statistics.store["hits"] == 1

        cold = PCAnalyzer(build_pcset(), observed=appended, options=FAST)
        assert_reports_identical(report, cold.analyze(query))

    def test_store_holds_ranges_and_no_reports(self, tmp_path):
        region = Predicate.range("utc", 11, 13)
        with ContingencyService(max_workers=1,
                                cache_dir=str(tmp_path)) as service:
            service.register("outage", build_pcset(),
                             observed=build_observed(), options=FAST)
            service.analyze("outage", ContingencyQuery.sum("price", region))
            service.execute_batch("outage", [maker(region)
                                             for maker in ALL_AGGREGATES])
            service.append_rows("outage", [(10.2, 9.0)])
            assert service.statistics().delta_migrations == len(ALL_AGGREGATES)
            assert service.store.entry_count("report") == 0
            assert service.store.entry_count("range") > 0

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

    def test_degraded_count_is_rescanned_not_merged(self, monkeypatch):
        """A degraded COUNT whose region gains rows is not merged: its
        fallback range would outlive the fault, so it solves again."""
        monkeypatch.setenv(FAULTS_ENV, "kill:shard=0,count=2")
        relation = make_relation(seed=11)
        pcset = build_partition_pcs(relation, ["t"], 6)
        workers = max(2, int(os.environ.get("REPRO_TEST_WORKERS", "3")))
        options = BoundOptions(check_closure=False, solve_workers=workers,
                               degrade="worst-case")
        query = ContingencyQuery.count()
        with ContingencyService(max_workers=workers, pool_mode="process",
                                default_options=options) as service:
            service.register("chaos", pcset, observed=relation)
            assert service.analyze("chaos", query).degraded_shards == (0,)
            monkeypatch.delenv(FAULTS_ENV)
            service.append_rows("chaos", [(5.0, 30.0)])
            statistics = service.statistics()
            assert (statistics.delta_merges,
                    statistics.delta_invalidations) == (0, 1)
            later = service.analyze("chaos", query)
        assert later.degraded_shards == ()
        exact = PCAnalyzer(pcset, observed=relation.append([(5.0, 30.0)]),
                           options=BoundOptions(check_closure=False)
                           ).analyze(query)
        assert later.lower == exact.lower and later.upper == exact.upper

    def test_serial_and_sharded_sessions_keep_separate_ranges(self):
        """A component-sharded SUM adds up its shards' optima where the
        serial path solves one objective, so the two may differ by an ulp
        or two: the fan-out width is part of the key."""
        region = Predicate.range("utc", 11, 13)
        query = ContingencyQuery.sum("price", region)
        serial = BoundOptions(check_closure=False)
        sharded = BoundOptions(check_closure=False, solve_workers=2)
        service = ContingencyService(max_workers=2)
        service.register("serial", disjoint_windows(), options=serial)
        service.register("sharded", disjoint_windows(), options=sharded)
        assert service.session("sharded").analyzer.solver.sharded_plan(
            region).strategy == "component"
        reports = {name: service.analyze(name, query)
                   for name in ("serial", "sharded")}

        keys = service.range_cache.keys()
        assert len(keys) == 2
        # The key is ("range", program_key, aggregate, attribute,
        # solve_workers, known_sum, known_count): only the fan-out width
        # differs.
        assert len({key[:4] + key[5:] for key in keys}) == 1
        assert {key[4] for key in keys} == {None, 2}
        for name, options in (("serial", serial), ("sharded", sharded)):
            expected = PCAnalyzer(disjoint_windows(), options=options
                                  ).analyze(query)
            assert_reports_identical(reports[name], expected)
        service.shutdown()

    def test_hit_is_still_widened_and_cross_checked(self, monkeypatch):
        """Only the closed-world range is memoized: open-world widening and
        cross-backend verification run on a hit too.  The report cache is
        emptied after the append (which merged the SUM), so the SUM rescans
        and reaches the range tier."""
        checks = []
        cross_check = PCBoundSolver._cross_check

        def counting(self, *args, **kwargs):
            checks.append(args[1])
            return cross_check(self, *args, **kwargs)

        monkeypatch.setattr(PCBoundSolver, "_cross_check", counting)
        options = BoundOptions(verify_backend="branch-and-bound")
        region = Predicate.range("utc", 10, 13)  # [10, 11) is uncovered
        query = ContingencyQuery.sum("price", region)
        service = ContingencyService(max_workers=1)
        service.register("outage", build_pcset(), observed=build_observed(),
                         options=options)
        service.analyze("outage", query)
        service.append_rows("outage", [(12.6, 9.0)])
        service.report_cache.clear()
        hits = service.range_cache.statistics.hits
        report = service.analyze("outage", query)
        assert service.range_cache.statistics.hits == hits + 1
        assert checks == [AggregateFunction.SUM] * 2

        cold = PCAnalyzer(build_pcset(),
                          observed=build_observed().append([(12.6, 9.0)]),
                          options=options)
        expected = cold.analyze(query)
        assert_reports_identical(report, expected)
        assert report.upper == float("inf")
        assert report.missing_range.closed is False
        service.shutdown()


# --------------------------------------------------------------------- #
# Long-chain soak (selected by the CI stress job via ``-m stress``)
# --------------------------------------------------------------------- #
@pytest.mark.stress
def test_stress_long_append_chain_soak(monkeypatch):
    """3,000 small appends to one session, with queries between them:
    every cached report still equals a cold analyzer on the concatenated
    rows, and the last append streams one delta, not the chain."""
    rng = np.random.default_rng(27)
    # Deltas land in 9.5 <= utc <= 14.5, so the first region is never
    # touched (its reports, AVG included, are re-keyed at every append)
    # and the others gain rows now and then.
    regions = [Predicate.range("utc", 0.0, 5.0), None,
               Predicate.range("utc", 10.0, 11.0),
               Predicate.range("utc", 11.0, 12.5),
               Predicate.range("utc", 12.0, 14.0)]
    queries = [maker(region) for region in regions
               for maker in ALL_AGGREGATES]
    between = [query for query in queries
               if query.aggregate is not AggregateFunction.AVG]
    rows = build_observed().to_rows()
    with ContingencyService(max_workers=1) as service:
        service.register("soak", build_pcset(), observed=build_observed(),
                         options=FAST)
        for query in queries:
            service.analyze("soak", query)
        for index in range(3000):
            delta = [(round(float(rng.uniform(9.5, 14.5)), 3),
                      round(float(rng.uniform(1.0, 99.0)), 2))
                     for _ in range(int(rng.integers(1, 4)))]
            if index == 2999:
                streamed = count_streamed(monkeypatch)
            service.append_rows("soak", delta)
            rows.extend(delta)
            for offset in range(2):
                service.analyze("soak",
                                between[(2 * index + offset) % len(between)])
        assert streamed == [len(delta)] * 2  # one delta per column
        statistics = service.statistics()
        assert statistics.delta_merges > 0
        assert statistics.delta_invalidations > 0
        cold = PCAnalyzer(build_pcset(),
                          observed=Relation.from_rows(observed_schema(), rows),
                          options=FAST)
        for query in queries:
            actual = service.analyze("soak", query)
            expected = cold.analyze(query)
            assert_reports_identical(actual, expected)
            assert actual.observed_rows == expected.observed_rows
