"""Benchmark: incremental, versioned result reuse.

Three timings, one per reuse layer:

* **Append delta** — appending rows to a registered session migrates every
  cached report the delta provably cannot change, so the post-append batch
  pays only for the queries whose regions the new rows actually touch.
* **Warm restart** — a second service process pointed at the same
  ``cache_dir`` answers the first service's workload from the persistent
  tier without recomputing a single decomposition.
* **Restart after an append** — a second service over the appended relation
  answers COUNT, SUM, MIN and MAX from stored reports (regions the delta
  missed) and stored missing-row ranges (regions it hit), compiling no
  program.

Every layer's answers are asserted bit-identical to cold computation
*unconditionally* — the timing claims are only meaningful if reuse never
changes a bound.
"""

from __future__ import annotations

import time

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
from repro.relational.aggregates import AggregateFunction
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema
from repro.service import ContingencyService


def chained_pcset(size: int = 10) -> PredicateConstraintSet:
    """One overlap component of ``size`` chained windows."""
    constraints = []
    for index in range(size):
        low = 20.0 + 6 * index
        constraints.append(PredicateConstraint(
            Predicate.range("utc", low, low + 10),
            ValueConstraint({"price": (1.0, 50.0 + index)}),
            FrequencyConstraint(0, 10 + index), name=f"c{index}"))
    return PredicateConstraintSet(constraints)


def observed_relation() -> Relation:
    schema = Schema.from_pairs([("utc", ColumnType.FLOAT),
                                ("price", ColumnType.FLOAT)])
    rows = [(20.0 + 0.7 * index, 5.0 + index % 11) for index in range(40)]
    return Relation.from_rows(schema, rows, name="observed")


def all_aggregates(region: Predicate) -> list[ContingencyQuery]:
    return [ContingencyQuery.count(region),
            ContingencyQuery.sum("price", region),
            ContingencyQuery.avg("price", region),
            ContingencyQuery.min("price", region),
            ContingencyQuery.max("price", region)]


def assert_identical(actual, expected):
    assert actual.result_range.lower == expected.result_range.lower
    assert actual.result_range.upper == expected.result_range.upper
    assert actual.missing_range.lower == expected.missing_range.lower
    assert actual.missing_range.upper == expected.missing_range.upper
    assert actual.observed_value == expected.observed_value


@pytest.mark.paper_artifact("incremental-cache")
def test_bench_append_delta_migration(report_artifact, bench_record):
    """Appending rows keeps every report the delta cannot touch."""
    options = BoundOptions(check_closure=False)
    # Five aggregates over eight regions; the delta rows land in [50, 56],
    # so five of the eight regions keep their cached reports.
    regions = [Predicate.range("utc", 20.0 + 5 * index, 30.0 + 5 * index)
               for index in range(8)]
    queries = [query for region in regions for query in all_aggregates(region)]
    delta = [(51.0, 7.0), (55.5, 9.0)]

    service = ContingencyService(max_workers=2)
    service.register("bench", chained_pcset(), observed=observed_relation(),
                     options=options)
    started = time.perf_counter()
    service.execute_batch("bench", queries)
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    service.append_rows("bench", delta)
    append_rows_seconds = time.perf_counter() - started
    started = time.perf_counter()
    warm = service.execute_batch("bench", queries)
    append_seconds = time.perf_counter() - started
    statistics = service.statistics()

    # Bit-identical to a cold analyzer over the full appended data, always.
    cold = PCAnalyzer(chained_pcset(),
                      observed=observed_relation().append(delta),
                      options=options)
    for query, report in zip(queries, warm.reports):
        assert_identical(report, cold.analyze(query))
    assert statistics.delta_migrations > 0
    assert statistics.delta_invalidations > 0

    ratio = cold_seconds / max(append_seconds, 1e-9)
    report_artifact(
        "Append-delta report migration\n"
        f"  batch size           : {len(queries)} queries over "
        f"{len(regions)} regions\n"
        f"  cold batch           : {cold_seconds * 1000:.1f} ms\n"
        f"  append_rows          : {append_rows_seconds * 1000:.2f} ms\n"
        f"  post-append batch    : {append_seconds * 1000:.1f} ms "
        f"({statistics.delta_migrations} migrated, "
        f"{statistics.delta_invalidations} invalidated)\n"
        f"  post-append speedup  : {ratio:.1f}x")
    bench_record(cold_seconds=cold_seconds, append_seconds=append_seconds,
                 append_rows_seconds=append_rows_seconds,
                 speedup=ratio, migrated=statistics.delta_migrations,
                 invalidated=statistics.delta_invalidations)


@pytest.mark.paper_artifact("incremental-cache")
def test_bench_warm_restart(tmp_path, report_artifact, bench_record):
    """Acceptance: a restart against the same cache_dir is >= 2x faster."""
    options = BoundOptions(check_closure=False)
    regions = [Predicate.range("utc", 20.0 + 5 * index, 30.0 + 5 * index)
               for index in range(8)]
    queries = [query for region in regions for query in all_aggregates(region)]

    with ContingencyService(max_workers=2,
                            cache_dir=str(tmp_path)) as first:
        first.register("bench", chained_pcset(),
                       observed=observed_relation(), options=options)
        started = time.perf_counter()
        cold = first.execute_batch("bench", queries)
        cold_seconds = time.perf_counter() - started

    with ContingencyService(max_workers=2,
                            cache_dir=str(tmp_path)) as second:
        second.register("bench", chained_pcset(),
                        observed=observed_relation(), options=options)
        started = time.perf_counter()
        warm = second.execute_batch("bench", queries)
        warm_seconds = time.perf_counter() - started
        statistics = second.statistics()

    # Bit-identical across the restart, always.
    for before, after in zip(cold.reports, warm.reports):
        assert_identical(after, before)
    assert statistics.decompositions_computed == 0
    assert statistics.store is not None and statistics.store["hits"] > 0

    ratio = cold_seconds / max(warm_seconds, 1e-9)
    report_artifact(
        "Warm restart from the persistent tier\n"
        f"  batch size            : {len(queries)} queries\n"
        f"  cold process          : {cold_seconds * 1000:.1f} ms\n"
        f"  restarted process     : {warm_seconds * 1000:.1f} ms "
        f"({int(statistics.store['hits'])} store hit(s), "
        f"0 decompositions)\n"
        f"  restart speedup       : {ratio:.1f}x")
    bench_record(cold_seconds=cold_seconds, warm_seconds=warm_seconds,
                 speedup=ratio, store_hits=int(statistics.store["hits"]))
    # The acceptance threshold, with margin below observed ratios.
    assert ratio >= 2.0


@pytest.mark.paper_artifact("incremental-cache")
def test_bench_restart_after_append(tmp_path, report_artifact, bench_record):
    """A restarted service answers an appended relation's non-AVG queries
    without compiling, bit-identical to cold computation."""
    options = BoundOptions(check_closure=False)
    regions = [Predicate.range("utc", 20.0 + 5 * index, 30.0 + 5 * index)
               for index in range(8)]
    queries = [query for region in regions for query in all_aggregates(region)
               if query.aggregate is not AggregateFunction.AVG]
    delta = [(51.0, 7.0), (55.5, 9.0)]

    with ContingencyService(max_workers=1,
                            cache_dir=str(tmp_path)) as first:
        first.register("bench", chained_pcset(),
                       observed=observed_relation(), options=options)
        started = time.perf_counter()
        for query in queries:
            first.analyze("bench", query)
        cold_seconds = time.perf_counter() - started
        first.append_rows("bench", delta)
        invalidated = first.statistics().delta_invalidations

    appended = observed_relation().append(delta)
    with ContingencyService(max_workers=1,
                            cache_dir=str(tmp_path)) as second:
        second.register("bench", chained_pcset(), observed=appended,
                        options=options)
        started = time.perf_counter()
        reports = [second.analyze("bench", query) for query in queries]
        restart_seconds = time.perf_counter() - started
        statistics = second.statistics()

    cold = PCAnalyzer(chained_pcset(), observed=appended, options=options)
    for query, report in zip(queries, reports):
        assert_identical(report, cold.analyze(query))
    assert statistics.programs_compiled == 0
    assert statistics.decompositions_computed == 0
    # Migrated reports answer the untouched regions; every invalidated
    # query is a range read from the store.
    assert invalidated > 0
    assert statistics.store["hits"] == len(queries)
    range_hits = statistics.range_cache.misses
    assert range_hits == invalidated

    ratio = cold_seconds / max(restart_seconds, 1e-9)
    report_artifact(
        "Restart after an append\n"
        f"  queries               : {len(queries)} COUNT/SUM/MIN/MAX over "
        f"{len(regions)} regions ({invalidated} invalidated by the delta)\n"
        f"  cold process          : {cold_seconds * 1000:.1f} ms\n"
        f"  restarted, appended   : {restart_seconds * 1000:.1f} ms "
        f"({range_hits} range(s) from the store, 0 programs compiled)\n"
        f"  restart speedup       : {ratio:.1f}x")
    bench_record(cold_seconds=cold_seconds, restart_seconds=restart_seconds,
                 speedup=ratio, invalidated=invalidated,
                 stored_ranges_read=range_hits)
