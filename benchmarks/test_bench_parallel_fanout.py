"""Benchmark: parallel solve fan-out vs. serial on a warm multi-region batch.

The acceptance claim: once programs are compiled (warm), a multi-region
batch fanned out over 4 process workers finishes at least half the ideal
speedup faster than the same batch on 1 worker — ``0.5 * min(cores, 4)``,
so 2x on 4 or more cores and 1x on 2 — while returning byte-identical
ranges.  Process mode is pinned because it is the fastest pool mode on this
MILP-heavy batch: HiGHS releases the GIL while it solves, so a thread pool
did speed it up (1.65x with 2 workers on a 2-vCPU VM), but process workers
did better (1.77x), and the process pool is the only fan-out mode the
worker pool keeps.

Range equality is asserted unconditionally.  The speedup assertion needs
hardware parallelism, so the benchmark skips on single-core runners instead
of reporting a number no machine could achieve.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.builders import (
    build_partition_pcs,
    build_random_overlapping_boxes,
)
from repro.core.engine import ContingencyQuery, PCAnalyzer
from repro.core.predicates import Predicate
from repro.relational.aggregates import AggregateFunction
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema
from repro.service.batch import BatchExecutor

WORKERS = 4
REGIONS = 16


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def coupled_scenario() -> tuple[PCAnalyzer, list[ContingencyQuery]]:
    """Heavily-overlapping constraints: every solve is a real coupled MILP."""
    rng = np.random.default_rng(7)
    schema = Schema.from_pairs([("t", ColumnType.FLOAT),
                                ("v", ColumnType.FLOAT)])
    rows = np.column_stack([rng.uniform(0.0, 34.0, 3000),
                            rng.uniform(1.0, 200.0, 3000)])
    relation = Relation.from_rows(schema, [tuple(row) for row in rows],
                                  name="fanout")
    pcset = build_random_overlapping_boxes(relation, ["t"], 12, rng=rng)
    # An observed partition makes every AVG query a real search
    # (known_count > 0 disables the extreme-cell fast path): each query is
    # then a handful of coupled MILP solves per direction (Dinkelbach's
    # iteration), the workload worth fanning out.
    observed_rows = np.column_stack([rng.uniform(0.0, 34.0, 400),
                                     rng.uniform(1.0, 200.0, 400)])
    observed = Relation.from_rows(schema, [tuple(row) for row in observed_rows],
                                  name="observed")
    analyzer = PCAnalyzer(pcset, observed=observed,
                          options=BoundOptions(check_closure=False))
    regions = [Predicate.range("t", 2.0 * index, 2.0 * index + 6.0)
               for index in range(REGIONS)]
    # AVG dominates: each query is an iterated search of coupled MILP
    # solves, the production-shaped "expensive dashboard" workload.
    queries = [ContingencyQuery.avg("v", region) for region in regions]
    queries += [ContingencyQuery.sum("v", region) for region in regions]
    return analyzer, queries


def run_batch(analyzer: PCAnalyzer, queries: list[ContingencyQuery],
              workers: int, mode: str):
    executor = BatchExecutor(max_workers=workers, mode=mode)
    started = time.perf_counter()
    result = executor.execute(analyzer, queries)
    elapsed = time.perf_counter() - started
    return result, elapsed


def test_bench_warm_multi_region_batch_fanout(report_artifact, bench_record):
    """Warm batch, workers=4 process fan-out vs workers=1: at least half the
    ideal speedup for the available cores, same ranges."""
    analyzer, queries = coupled_scenario()
    # Warm every program outside the timed sections: the claim is about
    # solve fan-out, not compilation.
    for query in queries:
        analyzer.solver.program(query.region, query.attribute)

    serial_result, serial_seconds = run_batch(analyzer, queries, 1, "serial")
    fanout_result, fanout_seconds = run_batch(analyzer, queries, WORKERS,
                                              "process")

    serial_ranges = [(r.lower, r.upper) for r in serial_result.reports]
    fanout_ranges = [(r.lower, r.upper) for r in fanout_result.reports]
    # Identical ranges come first: fan-out changes cost, never results.
    assert fanout_ranges == serial_ranges

    ratio = serial_seconds / max(fanout_seconds, 1e-9)
    cores = available_cores()
    report_artifact(
        "Warm multi-region batch: process fan-out vs serial\n"
        f"  queries              : {len(queries)} over {REGIONS} regions\n"
        f"  available cores      : {cores}\n"
        f"  workers=1 (serial)   : {serial_seconds:.2f} s\n"
        f"  workers={WORKERS} (process)  : {fanout_seconds:.2f} s\n"
        f"  speedup              : {ratio:.2f}x")
    bench_record(serial_seconds=serial_seconds, fanout_seconds=fanout_seconds,
                 speedup=ratio, workers=WORKERS, cores=cores)
    if cores < 2:
        pytest.skip(f"parallel speedup needs >= 2 cores, found {cores}; "
                    "range-equality was still asserted")
    # Acceptance: half the ideal speedup the cores allow, which is 2x on
    # 4 workers with >= 4 cores.
    assert ratio >= 0.5 * min(cores, WORKERS)


def test_bench_sharded_single_query_fanout(report_artifact, bench_record):
    """Plan sharding on a wide disjoint partition: identical ranges, and the
    shard programs are strictly smaller than the monolithic one."""
    rng = np.random.default_rng(11)
    schema = Schema.from_pairs([("t", ColumnType.FLOAT),
                                ("v", ColumnType.FLOAT)])
    rows = np.column_stack([rng.uniform(0.0, 100.0, 4000),
                            rng.uniform(1.0, 50.0, 4000)])
    relation = Relation.from_rows(schema, [tuple(row) for row in rows],
                                  name="sharded")
    pcset = build_partition_pcs(relation, ["t"], 64, exact_counts=True)

    serial = PCBoundSolver(pcset, BoundOptions(check_closure=False))
    sharded = PCBoundSolver(pcset, BoundOptions(check_closure=False,
                                                solve_workers=WORKERS))
    aggregates = [(AggregateFunction.COUNT, None), (AggregateFunction.SUM, "v"),
                  (AggregateFunction.MIN, "v"), (AggregateFunction.MAX, "v")]

    started = time.perf_counter()
    serial_ranges = [serial.bound(aggregate, attribute)
                     for aggregate, attribute in aggregates]
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    sharded_ranges = [sharded.bound(aggregate, attribute)
                      for aggregate, attribute in aggregates]
    sharded_seconds = time.perf_counter() - started

    # Equal up to float summation order: the additive merge folds 64 shard
    # optima in a different association than the monolithic dot product.
    for sharded_range, serial_range in zip(sharded_ranges, serial_ranges):
        assert sharded_range.lower == pytest.approx(serial_range.lower,
                                                    rel=1e-12)
        assert sharded_range.upper == pytest.approx(serial_range.upper,
                                                    rel=1e-12)

    plan = sharded.sharded_plan(None, "v")
    largest_shard = max(len(shard.pcset) for shard in plan)
    report_artifact(
        "Single-query plan sharding on a 64-window partition\n"
        f"  shards               : {len(plan)} "
        f"(largest {largest_shard} of {len(pcset)} constraints)\n"
        f"  serial               : {serial_seconds * 1000:.1f} ms\n"
        f"  sharded (4 workers)  : {sharded_seconds * 1000:.1f} ms")
    bench_record(serial_seconds=serial_seconds,
                 sharded_seconds=sharded_seconds,
                 speedup=serial_seconds / max(sharded_seconds, 1e-9),
                 shards=len(plan), workers=WORKERS)
    assert plan.is_sharded
    assert largest_shard < len(pcset)
