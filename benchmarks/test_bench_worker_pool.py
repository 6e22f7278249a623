"""Benchmark: the cross-shard AVG search on the persistent worker pool.

AVG's Dinkelbach iteration couples every cell through the shared target,
but for a fixed target the ``value − target`` objective separates across
plan shards, so each iteration fans out over the pool and adds the
per-shard optima and allocation sums.  Range equality with the serial
search is asserted unconditionally; the timings are recorded, not gated.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.builders import build_partition_pcs
from repro.relational.aggregates import AggregateFunction
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema

WORKERS = 4


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def test_bench_cross_shard_avg(report_artifact, bench_record):
    """Cross-shard AVG: identical ranges to serial, timings recorded."""
    rng = np.random.default_rng(31)
    schema = Schema.from_pairs([("t", ColumnType.FLOAT),
                                ("v", ColumnType.FLOAT)])
    rows = np.column_stack([rng.uniform(0.0, 100.0, 4000),
                            rng.uniform(1.0, 50.0, 4000)])
    relation = Relation.from_rows(schema, [tuple(row) for row in rows],
                                  name="avg-bench")
    pcset = build_partition_pcs(relation, ["t"], 48, exact_counts=True)

    serial = PCBoundSolver(pcset, BoundOptions(check_closure=False))
    sharded = PCBoundSolver(pcset, BoundOptions(check_closure=False,
                                                solve_workers=WORKERS))
    # Compile both paths' programs outside the timed sections.
    serial.program(None)
    sharded_plan = sharded.sharded_plan(None)
    for shard in sharded_plan:
        sharded.shard_program(shard, None)

    started = time.perf_counter()
    serial_range = serial.bound(AggregateFunction.AVG, "v",
                                known_sum=5000.0, known_count=200.0)
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    sharded_range = sharded.bound(AggregateFunction.AVG, "v",
                                  known_sum=5000.0, known_count=200.0)
    sharded_seconds = time.perf_counter() - started

    assert sharded_range.lower == pytest.approx(serial_range.lower, rel=1e-9)
    assert sharded_range.upper == pytest.approx(serial_range.upper, rel=1e-9)

    report_artifact(
        "Cross-shard AVG search on a 48-window mandatory partition\n"
        f"  shards               : {len(sharded_plan)}\n"
        f"  serial search        : {serial_seconds * 1000:.1f} ms\n"
        f"  cross-shard search   : {sharded_seconds * 1000:.1f} ms\n"
        f"  range               : [{serial_range.lower:.4f}, "
        f"{serial_range.upper:.4f}]")
    bench_record(serial_seconds=serial_seconds,
                 sharded_seconds=sharded_seconds,
                 speedup=serial_seconds / max(sharded_seconds, 1e-9),
                 shards=len(sharded_plan), workers=WORKERS,
                 cores=available_cores())
