"""Benchmark: region-sharded cell enumeration on a one-component set.

The workload is the regime constraint-component sharding cannot touch: a
chain of overlapping windows along ``t``, each carrying a pile of mutually
overlapping ``u``-bands — one overlap component whose cell enumeration
dominates the solve.  The region splitter fans the enumeration out over
process workers as sub-region decompose tasks and unions the cells into the
serial-identical program.

Assertions are layered by how machine-dependent they are:

* **range equality** (always) — the merged program is the serial program;
* **work split** (always, deterministic) — the largest shard's solver-call
  count must be well below the serial count, i.e. the fan-out really
  parallelises the enumeration instead of replicating it;
* **wall-clock speedup** (>= 4 cores only) — the cold region-sharded bound
  must beat serial; on fewer cores the fan-out pays IPC for little or no
  concurrency, so only the timing is recorded.

Timings land in BENCH_PR5.json via ``bench_record``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.cells import CellDecomposer
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.plan.sharding import partition_constraint_indices
from repro.relational.aggregates import AggregateFunction

AGGREGATES = [(AggregateFunction.COUNT, None), (AggregateFunction.SUM, "v"),
              (AggregateFunction.MIN, "v"), (AggregateFunction.MAX, "v"),
              (AggregateFunction.AVG, "v")]

WINDOWS = 8
BANDS_PER_WINDOW = 4
WORKERS = 4


def one_component_pcset() -> PredicateConstraintSet:
    """A chained 2-D workload: windows overlap along ``t``, bands along ``u``."""
    bands = [(0.0, 40.0), (25.0, 65.0), (50.0, 90.0), (75.0, 100.0)]
    constraints = []
    for window in range(WINDOWS):
        for band in range(BANDS_PER_WINDOW):
            low, high = bands[band % len(bands)]
            predicate = Predicate.range("t", 15.0 * window,
                                        15.0 * window + 18.0) \
                .with_range("u", low, high)
            constraints.append(PredicateConstraint(
                predicate, ValueConstraint({"v": (0.0, 100.0)}),
                FrequencyConstraint(0, 50),
                name=f"w{window}b{band}"))
    return PredicateConstraintSet(constraints)


def test_region_sharded_enumeration_vs_serial(bench_record):
    from repro.parallel.pool import WorkerPool

    pcset = one_component_pcset()
    assert len(partition_constraint_indices(pcset)) == 1  # truly unshardable

    serial = PCBoundSolver(pcset, BoundOptions(check_closure=False))
    started = time.perf_counter()
    serial_result = serial.bound(AggregateFunction.COUNT)
    serial_seconds = time.perf_counter() - started
    serial_calls = serial.decomposition_solver_calls

    with WorkerPool(max_workers=WORKERS, mode="process",
                    name="bench-region") as pool:
        pool.start()  # exclude worker fork from the timed section
        region = PCBoundSolver(
            pcset, BoundOptions(check_closure=False, solve_workers=WORKERS),
            worker_pool=pool)
        started = time.perf_counter()
        region_result = region.bound(AggregateFunction.COUNT)
        region_seconds = time.perf_counter() - started

        # Identity: the merged program is the serial program.
        assert (region_result.lower, region_result.upper) == \
            (serial_result.lower, serial_result.upper)
        sharded = region.sharded_plan(None)
        assert sharded.strategy == "region" and len(sharded) >= 2
        assert pool.statistics.tasks_dispatched >= 2

        # Work split (deterministic): the critical-path shard must carry
        # well under the serial enumeration's cost.
        per_shard_calls = []
        for shard in sharded:
            decomposition = CellDecomposer(shard.plan.pcset).decompose(
                shard.plan.query.region)
            per_shard_calls.append(decomposition.statistics.solver_calls)
        assert max(per_shard_calls) <= 0.8 * serial_calls, (
            f"critical shard pays {max(per_shard_calls)} of "
            f"{serial_calls} serial solver calls — the split did not "
            f"parallelise the enumeration")

        # Warm mixed-aggregate batch: parameter patches into one program.
        started = time.perf_counter()
        for aggregate, attribute in AGGREGATES:
            expected = serial.bound(aggregate, attribute)
            actual = region.bound(aggregate, attribute)
            assert (actual.lower, actual.upper) == \
                (expected.lower, expected.upper), aggregate
        warm_seconds = time.perf_counter() - started

    speedup = serial_seconds / region_seconds if region_seconds else 0.0
    bench_record(
        constraints=len(pcset),
        workers=WORKERS,
        shards=len(sharded),
        serial_solver_calls=serial_calls,
        critical_shard_solver_calls=max(per_shard_calls),
        serial_cold_seconds=serial_seconds,
        region_cold_seconds=region_seconds,
        cold_speedup=speedup,
        warm_mixed_batch_seconds=warm_seconds,
    )
    print(f"\nregion sharding: serial {serial_seconds * 1000:.0f} ms "
          f"({serial_calls} SAT calls), region x{len(sharded)} "
          f"{region_seconds * 1000:.0f} ms (critical shard "
          f"{max(per_shard_calls)} calls, {speedup:.2f}x), "
          f"warm batch {warm_seconds * 1000:.0f} ms")
    if (os.cpu_count() or 1) >= 4:
        assert speedup > 1.1, (
            f"region-sharded enumeration only {speedup:.2f}x vs serial")
    else:
        pytest.skip(f"{os.cpu_count()} core(s): equality and work-split "
                    "asserted; wall-clock speedup not meaningful")
