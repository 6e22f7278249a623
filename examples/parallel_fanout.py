"""Walkthrough: plan sharding, the persistent worker pool, and verification.

Run with::

    PYTHONPATH=src python examples/parallel_fanout.py

Builds a partitioned constraint set (whose overlap graph splits into many
independent components), compares the serial and sharded execution paths —
including the cross-shard AVG search (Dinkelbach's iteration, whose shards
answer each probe's optimum and allocation sums) — reuses one persistent process
pool across repeated service batches to show the warm worker caches at
work, and demonstrates the cross-backend verification oracle, including
what the alarm looks like when a backend is deliberately broken.
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    BoundOptions,
    ContingencyQuery,
    ContingencyService,
    PCBoundSolver,
    Predicate,
    Relation,
    Schema,
)
from repro.core.builders import build_partition_pcs
from repro.exceptions import DisjointRangeError
from repro.relational.aggregates import AggregateFunction
from repro.relational.schema import ColumnType
from repro.solvers.lp import LPSolution, SolutionStatus
from repro.solvers.registry import register_backend, resolve_backend


def build_scenario():
    rng = np.random.default_rng(1234)
    schema = Schema.from_pairs([("t", ColumnType.FLOAT), ("v", ColumnType.FLOAT)])
    rows = np.column_stack([rng.uniform(0.0, 100.0, 2000),
                            rng.uniform(1.0, 60.0, 2000)])
    relation = Relation.from_rows(schema, [tuple(row) for row in rows],
                                  name="telemetry")
    pcset = build_partition_pcs(relation, ["t"], 32, exact_counts=True)
    return relation, pcset


def main() -> None:
    _, pcset = build_scenario()

    # --- plan sharding --------------------------------------------------
    serial = PCBoundSolver(pcset, BoundOptions())
    sharded = PCBoundSolver(pcset, BoundOptions(solve_workers=4))
    plan = sharded.sharded_plan(None)
    print(f"constraints: {len(pcset)}, shards: {len(plan)} "
          f"(largest {max(len(s.pcset) for s in plan)} constraints)")

    for aggregate, attribute in [(AggregateFunction.COUNT, None),
                                 (AggregateFunction.SUM, "v"),
                                 (AggregateFunction.MAX, "v"),
                                 (AggregateFunction.AVG, "v")]:
        started = time.perf_counter()
        serial_range = serial.bound(aggregate, attribute)
        serial_ms = (time.perf_counter() - started) * 1000
        started = time.perf_counter()
        sharded_range = sharded.bound(aggregate, attribute)
        sharded_ms = (time.perf_counter() - started) * 1000
        note = " (cross-shard search)" if aggregate is AggregateFunction.AVG \
            else ""
        print(f"  {aggregate.value:>5s}: serial {serial_range} "
              f"({serial_ms:.1f} ms)  sharded {sharded_range} "
              f"({sharded_ms:.1f} ms){note}")

    # --- pool reuse across batches --------------------------------------
    # One persistent process pool serves every batch: the first batch
    # registers the session on each worker and ships compiled skeletons to
    # their affinity workers; later batches ship only keys and queries.
    queries = [ContingencyQuery.sum("v", Predicate.range("t", 10.0 * i,
                                                         10.0 * i + 20.0))
               for i in range(5)]
    queries += [ContingencyQuery.avg("v", Predicate.range("t", 10.0 * i,
                                                          10.0 * i + 20.0))
                for i in range(5)]
    with ContingencyService(max_workers=4, pool_mode="process") as pooled:
        pooled.register("telemetry", pcset)
        for round_number in (1, 2, 3):
            pooled.report_cache.clear()  # re-solve; only the pool stays warm
            started = time.perf_counter()
            batch = pooled.execute_batch("telemetry", queries)
            elapsed_ms = (time.perf_counter() - started) * 1000
            traffic = batch.statistics.pool_statistics
            print(f"batch {round_number}: {elapsed_ms:.1f} ms — "
                  f"{traffic['programs_shipped']} program(s) shipped, "
                  f"{traffic['warm_hits']} warm hit(s), "
                  f"{traffic['sessions_shipped']} session ship(s)")
        print(f"pool after 3 batches: "
              f"{pooled.worker_pool.statistics.warm_hit_rate:.0%} warm-hit "
              f"rate over {pooled.worker_pool.max_workers} workers")

    # --- cross-backend verification ------------------------------------
    service = ContingencyService(verify_backend="branch-and-bound")
    service.register("telemetry", pcset)
    report = service.analyze("telemetry",
                             ContingencyQuery.sum("v",
                                                  Predicate.range("t", 10, 60)))
    print(f"verified SUM range: [{report.lower}, {report.upper}] "
          "(scipy ∩ branch-and-bound)")

    # --- what the alarm looks like --------------------------------------
    def lying_backend(milp, c, sense):
        solution = resolve_backend("scipy")(milp, c, sense)
        if solution.status is not SolutionStatus.OPTIMAL:
            return solution
        return LPSolution(SolutionStatus.OPTIMAL,
                          (solution.objective or 0.0) * 7.0, solution.x)

    register_backend("example-lying-backend", lying_backend, replace=True)
    broken = PCBoundSolver(pcset, BoundOptions(
        verify_backend="example-lying-backend"))
    try:
        broken.bound(AggregateFunction.COUNT)
    except DisjointRangeError as error:
        print(f"alarm fired as expected:\n  {error}")


if __name__ == "__main__":
    main()
