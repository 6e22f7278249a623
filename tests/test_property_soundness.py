"""Randomized soundness properties of the bounding pipeline, all paths.

The framework's one non-negotiable contract is *soundness*: whenever the
missing partition satisfies the predicate-constraint set, the true aggregate
answer lies inside the returned result range.  This harness generates seeded
synthetic datasets, derives constraint sets from the missing partition (so
satisfaction holds by construction), fires randomized queries across every
aggregate, and asserts the contract on each execution path the parallel
fan-out work introduced:

* the serial compiled-program pipeline (the baseline),
* the sharded fan-out path (``solve_workers > 1``) — which additionally
  must return ranges *identical* to serial on exact enumeration,
* the service batch executor (thread fan-out through the caches),
* the cross-backend verification path (ranges intersected across two
  backends must still contain the truth and equal the serial range).

Scenarios deliberately cover the three structural regimes: disjoint
partitions (the fast greedy path, many shards), overlapping boxes (coupled
MILPs, usually one component), and mandatory-row partitions (exact counts,
non-trivial lower bounds and forced extrema).
"""

from __future__ import annotations

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
from repro.service import ContingencyService

AGGREGATES = [
    (AggregateFunction.COUNT, None),
    (AggregateFunction.SUM, "v"),
    (AggregateFunction.AVG, "v"),
    (AggregateFunction.MIN, "v"),
    (AggregateFunction.MAX, "v"),
]


def make_relation(rng: np.random.Generator, rows: int) -> Relation:
    """A synthetic two-column relation: a dimension ``t`` and a measure ``v``."""
    schema = Schema.from_pairs([("t", ColumnType.FLOAT), ("v", ColumnType.FLOAT)])
    t = rng.uniform(0.0, 100.0, rows)
    v = np.round(rng.normal(50.0, 25.0, rows), 3)
    return Relation.from_rows(schema, list(zip(t.tolist(), v.tolist())),
                              name="synthetic")


def split_missing(relation: Relation,
                  rng: np.random.Generator) -> tuple[Relation, Relation]:
    """Randomly split into (observed, missing) partitions."""
    mask = rng.random(relation.num_rows) < 0.5
    observed = relation.take(np.flatnonzero(mask).tolist())
    missing = relation.take(np.flatnonzero(~mask).tolist())
    return observed, missing


def random_queries(rng: np.random.Generator,
                   per_aggregate: int) -> list[ContingencyQuery]:
    """Randomized regions (plus the unrestricted query) for every aggregate."""
    queries: list[ContingencyQuery] = []
    for aggregate, attribute in AGGREGATES:
        queries.append(ContingencyQuery(aggregate, attribute, None))
        for _ in range(per_aggregate):
            low = float(rng.uniform(0.0, 80.0))
            width = float(rng.uniform(5.0, 40.0))
            region = Predicate.range("t", low, low + width)
            queries.append(ContingencyQuery(aggregate, attribute, region))
    return queries


def scenario(seed: int, kind: str):
    """One (missing, pcset, queries) soundness scenario."""
    rng = np.random.default_rng(seed)
    relation = make_relation(rng, rows=400)
    observed, missing = split_missing(relation, rng)
    if kind == "disjoint":
        pcset = build_partition_pcs(missing, ["t"], 8)
    elif kind == "mandatory":
        pcset = build_partition_pcs(missing, ["t"], 6, exact_counts=True)
    else:
        pcset = build_random_overlapping_boxes(missing, ["t"], 5, rng=rng)
    queries = random_queries(rng, per_aggregate=2)
    return relation, observed, missing, pcset, queries


def assert_contains(result_range, truth, query, label: str) -> None:
    assert result_range.contains(truth), (
        f"{label}: {query.describe()} returned "
        f"[{result_range.lower}, {result_range.upper}] "
        f"which does not contain the true answer {truth}")


def _assert_endpoint(first: float | None, second: float | None,
                     detail: tuple) -> None:
    if first is None or second is None:
        assert first == second, detail
    else:
        assert first == pytest.approx(second, rel=1e-9, abs=1e-9), detail


def assert_same_range(first, second, query, label: str) -> None:
    detail = (label, query.describe(), str(first), str(second))
    _assert_endpoint(first.lower, second.lower, detail)
    _assert_endpoint(first.upper, second.upper, detail)


@pytest.mark.parametrize("seed", [101, 202])
@pytest.mark.parametrize("kind", ["disjoint", "overlapping", "mandatory"])
def test_serial_and_sharded_ranges_sound_and_identical(seed, kind):
    """Truth ∈ range on the serial and sharded paths, and the paths agree."""
    _, _, missing, pcset, queries = scenario(seed, kind)
    serial = PCBoundSolver(pcset, BoundOptions())
    sharded = PCBoundSolver(pcset, BoundOptions(solve_workers=3))
    for query in queries:
        truth = query.ground_truth(missing)
        serial_range = serial.bound(query.aggregate, query.attribute,
                                    query.region)
        sharded_range = sharded.bound(query.aggregate, query.attribute,
                                      query.region)
        assert_contains(serial_range, truth, query, "serial")
        assert_contains(sharded_range, truth, query, "sharded")
        assert_same_range(serial_range, sharded_range, query,
                          "sharded vs serial")


@pytest.mark.parametrize("seed", [303])
@pytest.mark.parametrize("kind", ["disjoint", "overlapping"])
def test_combined_ranges_contain_full_relation_truth(seed, kind):
    """With an observed partition, reported ranges cover the full relation."""
    relation, observed, _, pcset, queries = scenario(seed, kind)
    analyzer = PCAnalyzer(pcset, observed=observed, options=BoundOptions())
    parallel_analyzer = PCAnalyzer(pcset, observed=observed,
                                   options=BoundOptions(solve_workers=3))
    for query in queries:
        truth = query.ground_truth(relation)
        report = analyzer.analyze(query)
        assert_contains(report.result_range, truth, query, "serial analyze")
        parallel_report = parallel_analyzer.analyze(query)
        assert_contains(parallel_report.result_range, truth, query,
                        "sharded analyze")
        assert_same_range(report.result_range, parallel_report.result_range,
                          query, "sharded analyze vs serial")


@pytest.mark.parametrize("kind", ["disjoint", "overlapping"])
def test_batch_fanout_matches_serial_and_stays_sound(kind):
    """The service batch fan-out returns the same sound ranges as serial."""
    relation, observed, _, pcset, queries = scenario(404, kind)
    analyzer = PCAnalyzer(pcset, observed=observed, options=BoundOptions())
    service = ContingencyService(max_workers=4)
    service.register("soundness", pcset, observed=observed)
    result = service.execute_batch("soundness", queries)
    for query, report in zip(queries, result.reports):
        truth = query.ground_truth(relation)
        assert_contains(report.result_range, truth, query, "batch fan-out")
        serial_report = analyzer.analyze(query)
        assert_same_range(serial_report.result_range, report.result_range,
                          query, "batch fan-out vs serial")


@pytest.mark.parametrize("kind", ["disjoint", "overlapping", "mandatory"])
def test_cross_backend_verification_sound_and_identical(kind):
    """Verified ranges (scipy ∩ branch-and-bound) equal serial and hold truth.

    The intersection of two sound ranges can only tighten, and on exact
    backends both ranges are equal, so verification must be a behavioural
    no-op on healthy solvers — while still exercising the full alarm path.
    """
    _, _, missing, pcset, queries = scenario(505, kind)
    serial = PCBoundSolver(pcset, BoundOptions())
    verified = PCBoundSolver(pcset, BoundOptions(
        verify_backend="branch-and-bound"))
    for query in queries:
        truth = query.ground_truth(missing)
        serial_range = serial.bound(query.aggregate, query.attribute,
                                    query.region)
        verified_range = verified.bound(query.aggregate, query.attribute,
                                        query.region)
        assert_contains(verified_range, truth, query, "cross-backend")
        assert_same_range(serial_range, verified_range, query,
                          "cross-backend vs serial")


@pytest.mark.parametrize("seed", [707, 808])
@pytest.mark.parametrize("kind", ["disjoint", "overlapping", "mandatory"])
def test_sharded_avg_matches_serial_and_stays_sound(seed, kind):
    """Cross-shard AVG (the pooled Dinkelbach search) equals the serial one.

    AVG is the one aggregate whose bounds do not merge from independent
    shard ranges — the search couples every cell through the shared
    target.  The cross-shard search instead exchanges per-shard
    ``value − target`` optima and allocation sums once per probe, and both
    searches end on the exact extremes rounded outward: same endpoints.
    Covered regimes: no observed partition (the floored search), an
    observed partition (``known_count > 0``), and randomized regions.
    """
    relation, observed, missing, pcset, _ = scenario(seed, kind)
    serial = PCBoundSolver(pcset, BoundOptions())
    sharded = PCBoundSolver(pcset, BoundOptions(solve_workers=3))
    rng = np.random.default_rng(seed)
    regions = [None] + [Predicate.range("t", low, low + 30.0)
                        for low in rng.uniform(0.0, 60.0, 3)]
    for region in regions:
        query = ContingencyQuery.avg("v", region)
        truth = query.ground_truth(missing)
        serial_range = serial.bound(AggregateFunction.AVG, "v", region)
        sharded_range = sharded.bound(AggregateFunction.AVG, "v", region)
        assert_contains(sharded_range, truth, query, "sharded AVG")
        assert_same_range(serial_range, sharded_range, query,
                          "sharded AVG vs serial")
    # With an observed partition the search carries (known_sum, known_count)
    # — the unfloored regime, where the probe objective is fully separable.
    serial_analyzer = PCAnalyzer(pcset, observed=observed,
                                 options=BoundOptions())
    sharded_analyzer = PCAnalyzer(pcset, observed=observed,
                                  options=BoundOptions(solve_workers=3))
    for region in regions:
        query = ContingencyQuery.avg("v", region)
        truth = query.ground_truth(relation)
        serial_report = serial_analyzer.analyze(query)
        sharded_report = sharded_analyzer.analyze(query)
        assert_contains(sharded_report.result_range, truth, query,
                        "sharded AVG analyze")
        assert_same_range(serial_report.result_range,
                          sharded_report.result_range, query,
                          "sharded AVG analyze vs serial")


def test_sharded_avg_through_process_pool_matches_serial():
    """The same equality holds when the probes run on process workers."""
    from repro.parallel.pool import WorkerPool

    _, _, missing, pcset, _ = scenario(909, "mandatory")
    serial = PCBoundSolver(pcset, BoundOptions())
    with WorkerPool(max_workers=3, mode="process", name="avg-test") as pool:
        sharded = PCBoundSolver(pcset, BoundOptions(solve_workers=3),
                                worker_pool=pool)
        query = ContingencyQuery.avg("v", None)
        truth = query.ground_truth(missing)
        serial_range = serial.bound(AggregateFunction.AVG, "v")
        pooled_range = sharded.bound(AggregateFunction.AVG, "v")
        assert_contains(pooled_range, truth, query, "process-pool AVG")
        assert_same_range(serial_range, pooled_range, query,
                          "process-pool AVG vs serial")


@pytest.mark.parametrize("seed", [111, 222])
@pytest.mark.parametrize("kind", ["disjoint", "overlapping", "mandatory"])
def test_region_sharded_matches_component_sharded_and_serial(seed, kind):
    """Region-sharded and component-sharded == serial, truth inside both.

    One sharded solver serves every scenario, and the plan picks its
    layout: the disjoint and mandatory scenarios split by constraint
    component, and the overlapping ones — one overlap component that
    component splitting cannot shard — split by query region.  The region
    splitter's contract is *identity*: its shards merge at the cell level
    into the serial program, so every aggregate — AVG included — must
    return the serial range bit-for-bit.
    """
    _, _, missing, pcset, queries = scenario(seed, kind)
    serial = PCBoundSolver(pcset, BoundOptions())
    sharded = PCBoundSolver(pcset, BoundOptions(solve_workers=3))
    layout = sharded.sharded_plan(None, "v")
    assert layout.is_sharded
    assert layout.strategy == ("region" if kind == "overlapping"
                               else "component")
    for query in queries:
        truth = query.ground_truth(missing)
        serial_range = serial.bound(query.aggregate, query.attribute,
                                    query.region)
        sharded_range = sharded.bound(query.aggregate, query.attribute,
                                      query.region)
        assert_contains(serial_range, truth, query, "serial")
        assert_contains(sharded_range, truth, query,
                        f"{layout.strategy}-sharded")
        assert_same_range(serial_range, sharded_range, query,
                          f"{layout.strategy}-sharded vs serial")


def test_region_sharding_engages_on_one_component_sets():
    """The acceptance scenario: a one-component set actually fans out.

    Component splitting cannot shard the overlapping scenario (one overlap
    component), so before this PR it solved serially no matter how many
    workers were requested; the region splitter must produce >= 2 shards,
    dispatch their enumerations to the worker pool, and still return serial
    ranges for every aggregate.
    """
    from repro.parallel.pool import WorkerPool

    _, _, missing, pcset, _ = scenario(131, "overlapping")
    serial = PCBoundSolver(pcset, BoundOptions())
    with WorkerPool(max_workers=3, mode="process",
                    name="acceptance") as pool:
        region = PCBoundSolver(pcset, BoundOptions(solve_workers=3),
                               worker_pool=pool)
        sharded = region.sharded_plan(None, "v")
        assert sharded.strategy == "region" and len(sharded) >= 2
        # Component splitting really cannot shard this set (one component).
        from repro.plan.sharding import ConstraintComponentSharding
        assert not ConstraintComponentSharding().split(
            sharded.parent).is_sharded
        before = pool.statistics.tasks_dispatched
        for aggregate, attribute in AGGREGATES:
            query = ContingencyQuery(aggregate, attribute, None)
            truth = query.ground_truth(missing)
            serial_range = serial.bound(aggregate, attribute)
            region_range = region.bound(aggregate, attribute)
            assert_contains(region_range, truth, query, "region acceptance")
            assert_same_range(serial_range, region_range, query,
                              "region acceptance vs serial")
        assert pool.statistics.tasks_dispatched >= before + 2


def test_sharded_verified_combination_is_sound():
    """Sharding and verification compose: fan out, cross-check, stay sound."""
    _, _, missing, pcset, queries = scenario(606, "disjoint")
    combined = PCBoundSolver(pcset, BoundOptions(
        solve_workers=3, verify_backend="branch-and-bound"))
    serial = PCBoundSolver(pcset, BoundOptions())
    for query in queries:
        truth = query.ground_truth(missing)
        combined_range = combined.bound(query.aggregate, query.attribute,
                                        query.region)
        assert_contains(combined_range, truth, query, "sharded+verified")
        serial_range = serial.bound(query.aggregate, query.attribute,
                                    query.region)
        assert_same_range(serial_range, combined_range, query,
                          "sharded+verified vs serial")


# --------------------------------------------------------------------- #
# Batched multi-solve kernel equivalence (PR 7)
# --------------------------------------------------------------------- #
def _random_compiled_milp(rng, *, pure_box: bool):
    """A random compiled skeleton shaped like the cell-allocation programs."""
    from repro.solvers.milp import CompiledMILP

    count = int(rng.integers(2, 7))
    upper = [float(rng.integers(1, 9)) for _ in range(count)]
    if pure_box:
        return CompiledMILP(upper), count
    rows = []
    row_upper = []
    for _ in range(int(rng.integers(1, 4))):
        members = rng.choice(count, size=max(2, count // 2), replace=False)
        row = np.zeros(count)
        row[members] = 1.0
        rows.append(row)
        row_upper.append(float(rng.integers(2, 12)))
    return CompiledMILP(upper, rows, row_upper=row_upper), count


@pytest.mark.parametrize("seed", [31, 32])
@pytest.mark.parametrize("pure_box", [True, False])
def test_solve_objectives_matches_row_by_row(seed, pure_box):
    """The kernel contract: one matrix call == the per-row scalar calls.

    Bit-identical, not approximately equal: the batched path must use the
    same endpoint selection and the same dot-product summation order as
    ``solve_objective``, on both the vectorized-greedy (pure box) and the
    prebuilt-scipy (constrained) paths.
    """
    from repro.solvers.lp import Sense

    rng = np.random.default_rng(seed)
    compiled, count = _random_compiled_milp(rng, pure_box=pure_box)
    matrix = rng.normal(0.0, 5.0, size=(7, count))
    matrix[0] = 0.0  # the all-zero objective row
    for sense in (Sense.MAXIMIZE, Sense.MINIMIZE):
        batch = compiled.solve_objectives(matrix, sense)
        assert len(batch) == matrix.shape[0]
        for row, solution in enumerate(batch):
            want_status, want_value = compiled.solve_objective(
                matrix[row], sense)
            assert solution.status is want_status, (sense, row)
            assert solution.objective == want_value, (
                sense, row, solution.objective, want_value)


#: The backends whose batched paths these tests compare: each solves the
#: same compiled arrays, one backend call per coupled objective row.
#: Whether a backend's ranges are the true extremes is
#: ``tests/test_range_oracle.py``'s question; here a range must not depend
#: on its batch or on the fan-out.
REFERENCE_BACKENDS = ["scipy", "branch-and-bound", "relaxation"]


@pytest.mark.parametrize("backend", REFERENCE_BACKENDS)
def test_bound_batch_matches_per_request_across_backends(backend):
    """One ``bound_batch`` == width-1 ``bound`` calls, on every backend.

    A range must not depend on what else shares its batch.  The reference
    is a fresh program of the same backend answering one request per
    call, so it shares no skeleton and no kernel entry with the batch under
    test; all five aggregates must agree (up to float summation order, like
    every path comparison in this harness).
    """
    _, _, _, pcset, _ = scenario(606, "mandatory")
    program = PCBoundSolver(pcset, BoundOptions(milp_backend=backend)
                            ).program(None, "v")
    reference = PCBoundSolver(pcset, BoundOptions(milp_backend=backend)
                              ).program(None, "v")
    requests = [(aggregate, 0.0, 0) for aggregate, _ in AGGREGATES]
    requests.append((AggregateFunction.AVG, 42.0, 11))
    batch = program.bound_batch(requests)
    for (aggregate, known_sum, known_count), got in zip(requests, batch):
        want = reference.bound(aggregate, known_sum=known_sum,
                               known_count=known_count)
        detail = (backend, aggregate, str(got), str(want))
        _assert_endpoint(got.lower, want.lower, detail)
        _assert_endpoint(got.upper, want.upper, detail)
        assert got.closed == want.closed, detail


@pytest.mark.parametrize("seed", [515, 616])
@pytest.mark.parametrize("kind", ["disjoint", "overlapping", "mandatory"])
def test_batched_solves_identical_to_unbatched(seed, kind):
    """Sharded solves == the same backend's serial solves.

    The sharded solver (``solve_workers=3``) batches each shard's solves
    and merges them, or fans out the enumeration, and must return the same
    endpoints (up to float summation order) as one serial program for all
    five aggregates on all three backends.
    """
    _, _, _, pcset, queries = scenario(seed, kind)
    for backend in REFERENCE_BACKENDS:
        serial = PCBoundSolver(pcset, BoundOptions(milp_backend=backend))
        sharded = PCBoundSolver(pcset, BoundOptions(milp_backend=backend,
                                                    solve_workers=3))
        for query in queries:
            want = serial.bound(query.aggregate, query.attribute,
                                query.region)
            got = sharded.bound(query.aggregate, query.attribute,
                                query.region)
            assert_same_range(want, got, query,
                              f"{backend} sharded vs serial")
            assert got.closed == want.closed, (backend, query.describe())


def test_batched_process_pool_matches_serial():
    """Batched task kinds through real process workers == serial ranges.

    Covers solve_batch (sharded COUNT/SUM/MIN/MAX), probe_batch (the
    cross-shard AVG search) and the batched region decomposition, against
    the serial baseline on the same constraint set, which must itself
    contain the ground truth.
    """
    from repro.parallel.pool import WorkerPool

    _, _, missing, pcset, queries = scenario(505, "mandatory")
    serial = PCBoundSolver(pcset, BoundOptions())
    baseline = {}
    for query in queries:
        result = serial.bound(query.aggregate, query.attribute, query.region)
        baseline[id(query)] = result
        truth = query.ground_truth(missing)
        assert_contains(result, truth, query, "serial baseline")
    with WorkerPool(max_workers=3, mode="process", name="batch-test") as pool:
        sharded = PCBoundSolver(pcset, BoundOptions(solve_workers=3),
                                worker_pool=pool)
        for query in queries:
            pooled = sharded.bound(query.aggregate, query.attribute,
                                   query.region)
            assert_same_range(baseline[id(query)], pooled, query,
                              "batched process pool vs serial")
        avg = ContingencyQuery.avg("v", None)
        pooled = sharded.bound(AggregateFunction.AVG, "v", None)
        assert_same_range(serial.bound(AggregateFunction.AVG, "v", None),
                          pooled, avg, "batched process AVG vs serial")
        assert pool.statistics.cells_solved >= pool.statistics.tasks_shipped
