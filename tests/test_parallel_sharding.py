"""Unit tests for plan sharding, batch fan-out modes and verification.

The randomized harness (test_property_soundness) pins the end-to-end
equivalences; these tests pin the pieces — the overlap-graph partition, the
shard merge algebra, batch-executor mode validation and capability gating,
the pickle-safe program handoff, and the cross-backend alarm actually
firing when a backend is (deliberately) broken.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.core.ranges import ResultRange
from repro.exceptions import DisjointRangeError, SolverError
from repro.plan.ir import BoundQuery, build_plan
from repro.plan.sharding import (
    ConstraintComponentSharding,
    merge_shard_ranges,
    partition_constraint_indices,
)
from repro.relational.aggregates import AggregateFunction
from repro.service import ContingencyService
from repro.solvers.lp import LPSolution, SolutionStatus
from repro.solvers.registry import (
    BackendCapabilities,
    has_backend,
    register_backend,
    resolve_backend,
)


def pc(predicate, lo, hi, name, value_range=(0.0, 10.0)):
    return PredicateConstraint(predicate, ValueConstraint({"v": value_range}),
                               FrequencyConstraint(lo, hi), name=name)


def windows_pcset(count: int = 6, mandatory: bool = False
                  ) -> PredicateConstraintSet:
    """``count`` disjoint unit windows over ``t`` (each its own component)."""
    constraints = [pc(Predicate.range("t", float(i), i + 0.999),
                      5 if mandatory else 0, 10 + i, f"w{i}",
                      value_range=(float(i), float(i + 10)))
                   for i in range(count)]
    pcset = PredicateConstraintSet(constraints)
    pcset.mark_disjoint(True)
    return pcset


def chained_pcset() -> PredicateConstraintSet:
    """Two overlap components: {a, b} (chained) and {c} (isolated)."""
    return PredicateConstraintSet([
        pc(Predicate.range("t", 0, 2), 0, 10, "a"),
        pc(Predicate.range("t", 1, 3), 0, 10, "b"),
        pc(Predicate.range("t", 10, 12), 0, 10, "c"),
    ])


# --------------------------------------------------------------------- #
# Overlap-graph partitioning
# --------------------------------------------------------------------- #
class TestPartitioning:
    def test_disjoint_set_splits_into_singletons(self):
        components = partition_constraint_indices(windows_pcset(5))
        assert components == [(0,), (1,), (2,), (3,), (4,)]

    def test_overlap_chain_forms_one_component(self):
        components = partition_constraint_indices(chained_pcset())
        assert components == [(0, 1), (2,)]

    def test_empty_set(self):
        assert partition_constraint_indices(PredicateConstraintSet()) == []

    def test_shard_plan_groups_respect_max_shards(self):
        plan = build_plan(BoundQuery(AggregateFunction.COUNT), windows_pcset(6))
        sharded = ConstraintComponentSharding().split(plan, max_shards=2)
        assert len(sharded) == 2 and sharded.is_sharded
        merged_indices = sorted(index for shard in sharded
                                for index in shard.indices)
        assert merged_indices == list(range(6))
        # Balanced: 6 singleton components over 2 bins -> 3 + 3.
        assert sorted(len(shard.indices) for shard in sharded) == [3, 3]

    def test_single_component_plan_is_not_sharded(self):
        pcset = PredicateConstraintSet([
            pc(Predicate.range("t", 0, 2), 0, 10, "a"),
            pc(Predicate.range("t", 1, 3), 0, 10, "b"),
        ])
        plan = build_plan(BoundQuery(AggregateFunction.COUNT), pcset)
        sharded = ConstraintComponentSharding().split(plan)
        assert len(sharded) == 1 and not sharded.is_sharded

    def test_shard_cache_tokens_are_distinct(self):
        plan = build_plan(BoundQuery(AggregateFunction.COUNT), windows_pcset(4))
        sharded = ConstraintComponentSharding().split(plan, max_shards=4)
        tokens = {shard.cache_token() for shard in sharded}
        assert len(tokens) == len(sharded)

    def test_invalid_max_shards_rejected(self):
        plan = build_plan(BoundQuery(AggregateFunction.COUNT), windows_pcset(3))
        with pytest.raises(SolverError):
            ConstraintComponentSharding().split(plan, max_shards=0)


# --------------------------------------------------------------------- #
# Merge algebra
# --------------------------------------------------------------------- #
class TestMergeShardRanges:
    def test_count_and_sum_add(self):
        merged = merge_shard_ranges(AggregateFunction.COUNT, [
            ResultRange(1.0, 5.0), ResultRange(2.0, 7.0)])
        assert (merged.lower, merged.upper) == (3.0, 12.0)

    def test_max_takes_extrema_and_ignores_empty_shards(self):
        merged = merge_shard_ranges(AggregateFunction.MAX, [
            ResultRange(None, 9.0), ResultRange(4.0, 6.0),
            ResultRange(None, None)], attribute="v")
        assert (merged.lower, merged.upper) == (4.0, 9.0)

    def test_min_takes_extrema(self):
        merged = merge_shard_ranges(AggregateFunction.MIN, [
            ResultRange(1.0, None), ResultRange(3.0, 8.0)], attribute="v")
        assert (merged.lower, merged.upper) == (1.0, 8.0)

    def test_all_empty_shards_stay_undefined(self):
        merged = merge_shard_ranges(AggregateFunction.MAX, [
            ResultRange(None, None), ResultRange(None, None)])
        assert (merged.lower, merged.upper) == (None, None)

    def test_avg_is_rejected(self):
        with pytest.raises(SolverError):
            merge_shard_ranges(AggregateFunction.AVG, [ResultRange(0.0, 1.0)])

    def test_empty_input_rejected(self):
        with pytest.raises(SolverError):
            merge_shard_ranges(AggregateFunction.COUNT, [])

    def test_sharded_bound_carries_merged_statistics(self):
        """The sharded path stays observable: statistics are summed, not
        dropped (serial ranges carry the decomposition statistics too)."""
        sharded = PCBoundSolver(windows_pcset(4), BoundOptions(
            check_closure=False, solve_workers=2))
        result = sharded.bound(AggregateFunction.COUNT)
        assert result.statistics is not None
        plan = sharded.sharded_plan(None, None)
        per_shard = [sharded.shard_program(shard, None, None)
                     .decomposition.statistics for shard in plan]
        assert result.statistics.solver_calls == \
            sum(statistics.solver_calls for statistics in per_shard)
        assert result.statistics.satisfiable_cells == \
            sum(statistics.satisfiable_cells for statistics in per_shard)


# --------------------------------------------------------------------- #
# Batch executor modes
# --------------------------------------------------------------------- #
class TestBatchExecutorModes:
    def test_unknown_mode_rejected(self):
        from repro.service.batch import BatchExecutor

        for mode in ("fibers", "thread", "auto"):
            with pytest.raises(SolverError, match=r"unknown pool mode .* "
                               r"\('serial', 'process'\)"):
                BatchExecutor(mode=mode)

    def test_batch_process_mode_honours_capability_gate(self):
        """A process-mode batch runs inline on a process-unsafe backend
        instead of crashing inside a worker."""
        from repro.core.engine import ContingencyQuery, PCAnalyzer
        from repro.service.batch import BatchExecutor

        register_backend(
            "test-native-handle-batch", resolve_backend("scipy"),
            replace=True,
            capabilities=BackendCapabilities(process_safe=False))
        analyzer = PCAnalyzer(windows_pcset(3), options=BoundOptions(
            check_closure=False, milp_backend="test-native-handle-batch"))
        with BatchExecutor(max_workers=2, mode="process") as executor:
            result = executor.execute(analyzer, [ContingencyQuery.count()])
        assert result.statistics.executor_mode == "serial"
        baseline = PCAnalyzer(windows_pcset(3), options=BoundOptions(
            check_closure=False)).analyze(ContingencyQuery.count())
        assert result.reports[0].lower == baseline.lower
        assert result.reports[0].upper == baseline.upper


# --------------------------------------------------------------------- #
# Pickle-safe handoff
# --------------------------------------------------------------------- #
class TestPickleHandoff:
    def test_warm_program_roundtrips_with_skeletons(self):
        solver = PCBoundSolver(chained_pcset(),
                               BoundOptions(check_closure=False))
        program = solver.program(None, "v")
        before = program.bound(AggregateFunction.AVG, known_sum=10.0,
                               known_count=2.0)
        restored = pickle.loads(pickle.dumps(program))
        after = restored.bound(AggregateFunction.AVG, known_sum=10.0,
                               known_count=2.0)
        assert (before.lower, before.upper) == (after.lower, after.upper)
        # Lazily-built skeleton variants travel with the program.
        assert restored._skeletons.keys() == program._skeletons.keys()

    def test_solver_roundtrips_without_shared_caches(self):
        solver = PCBoundSolver(windows_pcset(3),
                               BoundOptions(check_closure=False))
        before = solver.bound(AggregateFunction.COUNT)
        restored = pickle.loads(pickle.dumps(solver))
        after = restored.bound(AggregateFunction.COUNT)
        assert (before.lower, before.upper) == (after.lower, after.upper)


# --------------------------------------------------------------------- #
# Cross-backend verification
# --------------------------------------------------------------------- #
def _register_inflating_backend(name: str, factor: float) -> None:
    """A deliberately-broken backend: every objective scaled by ``factor``."""
    def broken(milp, c, sense):
        solution = resolve_backend("scipy")(milp, c, sense)
        if solution.status is not SolutionStatus.OPTIMAL:
            return solution
        assert solution.objective is not None
        return LPSolution(SolutionStatus.OPTIMAL,
                          solution.objective * factor, solution.x)

    register_backend(name, broken, replace=True)


class TestCrossBackendVerification:
    OVERLAPPING = PredicateConstraintSet([
        pc(Predicate.range("t", 0, 2), 50, 100, "t1", value_range=(1.0, 20.0)),
        pc(Predicate.range("t", 1, 3), 75, 125, "t2", value_range=(1.0, 30.0)),
    ])

    def test_healthy_backends_agree(self):
        plain = PCBoundSolver(self.OVERLAPPING,
                              BoundOptions(check_closure=False))
        verified = PCBoundSolver(self.OVERLAPPING, BoundOptions(
            check_closure=False, verify_backend="branch-and-bound"))
        for aggregate, attribute in [(AggregateFunction.COUNT, None),
                                     (AggregateFunction.SUM, "v")]:
            expected = plain.bound(aggregate, attribute)
            actual = verified.bound(aggregate, attribute)
            assert (actual.lower, actual.upper) == \
                (expected.lower, expected.upper)

    def test_broken_backend_trips_the_alarm(self):
        # x5 pushes the broken COUNT range [375, 1125] clear of the true
        # [75, 225] — the two cannot both be sound, so verification alarms.
        _register_inflating_backend("test-broken-x5", 5.0)
        assert has_backend("test-broken-x5")
        verified = PCBoundSolver(self.OVERLAPPING, BoundOptions(
            check_closure=False, verify_backend="test-broken-x5"))
        with pytest.raises(DisjointRangeError, match="test-broken-x5"):
            verified.bound(AggregateFunction.COUNT)

    def test_service_cross_backend_mode(self):
        from repro.core.engine import ContingencyQuery

        service = ContingencyService(verify_backend="branch-and-bound")
        session = service.register("verified", self.OVERLAPPING,
                                   options=BoundOptions(check_closure=False))
        assert session.options.verify_backend == "branch-and-bound"
        report = service.analyze("verified", ContingencyQuery.count())
        plain = PCBoundSolver(self.OVERLAPPING,
                              BoundOptions(check_closure=False))
        expected = plain.bound(AggregateFunction.COUNT)
        assert (report.lower, report.upper) == (expected.lower, expected.upper)

    def test_service_rejects_unknown_verify_mode(self):
        """A verification backend the registry does not know fails at
        construction, not at the first query."""
        from repro.exceptions import ReproError

        with pytest.raises(ReproError, match="triple-modular"):
            ContingencyService(verify_backend="triple-modular")

    def test_verified_session_fingerprint_differs(self):
        from repro.service import fingerprint_bound_options

        plain = fingerprint_bound_options(BoundOptions())
        verified = fingerprint_bound_options(
            BoundOptions(verify_backend="branch-and-bound"))
        assert plain != verified
