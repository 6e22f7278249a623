"""Tests for the plan pipeline: IR, optimizer passes, compiled programs.

One property anchors this module: **optimizer passes preserve bounds** —
every pass (region pruning, duplicate merging) yields the same result range
as the unoptimized plan.  Whether those ranges are the true extremes is
``tests/test_range_oracle.py``'s question.
"""

from __future__ import annotations

import gc
import tracemalloc
import types

import numpy as np
import pytest
from scipy.sparse import csc_array

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.cells import Cell, CellDecomposer, CellDecomposition
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.engine import ContingencyQuery, PCAnalyzer
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.core.ranges import ResultRange
from repro.exceptions import SolverError
from repro.experiments.reporting import format_result_range_table, intersect_ranges
from repro.plan import BoundQuery, build_plan, compile_plan, optimize_plan
from repro.plan.passes import (
    ConstraintMergingPass,
    RegionPruningPass,
    default_passes,
)
from repro.relational.aggregates import AggregateFunction
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema
from repro.service import ContingencyService
from repro.solvers.registry import (
    available_backends,
    register_backend,
    resolve_backend,
)

NO_CLOSURE = BoundOptions(check_closure=False)
ALL_AGGREGATES = [
    (AggregateFunction.COUNT, None),
    (AggregateFunction.SUM, "price"),
    (AggregateFunction.AVG, "price"),
    (AggregateFunction.MIN, "price"),
    (AggregateFunction.MAX, "price"),
]


def pc(low, high, value_high, max_rows, min_rows=0, name="pc"):
    return PredicateConstraint(
        Predicate.range("utc", low, high),
        ValueConstraint({"price": (0.0, value_high)}),
        FrequencyConstraint(min_rows, max_rows), name=name)


def window_pcset() -> PredicateConstraintSet:
    """Six hour-window constraints, two of them far from the query region."""
    return PredicateConstraintSet([
        pc(10, 12, 100.0, 20, name="w1"),
        pc(11, 13, 150.0, 25, name="w2"),
        pc(12, 14, 120.0, 15, name="w3"),
        pc(40, 42, 500.0, 30, name="far-optional"),
        pc(50, 52, 700.0, 10, min_rows=3, name="far-mandatory"),
        pc(60, 62, 900.0, 5, name="far-optional-2"),
    ])


def raw_plan_bound(pcset: PredicateConstraintSet,
                   aggregate: AggregateFunction, attribute: str | None = None,
                   region: Predicate | None = None, known_sum: float = 0.0,
                   known_count: float = 0.0) -> ResultRange:
    """The range the unoptimized plan compiles to: the solver's pipeline
    without :func:`optimize_plan`."""
    plan = build_plan(BoundQuery(aggregate, attribute, region), pcset,
                      NO_CLOSURE)
    decomposition = CellDecomposer(plan.pcset).decompose(region)
    return compile_plan(plan, decomposition).bound(aggregate, attribute,
                                                   known_sum, known_count)


def assert_ranges_equal(left: ResultRange, right: ResultRange,
                        rel: float = 1e-9) -> None:
    for a, b in ((left.lower, right.lower), (left.upper, right.upper)):
        if a is None or b is None:
            assert a == b
        else:
            assert a == pytest.approx(b, rel=rel, abs=1e-9)


class TestBoundPlanIR:
    def test_build_plan_from_contingency_query(self):
        pcset = window_pcset()
        query = ContingencyQuery.sum("price", Predicate.range("utc", 11, 13))
        plan = build_plan(query, pcset, NO_CLOSURE)
        assert plan.query.aggregate is AggregateFunction.SUM
        assert plan.query.attribute == "price"
        assert plan.pcset is pcset and plan.source_pcset is pcset
        assert not plan.is_optimized

    def test_default_passes_prune_then_merge(self):
        assert [type(optimizer_pass) for optimizer_pass in default_passes()] \
            == [RegionPruningPass, ConstraintMergingPass]

    def test_describe_renders_trace(self):
        pcset = window_pcset()
        plan = optimize_plan(build_plan(
            ContingencyQuery.count(Predicate.range("utc", 11, 13)),
            pcset, NO_CLOSURE))
        text = plan.describe()
        assert "plan: COUNT(*)" in text
        assert "region-pruning" in text

    def test_analyzer_plan_for_is_introspection_only(self):
        analyzer = PCAnalyzer(window_pcset(), options=NO_CLOSURE)
        query = ContingencyQuery.count(Predicate.range("utc", 11, 13))
        plan = analyzer.plan_for(query)
        assert plan.num_constraints < len(window_pcset())
        # Introspection did not compile anything.
        assert analyzer.solver.programs_compiled == 0


class TestRegionPruningPass:
    def test_constraints_outside_region_are_dropped(self):
        plan = build_plan(
            BoundQuery(AggregateFunction.COUNT, None,
                       Predicate.range("utc", 11, 13)),
            window_pcset(), NO_CLOSURE)
        optimized = RegionPruningPass()(plan)
        names = [pc.name for pc in optimized.pcset]
        # Overlapping windows stay; far optional constraints go; the far
        # *mandatory* constraint must stay (it forces rows to exist).
        assert names == ["w1", "w2", "w3", "far-mandatory"]
        assert optimized.trace and "region-pruning" in optimized.trace[0]

    def test_no_region_means_no_pruning(self):
        plan = build_plan(BoundQuery(AggregateFunction.COUNT), window_pcset(),
                          NO_CLOSURE)
        assert RegionPruningPass()(plan) is plan

    @pytest.mark.parametrize("aggregate,attribute", ALL_AGGREGATES)
    def test_pruning_preserves_bounds(self, aggregate, attribute):
        region = Predicate.range("utc", 11, 13)
        optimized = PCBoundSolver(window_pcset(), NO_CLOSURE)
        assert_ranges_equal(
            optimized.bound(aggregate, attribute, region,
                            known_sum=30.0, known_count=2.0),
            raw_plan_bound(window_pcset(), aggregate, attribute, region,
                           known_sum=30.0, known_count=2.0),
            rel=1e-6)


class TestConstraintMergingPass:
    def duplicated_pcset(self) -> PredicateConstraintSet:
        return PredicateConstraintSet([
            pc(10, 12, 100.0, 20, name="a"),
            pc(10, 12, 80.0, 30, min_rows=1, name="b"),  # same predicate as a
            pc(12, 14, 120.0, 15, name="c"),
        ])

    def test_identical_predicates_merge(self):
        plan = build_plan(BoundQuery(AggregateFunction.COUNT),
                          self.duplicated_pcset(), NO_CLOSURE)
        optimized = ConstraintMergingPass()(plan)
        assert len(optimized.pcset) == 2
        merged = optimized.pcset[0]
        assert merged.name == "a&b"
        # Frequency intervals intersect, value constraints intersect.
        assert merged.min_rows() == 1 and merged.max_rows() == 20
        assert merged.values.upper("price") == 80.0

    def test_mandatory_member_with_wider_values_left_unmerged(self):
        """Merging must not tighten MIN/MAX's forced-extremum scan.

        The mandatory constraint's own value bounds (0..10) are wider than
        the group intersection (5..10); merging would change MAX's lower
        endpoint from 0 to 5 — sound but not identical, so it is skipped.
        """
        pcset = PredicateConstraintSet([
            PredicateConstraint(Predicate.range("utc", 10, 12),
                                ValueConstraint({"price": (0.0, 10.0)}),
                                FrequencyConstraint(1, 20), name="wide-mandatory"),
            PredicateConstraint(Predicate.range("utc", 10, 12),
                                ValueConstraint({"price": (5.0, 10.0)}),
                                FrequencyConstraint(0, 30), name="narrow"),
        ])
        plan = build_plan(BoundQuery(AggregateFunction.COUNT), pcset, NO_CLOSURE)
        assert len(ConstraintMergingPass()(plan).pcset) == 2
        for aggregate, attribute in ALL_AGGREGATES:
            assert_ranges_equal(
                PCBoundSolver(pcset, NO_CLOSURE).bound(aggregate, attribute),
                raw_plan_bound(pcset, aggregate, attribute),
                rel=1e-6)

    def test_incompatible_frequencies_left_unmerged(self):
        pcset = PredicateConstraintSet([
            pc(10, 12, 100.0, 5, name="low"),
            pc(10, 12, 100.0, 20, min_rows=10, name="high"),
        ])
        plan = build_plan(BoundQuery(AggregateFunction.COUNT), pcset, NO_CLOSURE)
        optimized = ConstraintMergingPass()(plan)
        assert len(optimized.pcset) == 2  # jointly unsatisfiable, kept as-is

    @pytest.mark.parametrize("aggregate,attribute", ALL_AGGREGATES)
    def test_merging_preserves_bounds(self, aggregate, attribute):
        optimized = PCBoundSolver(self.duplicated_pcset(), NO_CLOSURE)
        assert_ranges_equal(
            optimized.bound(aggregate, attribute),
            raw_plan_bound(self.duplicated_pcset(), aggregate, attribute),
            rel=1e-6)


class TestCompiledProgramEquivalence:
    """One compiled program per region serves every aggregate over every
    attribute."""

    def test_program_key_survives_pickling(self):
        """A solver's program key is the same before and after it bounds
        other queries, and a pickled copy (what a pool worker holds)
        computes it too — the warm-shipping protocol depends on it."""
        import pickle

        solver = PCBoundSolver(window_pcset(), NO_CLOSURE)
        key_before = solver.program_key(None)
        solver.bound(AggregateFunction.COUNT)
        solver.bound(AggregateFunction.SUM, "price",
                     Predicate.range("utc", 11, 13))
        assert solver.program_key(None) == key_before
        worker_copy = pickle.loads(pickle.dumps(solver))
        assert worker_copy.program_key(None) == key_before

    @staticmethod
    def region_queries(region: Predicate) -> list[ContingencyQuery]:
        """All five aggregates over ``price``, and SUM over ``utc``."""
        return [ContingencyQuery.count(region),
                ContingencyQuery.sum("price", region),
                ContingencyQuery.avg("price", region),
                ContingencyQuery.min("price", region),
                ContingencyQuery.max("price", region),
                ContingencyQuery.sum("utc", region)]

    def test_program_compiled_once_per_region(self):
        region = Predicate.range("utc", 11, 13)
        solver = PCBoundSolver(window_pcset(), NO_CLOSURE)
        for query in self.region_queries(region) * 2:
            solver.bound(query.aggregate, query.attribute, query.region)
        assert solver.programs_compiled == 1
        assert solver.decompositions_computed == 1

    def test_service_compiles_once_per_region(self):
        region = Predicate.range("utc", 11, 13)
        service = ContingencyService(max_workers=1)
        service.register("outage", window_pcset(), options=NO_CLOSURE)
        for query in self.region_queries(region):
            service.analyze("outage", query)
        assert service.statistics().programs_compiled == 1
        service.shutdown()

    def test_process_pool_ships_each_shard_program_once(self):
        """COUNT, SUM and AVG over a component-sharded region share its
        shard programs, so each travels to its worker once."""
        pcset = PredicateConstraintSet([
            pc(10, 11.4, 40.0, 4, name="d0"),
            pc(11.5, 12.4, 60.0, 5, name="d1"),
            pc(12.5, 13.5, 80.0, 6, min_rows=1, name="d2")])
        observed = Relation.from_rows(
            Schema.from_pairs([("utc", ColumnType.FLOAT),
                               ("price", ColumnType.FLOAT)]),
            [(10.5, 20.0), (12.0, 30.0)])
        region = Predicate.range("utc", 10, 13.5)
        service = ContingencyService(max_workers=2, pool_mode="process")
        service.register("outage", pcset, observed=observed,
                         options=BoundOptions(check_closure=False,
                                              solve_workers=2))
        try:
            solver = service.session("outage").analyzer.solver
            sharded = solver.sharded_plan(region)
            assert sharded.strategy == "component" and sharded.is_sharded
            for query in (ContingencyQuery.count(region),
                          ContingencyQuery.sum("price", region),
                          ContingencyQuery.avg("price", region)):
                service.analyze("outage", query)
            statistics = service.worker_pool.statistics
            assert statistics.programs_shipped == len(sharded)
            assert statistics.warm_hits > 0
        finally:
            service.shutdown()


def cold_chain_pcset(windows: int, seed: int
                     ) -> tuple[PredicateConstraintSet, Predicate]:
    """A chained set of the cold-chain benchmark's shape: four overlapping
    ``u`` bands on each of ``windows`` windows chained along ``t`` (edges
    jittered, no forced rows), and a ``t`` region over 45% of the chain."""
    rng = np.random.default_rng(seed)
    bands = [(0.0, 40.0), (25.0, 65.0), (50.0, 90.0), (75.0, 100.0)]
    constraints = []
    for window in range(windows):
        start = 15.0 * window + rng.uniform(-0.5, 0.5)
        width = 18.0 + rng.uniform(-0.5, 0.5)
        for band, (low, high) in enumerate(bands):
            predicate = Predicate.range(
                "t", round(start, 3), round(start + width, 3)).with_range(
                "u", round(low + rng.uniform(-2, 2), 3),
                round(high + rng.uniform(-2, 2), 3))
            constraints.append(PredicateConstraint(
                predicate,
                ValueConstraint({"v": (0.0, float(rng.integers(60, 140)))}),
                FrequencyConstraint(0, int(rng.integers(20, 80))),
                name=f"w{window}b{band}"))
    span = 15.0 * windows + 3.0
    low = rng.uniform(-1.5, 0.55 * span)
    region = Predicate.range("t", round(low, 3), round(low + 0.45 * span, 3))
    return PredicateConstraintSet(constraints), region


def holds_any(root, kinds) -> bool:
    """Whether an instance of ``kinds`` is reachable from ``root`` through
    data (modules, classes and functions are not followed)."""
    skipped = (type, types.ModuleType, types.FunctionType,
               types.BuiltinFunctionType, types.MethodType)
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skipped):
            continue
        seen.add(id(obj))
        if isinstance(obj, kinds):
            return True
        stack.extend(gc.get_referents(obj))
    return False


class TestProgramArrays:
    """A compiled program keeps its cells as arrays, not cell objects."""

    @staticmethod
    def compile_and_answer(pcset: PredicateConstraintSet, region: Predicate):
        plan = optimize_plan(build_plan(
            BoundQuery(AggregateFunction.SUM, "v", region), pcset,
            NO_CLOSURE))
        program = compile_plan(plan,
                               CellDecomposer(plan.pcset).decompose(region))
        program.bound(AggregateFunction.COUNT)
        program.bound(AggregateFunction.SUM, "v")
        return program

    def test_64_constraint_program_retains_under_32_kb(self):
        self.compile_and_answer(*cold_chain_pcset(16, seed=0))
        pcset, region = cold_chain_pcset(16, seed=1)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            program = self.compile_and_answer(pcset, region)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(pcset) == 64
        assert retained < 32 * 1024
        assert not holds_any(program, (Cell, CellDecomposition))
        assert len(program.capacity) > 100

    def test_skeleton_rows_are_canonical_csc(self):
        """Every skeleton variant's rows are the CSC form of its dense
        matrix: ascending row indices and no explicit zeros."""
        solver = PCBoundSolver(window_pcset(), NO_CLOSURE)
        program = solver.program(Predicate.range("utc", 11, 13))
        program.bound_batch([(AggregateFunction.COUNT, None, 0.0, 0.0),
                             (AggregateFunction.AVG, "price", 0.0, 0.0),
                             (AggregateFunction.AVG, "price", 90.0, 2.0)])
        skeletons = program._skeletons
        assert set(skeletons) == {"full", "active", "active-floor"}
        for skeleton in skeletons.values():
            matrix = skeleton.matrix
            assert isinstance(matrix, csc_array)
            canonical = csc_array(matrix.toarray())
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(matrix, part),
                                      getattr(canonical, part))
        # The far mandatory constraint parks its rows in a slack column.
        assert skeletons["full"].num_variables == len(program.capacity) + 1


class TestPrivateCacheConcurrency:
    def test_parallel_warm_compiles_each_pair_once(self):
        """A cache-less analyzer compiles each region of a batch exactly
        once, whatever aggregates and attributes ask it (per-key locking in
        the private program cache keeps that true when they compile
        concurrently)."""
        from repro.service import BatchExecutor

        analyzer = PCAnalyzer(window_pcset(), options=NO_CLOSURE)
        regions = [Predicate.range("utc", 11, 12.5),
                   Predicate.range("utc", 12, 13.5)]
        queries = []
        for region in regions:
            queries += [ContingencyQuery.count(region),
                        ContingencyQuery.sum("price", region),
                        ContingencyQuery.max("price", region)]
        result = BatchExecutor(max_workers=4).execute(analyzer, queries * 3)
        assert len(result.reports) == len(queries) * 3
        assert analyzer.solver.decompositions_computed == len(regions)
        assert analyzer.solver.programs_compiled == len(regions)


class TestServiceProgramCache:
    def build_pcset(self):
        return PredicateConstraintSet([
            pc(10, 12, 100.0, 20, name="w1"),
            pc(11, 13, 150.0, 25, name="w2"),
        ])

    def test_warm_queries_hit_program_cache(self):
        service = ContingencyService(max_workers=1)
        service.register("outage", self.build_pcset(), options=NO_CLOSURE)
        region = Predicate.range("utc", 11, 12.5)
        # Distinct aggregates over one region: one compile.
        service.analyze("outage", ContingencyQuery.sum("price", region))
        service.analyze("outage", ContingencyQuery.avg("price", region))
        service.analyze("outage", ContingencyQuery.max("price", region))
        statistics = service.statistics()
        assert statistics.programs_compiled == 1
        assert statistics.program_cache.hits >= 2
        assert "program cache" in statistics.summary()

    def test_clear_caches_drops_programs(self, monkeypatch):
        # Pin the memory-only semantics: with a persistent tier attached
        # (the REPRO_CACHE_DIR CI leg) clear() is just a memory valve and
        # the second analyze would warm from the store instead.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        service = ContingencyService(max_workers=1)
        service.register("outage", self.build_pcset(), options=NO_CLOSURE)
        query = ContingencyQuery.sum("price", Predicate.range("utc", 11, 12))
        service.analyze("outage", query)
        service.clear_caches()
        service.analyze("outage", query)
        assert service.statistics().programs_compiled == 2

    def test_batch_statistics_report_region_groups(self):
        service = ContingencyService(max_workers=2)
        service.register("outage", self.build_pcset(), options=NO_CLOSURE)
        region = Predicate.range("utc", 11, 12.5)
        queries = [ContingencyQuery.count(region),
                   ContingencyQuery.sum("price", region),
                   ContingencyQuery.avg("price", region)]
        result = service.execute_batch("outage", queries)
        # One region, so one program for COUNT(*) and both price queries.
        assert result.statistics.region_groups == 1
        assert result.statistics.as_dict()["region_groups"] == 1
        assert service.statistics().programs_compiled == 1


class TestBackendRegistry:
    def test_unknown_backend_lists_known_names(self):
        with pytest.raises(SolverError, match="scipy"):
            resolve_backend("simplex-of-doom")

    def test_builtins_registered(self):
        names = available_backends()
        for name in ("scipy", "branch-and-bound", "relaxation"):
            assert name in names

    def test_custom_backend_usable_from_bound_options(self):
        calls = []

        def counting_backend(milp, c, sense):
            calls.append(milp)
            return resolve_backend("branch-and-bound")(milp, c, sense)

        register_backend("counting-test-backend", counting_backend,
                         replace=True)
        pcset = PredicateConstraintSet([
            pc(10, 12, 100.0, 5, name="w1"),
            pc(11, 13, 150.0, 5, name="w2"),
        ])
        custom = PCBoundSolver(pcset, BoundOptions(
            check_closure=False, milp_backend="counting-test-backend"))
        default = PCBoundSolver(pcset, NO_CLOSURE)
        assert_ranges_equal(custom.bound(AggregateFunction.SUM, "price"),
                            default.bound(AggregateFunction.SUM, "price"),
                            rel=1e-6)
        assert calls  # the custom backend actually solved something


class TestResultRangeHelpers:
    def test_intersect_tightens(self):
        first = ResultRange(0.0, 10.0, AggregateFunction.SUM, "price")
        second = ResultRange(2.0, 15.0)
        combined = first.intersect(second)
        assert (combined.lower, combined.upper) == (2.0, 10.0)
        assert combined.aggregate is AggregateFunction.SUM
        assert combined.width == 8.0

    def test_intersect_treats_none_as_unbounded(self):
        partial = ResultRange(None, 10.0)
        other = ResultRange(3.0, None)
        combined = partial.intersect(other)
        assert (combined.lower, combined.upper) == (3.0, 10.0)

    def test_disjoint_intersection_raises(self):
        with pytest.raises(SolverError):
            ResultRange(0.0, 1.0).intersect(ResultRange(5.0, 6.0))

    def test_as_interval_and_midpoint(self):
        assert ResultRange(None, 4.0).as_interval() == (-np.inf, 4.0)
        assert ResultRange(2.0, 4.0).midpoint == 3.0
        assert ResultRange(None, 4.0).midpoint is None

    def test_intersect_ranges_folds(self):
        ranges = [ResultRange(0.0, 10.0), ResultRange(2.0, 12.0),
                  ResultRange(-5.0, 9.0)]
        combined = intersect_ranges(ranges)
        assert (combined.lower, combined.upper) == (2.0, 9.0)

    def test_format_result_range_table_uses_range_algebra(self):
        entries = [("SUM(price)", ResultRange(0.0, 10.0)),
                   ("MAX(price)", ResultRange(None, 7.0))]
        text = format_result_range_table(entries,
                                         truths={"SUM(price)": 4.0,
                                                 "MAX(price)": 99.0})
        assert "width" in text and "covers" in text
        lines = text.splitlines()
        assert any("yes" in line for line in lines)
        assert any("NO" in line for line in lines)
