"""Tests for the plan pipeline: IR, optimizer passes, compiled programs.

One property anchors this module: **optimizer passes preserve bounds** —
every pass (region pruning, duplicate merging) yields the same result range
as the unoptimized plan.  Whether those ranges are the true extremes is
``tests/test_range_oracle.py``'s question.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.cells import CellDecomposer
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
    return compile_plan(plan, decomposition).bound(aggregate, known_sum,
                                                   known_count)


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
    """One compiled program per (region, attribute) pair serves every
    aggregate over it."""

    def test_program_key_survives_pickling(self):
        """A solver's program key is the same before and after it bounds
        other queries, and a pickled copy (what a pool worker holds)
        computes it too — the warm-shipping protocol depends on it."""
        import pickle

        solver = PCBoundSolver(window_pcset(), NO_CLOSURE)
        key_before = solver.program_key(None, "price")
        solver.bound(AggregateFunction.COUNT)
        solver.bound(AggregateFunction.SUM, "price",
                     Predicate.range("utc", 11, 13))
        assert solver.program_key(None, "price") == key_before
        worker_copy = pickle.loads(pickle.dumps(solver))
        assert worker_copy.program_key(None, "price") == key_before

    def test_program_compiled_once_per_region_attribute(self):
        solver = PCBoundSolver(window_pcset(), NO_CLOSURE)
        region = Predicate.range("utc", 11, 13)
        for _ in range(3):
            solver.bound(AggregateFunction.SUM, "price", region)
            solver.bound(AggregateFunction.AVG, "price", region)
            solver.bound(AggregateFunction.MAX, "price", region)
        assert solver.programs_compiled == 1  # one (region, attribute) pair
        solver.bound(AggregateFunction.COUNT, None, region)
        assert solver.programs_compiled == 2  # COUNT has attribute None


class TestPrivateCacheConcurrency:
    def test_parallel_warm_compiles_each_pair_once(self):
        """A cache-less analyzer compiles each pair of a batch exactly once.

        Programs for one region but different attributes share a single
        decomposition (per-key locking in the private caches keeps that
        true when they compile concurrently).
        """
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
        assert analyzer.solver.programs_compiled == 2 * len(regions)


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
        # Distinct aggregates over one (region, attribute) pair: one compile.
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

    def test_batch_statistics_report_program_groups(self):
        service = ContingencyService(max_workers=2)
        service.register("outage", self.build_pcset(), options=NO_CLOSURE)
        region = Predicate.range("utc", 11, 12.5)
        queries = [ContingencyQuery.count(region),
                   ContingencyQuery.sum("price", region),
                   ContingencyQuery.avg("price", region)]
        result = service.execute_batch("outage", queries)
        # One region, two attributes (None and "price").
        assert result.statistics.region_groups == 1
        assert result.statistics.program_groups == 2
        assert result.statistics.as_dict()["program_groups"] == 2


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
