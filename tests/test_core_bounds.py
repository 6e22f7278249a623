"""Unit and property tests for the MILP bounding engine (paper §4)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import BoundOptions, PCBoundSolver, ResultRange
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.exceptions import DisjointRangeError, SolverError
from repro.relational.aggregates import AggregateFunction
from repro.solvers.milp import MILPBackend

NO_CLOSURE = BoundOptions(check_closure=False)


def pc(predicate, bounds, lo, hi, name="pc"):
    return PredicateConstraint(predicate, ValueConstraint(bounds),
                               FrequencyConstraint(lo, hi), name=name)


class TestResultRange:
    def test_contains_and_width(self):
        result = ResultRange(1.0, 5.0)
        assert result.contains(1.0) and result.contains(5.0) and result.contains(3.0)
        assert not result.contains(0.5) and not result.contains(5.5)
        assert result.contains(None)
        assert result.width == 4.0
        assert result.is_bounded

    def test_unbounded_and_undefined(self):
        assert ResultRange(None, None).width == math.inf
        assert not ResultRange(0.0, math.inf).is_bounded
        assert ResultRange(None, 5.0).contains(-1000.0)

    def test_over_estimation_rate(self):
        assert ResultRange(0.0, 10.0).over_estimation_rate(5.0) == 2.0
        assert ResultRange(0.0, 10.0).over_estimation_rate(0.0) == math.inf
        assert ResultRange(0.0, 0.0).over_estimation_rate(0.0) == 1.0
        assert ResultRange(0.0, math.inf).over_estimation_rate(5.0) == math.inf

    def test_shifted(self):
        shifted = ResultRange(1.0, 2.0).shifted(10.0)
        assert (shifted.lower, shifted.upper) == (11.0, 12.0)
        assert ResultRange(None, 2.0).shifted(1.0).lower is None

    def test_intersect_tightens_and_treats_none_as_unbounded(self):
        combined = ResultRange(1.0, 10.0).intersect(ResultRange(4.0, 20.0))
        assert (combined.lower, combined.upper) == (4.0, 10.0)
        open_ended = ResultRange(None, 10.0).intersect(ResultRange(2.0, None))
        assert (open_ended.lower, open_ended.upper) == (2.0, 10.0)
        untouched = ResultRange(None, None).intersect(ResultRange(None, None))
        assert (untouched.lower, untouched.upper) == (None, None)

    def test_intersect_disjoint_raises_dedicated_error(self):
        """Disjoint ranges raise DisjointRangeError, never an inverted range."""
        first = ResultRange(0.0, 1.0)
        second = ResultRange(5.0, 9.0)
        with pytest.raises(DisjointRangeError) as excinfo:
            first.intersect(second)
        # The alarm carries both offending ranges for monitoring.
        assert excinfo.value.first is first
        assert excinfo.value.second is second
        # The dedicated error stays catchable as the SolverError family.
        with pytest.raises(SolverError):
            second.intersect(first)

    def test_intersect_touching_endpoints_is_not_disjoint(self):
        touching = ResultRange(0.0, 5.0).intersect(ResultRange(5.0, 9.0))
        assert (touching.lower, touching.upper) == (5.0, 5.0)


class TestPaperNumericalExamples:
    """The worked examples of §4.4 must reproduce exactly."""

    def test_disjoint_sum_bounds(self, paper_disjoint_pcs):
        solver = PCBoundSolver(paper_disjoint_pcs, NO_CLOSURE)
        result = solver.bound(AggregateFunction.SUM, "price")
        assert result.lower == pytest.approx(99.0)
        assert result.upper == pytest.approx(27_998.0)

    def test_overlapping_sum_bounds(self, paper_overlapping_pcs):
        solver = PCBoundSolver(paper_overlapping_pcs, NO_CLOSURE)
        result = solver.bound(AggregateFunction.SUM, "price")
        assert result.lower == pytest.approx(74.25)
        assert result.upper == pytest.approx(17_748.75)

    def test_overlapping_count_bounds(self, paper_overlapping_pcs):
        solver = PCBoundSolver(paper_overlapping_pcs, NO_CLOSURE)
        result = solver.bound(AggregateFunction.COUNT)
        assert result.lower == pytest.approx(75.0)
        assert result.upper == pytest.approx(125.0)

    def test_overlapping_max_min(self, paper_overlapping_pcs):
        solver = PCBoundSolver(paper_overlapping_pcs, NO_CLOSURE)
        maximum = solver.bound(AggregateFunction.MAX, "price")
        assert maximum.upper == pytest.approx(149.99)
        assert maximum.lower == pytest.approx(0.99)  # rows are forced to exist
        minimum = solver.bound(AggregateFunction.MIN, "price")
        assert minimum.lower == pytest.approx(0.99)
        assert minimum.upper == pytest.approx(129.99)

    def test_overlapping_avg(self, paper_overlapping_pcs):
        solver = PCBoundSolver(paper_overlapping_pcs, NO_CLOSURE)
        result = solver.bound(AggregateFunction.AVG, "price")
        # Max average: 50 rows at 129.99 plus 75 rows at 149.99.
        expected_upper = (50 * 129.99 + 75 * 149.99) / 125
        assert result.upper == pytest.approx(expected_upper, rel=1e-4)
        assert result.lower == pytest.approx(0.99, rel=1e-4)


class TestChicagoExample:
    """The §3.1 running example: c1/c2 interact through the shared domain."""

    def setup_method(self):
        self.c1 = pc(Predicate.equals("branch", "Chicago"),
                     {"price": (0.0, 149.99)}, 0, 5, name="c1")
        self.c2 = pc(Predicate.true(), {"price": (0.0, 149.99)}, 0, 100, name="c2")
        from repro.solvers.sat import AttributeDomain
        self.pcset = PredicateConstraintSet(
            [self.c1, self.c2],
            domains={"branch": AttributeDomain.categorical(
                ["Chicago", "New York", "Trenton"])})

    def test_interacting_constraints(self):
        solver = PCBoundSolver(self.pcset, NO_CLOSURE)
        result = solver.bound(AggregateFunction.SUM, "price")
        # All 100 rows can price at 149.99 (c1 restricts only Chicago's count,
        # not its price ceiling, which matches c2's ceiling).
        assert result.upper == pytest.approx(100 * 149.99)
        count = solver.bound(AggregateFunction.COUNT)
        assert count.upper == pytest.approx(100.0)

    def test_chicago_only_query(self):
        solver = PCBoundSolver(self.pcset, NO_CLOSURE)
        region = Predicate.equals("branch", "Chicago")
        result = solver.bound(AggregateFunction.SUM, "price", region)
        assert result.upper == pytest.approx(5 * 149.99)

    def test_tighter_value_bound_wins_in_overlap(self):
        c1_cheap = pc(Predicate.equals("branch", "Chicago"),
                      {"price": (0.0, 20.0)}, 0, 5, name="c1")
        pcset = PredicateConstraintSet([c1_cheap, self.c2], domains=self.pcset.domains)
        solver = PCBoundSolver(pcset, NO_CLOSURE)
        region = Predicate.equals("branch", "Chicago")
        result = solver.bound(AggregateFunction.SUM, "price", region)
        # Within Chicago the 20.0 ceiling is the most restrictive.
        assert result.upper == pytest.approx(5 * 20.0)


class TestQueryRegions:
    def test_region_clips_value_bounds(self, paper_disjoint_pcs):
        solver = PCBoundSolver(paper_disjoint_pcs, NO_CLOSURE)
        region = Predicate.range("utc", 11, 11.5)
        result = solver.bound(AggregateFunction.SUM, "price", region)
        assert result.upper == pytest.approx(100 * 129.99)

    def test_region_outside_all_constraints(self, paper_disjoint_pcs):
        solver = PCBoundSolver(paper_disjoint_pcs, NO_CLOSURE)
        region = Predicate.range("utc", 50, 60)
        result = solver.bound(AggregateFunction.SUM, "price", region)
        assert result.upper == pytest.approx(0.0)
        assert result.lower == pytest.approx(0.0)

    def test_mandatory_rows_may_live_outside_region(self):
        """kl > 0 must not force rows into the query region (slack variables)."""
        constraint = pc(Predicate.range("x", 0, 10), {"v": (-50.0, -10.0)}, 5, 5,
                        name="mandatory")
        pcset = PredicateConstraintSet([constraint])
        solver = PCBoundSolver(pcset, NO_CLOSURE)
        region = Predicate.range("x", 0, 1)
        result = solver.bound(AggregateFunction.SUM, "v", region)
        # All five (negative-valued) rows can be placed outside [0, 1], so the
        # query's maximum contribution is zero, not 5 * -10.
        assert result.upper == pytest.approx(0.0)
        assert result.lower == pytest.approx(5 * -50.0)

    def test_closure_check_widens_open_world(self):
        constraint = pc(Predicate.range("x", 0, 10), {"v": (0.0, 1.0)}, 0, 5)
        pcset = PredicateConstraintSet([constraint])
        closed_region = Predicate.range("x", 2, 3)
        open_region = Predicate.range("x", 5, 20)
        solver = PCBoundSolver(pcset, BoundOptions(check_closure=True))
        closed_result = solver.bound(AggregateFunction.COUNT, region=closed_region)
        assert closed_result.closed
        assert closed_result.upper == pytest.approx(5.0)
        open_result = solver.bound(AggregateFunction.COUNT, region=open_region)
        assert not open_result.closed
        assert open_result.upper == math.inf


class TestEdgeCases:
    def test_empty_pcset_gives_zero_bounds(self):
        solver = PCBoundSolver(PredicateConstraintSet(), NO_CLOSURE)
        assert solver.bound(AggregateFunction.COUNT).upper == 0.0
        assert solver.bound(AggregateFunction.SUM, "v").upper == 0.0
        assert solver.bound(AggregateFunction.MAX, "v").upper is None

    def test_missing_attribute_gives_unbounded_sum(self):
        constraint = pc(Predicate.range("x", 0, 1), {}, 0, 5)
        solver = PCBoundSolver(PredicateConstraintSet([constraint]), NO_CLOSURE)
        result = solver.bound(AggregateFunction.SUM, "unconstrained_value")
        assert result.upper == math.inf

    def test_sum_requires_attribute(self):
        solver = PCBoundSolver(PredicateConstraintSet(), NO_CLOSURE)
        with pytest.raises(SolverError):
            solver.bound(AggregateFunction.SUM)

    def test_integral_fractional_endpoint_keeps_boundary_cell(self):
        # The integers in [2.5, 6] are 3..6, so k = 2 lies in b alone: five
        # rows there at v = 100 satisfy both constraints.
        a = pc(Predicate.range("k", 2.5, 6, integral=True), {"v": (0.0, 10.0)},
               0, 5, name="a")
        b = pc(Predicate.range("k", 2, 6, integral=True), {"v": (0.0, 100.0)},
               0, 5, name="b")
        solver = PCBoundSolver(PredicateConstraintSet([a, b]), NO_CLOSURE)
        maximum = solver.bound(AggregateFunction.MAX, "v")
        assert (maximum.lower, maximum.upper) == (None, 100.0)
        total = solver.bound(AggregateFunction.SUM, "v")
        assert (total.lower, total.upper) == (0.0, 500.0)

    def test_negative_values_affect_lower_bound(self):
        constraint = pc(Predicate.range("x", 0, 1), {"v": (-10.0, 10.0)}, 0, 4)
        solver = PCBoundSolver(PredicateConstraintSet([constraint]), NO_CLOSURE)
        result = solver.bound(AggregateFunction.SUM, "v")
        assert result.upper == pytest.approx(40.0)
        assert result.lower == pytest.approx(-40.0)

    def test_conflicting_value_constraints_zero_out_cell(self):
        first = pc(Predicate.range("x", 0, 10), {"v": (0.0, 5.0)}, 0, 10, name="lo")
        second = pc(Predicate.range("x", 5, 15), {"v": (50.0, 60.0)}, 0, 10, name="hi")
        solver = PCBoundSolver(PredicateConstraintSet([first, second]), NO_CLOSURE)
        result = solver.bound(AggregateFunction.SUM, "v")
        # The overlap cell admits no legal value, so the best allocation uses
        # the exclusive parts of each constraint: 10 rows at 5 plus 10 at 60.
        assert result.upper == pytest.approx(10 * 5.0 + 10 * 60.0)

    def test_mandatory_constraint_outside_region_is_feasible(self):
        forced = PredicateConstraint(Predicate.range("x", 0, 1), ValueConstraint({}),
                                     FrequencyConstraint(1, 1), name="forced")
        solver = PCBoundSolver(PredicateConstraintSet([forced]), NO_CLOSURE)
        # The forced row lives outside the query region; the slack variable
        # keeps the program feasible and the query's own bound at zero.
        result = solver.bound(AggregateFunction.COUNT, region=Predicate.range("x", 5, 6))
        assert result.upper == pytest.approx(0.0)

    def test_min_max_with_region_clipping(self):
        constraint = pc(Predicate.range("x", 0, 10), {"v": (0.0, 100.0)}, 0, 5)
        solver = PCBoundSolver(PredicateConstraintSet([constraint]), NO_CLOSURE)
        region = Predicate.range("v", 0, 30)
        result = solver.bound(AggregateFunction.MAX, "v", region)
        assert result.upper == pytest.approx(30.0)

    def test_avg_with_known_partition(self):
        constraint = pc(Predicate.range("x", 0, 10), {"v": (0.0, 100.0)}, 0, 5)
        solver = PCBoundSolver(PredicateConstraintSet([constraint]), NO_CLOSURE)
        result = solver.bound(AggregateFunction.AVG, "v",
                              known_sum=50.0, known_count=5.0)
        # Observed average is 10; five extra rows at 100 push it to at most 55,
        # and five extra rows at 0 pull it down to at least 5.
        assert result.upper == pytest.approx((50.0 + 5 * 100.0) / 10.0, rel=1e-3)
        assert result.lower == pytest.approx(50.0 / 10.0, rel=1e-3)

    def test_branch_and_bound_backend_matches_scipy(self, paper_overlapping_pcs):
        scipy_solver = PCBoundSolver(paper_overlapping_pcs, NO_CLOSURE)
        bb_solver = PCBoundSolver(
            paper_overlapping_pcs,
            BoundOptions(check_closure=False,
                         milp_backend=MILPBackend.BRANCH_AND_BOUND))
        for aggregate in (AggregateFunction.SUM, AggregateFunction.COUNT):
            attribute = "price" if aggregate is AggregateFunction.SUM else None
            first = scipy_solver.bound(aggregate, attribute)
            second = bb_solver.bound(aggregate, attribute)
            assert first.upper == pytest.approx(second.upper, rel=1e-6)
            assert first.lower == pytest.approx(second.lower, rel=1e-6)


# --------------------------------------------------------------------- #
# Property test: bounds are sound for randomly generated instances.
# --------------------------------------------------------------------- #
segment_strategy = st.tuples(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=50),
)


@st.composite
def random_instances(draw):
    """A random PC set plus a random relation instance that satisfies it."""
    segments = draw(st.lists(segment_strategy, min_size=1, max_size=4))
    rng_seed = draw(st.integers(min_value=0, max_value=10_000))
    constraints = []
    rows_x: list[float] = []
    rows_v: list[float] = []
    rng = np.random.default_rng(rng_seed)
    for index, (start, width, value_cap, max_rows) in enumerate(segments):
        predicate = Predicate.range("x", float(start), float(start + width))
        constraints.append(PredicateConstraint(
            predicate, ValueConstraint({"v": (0.0, float(value_cap))}),
            FrequencyConstraint(0, max_rows), name=f"seg{index}"))
    pcset = PredicateConstraintSet(constraints)
    # Build a satisfying instance: for each row pick a constraint, then a
    # point inside it respecting *all* constraints that cover that point.
    for index, (start, width, value_cap, max_rows) in enumerate(segments):
        count = int(rng.integers(0, max_rows + 1)) if max_rows else 0
        count = min(count, 10)
        for _ in range(count):
            x = float(rng.uniform(start, start + width))
            ceiling = min(cap for (s, w, cap, _m) in segments
                          if s <= x <= s + w)
            rows_x.append(x)
            rows_v.append(float(rng.uniform(0, ceiling)))
    # Respect every frequency constraint by trimming if needed.
    return pcset, segments, rows_x, rows_v


class TestBoundSoundnessProperty:
    @given(instance=random_instances())
    @settings(max_examples=40, deadline=None)
    def test_true_aggregates_fall_inside_bounds(self, instance):
        pcset, segments, rows_x, rows_v = instance
        from repro.relational.relation import Relation
        from repro.relational.schema import ColumnType, Schema

        schema = Schema.from_pairs([("x", ColumnType.FLOAT), ("v", ColumnType.FLOAT)])
        relation = Relation(schema, {"x": rows_x, "v": rows_v})
        # Only keep instances that actually satisfy the constraint set (the
        # generator usually does, but trimming interactions can break it).
        if pcset.validate_against(relation):
            return
        solver = PCBoundSolver(pcset, NO_CLOSURE)
        true_sum = float(np.sum(rows_v)) if rows_v else 0.0
        true_count = float(len(rows_v))
        sum_bound = solver.bound(AggregateFunction.SUM, "v")
        count_bound = solver.bound(AggregateFunction.COUNT)
        assert sum_bound.contains(true_sum)
        assert count_bound.contains(true_count)
        if rows_v:
            max_bound = solver.bound(AggregateFunction.MAX, "v")
            min_bound = solver.bound(AggregateFunction.MIN, "v")
            avg_bound = solver.bound(AggregateFunction.AVG, "v")
            assert max_bound.contains(max(rows_v))
            assert min_bound.contains(min(rows_v))
            assert avg_bound.contains(float(np.mean(rows_v)))
