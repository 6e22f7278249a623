"""Unit and property tests for the box satisfiability solver (Z3 substitute)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers.sat import (
    AttributeDomain,
    Box,
    BoxSolver,
    CategoricalSet,
    Interval,
)


class TestInterval:
    def test_emptiness(self):
        assert Interval(3, 2).is_empty()
        assert not Interval(2, 3).is_empty()
        assert Interval(2.2, 2.8, integral=True).is_empty()
        assert not Interval(2.2, 3.1, integral=True).is_empty()
        assert not Interval(integral=True).is_empty()  # unbounded integers

    def test_contains(self):
        assert Interval(1, 5).contains(3)
        assert not Interval(1, 5).contains(6)
        assert Interval(1, 5, integral=True).contains(3)
        assert not Interval(1, 5, integral=True).contains(3.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_integral_interval_excludes_nan_and_infinities(self, value):
        """A value that is not an integer lies outside an integral interval,
        bounded or not (``int()`` of it used to raise)."""
        for interval in (Interval(0, 5, integral=True),
                         Interval(integral=True)):
            assert not interval.contains(value)
            assert not interval.contains(np.float64(value))
            assert not Box({"t": interval}).contains_point({"t": value})
        assert not Interval().contains(math.nan)
        assert Interval().contains(value) == (not math.isnan(value))

    def test_intersect(self):
        merged = Interval(0, 10).intersect(Interval(5, 20, integral=True))
        assert merged.low == 5 and merged.high == 10 and merged.integral

    def test_complement_pieces_cover_everything_else(self):
        pieces = Interval(2, 5).complement_pieces()
        assert len(pieces) == 2
        below, above = pieces
        assert below.high < 2
        assert above.low > 5

    def test_complement_of_unbounded_side(self):
        assert len(Interval(low=0).complement_pieces()) == 1
        assert len(Interval().complement_pieces()) == 0

    def test_integral_complement_excludes_endpoints(self):
        below, above = Interval(2, 5, integral=True).complement_pieces()
        assert below.high == 1
        assert above.low == 6
        # Fractional endpoints round inward before stepping past them: the
        # integers in [2.5, 5.5] are 3..5, so 2 and 6 stay in the complement.
        below, above = Interval(2.5, 5.5, integral=True).complement_pieces()
        assert below.high == 2
        assert above.low == 6

    def test_sample_point(self):
        assert Interval(1, 3).contains(Interval(1, 3).sample_point())
        assert Interval(low=4).contains(Interval(low=4).sample_point())
        assert Interval(high=-4).contains(Interval(high=-4).sample_point())
        assert Interval(2.5, 7.5, integral=True).contains(
            Interval(2.5, 7.5, integral=True).sample_point())


class TestCategoricalSet:
    def test_operations(self):
        first = CategoricalSet.of(["a", "b", "c"])
        second = CategoricalSet.of(["b", "c", "d"])
        assert first.contains("a")
        assert not first.is_empty()
        assert first.intersect(second).values == frozenset({"b", "c"})
        assert first.difference(second).values == frozenset({"a"})
        assert CategoricalSet.of([]).is_empty()

    def test_sample_point(self):
        values = CategoricalSet.of(["x", "y"])
        assert values.contains(values.sample_point())


class TestBox:
    def test_intersect_and_empty(self):
        first = Box({"x": Interval(0, 10)})
        second = Box({"x": Interval(5, 20), "y": Interval(0, 1)})
        merged = first.intersect(second)
        assert merged.constraint_for("x").low == 5
        assert not merged.is_empty()
        disjoint = first.intersect(Box({"x": Interval(11, 12)}))
        assert disjoint.is_empty()

    def test_mixed_kind_intersection_rejected(self):
        first = Box({"x": Interval(0, 1)})
        second = Box({"x": CategoricalSet.of(["a"])})
        with pytest.raises(TypeError):
            first.intersect(second)

    def test_contains_point(self):
        box = Box({"x": Interval(0, 10), "tag": CategoricalSet.of(["a"])})
        assert box.contains_point({"x": 5, "tag": "a"})
        assert not box.contains_point({"x": 50, "tag": "a"})
        assert not box.contains_point({"x": 5, "tag": "b"})
        assert not box.contains_point({"x": 5})

    def test_sample_point_respects_constraints(self):
        box = Box({"x": Interval(2, 4), "tag": CategoricalSet.of(["u", "v"])})
        point = box.sample_point()
        assert box.contains_point(point)

    def test_equality_and_repr(self):
        assert Box({"x": Interval(0, 1)}) == Box({"x": Interval(0, 1)})
        assert "TRUE" in repr(Box())


class TestBoxSolverBasics:
    def test_positive_only(self):
        solver = BoxSolver()
        assert solver.is_satisfiable([Box({"x": Interval(0, 5)}),
                                      Box({"x": Interval(3, 8)})])
        assert not solver.is_satisfiable([Box({"x": Interval(0, 2)}),
                                          Box({"x": Interval(3, 8)})])

    def test_single_negation(self):
        solver = BoxSolver()
        region = Box({"x": Interval(0, 10)})
        hole = Box({"x": Interval(0, 10)})
        assert not solver.is_satisfiable([region], [hole])
        partial_hole = Box({"x": Interval(2, 3)})
        assert solver.is_satisfiable([region], [partial_hole])

    def test_union_of_negations_covering_region(self):
        solver = BoxSolver()
        region = Box({"x": Interval(0, 10)})
        left = Box({"x": Interval(-1, 5)})
        right = Box({"x": Interval(5, 11)})
        assert not solver.is_satisfiable([region], [left, right])
        gap = Box({"x": Interval(6, 11)})
        assert solver.is_satisfiable([region], [left, gap])

    def test_two_dimensional_coverage(self):
        solver = BoxSolver()
        region = Box({"x": Interval(0, 4), "y": Interval(0, 4)})
        quadrants = [
            Box({"x": Interval(0, 2), "y": Interval(0, 2)}),
            Box({"x": Interval(0, 2), "y": Interval(2, 4)}),
            Box({"x": Interval(2, 4), "y": Interval(0, 2)}),
        ]
        # One quadrant is not excluded, so a witness exists there.
        assert solver.is_satisfiable([region], quadrants)
        quadrants.append(Box({"x": Interval(2, 4), "y": Interval(2, 4)}))
        assert not solver.is_satisfiable([region], quadrants)

    def test_categorical_negation_needs_domain(self):
        region = Box({"tag": CategoricalSet.of(["a", "b"])})
        hole = Box({"tag": CategoricalSet.of(["a"])})
        solver = BoxSolver()
        assert solver.is_satisfiable([region], [hole])
        # Negating an equality without a region constraint requires a domain.
        with pytest.raises(ValueError):
            solver.is_satisfiable([], [hole])
        solver_with_domain = BoxSolver({"tag": AttributeDomain.categorical(["a"])})
        assert not solver_with_domain.is_satisfiable([], [hole])
        wider = BoxSolver({"tag": AttributeDomain.categorical(["a", "z"])})
        assert wider.is_satisfiable([], [hole])

    def test_negation_of_true_box_excludes_everything(self):
        solver = BoxSolver()
        assert not solver.is_satisfiable([Box({"x": Interval(0, 1)})], [Box()])

    def test_integral_domain_gap(self):
        solver = BoxSolver({"k": AttributeDomain.numeric(integral=True)})
        region = Box({"k": Interval(0, 2, integral=True)})
        holes = [Box({"k": Interval(0, 0, integral=True)}),
                 Box({"k": Interval(1, 1, integral=True)}),
                 Box({"k": Interval(2, 2, integral=True)})]
        assert not solver.is_satisfiable([region], holes)
        assert solver.is_satisfiable([region], holes[:2])

    def test_find_witness(self):
        solver = BoxSolver()
        region = Box({"x": Interval(0, 10)})
        hole = Box({"x": Interval(0, 9)})
        witness = solver.find_witness([region], [hole])
        assert witness is not None
        assert 9 < witness["x"] <= 10
        assert solver.find_witness([region], [Box({"x": Interval(-1, 11)})]) is None

    def test_statistics_counted(self):
        solver = BoxSolver()
        solver.is_satisfiable([Box({"x": Interval(0, 1)})])
        assert solver.statistics.satisfiability_checks == 1


# --------------------------------------------------------------------- #
# Property test: the solver agrees with brute-force grid enumeration.
# --------------------------------------------------------------------- #
_GRID = [float(v) for v in range(0, 11)]

interval_strategy = st.tuples(
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=10),
).map(lambda pair: Interval(float(min(pair)), float(max(pair))))

box_strategy = st.fixed_dictionaries({}, optional={
    "x": interval_strategy,
    "y": interval_strategy,
}).map(Box)


def brute_force_satisfiable(positives, negatives) -> bool:
    """Exhaustively check every integer grid point of the [0, 10]^2 domain."""
    for x in _GRID:
        for y in _GRID:
            point = {"x": x, "y": y}
            satisfies_positives = all(_contains_with_defaults(box, point)
                                      for box in positives)
            hits_negative = any(_contains_with_defaults(box, point)
                                for box in negatives)
            if satisfies_positives and not hits_negative:
                return True
    return False


def _contains_with_defaults(box: Box, point: dict) -> bool:
    for attribute, constraint in box.constraints.items():
        if attribute not in point:
            return False
        if not constraint.contains(point[attribute]):
            return False
    return True


class TestBoxSolverProperty:
    @given(
        positives=st.lists(box_strategy, min_size=0, max_size=3),
        negatives=st.lists(box_strategy, min_size=0, max_size=4),
    )
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_grid_enumeration(self, positives, negatives):
        """On integer-grid instances the solver matches brute force.

        The grid restricts attention to integer points, so a grid 'UNSAT' can
        still be solver-SAT (a witness between grid points); but whenever the
        grid finds a witness the solver must agree, and whenever the solver
        says UNSAT the grid must find no witness.
        """
        domains = {"x": AttributeDomain.numeric(0, 10),
                   "y": AttributeDomain.numeric(0, 10)}
        solver = BoxSolver(domains)
        solver_result = solver.is_satisfiable(positives, negatives)
        grid_result = brute_force_satisfiable(positives, negatives)
        if grid_result:
            assert solver_result
        if not solver_result:
            assert not grid_result

    @given(
        positives=st.lists(box_strategy, min_size=0, max_size=3),
        negatives=st.lists(box_strategy, min_size=0, max_size=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_witness_actually_satisfies(self, positives, negatives):
        domains = {"x": AttributeDomain.numeric(0, 10),
                   "y": AttributeDomain.numeric(0, 10)}
        solver = BoxSolver(domains)
        witness = solver.find_witness(positives, negatives)
        if witness is None:
            return
        for box in positives:
            assert _contains_with_defaults(box, witness)
        for box in negatives:
            assert not _contains_with_defaults(box, witness)
