"""Tests for bound explanations and decomposition completeness properties."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.cells import CellDecomposer, DecompositionStrategy
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.exceptions import SolverError
from repro.relational.aggregates import AggregateFunction
from repro.solvers.registry import available_backends

NO_CLOSURE = BoundOptions(check_closure=False)
#: The built-in backends, read at import, before any test registers its own.
BACKENDS = available_backends()


class TestBoundExplanation:
    def test_paper_example_allocation(self, paper_overlapping_pcs):
        for backend in BACKENDS:
            solver = PCBoundSolver(paper_overlapping_pcs, BoundOptions(
                milp_backend=backend, check_closure=False))
            explanation = solver.explain(AggregateFunction.SUM, "price")
            assert explanation.bound == pytest.approx(17_748.75), backend
            # The optimal allocation: 50 rows in the t1∧t2 cell at 129.99
            # and 75 rows in the t2-only cell at 149.99.
            contributions = {allocation.covering_constraints: allocation
                             for allocation in explanation.allocations}
            both, t2_only = contributions[("t1", "t2")], contributions[("t2",)]
            assert both.rows_allocated == pytest.approx(50), backend
            assert both.per_row_value == pytest.approx(129.99), backend
            assert t2_only.rows_allocated == pytest.approx(75), backend
            assert t2_only.per_row_value == pytest.approx(149.99), backend
            total = sum(allocation.contribution
                        for allocation in explanation.allocations)
            assert total == pytest.approx(explanation.bound), backend

    def test_saturated_constraints_reported(self, paper_overlapping_pcs):
        for backend in BACKENDS:
            solver = PCBoundSolver(paper_overlapping_pcs, BoundOptions(
                milp_backend=backend, check_closure=False))
            explanation = solver.explain(AggregateFunction.COUNT)
            # The COUNT bound (125) saturates both frequency capacities.
            assert explanation.saturated_constraints == ("t1", "t2"), backend
            assert "COUNT upper bound" in explanation.summary(), backend

    def test_explanation_matches_bound(self, paper_disjoint_pcs):
        solver = PCBoundSolver(paper_disjoint_pcs, NO_CLOSURE)
        bound = solver.bound(AggregateFunction.SUM, "price")
        explanation = solver.explain(AggregateFunction.SUM, "price")
        assert explanation.bound == pytest.approx(bound.upper)

    def test_explanation_with_region(self, paper_disjoint_pcs):
        solver = PCBoundSolver(paper_disjoint_pcs, NO_CLOSURE)
        region = Predicate.range("utc", 11, 11.5)
        explanation = solver.explain(AggregateFunction.SUM, "price", region)
        assert explanation.bound == pytest.approx(100 * 129.99)

    def test_unsupported_aggregate(self, paper_disjoint_pcs):
        solver = PCBoundSolver(paper_disjoint_pcs, NO_CLOSURE)
        with pytest.raises(SolverError):
            solver.explain(AggregateFunction.MAX, "price")
        with pytest.raises(SolverError):
            solver.explain(AggregateFunction.SUM)

    def test_empty_constraint_set(self):
        solver = PCBoundSolver(PredicateConstraintSet(), NO_CLOSURE)
        explanation = solver.explain(AggregateFunction.COUNT)
        assert explanation.bound == 0.0
        assert explanation.allocations == ()


# --------------------------------------------------------------------- #
# Decomposition completeness property: every point covered by at least one
# predicate falls in exactly one enumerated cell.
# --------------------------------------------------------------------- #
segment = st.tuples(st.integers(min_value=0, max_value=12),
                    st.integers(min_value=1, max_value=6))


@st.composite
def interval_pcsets(draw):
    segments = draw(st.lists(segment, min_size=1, max_size=5))
    constraints = []
    for index, (start, width) in enumerate(segments):
        constraints.append(PredicateConstraint(
            Predicate.range("x", float(start), float(start + width)),
            ValueConstraint({"v": (0.0, 1.0)}),
            FrequencyConstraint(0, 5), name=f"seg{index}"))
    pcset = PredicateConstraintSet(constraints)
    pcset.mark_disjoint(False)  # force the full decomposition path
    return pcset, segments


class TestDecompositionCompleteness:
    @given(data=interval_pcsets(),
           probe=st.floats(min_value=-1, max_value=20, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_every_covered_point_lies_in_exactly_one_cell(self, data, probe):
        pcset, segments = data
        decomposition = CellDecomposer(pcset, DecompositionStrategy.DFS_REWRITE).decompose()
        covering = frozenset(
            index for index, (start, width) in enumerate(segments)
            if start <= probe <= start + width)
        matching_cells = [cell for cell in decomposition.cells
                          if cell.covering == covering]
        if covering:
            assert len(matching_cells) == 1
        else:
            assert not matching_cells

    @given(data=interval_pcsets())
    @settings(max_examples=40, deadline=None)
    def test_strategies_agree_on_random_interval_sets(self, data):
        pcset, _segments = data
        rewrite = CellDecomposer(pcset, DecompositionStrategy.DFS_REWRITE).decompose()
        dfs = CellDecomposer(pcset, DecompositionStrategy.DFS).decompose()
        assert {cell.covering for cell in rewrite.cells} == \
            {cell.covering for cell in dfs.cells}
