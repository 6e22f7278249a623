"""Cell enumeration against a point oracle.

Every enumeration strategy must return exactly the cells that some point of
the attribute space covers.  The generated constraint sets mix a real
attribute ``x``, an integral attribute ``k`` (every predicate on it is
integral) and a categorical attribute ``c`` with a declared four-value
domain.  Endpoints come from a grid of halves with unbounded ends, so boxes
touch, nest and degenerate to single points.

Ground truth enumerates one point per elementary piece of the grid
arrangement: for ``x`` every finite grid value, every midpoint between
neighbours and one point beyond each end; for ``k`` every integer from
below the lowest finite endpoint to above the highest; for ``c`` every
domain value.  The cells are the non-empty covering sets of the points that
lie inside the query region.  Agreement between strategies is not enough:
both can drop the same satisfiable cell.
"""

from __future__ import annotations

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cells import CellDecomposer, DecompositionStrategy
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.solvers.sat import AttributeDomain

_INF = math.inf
_FINITE = (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
_CATEGORIES = ("a", "b", "c", "d")
_DOMAINS = {"c": AttributeDomain.categorical(_CATEGORIES)}


def _grid_points() -> dict[str, list]:
    midpoints = [(low + high) / 2 for low, high in zip(_FINITE, _FINITE[1:])]
    x_points = ([_FINITE[0] - 1.0] + list(_FINITE) + midpoints
                + [_FINITE[-1] + 1.0])
    k_points = [float(k) for k in range(math.floor(_FINITE[0]) - 1,
                                        math.ceil(_FINITE[-1]) + 2)]
    return {"x": x_points, "k": k_points, "c": list(_CATEGORIES)}


_POINTS = [dict(zip(("x", "k", "c"), values))
           for values in itertools.product(*_grid_points().values())]

# A low endpoint is never +inf and a high one never -inf, so every interval
# holds at least one real point.
_endpoints = st.tuples(st.sampled_from((-_INF,) + _FINITE),
                       st.sampled_from(_FINITE + (_INF,))).map(sorted)


@st.composite
def boxes(draw) -> Predicate:
    """A predicate constraining a random subset of ``x``, ``k`` and ``c``."""
    predicate = Predicate.true()
    if draw(st.booleans()):
        low, high = draw(_endpoints)
        predicate = predicate.with_range("x", low, high)
    if draw(st.booleans()):
        low, high = draw(_endpoints)
        predicate = predicate.with_range("k", low, high, integral=True)
    if draw(st.booleans()):
        values = draw(st.sets(st.sampled_from(_CATEGORIES), min_size=1))
        predicate = predicate.with_membership("c", values)
    return predicate


@st.composite
def instances(draw) -> tuple[PredicateConstraintSet, Predicate | None]:
    predicates = draw(st.lists(boxes(), min_size=1, max_size=7))
    pcset = PredicateConstraintSet(
        [PredicateConstraint(predicate, ValueConstraint({}),
                             FrequencyConstraint(0, 1), name=f"p{index}")
         for index, predicate in enumerate(predicates)],
        _DOMAINS)
    region = draw(st.one_of(st.none(), boxes()))
    return pcset, region


def oracle_cells(pcset: PredicateConstraintSet,
                 region: Predicate | None) -> set[frozenset[int]]:
    predicates = pcset.predicates()
    cells = set()
    for point in _POINTS:
        if region is not None and not region.matches_row(point):
            continue
        covering = frozenset(index for index, predicate in enumerate(predicates)
                             if predicate.matches_row(point))
        if covering:
            cells.add(covering)
    return cells


class TestCellsMatchPointOracle:
    @given(instance=instances())
    @settings(max_examples=300, deadline=None)
    def test_every_strategy_returns_the_oracle_cells(self, instance):
        pcset, region = instance
        expected = oracle_cells(pcset, region)
        for strategy in DecompositionStrategy:
            decomposition = CellDecomposer(pcset, strategy).decompose(region)
            assert {cell.covering for cell in decomposition} == expected, (
                strategy, region, pcset.predicates())
