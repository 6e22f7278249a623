"""COUNT, SUM, MIN and MAX ranges against an allocation oracle.

The promise is a hard range: every value an aggregate takes over some
instance of the missing rows that meets the constraints lies inside it.
The oracle checks that promise on tiny generated sets, and, without a
query region, that COUNT and SUM on the exact backends return the true
extremes, not merely a superset.

Constraints sit on an integral ``t`` (so the rows' positions are a few
points) and bound a real ``v``.  Ground truth enumerates every count of
rows at every ``t`` point that keeps each constraint's count within its
``[kl, ku]``.  A row at a point takes any ``v`` inside every covering
constraint's value bounds, so a point whose bounds are empty holds no
rows.  Under a region on ``t`` a point lies inside or outside it; under a
region on ``v`` a point's rows split into those whose value can fall
inside the region and those whose value can fall outside it.  Nothing here
goes through box-SAT, cell profiles, the slack layout or the MILP: the
oracle reads only the constraint tuples the instance was drawn from.

Each instance runs on three backends, serially and through
:func:`~repro.plan.sharding.merge_shard_ranges` over the component shards'
programs.  A feasible set never raises.  Wherever COUNT raises
:class:`~repro.exceptions.SolverError`, SUM, MIN and MAX raise too: MIN
and MAX read no solve of their own, so they ask the program's feasibility
verdict.  A set without a feasible allocation must raise on the exact
backends without a region.  Elsewhere it may be answered: the relaxation
may find a fractional allocation, and the slack that lets mandatory rows
leave a region ignores the other constraints.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.builders import build_corr_pcs
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.engine import ContingencyQuery, PCAnalyzer
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.datasets.intel_wireless import generate_intel_wireless
from repro.exceptions import SolverError
from repro.plan.sharding import merge_shard_ranges
from repro.relational.aggregates import AggregateFunction
from repro.solvers.sat import AttributeDomain

COUNT, SUM = AggregateFunction.COUNT, AggregateFunction.SUM
MIN, MAX = AggregateFunction.MIN, AggregateFunction.MAX
AVG = AggregateFunction.AVG
QUERIES = ((COUNT, None), (SUM, "v"), (MIN, "v"), (MAX, "v"))
BACKENDS = ("scipy", "branch-and-bound", "relaxation")
EXACT_BACKENDS = ("scipy", "branch-and-bound")

_T_GRID = (0, 1, 2, 3)
_V_GRID = (-4.0, -1.0, 0.0, 2.0, 5.0)
# Components sit this far apart on ``t``, so their constraints never touch.
_COMPONENT_OFFSET = 10
_REGION_T = (-1, 0, 1, 2, 3, 4, 10, 11, 12, 13, 14)
_REGION_V = (-5.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 5.0, 6.0)

# One outcome row per allocation: COUNT, the lowest and highest SUM, the
# lowest and highest MAX and the lowest and highest MIN over its in-region
# rows (MAX is -inf and MIN +inf when the region holds none of its rows).
_COUNT, _SUM_LOW, _SUM_HIGH, _MAX_LOW, _MAX_HIGH, _MIN_LOW, _MIN_HIGH = range(7)


@st.composite
def constraint_specs(draw, component: int) -> tuple:
    """``(t_low, t_high, v_low, v_high, kl, ku)`` of one constraint."""
    t_low, t_high = sorted(draw(st.tuples(st.sampled_from(_T_GRID),
                                          st.sampled_from(_T_GRID))))
    v_low, v_high = sorted(draw(st.tuples(st.sampled_from(_V_GRID),
                                          st.sampled_from(_V_GRID))))
    kl, ku = sorted(draw(st.tuples(st.integers(0, 2), st.integers(0, 2))))
    offset = component * _COMPONENT_OFFSET
    return (t_low + offset, t_high + offset, v_low, v_high, kl, ku)


@st.composite
def instances(draw):
    """One or two components of 1–3 constraints, and a region that is
    absent, ``("t", low, high)`` or ``("v", low, high)``."""
    components = [[draw(constraint_specs(component))
                   for _ in range(draw(st.integers(1, 3)))]
                  for component in range(draw(st.integers(1, 2)))]
    kind = draw(st.sampled_from([None, "t", "v"]))
    if kind is None:
        return components, None
    grid = _REGION_T if kind == "t" else _REGION_V
    low, high = sorted(draw(st.tuples(st.sampled_from(grid),
                                      st.sampled_from(grid))))
    return components, (kind, low, high)


def build_pcset(components) -> PredicateConstraintSet:
    return PredicateConstraintSet(
        [PredicateConstraint(Predicate.range("t", t_low, t_high, integral=True),
                             ValueConstraint({"v": (v_low, v_high)}),
                             FrequencyConstraint(kl, ku),
                             name=f"c{component}_{position}")
         for component, specs in enumerate(components)
         for position, (t_low, t_high, v_low, v_high, kl, ku)
         in enumerate(specs)],
        domains={"t": AttributeDomain.numeric(integral=True)})


def build_region(region) -> Predicate | None:
    if region is None:
        return None
    attribute, low, high = region
    return Predicate.range(attribute, low, high, integral=attribute == "t")


def slots(specs, region) -> list[tuple]:
    """``(point, low, high)`` per kind of row a point can hold: in-region
    rows carry their ``v`` bounds clipped to the region, rows outside the
    region carry ``None`` bounds."""
    found = []
    points = sorted({point for t_low, t_high, *_ in specs
                     for point in range(t_low, t_high + 1)})
    for point in points:
        covering = [spec for spec in specs if spec[0] <= point <= spec[1]]
        low = max(spec[2] for spec in covering)
        high = min(spec[3] for spec in covering)
        if low > high:
            continue  # no value meets every covering constraint
        if region is None:
            found.append((point, low, high))
        elif region[0] == "t":
            inside = region[1] <= point <= region[2]
            found.append((point, low, high) if inside else (point, None, None))
        else:
            _, region_low, region_high = region
            if max(low, region_low) <= min(high, region_high):
                found.append((point, max(low, region_low),
                              min(high, region_high)))
            if low < region_low or high > region_high:
                found.append((point, None, None))
    return found


def component_outcomes(specs, region) -> np.ndarray:
    """The distinct outcome rows of one component's feasible allocations.

    Slots are added one at a time; a partial allocation that already
    exceeds some ``ku`` is dropped, since adding slots only adds rows."""
    kinds = slots(specs, region)
    membership = np.array([[spec[0] <= point <= spec[1]
                            for point, _, _ in kinds] for spec in specs],
                          dtype=np.int64).reshape(len(specs), len(kinds))
    kl = np.array([spec[4] for spec in specs])
    ku = np.array([spec[5] for spec in specs])
    allocations = np.zeros((1, 0), dtype=np.int64)
    counts = np.zeros((1, len(specs)), dtype=np.int64)
    rows = np.arange(ku.max() + 1)
    for slot in range(len(kinds)):
        added = np.tile(rows, len(allocations))
        allocations = np.hstack([np.repeat(allocations, len(rows), axis=0),
                                 added[:, None]])
        counts = (np.repeat(counts, len(rows), axis=0)
                  + added[:, None] * membership[:, slot])
        keep = np.all(counts <= ku, axis=1)
        allocations, counts = allocations[keep], counts[keep]
    feasible = allocations[np.all(counts >= kl, axis=1)]
    inside = np.array([low is not None for _, low, _ in kinds], dtype=bool)
    lows = np.array([0.0 if low is None else low for _, low, _ in kinds])
    highs = np.array([0.0 if high is None else high for _, _, high in kinds])
    occupied = (feasible > 0) & inside
    outcomes = np.column_stack([
        feasible @ inside,
        feasible @ lows,
        feasible @ highs,
        np.where(occupied, lows, -np.inf).max(axis=1, initial=-np.inf),
        np.where(occupied, highs, -np.inf).max(axis=1, initial=-np.inf),
        np.where(occupied, lows, np.inf).min(axis=1, initial=np.inf),
        np.where(occupied, highs, np.inf).min(axis=1, initial=np.inf),
    ])
    return np.unique(outcomes, axis=0)


def outcomes(components, region) -> np.ndarray:
    """The distinct outcome rows of the whole set's feasible allocations
    (none when some component has none): components allocate
    independently, so COUNT and SUM add and MIN and MAX take extrema."""
    combined = component_outcomes(components[0], region)
    for specs in components[1:]:
        left = combined[:, None, :]
        right = component_outcomes(specs, region)[None, :, :]
        combined = np.unique(np.concatenate([
            left[..., :_MAX_LOW] + right[..., :_MAX_LOW],
            np.maximum(left[..., _MAX_LOW:_MIN_LOW],
                       right[..., _MAX_LOW:_MIN_LOW]),
            np.minimum(left[..., _MIN_LOW:], right[..., _MIN_LOW:]),
        ], axis=-1).reshape(-1, 7), axis=0)
    return combined


def true_extremes(rows: np.ndarray) -> dict:
    """Per aggregate, the lowest and highest value it takes over the
    feasible allocations; None for MIN and MAX when no allocation places a
    row in the region."""
    holds_rows = rows[:, _COUNT] > 0
    extremes = {COUNT: (rows[:, _COUNT].min(), rows[:, _COUNT].max()),
                SUM: (rows[:, _SUM_LOW].min(), rows[:, _SUM_HIGH].max()),
                MIN: None, MAX: None}
    if holds_rows.any():
        extremes[MAX] = (rows[holds_rows, _MAX_LOW].min(),
                         rows[holds_rows, _MAX_HIGH].max())
        extremes[MIN] = (rows[holds_rows, _MIN_LOW].min(),
                         rows[holds_rows, _MIN_HIGH].max())
    return extremes


def serial_bound(solver: PCBoundSolver, region, aggregate, attribute):
    return solver.bound(aggregate, attribute, region)


def merged_bound(solver: PCBoundSolver, region, aggregate, attribute):
    """The range merged from the component shards' programs, in-process."""
    sharded = solver.sharded_plan(region, attribute, max_shards=2)
    ranges = [solver.shard_program(shard, region, attribute).bound(aggregate)
              for shard in sharded]
    return merge_shard_ranges(aggregate, ranges, attribute)


# ``inner`` needs 3 rows inside ``outer``, which allows 2: COUNT raises,
# and MIN and MAX used to answer.
_NESTED_UNSATISFIABLE = ([[(0, 2, 0.0, 10.0, 0, 2), (0, 1, 3.0, 5.0, 3, 4)]],
                         None)


class TestRangeOracle:
    @settings(max_examples=80, deadline=None)
    @given(instances())
    @example(_NESTED_UNSATISFIABLE)
    def test_ranges_contain_every_value_and_are_exact_without_a_region(
            self, instance):
        components, region_spec = instance
        pcset = build_pcset(components)
        region = build_region(region_spec)
        rows = outcomes(components, region_spec)
        truth = true_extremes(rows) if len(rows) else None
        for backend in BACKENDS:
            solver = PCBoundSolver(pcset, BoundOptions(check_closure=False,
                                                       milp_backend=backend))
            exact = region is None and backend in EXACT_BACKENDS
            for path, bound in (("serial", serial_bound),
                                ("merged", merged_bound)):
                detail = (backend, path)
                try:
                    results = {COUNT: bound(solver, region, COUNT, None)}
                except SolverError:
                    assert truth is None, detail
                    for aggregate, attribute in QUERIES[1:]:
                        with pytest.raises(SolverError):
                            bound(solver, region, aggregate, attribute)
                    continue
                if truth is None:
                    assert not exact, detail  # answered an unsatisfiable set
                    continue
                for aggregate, attribute in QUERIES[1:]:
                    results[aggregate] = bound(solver, region, aggregate,
                                               attribute)
                for aggregate, result in results.items():
                    if truth[aggregate] is None:
                        continue
                    lowest, highest = truth[aggregate]
                    detail = (backend, path, aggregate.value)
                    assert result.contains(lowest), (detail, result, lowest)
                    assert result.contains(highest), (detail, result, highest)
                    if exact and aggregate in (COUNT, SUM):
                        assert (result.lower, result.upper) == pytest.approx(
                            (lowest, highest), abs=1e-6), (detail, result)


def pc(t_low: float, t_high: float, values: tuple[float, float], kl: int,
       ku: int, name: str) -> PredicateConstraint:
    return PredicateConstraint(Predicate.range("t", t_low, t_high),
                               ValueConstraint({"v": values}),
                               FrequencyConstraint(kl, ku), name=name)


# --------------------------------------------------------------------- #
# Feasibility: every aggregate raises on a set no allocation satisfies
# --------------------------------------------------------------------- #
class TestFeasibilityVerdict:
    @staticmethod
    def nested(outer_values: tuple[float, float]) -> PredicateConstraintSet:
        """``inner`` needs 3 rows inside ``outer``, which allows 2; ``far``
        is a second, satisfiable component."""
        return PredicateConstraintSet([
            pc(0, 2, outer_values, 0, 2, "outer"),
            pc(0, 1, (3.0, 5.0), 3, 4, "inner"),
            pc(50, 51, (1.0, 2.0), 0, 3, "far")])

    @pytest.mark.parametrize("outer_values", [(0.0, 10.0),
                                              (0.0, float("inf"))])
    def test_every_aggregate_raises_where_count_does(self, outer_values):
        """MIN and MAX used to answer [0, 5] and [3, 10] here, and AVG
        answered (-inf, inf) without a check once a value was unbounded."""
        solver = PCBoundSolver(self.nested(outer_values),
                               BoundOptions(check_closure=False))
        for aggregate, attribute in QUERIES + ((AVG, "v"),):
            with pytest.raises(SolverError, match="unsatisfiable"):
                solver.bound(aggregate, attribute)

    def test_a_set_with_no_cell_raises_when_it_forces_rows(self):
        """No row can lie in t ∈ [20, 30] inside the domain [0, 10], so the
        program has no cell.  COUNT and SUM used to answer [0, 0] and MIN
        and MAX (None, None) while AVG raised."""
        solver = PCBoundSolver(
            PredicateConstraintSet([pc(20, 30, (0.0, 5.0), 1, 3, "outside")],
                                   domains={"t": AttributeDomain.numeric(0, 10)}),
            BoundOptions(check_closure=False))
        for aggregate, attribute in QUERIES + ((AVG, "v"),):
            with pytest.raises(SolverError, match="unsatisfiable"):
                solver.bound(aggregate, attribute)

    def test_min_and_max_raise_on_a_component_sharded_pool(self):
        from repro.parallel.pool import WorkerPool

        with WorkerPool(max_workers=2, mode="process") as pool:
            solver = PCBoundSolver(
                self.nested((0.0, 10.0)),
                BoundOptions(check_closure=False, solve_workers=2),
                worker_pool=pool)
            assert solver.sharded_plan(None, "v").strategy == "component"
            for aggregate in (MIN, MAX):
                with pytest.raises(SolverError, match="unsatisfiable"):
                    solver.bound(aggregate, "v")
            assert pool.statistics.tasks_shipped > 0


# --------------------------------------------------------------------- #
# Barren cells: a cell whose bounds on some attribute are empty holds no rows
# --------------------------------------------------------------------- #


class TestBarrenCells:
    def test_count_raises_where_no_row_meets_the_value_bounds(self):
        """``hot`` needs a row in t ∈ [0, 1], where ``cold`` also holds and
        no value is both 5 and at most 0.  COUNT(*) used to answer [1, 2]
        because only the aggregated attribute was read."""
        solver = PCBoundSolver(
            PredicateConstraintSet([pc(0, 1, (5.0, 5.0), 1, 3, "hot"),
                                    pc(0, 2, (-4.0, 0.0), 0, 2, "cold")]),
            BoundOptions(check_closure=False))
        for aggregate, attribute in ((SUM, "v"), (COUNT, None)):
            with pytest.raises(SolverError, match="unsatisfiable"):
                solver.bound(aggregate, attribute)

    def test_count_reads_a_value_region(self):
        """No row can have v in [3, 4]: COUNT agrees with SUM's [0, 0]
        (it used to answer [0, 5])."""
        solver = PCBoundSolver(
            PredicateConstraintSet([pc(0, 10, (0.0, 2.0), 0, 5, "only")]),
            BoundOptions(check_closure=False))
        region = Predicate.range("v", 3.0, 4.0)
        for aggregate, attribute in ((COUNT, None), (SUM, "v")):
            result = solver.bound(aggregate, attribute, region)
            assert (result.lower, result.upper) == (0.0, 0.0)

    def test_sensor_outage_example(self):
        """The paper's introduction query, as
        ``examples/sensor_outage_contingency.py`` runs it: readings above
        the light threshold.  The upper end used to be 3802 (truth 2000)."""
        relation = generate_intel_wireless(num_rows=20_000, seed=7)
        low, high = relation.column_range("time")
        width = (high - low) / 10.0
        lost = Predicate.range("time", low + 6 * width, low + 7 * width)
        lost_mask = lost.to_expression().evaluate(relation)
        missing = relation.filter(lost_mask)
        threshold = float(np.quantile(relation.column("light"), 0.90))
        query = ContingencyQuery.count(
            Predicate.range("light", threshold, float("inf")))
        analyzer = PCAnalyzer(
            build_corr_pcs(missing, "light", 200,
                           candidates=["device_id", "time"]),
            observed=relation.filter(~lost_mask),
            options=BoundOptions(check_closure=False))
        report = analyzer.analyze(query)
        assert (report.lower, report.upper) == (1811.0, 2136.0)
        assert report.result_range.contains(query.ground_truth(relation))
