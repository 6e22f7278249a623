"""The AVG search against an exact allocation oracle, and its failure policy.

The AVG search (:func:`repro.plan.program.avg_endpoints`) runs Dinkelbach's
iteration over MILP probes and closes each direction on the exact extreme
average, rounded outward to the adjacent float.  The oracle checks that
promise bit for bit on tiny generated sets: the lower endpoint is the
largest float at or below the exact minimum, and the upper endpoint the
smallest float at or above the exact maximum.

Ground truth enumerates every integer allocation of rows to the unsharded
program's active cells, keeps those meeting every constraint's ``[kl, ku]``,
and takes the extreme of ``(known_sum + Σ value·x) / (known_count + Σ x)``
as a ``fractions.Fraction`` over the kept allocations with a positive
denominator (cell upper values for the maximum, lower values for the
minimum).  A set without a feasible allocation must raise
:class:`~repro.exceptions.SolverError`, as COUNT and SUM do.  The one-program
search and the two-program reduction over a component-sharded plan's
programs must give the same bits.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.exceptions import SolverError
from repro.parallel.pool import WorkerPool
from repro.obs.metrics import get_registry
from repro.plan import program as program_module
from repro.plan.program import avg_endpoints
from repro.relational.aggregates import AggregateFunction
from repro.solvers.lp import LPSolution, SolutionStatus
from repro.solvers.registry import register_backend, resolve_backend

AVG = AggregateFunction.AVG
_T_GRID = (0.0, 1.0, 2.0, 3.0)
_V_GRID = (-4.0, -1.0, 0.0, 2.0, 5.0)
# Components sit this far apart on ``t``, so their constraints never touch.
_COMPONENT_OFFSET = 10.0


def pc(low: float, high: float, values: tuple[float, float], kl: int, ku: int,
       name: str) -> PredicateConstraint:
    return PredicateConstraint(Predicate.range("t", low, high),
                               ValueConstraint({"v": values}),
                               FrequencyConstraint(kl, ku), name=name)


@st.composite
def constraints(draw, component: int, position: int) -> PredicateConstraint:
    low, high = sorted(draw(st.tuples(st.sampled_from(_T_GRID),
                                      st.sampled_from(_T_GRID))))
    values = tuple(sorted(draw(st.tuples(st.sampled_from(_V_GRID),
                                         st.sampled_from(_V_GRID)))))
    kl, ku = sorted(draw(st.tuples(st.integers(0, 3), st.integers(0, 3))))
    offset = component * _COMPONENT_OFFSET
    return pc(low + offset, high + offset, values, kl, ku,
              f"c{component}_{position}")


@st.composite
def instances(draw):
    """A set of one or two components plus the observed ``(sum, count)``."""
    members = []
    for component in range(draw(st.integers(1, 2))):
        for position in range(draw(st.integers(1, 3))):
            members.append(draw(constraints(component, position)))
    observed = draw(st.lists(st.sampled_from(_V_GRID), max_size=3))
    return (PredicateConstraintSet(members), float(sum(observed)),
            float(len(observed)))


def feasible_allocations(program) -> np.ndarray:
    """Every integer allocation of rows to the program's active cells that
    meets every constraint's ``[kl, ku]``, one row per allocation.

    Cells are added one at a time; a partial allocation that already
    exceeds some ``ku`` is dropped, since adding cells only adds rows."""
    cells = np.repeat(np.arange(len(program.capacity)),
                      np.diff(program.indptr))
    membership = np.zeros((len(program.pcset), len(program.capacity)),
                          dtype=np.int64)
    membership[program.indices, cells] = 1
    membership = membership[:, program.active]
    kl = np.array([pc.min_rows() for pc in program.pcset])
    ku = np.array([pc.max_rows() for pc in program.pcset])
    allocations = np.zeros((1, 0), dtype=np.int64)
    counts = np.zeros((1, len(kl)), dtype=np.int64)
    for cell, capacity in enumerate(program.capacity[program.active]):
        rows = np.arange(int(capacity) + 1)
        values = np.tile(rows, len(allocations))
        allocations = np.hstack([np.repeat(allocations, len(rows), axis=0),
                                 values[:, None]])
        counts = (np.repeat(counts, len(rows), axis=0)
                  + values[:, None] * membership[:, cell])
        keep = np.all(counts <= ku, axis=1)
        allocations, counts = allocations[keep], counts[keep]
    return allocations[np.all(counts >= kl, axis=1)]


def extreme_average(feasible: np.ndarray, values: np.ndarray,
                    known_sum: float, denominators: np.ndarray,
                    choose) -> Fraction:
    """The exact extreme (``choose`` is max or min) of the averages of the
    ``feasible`` allocations whose denominator is positive.

    Every value is an integer multiple of ``1 / scale``, so each numerator
    is an exact integer over ``scale``; per denominator only the extreme
    numerator can win."""
    scale = max(Fraction(number).denominator
                for number in values.tolist() + [known_sum])
    scaled = np.array([int(Fraction(value) * scale)
                       for value in values.tolist()], dtype=object)
    numerators = int(Fraction(known_sum) * scale) + feasible @ scaled
    return choose(
        Fraction(int(choose(numerators[denominators == denominator])),
                 int(denominator) * scale)
        for denominator in np.unique(denominators[denominators > 0]))


def oracle(program, known_sum: float, known_count: float):
    """The exact (min, max) average over the feasible allocations: None
    when no allocation is feasible, and (None, None) when no feasible
    allocation has a positive denominator."""
    feasible = feasible_allocations(program)
    if len(feasible) == 0:
        return None
    denominators = int(known_count) + feasible.sum(axis=1)
    if not (denominators > 0).any():
        return None, None
    lower, upper = program.value_bounds("v")
    return (extreme_average(feasible, lower[program.active],
                            known_sum, denominators, min),
            extreme_average(feasible, upper[program.active],
                            known_sum, denominators, max))


def float_at_or_below(value: Fraction) -> float:
    nearest = float(value)
    return nearest if nearest <= value else math.nextafter(nearest, -math.inf)


def float_at_or_above(value: Fraction) -> float:
    nearest = float(value)
    return nearest if nearest >= value else math.nextafter(nearest, math.inf)


def assert_exact(lower, upper, truth) -> None:
    lowest, highest = truth
    if lowest is None:
        assert (lower, upper) == (None, None)
        return
    assert lower == float_at_or_below(lowest)
    assert upper == float_at_or_above(highest)


def component_programs(pcset: PredicateConstraintSet) -> list:
    solver = PCBoundSolver(pcset, BoundOptions(check_closure=False))
    sharded = solver.sharded_plan(None, max_shards=2)
    return [solver.shard_program(shard, None) for shard in sharded]


class TestAvgOracle:
    @settings(max_examples=60, deadline=None)
    @given(instances())
    def test_endpoints_contain_and_approach_the_true_extremes(self, instance):
        """Each endpoint is the exact extreme rounded outward to the adjacent
        float, and the one-program and two-program searches agree bit for
        bit."""
        pcset, known_sum, known_count = instance
        solver = PCBoundSolver(pcset, BoundOptions(check_closure=False))
        truth = oracle(solver.program(None), known_sum, known_count)
        programs = component_programs(pcset)
        with WorkerPool(max_workers=1) as pool:
            keyed = list(enumerate(programs))

            def reduction():
                return avg_endpoints(
                    programs, "v", known_sum, known_count,
                    lambda probes: pool.avg_probes(keyed, "v", probes))

            if truth is None:
                with pytest.raises(SolverError):
                    solver.bound(AVG, "v", None, known_sum, known_count)
                with pytest.raises(SolverError):
                    reduction()
                return
            result = solver.bound(AVG, "v", None, known_sum, known_count)
            assert_exact(result.lower, result.upper, truth)
            assert reduction() == (result.lower, result.upper)

    @settings(max_examples=30, deadline=None)
    @given(instances())
    def test_iteration_cap_answers_the_bracket_ends(self, instance):
        """With one iteration per direction, every direction a search opens
        is still open at the cap and answers its bracket end (the solver-free
        worst case), which holds the exact extreme."""
        pcset, known_sum, known_count = instance
        solver = PCBoundSolver(pcset, BoundOptions(check_closure=False))
        program = solver.program(None)
        truth = oracle(program, known_sum, known_count)
        if truth is None:
            return
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(program_module, "AVG_MAX_PROBES", 1)
            result = program.bound(AVG, "v", known_sum, known_count)
        bracket = program.worst_case_range(AVG, "v", known_sum, known_count)
        assert (result.lower, result.upper) == (bracket.lower, bracket.upper)
        lowest, highest = truth
        if lowest is not None:
            assert result.lower <= lowest and result.upper >= highest

    def test_capped_search_is_counted(self, monkeypatch):
        solver = PCBoundSolver(PredicateConstraintSet(list(_OVERLAPPING)),
                               BoundOptions(check_closure=False))
        capped = get_registry().counter("queries.avg_capped")
        exact = solver.bound(AVG, "v", None, 30.0, 3.0)
        assert exact.upper == 66.25
        before = capped.value
        monkeypatch.setattr(program_module, "AVG_MAX_PROBES", 1)
        program = solver.program(None)
        result = program.bound(AVG, "v", 30.0, 3.0)
        assert (result.lower, result.upper) == (0.0, 100.0)
        assert capped.value == before + 1

    @pytest.mark.parametrize("a_values,known_sum,expected", [
        ((0.0, 50.0), 30.0, (0.0, 50.0)),
        ((20.0, 50.0), 300.0, (20.0, 100.0))])
    def test_unlimited_cell_bounds_the_average_by_its_value(
            self, a_values, known_sum, expected):
        """A lets any number of rows in, B one; 3 rows are observed.  A
        probe that A's value beats is unbounded, and as A's rows grow the
        average approaches A's value: that is the endpoint, not the
        bracket end (0 or 100).  One program and the two component
        programs agree."""
        pcset = PredicateConstraintSet([
            pc(0.0, 1.0, a_values, 0, math.inf, "A"),
            pc(5.0, 6.0, (0.0, 100.0), 0, 1, "B")])
        solver = PCBoundSolver(pcset, BoundOptions(check_closure=False))
        result = solver.bound(AVG, "v", None, known_sum, 3.0)
        assert (result.lower, result.upper) == expected
        programs = component_programs(pcset)
        assert len(programs) == 2
        with WorkerPool(max_workers=1) as pool:
            keyed = list(enumerate(programs))
            assert avg_endpoints(
                programs, "v", known_sum, 3.0,
                lambda probes: pool.avg_probes(keyed, "v", probes)) == expected


# --------------------------------------------------------------------- #
# Probe failures fail the query
# --------------------------------------------------------------------- #
class FirstSolveFails:
    """Exact branch-and-bound, except that each process's first solve
    reports a solver error.  A forked pool worker starts with a copy of
    the parent's record, so its own first solve fails too."""

    def __init__(self):
        self.failed_in: set[int] = set()

    def __call__(self, milp, c, sense):
        if os.getpid() not in self.failed_in:
            self.failed_in.add(os.getpid())
            return LPSolution(SolutionStatus.ERROR, None)
        return resolve_backend("branch-and-bound")(milp, c, sense)


# A: t ∈ [0, 2], v ∈ [0, 100]; B: t ∈ [1, 3], v ∈ [0, 10]; 0–5 rows each.
# With 30 observed over 3 rows the exact AVG(v) is [2.31, 66.25]; reading
# the failed first probe as "not achievable" cut the upper end to 50.
_OVERLAPPING = [pc(0.0, 2.0, (0.0, 100.0), 0, 5, "A"),
                pc(1.0, 3.0, (0.0, 10.0), 0, 5, "B")]
# a needs 5 rows where b allows 2; c is a second component.  The search
# used to return lower 30 > upper 8.9e-07 here.
_UNSATISFIABLE = [pc(0.0, 1.0, (0.0, 10.0), 5, 10, "a"),
                  pc(0.0, 1.0, (0.0, 10.0), 0, 2, "b"),
                  pc(50.0, 51.0, (20.0, 30.0), 0, 4, "c")]


class TestProbeFailures:
    @pytest.fixture(autouse=True)
    def _first_solve_fails(self):
        # Registered at run time, not at import, so the backend matrix
        # (collected from the registry) never picks this backend up.
        register_backend("first-solve-fails", FirstSolveFails(),
                         replace=True)

    def test_failed_probe_solve_raises_on_the_serial_path(self):
        solver = PCBoundSolver(
            PredicateConstraintSet(list(_OVERLAPPING)),
            BoundOptions(check_closure=False,
                         milp_backend="first-solve-fails"))
        with pytest.raises(SolverError, match="MILP solve failed"):
            solver.bound(AVG, "v", None, 30.0, 3.0)
        # The next solves succeed: the range is the exact one.
        result = solver.bound(AVG, "v", None, 30.0, 3.0)
        assert result.upper == pytest.approx(66.25, abs=1e-3)

    def test_failed_probe_solve_raises_on_a_component_sharded_pool(self):
        pcset = PredicateConstraintSet(
            _OVERLAPPING + [pc(10.0, 11.0, (0.0, 10.0), 0, 5, "C")])
        with WorkerPool(max_workers=2, mode="process") as pool:
            solver = PCBoundSolver(
                pcset, BoundOptions(check_closure=False, solve_workers=2,
                                    milp_backend="first-solve-fails"),
                worker_pool=pool)
            sharded = solver.sharded_plan(None)
            assert sharded.is_sharded and sharded.strategy == "component"
            with pytest.raises(SolverError, match="MILP solve failed"):
                solver.bound(AVG, "v", None, 30.0, 3.0)

    @pytest.mark.parametrize("known", [(0.0, 0.0), (30.0, 3.0)])
    def test_unsatisfiable_set_raises_on_the_serial_path(self, known):
        solver = PCBoundSolver(PredicateConstraintSet(list(_UNSATISFIABLE)),
                               BoundOptions(check_closure=False))
        with pytest.raises(SolverError, match="unsatisfiable"):
            solver.bound(AggregateFunction.COUNT)
        with pytest.raises(SolverError, match="unsatisfiable"):
            solver.bound(AVG, "v", None, *known)

    @pytest.mark.parametrize("known", [(0.0, 0.0), (30.0, 3.0)])
    def test_unsatisfiable_set_raises_on_a_component_sharded_pool(self, known):
        with WorkerPool(max_workers=2, mode="process") as pool:
            solver = PCBoundSolver(
                PredicateConstraintSet(list(_UNSATISFIABLE)),
                BoundOptions(check_closure=False, solve_workers=2),
                worker_pool=pool)
            sharded = solver.sharded_plan(None)
            assert sharded.is_sharded and sharded.strategy == "component"
            with pytest.raises(SolverError, match="unsatisfiable"):
                solver.bound(AVG, "v", None, *known)
            assert pool.statistics.tasks_shipped > 0
