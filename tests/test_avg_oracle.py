"""The AVG search against an allocation oracle, and its failure policy.

The §4.2 search (:func:`repro.plan.program.avg_endpoints`) bisects over
MILP probes, so its endpoints are the bracket's conservative ends, not the
exact extremes.  The oracle checks both halves of that promise on tiny
generated sets: each endpoint contains the true extreme average and lies
within the search's stopping width of it.

Ground truth enumerates every integer allocation of rows to the unsharded
program's active cells, keeps those meeting every constraint's ``[kl, ku]``,
and takes the extreme of ``(known_sum + Σ value·x) / (known_count + Σ x)``
over the kept allocations with a positive denominator (cell upper values
for the maximum, lower values for the minimum).  A set without a feasible
allocation must raise :class:`~repro.exceptions.SolverError`, as COUNT and
SUM do.  The same checks run on the one-program search and on the
two-program reduction over a component-sharded plan's programs.
"""

from __future__ import annotations

import os

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
from repro.plan.program import AVG_TOLERANCE, avg_endpoints
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
    active = program.active_profiles
    membership = np.array([[index in profile.covering for profile in active]
                           for index in range(len(program.pcset))],
                          dtype=np.int64).reshape(len(program.pcset), -1)
    kl = np.array([pc.min_rows() for pc in program.pcset])
    ku = np.array([pc.max_rows() for pc in program.pcset])
    allocations = np.zeros((1, 0), dtype=np.int64)
    counts = np.zeros((1, len(kl)), dtype=np.int64)
    for cell, profile in enumerate(active):
        rows = np.arange(profile.capacity + 1)
        values = np.tile(rows, len(allocations))
        allocations = np.hstack([np.repeat(allocations, len(rows), axis=0),
                                 values[:, None]])
        counts = (np.repeat(counts, len(rows), axis=0)
                  + values[:, None] * membership[:, cell])
        keep = np.all(counts <= ku, axis=1)
        allocations, counts = allocations[keep], counts[keep]
    return allocations[np.all(counts >= kl, axis=1)]


def oracle(program, known_sum: float, known_count: float):
    """The exact (min, max) average over the feasible allocations: None
    when no allocation is feasible, and (None, None) when no feasible
    allocation has a positive denominator."""
    feasible = feasible_allocations(program)
    if len(feasible) == 0:
        return None
    denominators = known_count + feasible.sum(axis=1)
    positive = denominators > 0
    if not positive.any():
        return None, None
    active = program.active_profiles
    uppers = np.array([profile.value_upper for profile in active])
    lowers = np.array([profile.value_lower for profile in active])
    highest = ((known_sum + feasible @ uppers)[positive]
               / denominators[positive]).max()
    lowest = ((known_sum + feasible @ lowers)[positive]
              / denominators[positive]).min()
    return float(lowest), float(highest)


def assert_within_stopping_width(lower, upper, truth) -> None:
    lowest, highest = truth
    if lowest is None:
        assert (lower, upper) == (None, None)
        return
    assert lower <= lowest and upper >= highest
    for endpoint, extreme in ((lower, lowest), (upper, highest)):
        width = AVG_TOLERANCE * max(1.0, abs(endpoint), abs(extreme))
        assert abs(endpoint - extreme) <= width + 1e-9


def component_programs(pcset: PredicateConstraintSet) -> list:
    solver = PCBoundSolver(pcset, BoundOptions(check_closure=False))
    sharded = solver.sharded_plan(None, "v", max_shards=2)
    return [solver.shard_program(shard, None, "v") for shard in sharded]


class TestAvgOracle:
    @settings(max_examples=60, deadline=None)
    @given(instances())
    def test_endpoints_contain_and_approach_the_true_extremes(self, instance):
        pcset, known_sum, known_count = instance
        solver = PCBoundSolver(pcset, BoundOptions(check_closure=False))
        truth = oracle(solver.program(None, "v"), known_sum, known_count)
        programs = component_programs(pcset)
        with WorkerPool(max_workers=1) as pool:
            keyed = list(enumerate(programs))

            def reduction():
                return avg_endpoints(
                    programs, known_sum, known_count,
                    lambda probes: pool.avg_probes(keyed, probes))

            if truth is None:
                with pytest.raises(SolverError):
                    solver.bound(AVG, "v", None, known_sum, known_count)
                with pytest.raises(SolverError):
                    reduction()
                return
            result = solver.bound(AVG, "v", None, known_sum, known_count)
            assert_within_stopping_width(result.lower, result.upper, truth)
            assert_within_stopping_width(*reduction(), truth)


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
            sharded = solver.sharded_plan(None, "v")
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
            sharded = solver.sharded_plan(None, "v")
            assert sharded.is_sharded and sharded.strategy == "component"
            with pytest.raises(SolverError, match="unsatisfiable"):
                solver.bound(AVG, "v", None, *known)
            assert pool.statistics.tasks_shipped > 0
