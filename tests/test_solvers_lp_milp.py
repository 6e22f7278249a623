"""Unit and property tests for the LP and MILP solving layers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InfeasibleProblemError, SolverError, UnboundedProblemError
from repro.solvers.lp import LinearProgram, Sense, SolutionStatus
from repro.solvers.milp import CompiledMILP, MILPBackend
from repro.solvers.registry import available_backends


class TestLinearProgram:
    def test_simple_maximisation(self):
        program = LinearProgram(Sense.MAXIMIZE)
        program.add_variable("x", 0, 10)
        program.add_variable("y", 0, 10)
        program.add_constraint({"x": 1, "y": 1}, upper=12)
        program.set_objective({"x": 2, "y": 3})
        solution = program.solve().raise_for_status()
        assert solution.objective == pytest.approx(2 * 2 + 3 * 10, rel=1e-6) or \
            solution.objective == pytest.approx(30 + 2 * 2, rel=1e-6)
        # optimum: y=10, x=2 -> 34
        assert solution.objective == pytest.approx(34.0, rel=1e-6)
        assert solution.value("y") == pytest.approx(10.0, abs=1e-6)

    def test_minimisation_with_lower_bounds(self):
        program = LinearProgram(Sense.MINIMIZE)
        program.add_variable("x", 0, 100)
        program.add_variable("y", 0, 100)
        program.add_constraint({"x": 1, "y": 2}, lower=10)
        program.set_objective({"x": 3, "y": 1})
        solution = program.solve().raise_for_status()
        assert solution.objective == pytest.approx(5.0, rel=1e-6)

    def test_infeasible(self):
        program = LinearProgram(Sense.MAXIMIZE)
        program.add_variable("x", 0, 1)
        program.add_constraint({"x": 1}, lower=5)
        program.set_objective({"x": 1})
        solution = program.solve()
        assert solution.status is SolutionStatus.INFEASIBLE
        with pytest.raises(InfeasibleProblemError):
            solution.raise_for_status()

    def test_unbounded(self):
        program = LinearProgram(Sense.MAXIMIZE)
        program.add_variable("x", 0, math.inf)
        program.set_objective({"x": 1})
        solution = program.solve()
        assert solution.status is SolutionStatus.UNBOUNDED
        with pytest.raises(UnboundedProblemError):
            solution.raise_for_status()

    def test_empty_program(self):
        assert LinearProgram().solve().objective == 0.0

    def test_duplicate_variable_rejected(self):
        program = LinearProgram()
        program.add_variable("x")
        with pytest.raises(SolverError):
            program.add_variable("x")

    def test_unknown_variable_in_constraint_rejected(self):
        program = LinearProgram()
        program.add_variable("x")
        with pytest.raises(SolverError):
            program.add_constraint({"zzz": 1.0}, upper=1)
        with pytest.raises(SolverError):
            program.set_objective({"zzz": 1.0})

    def test_invalid_bounds_rejected(self):
        program = LinearProgram()
        with pytest.raises(SolverError):
            program.add_variable("x", lower=5, upper=1)
        program.add_variable("y")
        with pytest.raises(SolverError):
            program.add_constraint({"y": 1}, lower=2, upper=1)

    def test_value_of_unknown_variable(self):
        program = LinearProgram()
        program.add_variable("x", 0, 1)
        program.set_objective({"x": 1})
        solution = program.solve()
        with pytest.raises(SolverError):
            solution.value("nope")


#: The built-in backends, read at import, before any test registers its own.
BACKENDS = available_backends()


def allocation_program(capacities, group_limit,
                       backend: str = MILPBackend.SCIPY) -> CompiledMILP:
    """A miniature version of the paper's cell-allocation program: one
    variable per cell up to its capacity, one row capping their sum."""
    return CompiledMILP(capacities, [np.ones(len(capacities))],
                        row_upper=[group_limit], backend=backend)


def solve(program: CompiledMILP, c, sense: Sense = Sense.MAXIMIZE):
    return program.solve(np.asarray(c, dtype=float), sense)


class TestMILPBackends:
    def test_simple_integer_solution(self):
        program = allocation_program([4, 4], group_limit=5)
        solution = solve(program, [5.0, 3.0]).raise_for_status()
        assert solution.objective == pytest.approx(4 * 5 + 1 * 3)

    def test_greedy_on_disjoint_model(self):
        # A pure box problem never reaches the backend: every backend
        # answers it with the compiled greedy step.
        for backend in BACKENDS:
            program = CompiledMILP([3, 5], backend=backend)
            assert program.is_pure_box_problem
            solution = solve(program, [2.0, -1.0]).raise_for_status()
            assert solution.objective == pytest.approx(6.0), backend
            assert solution.x.tolist() == [3.0, 0.0], backend

    def test_greedy_minimisation(self):
        for backend in BACKENDS:
            program = CompiledMILP([3.5, 5], backend=backend)
            solution = solve(program, [2.0, -1.0],
                             Sense.MINIMIZE).raise_for_status()
            assert solution.objective == pytest.approx(-1.0 * 5), backend
            assert solution.x.tolist() == [0.0, 5.0], backend
            # Integral endpoints: a fractional capacity rounds down.
            assert solve(program, [1.0, 0.0]).objective == 3.0, backend

    def test_unknown_backend_rejected(self):
        program = allocation_program([1, 1], group_limit=1,
                                     backend="simplex-of-doom")
        with pytest.raises(SolverError, match="scipy"):
            program.solve_objective(np.ones(2), Sense.MAXIMIZE)

    def test_empty_model(self):
        for backend in BACKENDS:
            program = CompiledMILP([], backend=backend)
            assert program.solve_objective(np.zeros(0), Sense.MAXIMIZE) == \
                (SolutionStatus.OPTIMAL, 0.0)

    def test_infeasible_model(self):
        for backend in BACKENDS:
            program = CompiledMILP([1], [[1.0]], row_lower=[5],
                                   backend=backend)
            assert solve(program, [1.0]).status is \
                SolutionStatus.INFEASIBLE, backend

    def test_unlimited_variable_tells_unbounded_from_infeasible(self):
        """HiGHS answers both programs "unbounded or infeasible" (scipy
        status 4); every backend tells the feasible one unbounded and the
        other infeasible."""
        inf = float("inf")
        rows = [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]
        for backend in BACKENDS:
            feasible = CompiledMILP([inf, 5, 5], rows, row_lower=[0, 3, 0],
                                    row_upper=[inf, inf, 4], backend=backend)
            assert solve(feasible, [1.0, 1.0, 1.0]).status is \
                SolutionStatus.UNBOUNDED, backend
            infeasible = CompiledMILP([inf, 5, 5], rows, row_lower=[0, 3, 0],
                                      row_upper=[inf, inf, 2],
                                      backend=backend)
            assert solve(infeasible, [1.0, 1.0, 1.0]).status is \
                SolutionStatus.INFEASIBLE, backend

    def test_relaxation_at_least_as_large_for_max(self):
        integral = solve(allocation_program([3, 3], 4), [7.0, 2.0]).objective
        relaxed = solve(allocation_program([3, 3], 4, MILPBackend.RELAXATION),
                        [7.0, 2.0]).objective
        assert relaxed >= integral - 1e-9

    def test_branch_and_bound_agrees_with_scipy_on_knapsack(self):
        values = [6.0, 5.0, 4.0]
        weights = [[3.0, 2.0, 2.0]]
        scipy_solution = solve(CompiledMILP([1, 1, 1], weights,
                                            row_upper=[4.0]), values)
        bb_solution = solve(CompiledMILP(
            [1, 1, 1], weights, row_upper=[4.0],
            backend=MILPBackend.BRANCH_AND_BOUND), values)
        assert scipy_solution.objective == pytest.approx(bb_solution.objective)
        assert bb_solution.objective == pytest.approx(9.0)
        assert bb_solution.x.tolist() == [0.0, 1.0, 1.0]

    def test_branch_and_bound_infeasible(self):
        program = CompiledMILP([1], [[1.0]], row_lower=[3],
                               backend=MILPBackend.BRANCH_AND_BOUND)
        assert solve(program, [1.0]).status is SolutionStatus.INFEASIBLE


class TestMILPBackendProperty:
    """Property: HiGHS and the pure-Python branch-and-bound agree."""

    @given(
        uppers=st.lists(st.floats(min_value=0, max_value=20, allow_nan=False),
                        min_size=1, max_size=5),
        capacities=st.lists(st.integers(min_value=0, max_value=8),
                            min_size=1, max_size=5),
        limit=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_backends_agree(self, uppers, capacities, limit):
        size = min(len(uppers), len(capacities))
        c = uppers[:size]
        scipy_solution = solve(allocation_program(capacities[:size], limit), c)
        bb_solution = solve(allocation_program(
            capacities[:size], limit, MILPBackend.BRANCH_AND_BOUND), c)
        assert scipy_solution.is_optimal and bb_solution.is_optimal
        assert scipy_solution.objective == pytest.approx(bb_solution.objective,
                                                         rel=1e-6, abs=1e-6)
