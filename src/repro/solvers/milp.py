"""Mixed-integer linear programming for the cell-allocation programs.

The core of the paper's bounding algorithm is the integer program of §4.2:
allocate an integral number of missing rows to every satisfiable cell,
maximise the weighted allocation, subject to per-predicate-constraint
frequency bounds.  :class:`CompiledMILP` is that program frozen into arrays,
with its coupling rows as one ``scipy.sparse.csc_array`` (the form
``scipy.optimize.milp`` hands HiGHS), and every solve patches in only an
objective vector.

A program without coupling rows is a pure box problem: each variable takes
the bound its coefficient prefers (paper §4.2, "Faster Algorithm in Special
Cases"), and :class:`CompiledMILP` answers it with one vectorised greedy
step.  Every other program goes to a backend, resolved by name from
:mod:`repro.solvers.registry` at solve time.  The built-ins:

``scipy``
    ``scipy.optimize.milp`` (the HiGHS branch-and-cut solver).  The default.
``branch-and-bound``
    A pure-Python best-first branch-and-bound over LP relaxations solved by
    :func:`repro.solvers.lp.solve_lp`.  An independently implemented
    cross-check used by the test-suite.
``relaxation``
    The LP relaxation only (fractional allocations).  Its optimum is at
    least as good as the integer one, so ranges stay sound but may be loose.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
from scipy.optimize import Bounds
from scipy.optimize import LinearConstraint as ScipyLinearConstraint
from scipy.optimize import milp as scipy_milp
from scipy.sparse import csc_array

from ..exceptions import SolverError
from .lp import LPSolution, Sense, SolutionStatus, scipy_solution, solve_lp
from .registry import BackendCapabilities, register_backend, resolve_backend

__all__ = ["MILPBackend", "CompiledMILP"]

_TOLERANCE = 1e-6
_MAX_NODES = 200_000


class MILPBackend:
    """Names of the built-in backends."""

    SCIPY = "scipy"
    BRANCH_AND_BOUND = "branch-and-bound"
    RELAXATION = "relaxation"


class CompiledMILP:
    """An allocation program frozen into arrays, solved for many objectives.

    Every variable is a non-negative integer bounded by ``upper``; the
    coupling rows are ``row_lower <= matrix x <= row_upper`` (no ``matrix``:
    a pure box problem).  ``matrix`` may be anything ``csc_array`` takes;
    it is converted once and kept as a ``csc_array``.  ``backend`` names the
    registered backend that solves coupled programs; it is resolved at solve
    time, so a program pickled to a worker process resolves it there.  The
    LP-based backends densify the matrix once per solve.  Instances are never
    mutated after construction and are safe to share across threads.
    """

    def __init__(self, upper, matrix=None, row_lower=None, row_upper=None,
                 backend: str = MILPBackend.SCIPY):
        self.upper = np.asarray(upper, dtype=float)
        columns = len(self.upper)
        self.matrix = csc_array(np.zeros((0, columns)) if matrix is None
                                else matrix, dtype=float)
        rows = self.matrix.shape[0]
        self.row_lower = (np.full(rows, -np.inf) if row_lower is None
                          else np.asarray(row_lower, dtype=float))
        self.row_upper = (np.full(rows, np.inf) if row_upper is None
                          else np.asarray(row_upper, dtype=float))
        self.backend = backend
        # The greedy step's integral upper endpoints (the lower one is 0).
        self._greedy_upper = np.floor(self.upper)

    @property
    def num_variables(self) -> int:
        return len(self.upper)

    @property
    def is_pure_box_problem(self) -> bool:
        return self.matrix.shape[0] == 0

    def solve_objective(self, c: np.ndarray, sense: Sense
                        ) -> tuple[SolutionStatus, float | None]:
        """Optimise ``c . x``: the row-by-row reference for
        :meth:`solve_objectives`."""
        solution = self.solve(c, sense)
        return solution.status, solution.objective

    def solve_objectives(self, C: np.ndarray, sense: Sense
                         ) -> list[LPSolution]:
        """Optimise every row of ``C``: the multi-solve kernel.

        One entry amortises the per-call floor across a whole batch of
        objective rows.  A pure box problem selects every row's endpoints in
        one ``np.where``; a coupled one enters the backend once per row
        against the same arrays.  Each row's solution carries its
        allocation (``x``, by column) when optimal.  Statuses and optima are
        bit-identical to :meth:`solve_objective` row by row: each row's
        optimum is the same 1-D ``np.dot`` over the same selected endpoints,
        or the same backend call.
        """
        return self._solve(C, sense)

    def solve(self, c: np.ndarray, sense: Sense) -> LPSolution:
        """Optimise ``c . x`` and return the allocation as well."""
        return self._solve(np.asarray(c, dtype=float)[np.newaxis], sense)[0]

    def _solve(self, C: np.ndarray, sense: Sense) -> list[LPSolution]:
        C = np.asarray(C, dtype=float)
        if C.ndim != 2:
            raise SolverError(
                f"solve_objectives expects a 2-D coefficient matrix, "
                f"got shape {C.shape}")
        if self.is_pure_box_problem:
            take_upper = C > 0 if sense is Sense.MAXIMIZE else C < 0
            chosen = np.where(take_upper, self._greedy_upper, 0.0)
            unbounded = (np.isinf(chosen) & (C != 0)).any(axis=1)
            return [LPSolution(SolutionStatus.UNBOUNDED, None) if unbounded[row]
                    else LPSolution(SolutionStatus.OPTIMAL,
                                    float(np.dot(C[row], chosen[row])),
                                    chosen[row])
                    for row in range(len(C))]
        backend = resolve_backend(self.backend)
        return [backend(self, c, sense) for c in C]


# --------------------------------------------------------------------- #
# Built-in backends: (program, objective vector, sense) -> LPSolution
# --------------------------------------------------------------------- #
def _solve_scipy(milp: CompiledMILP, c: np.ndarray, sense: Sense
                 ) -> LPSolution:
    """HiGHS may answer only "unbounded or infeasible" (scipy status 4);
    a zero-objective solve of the same program then tells the two apart:
    a feasible program is the unbounded one."""
    solution = scipy_solution(
        _highs_milp(milp, -c if sense is Sense.MAXIMIZE else c), sense)
    if (solution.status is SolutionStatus.ERROR
            and "unbounded or infeasible" in solution.message):
        feasible = scipy_solution(
            _highs_milp(milp, np.zeros(milp.num_variables)), sense)
        if feasible.status is SolutionStatus.OPTIMAL:
            return LPSolution(SolutionStatus.UNBOUNDED, None,
                              message=solution.message)
        if feasible.status is SolutionStatus.INFEASIBLE:
            return feasible
    return solution


def _highs_milp(milp: CompiledMILP, c: np.ndarray):
    """``scipy.optimize.milp``'s result for minimising ``c . x``."""
    return scipy_milp(
        c=c,
        constraints=ScipyLinearConstraint(milp.matrix, milp.row_lower,
                                          milp.row_upper),
        integrality=np.ones(milp.num_variables),
        bounds=Bounds(np.zeros(milp.num_variables), milp.upper),
    )


def _solve_relaxation(milp: CompiledMILP, c: np.ndarray, sense: Sense
                      ) -> LPSolution:
    return solve_lp(c, sense, milp.matrix.toarray(), milp.row_lower,
                    milp.row_upper, np.zeros(milp.num_variables), milp.upper)


def _solve_branch_and_bound(milp: CompiledMILP, c: np.ndarray, sense: Sense
                            ) -> LPSolution:
    """Best-first branch-and-bound on the LP relaxation.

    A node is a pair of variable bound vectors.  It branches on the most
    fractional variable of its relaxation; a child whose bounds cross has
    no allocation and is pruned.
    """
    maximise = sense is Sense.MAXIMIZE
    matrix = milp.matrix.toarray()
    best: LPSolution | None = None
    counter = 0
    heap = [(0.0, counter, np.zeros(milp.num_variables), milp.upper)]
    explored = 0
    root_status: SolutionStatus | None = None

    while heap and explored < _MAX_NODES:
        _, _, lower, upper = heapq.heappop(heap)
        explored += 1
        solution = solve_lp(c, sense, matrix, milp.row_lower,
                            milp.row_upper, lower, upper)
        if explored == 1:
            root_status = solution.status
        if not solution.is_optimal:
            continue
        relaxed = solution.objective
        if best is not None:
            if maximise and relaxed <= best.objective + _TOLERANCE:
                continue
            if not maximise and relaxed >= best.objective - _TOLERANCE:
                continue
        gaps = np.abs(solution.x - np.round(solution.x))
        column = int(np.argmax(gaps))
        if gaps[column] <= _TOLERANCE:
            # Integral solution: candidate incumbent.
            if best is None or (relaxed > best.objective if maximise
                                else relaxed < best.objective):
                best = LPSolution(SolutionStatus.OPTIMAL, relaxed,
                                  np.round(solution.x))
            continue
        value = solution.x[column]
        down = upper.copy()
        down[column] = min(upper[column], math.floor(value))
        up = lower.copy()
        up[column] = max(lower[column], math.ceil(value))
        for child_lower, child_upper in ((lower, down), (up, upper)):
            if child_lower[column] <= child_upper[column]:
                counter += 1
                heapq.heappush(heap, (-relaxed if maximise else relaxed,
                                      counter, child_lower, child_upper))

    if best is None:
        if root_status is SolutionStatus.UNBOUNDED:
            return LPSolution(SolutionStatus.UNBOUNDED, None,
                              message="relaxation unbounded")
        return LPSolution(SolutionStatus.INFEASIBLE, None,
                          message="no integral solution found")
    best.message = f"branch-and-bound explored {explored} nodes"
    return best


# The relaxation is deliberately inexact.
register_backend(MILPBackend.SCIPY, _solve_scipy, replace=True)
register_backend(MILPBackend.BRANCH_AND_BOUND, _solve_branch_and_bound,
                 replace=True)
register_backend(MILPBackend.RELAXATION, _solve_relaxation, replace=True,
                 capabilities=BackendCapabilities(exact=False))
