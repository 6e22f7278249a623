"""Mixed-integer linear programming backends.

The core of the paper's bounding algorithm is the integer program of §4.2:
allocate an integral number of missing rows to every satisfiable cell,
maximise the weighted allocation, subject to per-predicate-constraint
frequency bounds.  This module solves such models with three interchangeable
backends:

``scipy``
    ``scipy.optimize.milp`` (the HiGHS branch-and-cut solver).  The default.
``branch-and-bound``
    A pure-Python best-first branch-and-bound over LP relaxations solved by
    :class:`repro.solvers.lp.LinearProgram`.  Exists both as an always
    available fallback and as an independently-implemented cross-check used
    by the test-suite.
``relaxation``
    The LP relaxation only (fractional allocations).  Produces a bound at
    least as large as the integer optimum for maximisation problems — useful
    for quick, still-sound result ranges.

All backends consume the same :class:`MILPModel` description.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import Bounds
from scipy.optimize import LinearConstraint as ScipyLinearConstraint
from scipy.optimize import milp as scipy_milp

from ..exceptions import SolverError
from .lp import LinearProgram, LPSolution, Sense, SolutionStatus
from .registry import BackendCapabilities, register_backend, resolve_backend

__all__ = ["MILPModel", "MILPBackend", "CompiledMILP", "solve_milp"]

_DEFAULT_TOLERANCE = 1e-6


@dataclass
class MILPModel:
    """A mixed-integer linear program in the same shape as §4.2's program.

    Attributes
    ----------
    objective:
        Per-variable objective coefficients (maximised when ``sense`` is
        MAXIMIZE).
    lower_bounds / upper_bounds:
        Per-variable box bounds.
    constraints:
        A list of ``(coefficients, lower, upper)`` ranged constraints where
        ``coefficients`` maps variable names to coefficients.
    integer_variables:
        Names of variables restricted to integers (the cell allocations).
    """

    sense: Sense = Sense.MAXIMIZE
    objective: dict[str, float] = field(default_factory=dict)
    lower_bounds: dict[str, float] = field(default_factory=dict)
    upper_bounds: dict[str, float] = field(default_factory=dict)
    constraints: list[tuple[dict[str, float], float, float]] = field(default_factory=list)
    integer_variables: set[str] = field(default_factory=set)

    def add_variable(self, name: str, lower: float = 0.0,
                     upper: float = float("inf"), objective: float = 0.0,
                     is_integer: bool = True) -> None:
        """Declare a variable (cell allocation) with bounds and objective."""
        if name in self.objective:
            raise SolverError(f"variable {name!r} already declared")
        self.objective[name] = objective
        self.lower_bounds[name] = lower
        self.upper_bounds[name] = upper
        if is_integer:
            self.integer_variables.add(name)

    def add_constraint(self, coefficients: dict[str, float],
                       lower: float = float("-inf"),
                       upper: float = float("inf")) -> None:
        """Add a ranged constraint over declared variables."""
        unknown = [name for name in coefficients if name not in self.objective]
        if unknown:
            raise SolverError(f"constraint references undeclared variables {unknown}")
        self.constraints.append((dict(coefficients), lower, upper))

    @property
    def variable_names(self) -> list[str]:
        return list(self.objective)


class MILPBackend:
    """Names of the available solving strategies."""

    SCIPY = "scipy"
    BRANCH_AND_BOUND = "branch-and-bound"
    RELAXATION = "relaxation"
    GREEDY = "greedy"

    ALL = (SCIPY, BRANCH_AND_BOUND, RELAXATION, GREEDY)


def solve_milp(model: MILPModel, backend: str = MILPBackend.SCIPY,
               time_limit: float | None = None) -> LPSolution:
    """Solve ``model`` with the requested backend.

    Backends are resolved through :mod:`repro.solvers.registry`, so names
    registered by extensions work here (and everywhere that plumbs a backend
    name through) exactly like the built-ins.  Returns an
    :class:`~repro.solvers.lp.LPSolution`; callers are expected to
    check/raise via ``raise_for_status``.
    """
    solver = resolve_backend(backend)
    if not model.objective:
        return LPSolution(SolutionStatus.OPTIMAL, 0.0, {})
    return solver(model, time_limit)


# --------------------------------------------------------------------- #
# SciPy / HiGHS backend
# --------------------------------------------------------------------- #
def _solution_from_scipy(result, maximise: bool,
                         names: Sequence[str]) -> LPSolution:
    """Map a ``scipy.optimize.milp`` result onto :class:`LPSolution`.

    Shared by the model-based backend and :class:`CompiledMILP` so the
    status-code mapping can never drift between the two paths.
    """
    if result.status == 0 and result.x is not None:
        objective = float(result.fun)
        if maximise:
            objective = -objective
        values = {name: float(result.x[i]) for i, name in enumerate(names)}
        return LPSolution(SolutionStatus.OPTIMAL, objective, values,
                          message=str(result.message))
    if result.status == 2:
        return LPSolution(SolutionStatus.INFEASIBLE, None, {},
                          message=str(result.message))
    if result.status == 3:
        return LPSolution(SolutionStatus.UNBOUNDED, None, {},
                          message=str(result.message))
    return LPSolution(SolutionStatus.ERROR, None, {}, message=str(result.message))


def _solve_scipy(model: MILPModel, time_limit: float | None = None) -> LPSolution:
    names = model.variable_names
    index = {name: i for i, name in enumerate(names)}
    count = len(names)
    c = np.array([model.objective[name] for name in names], dtype=float)
    if model.sense is Sense.MAXIMIZE:
        c = -c
    integrality = np.array(
        [1 if name in model.integer_variables else 0 for name in names], dtype=float
    )
    lower = np.array([model.lower_bounds.get(name, 0.0) for name in names])
    upper = np.array([model.upper_bounds.get(name, np.inf) for name in names])
    constraints = []
    if model.constraints:
        matrix = np.zeros((len(model.constraints), count))
        lows = np.full(len(model.constraints), -np.inf)
        highs = np.full(len(model.constraints), np.inf)
        for row, (coefficients, low, high) in enumerate(model.constraints):
            for name, coefficient in coefficients.items():
                matrix[row, index[name]] = coefficient
            lows[row] = low
            highs[row] = high
        constraints.append(ScipyLinearConstraint(matrix, lows, highs))
    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit
    result = scipy_milp(
        c=c,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lower, upper),
        options=options,
    )
    return _solution_from_scipy(result, model.sense is Sense.MAXIMIZE, names)


# --------------------------------------------------------------------- #
# LP relaxation backend
# --------------------------------------------------------------------- #
def _relaxation_program(model: MILPModel,
                        extra_bounds: dict[str, tuple[float, float]] | None = None
                        ) -> LinearProgram:
    program = LinearProgram(sense=model.sense)
    overrides = extra_bounds or {}
    for name in model.variable_names:
        lower = model.lower_bounds.get(name, 0.0)
        upper = model.upper_bounds.get(name, float("inf"))
        if name in overrides:
            tightened_low, tightened_high = overrides[name]
            lower = max(lower, tightened_low)
            upper = min(upper, tightened_high)
        if lower > upper:
            # Force infeasibility through an impossible constraint rather
            # than raising, so branch-and-bound can prune the node cleanly.
            program.add_variable(name, 0.0, 0.0)
            program.add_constraint({name: 1.0}, lower=1.0, upper=1.0)
            continue
        program.add_variable(name, lower, upper)
    for coefficients, low, high in model.constraints:
        program.add_constraint(coefficients, lower=low, upper=high)
    program.set_objective(dict(model.objective))
    return program


def _solve_relaxation(model: MILPModel) -> LPSolution:
    return _relaxation_program(model).solve()


# --------------------------------------------------------------------- #
# Pure-Python branch-and-bound backend
# --------------------------------------------------------------------- #
@dataclass(order=True)
class _Node:
    priority: float
    counter: int = field(compare=True)
    bounds: dict[str, tuple[float, float]] = field(compare=False, default_factory=dict)


def _solve_branch_and_bound(model: MILPModel,
                            tolerance: float = _DEFAULT_TOLERANCE,
                            max_nodes: int = 200_000) -> LPSolution:
    """Best-first branch-and-bound on the LP relaxation."""
    maximise = model.sense is Sense.MAXIMIZE
    best_objective = -math.inf if maximise else math.inf
    best_values: dict[str, float] | None = None

    counter = 0
    root = _Node(priority=0.0, counter=counter, bounds={})
    heap: list[_Node] = [root]
    explored = 0
    root_status: SolutionStatus | None = None

    while heap and explored < max_nodes:
        node = heapq.heappop(heap)
        explored += 1
        solution = _relaxation_program(model, node.bounds).solve()
        if explored == 1:
            root_status = solution.status
        if not solution.is_optimal:
            continue
        assert solution.objective is not None
        relaxed = solution.objective
        if best_values is not None:
            if maximise and relaxed <= best_objective + tolerance:
                continue
            if not maximise and relaxed >= best_objective - tolerance:
                continue
        fractional = _most_fractional_variable(solution, model, tolerance)
        if fractional is None:
            # Integral solution: candidate incumbent.
            if (maximise and relaxed > best_objective) or \
                    (not maximise and relaxed < best_objective):
                best_objective = relaxed
                best_values = {
                    name: (round(value) if name in model.integer_variables else value)
                    for name, value in solution.values.items()
                }
            continue
        name, value = fractional
        floor_value, ceil_value = math.floor(value), math.ceil(value)
        down = dict(node.bounds)
        down_low, down_high = down.get(name, (-math.inf, math.inf))
        down[name] = (down_low, min(down_high, float(floor_value)))
        up = dict(node.bounds)
        up_low, up_high = up.get(name, (-math.inf, math.inf))
        up[name] = (max(up_low, float(ceil_value)), up_high)
        for child_bounds in (down, up):
            counter += 1
            priority = -relaxed if maximise else relaxed
            heapq.heappush(heap, _Node(priority=priority, counter=counter,
                                       bounds=child_bounds))

    if best_values is None:
        if root_status is SolutionStatus.UNBOUNDED:
            return LPSolution(SolutionStatus.UNBOUNDED, None, {},
                              message="relaxation unbounded")
        return LPSolution(SolutionStatus.INFEASIBLE, None, {},
                          message="no integral solution found")
    return LPSolution(SolutionStatus.OPTIMAL, best_objective, best_values,
                      message=f"branch-and-bound explored {explored} nodes")


def _most_fractional_variable(solution: LPSolution, model: MILPModel,
                              tolerance: float) -> tuple[str, float] | None:
    """The integer variable whose LP value is farthest from integral."""
    worst_name: str | None = None
    worst_gap = tolerance
    for name in model.integer_variables:
        value = solution.values.get(name, 0.0)
        gap = abs(value - round(value))
        if gap > worst_gap:
            worst_gap = gap
            worst_name = name
    if worst_name is None:
        return None
    return worst_name, solution.values[worst_name]


# --------------------------------------------------------------------- #
# Greedy backend (disjoint predicate-constraints)
# --------------------------------------------------------------------- #
def _solve_greedy(model: MILPModel) -> LPSolution:
    """Exact solution for models without coupling constraints.

    When predicate-constraints are disjoint every cell allocation is bounded
    only by its own box constraints, so each variable independently takes
    the bound that optimises its objective term (paper §4.2, "Faster
    Algorithm in Special Cases").
    """
    if model.constraints:
        raise SolverError(
            "greedy backend only applies to models without coupling constraints; "
            "use the scipy or branch-and-bound backend instead"
        )
    maximise = model.sense is Sense.MAXIMIZE
    values: dict[str, float] = {}
    objective = 0.0
    for name, coefficient in model.objective.items():
        lower = model.lower_bounds.get(name, 0.0)
        upper = model.upper_bounds.get(name, float("inf"))
        take_upper = (coefficient > 0) == maximise and coefficient != 0
        chosen = upper if take_upper else lower
        if math.isinf(chosen):
            return LPSolution(SolutionStatus.UNBOUNDED, None, {},
                              message=f"variable {name} unbounded in greedy solve")
        if name in model.integer_variables:
            chosen = math.floor(chosen) if take_upper else math.ceil(chosen)
        values[name] = float(chosen)
        objective += coefficient * chosen
    return LPSolution(SolutionStatus.OPTIMAL, objective, values,
                      message="greedy disjoint solve")


# --------------------------------------------------------------------- #
# Compiled models: fixed structure, patchable objective
# --------------------------------------------------------------------- #
class CompiledMILP:
    """A model skeleton frozen into arrays, resolved once, solved many times.

    The bound compiler's hot loop (AVG binary search, warm batch traffic)
    solves the *same* constraint structure over and over with only the
    objective changing.  :class:`MILPModel` pays per solve for dict-based
    model assembly plus the scipy matrix conversion; compiling hoists all of
    that out of the loop:

    * variable order, box bounds, integrality and the constraint matrix are
      converted to numpy arrays exactly once;
    * :meth:`solve_objective` then solves for a patched objective vector —
      through HiGHS with the pre-built arrays, or, for pure box problems
      (no coupling constraints), through a fully vectorised greedy step
      equivalent to the ``greedy`` backend.

    Instances are immutable after construction and safe to share across
    threads.  Results are identical to solving the equivalent
    :class:`MILPModel` with the matching backend.
    """

    def __init__(self, model: MILPModel):
        self._names = list(model.objective)
        index = {name: i for i, name in enumerate(self._names)}
        count = len(self._names)
        self._integral_mask = np.array(
            [name in model.integer_variables for name in self._names], dtype=bool)
        self._integrality = self._integral_mask.astype(float)
        self._lower = np.array([model.lower_bounds.get(name, 0.0)
                                for name in self._names], dtype=float)
        self._upper = np.array([model.upper_bounds.get(name, np.inf)
                                for name in self._names], dtype=float)
        self._bounds = Bounds(self._lower, self._upper)
        # Greedy endpoints: integer variables land on the integral point
        # inside the box, mirroring _solve_greedy's floor/ceil.
        self._greedy_upper = np.where(self._integral_mask,
                                      np.floor(self._upper), self._upper)
        self._greedy_lower = np.where(self._integral_mask,
                                      np.ceil(self._lower), self._lower)
        self._constraints: list[ScipyLinearConstraint] = []
        if model.constraints:
            matrix = np.zeros((len(model.constraints), count))
            lows = np.full(len(model.constraints), -np.inf)
            highs = np.full(len(model.constraints), np.inf)
            for row, (coefficients, low, high) in enumerate(model.constraints):
                for name, coefficient in coefficients.items():
                    matrix[row, index[name]] = coefficient
                lows[row] = low
                highs[row] = high
            self._constraints.append(ScipyLinearConstraint(matrix, lows, highs))
        self._index = index

    @property
    def variable_names(self) -> list[str]:
        return list(self._names)

    @property
    def is_pure_box_problem(self) -> bool:
        return not self._constraints

    def objective_vector(self, coefficients: dict[str, float]) -> np.ndarray:
        """Arrange a name-keyed objective into this skeleton's variable order."""
        c = np.zeros(len(self._names))
        for name, coefficient in coefficients.items():
            c[self._index[name]] = coefficient
        return c

    def solve_objective(self, c: np.ndarray, sense: Sense
                        ) -> tuple[SolutionStatus, float | None]:
        """Optimise ``c . x`` over the compiled feasible region.

        The fast path for callers that only need the optimum (bound
        computations): skips assembling the per-variable solution dict.
        """
        if not self._names:
            return SolutionStatus.OPTIMAL, 0.0
        if self.is_pure_box_problem:
            take_upper = c > 0 if sense is Sense.MAXIMIZE else c < 0
            chosen = np.where(take_upper, self._greedy_upper, self._greedy_lower)
            if np.isinf(chosen[c != 0]).any():
                return SolutionStatus.UNBOUNDED, None
            return SolutionStatus.OPTIMAL, float(np.dot(c, chosen))
        solution = self._solve_scipy(c, sense)
        return solution.status, solution.objective

    def solve_objectives(self, C: np.ndarray, sense: Sense
                         ) -> list[tuple[SolutionStatus, float | None]]:
        """Optimise every row of ``C`` over the compiled feasible region.

        The multi-solve kernel: one entry amortises the per-call floor of
        :meth:`solve_objective` across a whole batch of objective rows.  The
        constraint matrix, box bounds and integrality arrays are fixed at
        compile time (multi-RHS style), so only the objective vector varies
        per row.  Pure box problems vectorise the greedy endpoint selection
        across the entire batch in one ``np.where``; coupled problems
        re-enter HiGHS per row against the shared prebuilt arrays.

        Results are bit-identical to calling :meth:`solve_objective` row by
        row: the greedy path selects (never recomputes) endpoint values and
        evaluates each row's objective with the same 1-D ``np.dot`` the
        scalar path uses, and the scipy path is the same library call per
        row by construction.
        """
        C = np.asarray(C, dtype=float)
        if C.ndim != 2:
            raise SolverError(
                f"solve_objectives expects a 2-D coefficient matrix, "
                f"got shape {C.shape}")
        rows = C.shape[0]
        if not self._names:
            return [(SolutionStatus.OPTIMAL, 0.0)] * rows
        if self.is_pure_box_problem:
            take_upper = C > 0 if sense is Sense.MAXIMIZE else C < 0
            chosen = np.where(take_upper, self._greedy_upper, self._greedy_lower)
            unbounded = (np.isinf(chosen) & (C != 0)).any(axis=1)
            results: list[tuple[SolutionStatus, float | None]] = []
            for row in range(rows):
                if unbounded[row]:
                    results.append((SolutionStatus.UNBOUNDED, None))
                else:
                    results.append((SolutionStatus.OPTIMAL,
                                    float(np.dot(C[row], chosen[row]))))
            return results
        batch: list[tuple[SolutionStatus, float | None]] = []
        for row in range(rows):
            solution = self._solve_scipy(C[row], sense)
            batch.append((solution.status, solution.objective))
        return batch

    def solve(self, c: np.ndarray, sense: Sense) -> LPSolution:
        """Optimise ``c . x`` and return the full per-variable solution."""
        if not self._names:
            return LPSolution(SolutionStatus.OPTIMAL, 0.0, {})
        if self.is_pure_box_problem:
            take_upper = c > 0 if sense is Sense.MAXIMIZE else c < 0
            chosen = np.where(take_upper, self._greedy_upper, self._greedy_lower)
            if np.isinf(chosen[c != 0]).any():
                return LPSolution(SolutionStatus.UNBOUNDED, None, {},
                                  message="unbounded in compiled greedy solve")
            values = {name: float(chosen[i]) for i, name in enumerate(self._names)}
            return LPSolution(SolutionStatus.OPTIMAL, float(np.dot(c, chosen)),
                              values, message="compiled greedy solve")
        return self._solve_scipy(c, sense)

    def _solve_scipy(self, c: np.ndarray, sense: Sense) -> LPSolution:
        objective = -c if sense is Sense.MAXIMIZE else c
        result = scipy_milp(
            c=objective,
            constraints=self._constraints,
            integrality=self._integrality,
            bounds=self._bounds,
        )
        return _solution_from_scipy(result, sense is Sense.MAXIMIZE, self._names)


# --------------------------------------------------------------------- #
# Built-in backend registration
# --------------------------------------------------------------------- #
def _scipy_entry(model: MILPModel, time_limit: float | None = None) -> LPSolution:
    return _solve_scipy(model, time_limit=time_limit)


def _branch_and_bound_entry(model: MILPModel,
                            time_limit: float | None = None) -> LPSolution:
    return _solve_branch_and_bound(model)


def _relaxation_entry(model: MILPModel,
                      time_limit: float | None = None) -> LPSolution:
    return _solve_relaxation(model)


def _greedy_entry(model: MILPModel, time_limit: float | None = None) -> LPSolution:
    return _solve_greedy(model)


# None of the built-ins keeps a persistent native handle (the scipy/HiGHS
# path re-enters the library per solve from prebuilt arrays), so all four are
# process-safe; the relaxation is deliberately inexact and greedy only solves
# uncoupled models.
register_backend(MILPBackend.SCIPY, _scipy_entry, replace=True)
register_backend(MILPBackend.BRANCH_AND_BOUND, _branch_and_bound_entry,
                 replace=True)
register_backend(MILPBackend.RELAXATION, _relaxation_entry, replace=True,
                 capabilities=BackendCapabilities(exact=False))
register_backend(MILPBackend.GREEDY, _greedy_entry, replace=True,
                 capabilities=BackendCapabilities(supports_coupling=False))
