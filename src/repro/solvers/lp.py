"""A thin linear-programming layer over ``scipy.optimize.linprog``.

The predicate-constraint framework needs two LP-shaped solvers:

* the LP relaxations behind the ``branch-and-bound`` and ``relaxation``
  MILP backends (:mod:`repro.solvers.milp`), which read the compiled
  allocation program's arrays, and
* the fractional-edge-cover LP used by the join bound (:mod:`repro.solvers.fec`),
  built declaratively with :class:`LinearProgram` (named variables, ranged
  linear constraints, a linear objective) and lowered to arrays.

Both solve through :func:`solve_lp`, the one ``linprog`` call, and
:func:`scipy_solution` is the one map from a SciPy result (``linprog`` or
``milp``) onto :class:`LPSolution`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from ..exceptions import InfeasibleProblemError, SolverError, UnboundedProblemError

__all__ = [
    "Sense",
    "SolutionStatus",
    "Variable",
    "LinearConstraint",
    "LinearProgram",
    "LPSolution",
    "scipy_solution",
    "solve_lp",
]


class Sense(enum.Enum):
    """Optimisation direction."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


class SolutionStatus(enum.Enum):
    """Normalised solver outcome."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


@dataclass(frozen=True)
class Variable:
    """A decision variable with box bounds."""

    name: str
    lower: float = 0.0
    upper: float = float("inf")
    is_integer: bool = False

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise SolverError(
                f"variable {self.name!r} has lower bound {self.lower} above upper "
                f"bound {self.upper}"
            )


@dataclass(frozen=True)
class LinearConstraint:
    """A ranged linear constraint ``lower <= coefficients . x <= upper``."""

    coefficients: dict[str, float]
    lower: float = float("-inf")
    upper: float = float("inf")
    name: str = ""

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise SolverError(
                f"constraint {self.name or self.coefficients} has lower bound "
                f"{self.lower} above upper bound {self.upper}"
            )


@dataclass
class LPSolution:
    """The result of solving a linear (or integer) program.

    ``x`` is the optimal point in column order (``None`` unless optimal).
    :class:`LinearProgram` labels its columns with ``names``, so
    :meth:`value` reads a variable by name; the allocation programs of
    :mod:`repro.solvers.milp` are read by column position.
    """

    status: SolutionStatus
    objective: float | None
    x: np.ndarray | None = None
    message: str = ""
    names: tuple[str, ...] = ()

    @property
    def is_optimal(self) -> bool:
        return self.status is SolutionStatus.OPTIMAL

    def value(self, name: str) -> float:
        """The optimal value of variable ``name``."""
        if self.x is None or name not in self.names:
            raise SolverError(f"no value recorded for variable {name!r}")
        return float(self.x[self.names.index(name)])

    def raise_for_status(self) -> "LPSolution":
        """Raise a descriptive exception unless the solution is optimal."""
        if self.status is SolutionStatus.OPTIMAL:
            return self
        if self.status is SolutionStatus.INFEASIBLE:
            raise InfeasibleProblemError(self.message or "problem is infeasible")
        if self.status is SolutionStatus.UNBOUNDED:
            raise UnboundedProblemError(self.message or "problem is unbounded")
        raise SolverError(self.message or "solver failed")


_SCIPY_FAILURES = {2: SolutionStatus.INFEASIBLE, 3: SolutionStatus.UNBOUNDED}


def scipy_solution(result, sense: Sense) -> LPSolution:
    """Map a ``scipy.optimize`` ``milp`` or ``linprog`` result onto
    :class:`LPSolution`; a MAXIMIZE program was solved as the minimum of
    ``-c``, so its optimum is negated back."""
    message = str(result.message)
    if result.status == 0 and result.x is not None:
        objective = float(result.fun)
        if sense is Sense.MAXIMIZE:
            objective = -objective
        return LPSolution(SolutionStatus.OPTIMAL, objective, result.x, message)
    return LPSolution(_SCIPY_FAILURES.get(result.status, SolutionStatus.ERROR),
                      None, message=message)


def solve_lp(c: np.ndarray, sense: Sense, matrix: np.ndarray,
             row_lower: np.ndarray, row_upper: np.ndarray,
             lower: np.ndarray, upper: np.ndarray) -> LPSolution:
    """Optimise ``c . x`` over ``row_lower <= matrix x <= row_upper`` and
    ``lower <= x <= upper`` in the reals, with HiGHS.

    ``linprog`` takes only one-sided rows, so each finite side of a ranged
    row becomes one ``A_ub`` row: row by row, the upper side first.
    """
    signed = np.stack([matrix, -matrix], axis=1).reshape(-1, len(c))
    limits = np.stack([row_upper, -row_lower], axis=1).ravel()
    finite = np.isfinite(limits)
    a_ub, b_ub = (signed[finite], limits[finite]) if finite.any() else (None, None)
    result = linprog(-c if sense is Sense.MAXIMIZE else c, A_ub=a_ub, b_ub=b_ub,
                     bounds=np.column_stack([lower, upper]), method="highs")
    return scipy_solution(result, sense)


class LinearProgram:
    """A declaratively-built linear program.

    Variables and constraints are registered by name; :meth:`solve` lowers
    the model to arrays and solves it with :func:`solve_lp`.
    """

    def __init__(self, sense: Sense = Sense.MAXIMIZE, name: str = "lp"):
        self.sense = sense
        self.name = name
        self._variables: list[Variable] = []
        self._variable_index: dict[str, int] = {}
        self._constraints: list[LinearConstraint] = []
        self._objective: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Model building
    # ------------------------------------------------------------------ #
    def add_variable(self, name: str, lower: float = 0.0,
                     upper: float = float("inf"),
                     is_integer: bool = False) -> Variable:
        """Register a new decision variable and return it."""
        if name in self._variable_index:
            raise SolverError(f"variable {name!r} already declared")
        variable = Variable(name, lower, upper, is_integer)
        self._variable_index[name] = len(self._variables)
        self._variables.append(variable)
        return variable

    def add_constraint(self, coefficients: dict[str, float],
                       lower: float = float("-inf"),
                       upper: float = float("inf"),
                       name: str = "") -> LinearConstraint:
        """Register a ranged constraint ``lower <= coeffs.x <= upper``."""
        for variable_name in coefficients:
            if variable_name not in self._variable_index:
                raise SolverError(
                    f"constraint references undeclared variable {variable_name!r}"
                )
        constraint = LinearConstraint(dict(coefficients), lower, upper, name)
        self._constraints.append(constraint)
        return constraint

    def set_objective(self, coefficients: dict[str, float]) -> None:
        """Set the linear objective (missing variables have coefficient 0)."""
        for variable_name in coefficients:
            if variable_name not in self._variable_index:
                raise SolverError(
                    f"objective references undeclared variable {variable_name!r}"
                )
        self._objective = dict(coefficients)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def variables(self) -> tuple[Variable, ...]:
        return tuple(self._variables)

    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        return tuple(self._constraints)

    @property
    def objective(self) -> dict[str, float]:
        return dict(self._objective)

    def num_variables(self) -> int:
        return len(self._variables)

    def num_constraints(self) -> int:
        return len(self._constraints)

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve(self) -> LPSolution:
        """Lower the model to arrays in variable order and solve it with
        :func:`solve_lp`."""
        names = tuple(variable.name for variable in self._variables)
        if not names:
            return LPSolution(SolutionStatus.OPTIMAL, 0.0)
        index = self._variable_index
        c = np.zeros(len(names))
        for name, coefficient in self._objective.items():
            c[index[name]] = coefficient
        matrix = np.zeros((len(self._constraints), len(names)))
        for row, constraint in enumerate(self._constraints):
            for name, coefficient in constraint.coefficients.items():
                matrix[row, index[name]] = coefficient
        solution = solve_lp(
            c, self.sense, matrix,
            np.array([constraint.lower for constraint in self._constraints]),
            np.array([constraint.upper for constraint in self._constraints]),
            np.array([variable.lower for variable in self._variables]),
            np.array([variable.upper for variable in self._variables]))
        solution.names = names
        return solution
