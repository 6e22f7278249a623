"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch a single base class.  Sub-classes are organised by the
subsystem that raises them (relational engine, solvers, predicate-constraint
framework, experiments).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SchemaError",
    "UnknownAttributeError",
    "TypeMismatchError",
    "QueryError",
    "UnsupportedAggregateError",
    "PredicateError",
    "ConstraintError",
    "ClosureError",
    "InfeasibleProblemError",
    "UnboundedProblemError",
    "SolverError",
    "DisjointRangeError",
    "QueryRejectedError",
    "QueryDeadlineError",
    "PoisonTaskError",
    "JoinBoundError",
    "DatasetError",
    "WorkloadError",
    "ExperimentError",
]


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class SchemaError(ReproError):
    """Raised when a relation schema is malformed or violated."""


class UnknownAttributeError(SchemaError):
    """Raised when an attribute name does not exist in a schema."""

    def __init__(self, attribute: str, available: tuple[str, ...] = ()):
        self.attribute = attribute
        self.available = tuple(available)
        message = f"unknown attribute {attribute!r}"
        if self.available:
            message += f" (available: {', '.join(self.available)})"
        super().__init__(message)


class TypeMismatchError(SchemaError):
    """Raised when a value does not match the declared column type."""


class QueryError(ReproError):
    """Raised when an aggregate query is malformed."""


class UnsupportedAggregateError(QueryError):
    """Raised when a query uses an aggregate the engine does not support."""


class PredicateError(ReproError):
    """Raised when a predicate expression is malformed."""


class ConstraintError(ReproError):
    """Raised when a predicate-constraint is malformed (e.g. lo > hi)."""


class ClosureError(ReproError):
    """Raised when a predicate-constraint set is not closed over a query."""


class SolverError(ReproError):
    """Raised when an optimisation backend fails unexpectedly."""


class DisjointRangeError(SolverError):
    """Raised when two result ranges for the same query do not overlap.

    Two *sound* ranges for one query always intersect (both contain the true
    answer), so a disjoint pair is evidence of a solver defect — this is the
    alarm the cross-backend verification mode raises.  The offending ranges
    are carried so monitoring can log them without re-parsing the message.
    """

    def __init__(self, message: str, first=None, second=None):
        super().__init__(message)
        self.first = first
        self.second = second


class QueryRejectedError(ReproError):
    """Raised when admission control declines to run a query.

    Shed load is not an internal failure: the service priced the query from
    its plan (before any decomposition or solve was dispatched) and found it
    over the per-query budget.  ``cost`` and ``limit`` carry the priced
    units and the budget that tripped, and ``reason`` is ``"over-budget"``,
    so callers can downscope or route to a bigger deployment without
    parsing the message.  ``cell_budget`` carries the largest
    estimated-cell count a same-shaped query *would* clear the budget with
    (the price-model inversion) — the concrete downscoping target, also
    embedded in the message the CLI prints.
    """

    def __init__(self, message: str, cost: float | None = None,
                 limit: float | None = None, reason: str = "rejected",
                 cell_budget: int | None = None):
        super().__init__(message)
        self.cost = cost
        self.limit = limit
        self.reason = reason
        self.cell_budget = cell_budget


class QueryDeadlineError(ReproError):
    """Raised when a query's wall-clock deadline fires mid-execution.

    This error means the query *was* running and was cancelled: the
    coordinator stopped dispatching new tasks, abandoned whatever was still
    in flight, and unwound.  ``deadline`` is the configured budget in
    seconds, ``elapsed`` the wall time actually spent, and
    ``completed``/``pending`` count the tasks that finished versus those
    abandoned, so callers can see how close the query came and decide
    whether a retry with a bigger budget (or ``degrade="worst-case"``) is
    worthwhile.
    """

    def __init__(self, message: str, deadline: float | None = None,
                 elapsed: float | None = None, completed: int = 0,
                 pending: int = 0):
        super().__init__(message)
        self.deadline = deadline
        self.elapsed = elapsed
        self.completed = completed
        self.pending = pending


class PoisonTaskError(SolverError):
    """Raised when one task repeatedly kills the worker that runs it.

    A crashing *worker* is recoverable (the pool respawns it and re-issues
    its tasks), but a task that takes down every worker it lands on would
    crash-loop the pool forever.  After the retry budget is exhausted the
    task is quarantined: sibling tasks of the same round are allowed to
    finish before this error is raised, so one poison payload fails only
    its own query.  ``kind`` names the task kind, ``fingerprint`` is a
    stable hash of the payload (also embedded in the message, for log
    correlation), and ``attempts`` counts the dispatches that died.
    """

    def __init__(self, message: str, kind: str | None = None,
                 fingerprint: str | None = None, attempts: int = 0):
        super().__init__(message)
        self.kind = kind
        self.fingerprint = fingerprint
        self.attempts = attempts


class InfeasibleProblemError(SolverError):
    """Raised when an optimisation problem has no feasible solution."""


class UnboundedProblemError(SolverError):
    """Raised when an optimisation problem is unbounded."""


class JoinBoundError(ReproError):
    """Raised when a multi-table bound cannot be computed."""


class DatasetError(ReproError):
    """Raised when a synthetic dataset generator receives bad parameters."""


class WorkloadError(ReproError):
    """Raised when a workload generator receives bad parameters."""


class ExperimentError(ReproError):
    """Raised when an experiment configuration is invalid."""
