"""The logical intermediate representation of one bounding computation.

A :class:`BoundPlan` captures *what* has to be bounded (a
:class:`BoundQuery`: aggregate, attribute, region) and *under which
constraints* (a :class:`~repro.core.pcset.PredicateConstraintSet`), plus the
MILP backend its program solves with.  Plans are immutable; optimizer
passes return amended copies and leave a human-readable trace, so
``analyzer.plan_for(query).describe()`` explains exactly how a query will be
executed.

This module deliberately avoids importing the engine or the bound solver —
the pipeline sits *below* them.  :meth:`BoundQuery.of` duck-types any object
with ``aggregate`` / ``attribute`` / ``region`` attributes, which is the
shape of :class:`repro.core.engine.ContingencyQuery`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..exceptions import QueryError
from ..relational.aggregates import AggregateFunction
from ..core.pcset import PredicateConstraintSet
from ..core.predicates import Predicate

__all__ = ["BoundQuery", "BoundPlan", "build_plan"]


@dataclass(frozen=True)
class BoundQuery:
    """The query half of a plan: which aggregate over which region."""

    aggregate: AggregateFunction
    attribute: str | None = None
    region: Predicate | None = None

    def __post_init__(self) -> None:
        if self.aggregate.needs_attribute and self.attribute is None:
            raise QueryError(f"{self.aggregate.value} requires an attribute")

    @classmethod
    def of(cls, query) -> "BoundQuery":
        """Adapt anything query-shaped (e.g. a ``ContingencyQuery``)."""
        if isinstance(query, cls):
            return query
        return cls(query.aggregate, query.attribute, query.region)

    def describe(self) -> str:
        target = "*" if self.attribute is None else self.attribute
        text = f"{self.aggregate.value}({target})"
        if self.region is not None and not self.region.is_tautology():
            text += f" WHERE {self.region!r}"
        return text


@dataclass(frozen=True)
class BoundPlan:
    """One bounding computation, as the optimizer sees and rewrites it.

    Attributes
    ----------
    query:
        What is being bounded.
    pcset:
        The constraint set the compiled program will actually decompose —
        optimizer passes may prune or merge constraints, but only in ways
        that provably preserve the result range for ``query``.
    source_pcset:
        The constraint set the user supplied, untouched.  Closure checking
        and user-facing diagnostics run against this one.
    milp_backend:
        Registry name of the backend the program's skeleton solves with.
    trace:
        One line per optimizer pass that changed the plan — the plan-level
        EXPLAIN output.
    """

    query: BoundQuery
    pcset: PredicateConstraintSet
    source_pcset: PredicateConstraintSet
    milp_backend: str = "scipy"
    trace: tuple[str, ...] = field(default=())

    @property
    def num_constraints(self) -> int:
        return len(self.pcset)

    @property
    def is_optimized(self) -> bool:
        """Whether any pass changed the plan (trace is non-empty)."""
        return bool(self.trace)

    def amended(self, **changes) -> "BoundPlan":
        """A copy with ``changes`` applied (passes' only mutation avenue)."""
        return replace(self, **changes)

    def annotated(self, note: str) -> "BoundPlan":
        return replace(self, trace=self.trace + (note,))

    def describe(self) -> str:
        """A multi-line, human-readable rendering of the plan."""
        lines = [
            f"plan: {self.query.describe()}",
            f"  constraints : {len(self.pcset)}"
            + ("" if len(self.pcset) == len(self.source_pcset)
               else f" (from {len(self.source_pcset)})"),
            f"  backend     : {self.milp_backend}",
        ]
        for note in self.trace:
            lines.append(f"  - {note}")
        return "\n".join(lines)


def build_plan(query, pcset: PredicateConstraintSet, options=None) -> BoundPlan:
    """Lower a query + constraint set into the initial (unoptimized) plan.

    ``options`` is duck-typed against :class:`repro.core.bounds.BoundOptions`
    (only ``milp_backend`` is read); omitting it uses the default backend.
    The query region must pass
    :meth:`~repro.core.pcset.PredicateConstraintSet.check_query_region`.
    """
    bound_query = BoundQuery.of(query)
    pcset.check_query_region(bound_query.region)
    plan = BoundPlan(query=bound_query, pcset=pcset, source_pcset=pcset)
    if options is not None:
        plan = plan.amended(milp_backend=getattr(options, "milp_backend",
                                                 plan.milp_backend))
    return plan
