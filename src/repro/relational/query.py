"""Aggregate query AST and execution.

An :class:`AggregateQuery` describes queries of the form the paper studies::

    SELECT agg(attr) FROM R WHERE <conjunctive predicate> [GROUP BY cols]

Execution against a :class:`~repro.relational.relation.Relation` produces the
exact ground truth used by the experiments when measuring failure rates and
over-estimation rates of the bounding frameworks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..exceptions import QueryError
from .aggregates import AggregateFunction, ExactSum, compute_aggregate
from .expressions import Expression, TrueExpression
from .relation import Relation

__all__ = ["AggregateQuery", "QueryResult"]

#: Aggregates whose ungrouped result carries the matching rows' exact sum.
_SUMMED = (AggregateFunction.SUM, AggregateFunction.AVG)


@dataclass(frozen=True)
class QueryResult:
    """The result of executing an aggregate query.

    ``value`` is the scalar result for queries without GROUP BY; ``groups``
    maps group keys to per-group values when GROUP BY is present.
    ``exact_sum`` is the :class:`~repro.relational.aggregates.ExactSum` of
    the matching rows for an ungrouped SUM or AVG (``None`` otherwise): a
    SUM's value is its correctly rounded sum, and AVG's bounding reads the
    same sum without scanning again.
    """

    value: float | None
    groups: dict[tuple, float | None] | None = None
    matching_rows: int = 0
    exact_sum: ExactSum | None = None

    @property
    def is_grouped(self) -> bool:
        return self.groups is not None


@dataclass(frozen=True)
class AggregateQuery:
    """A single-aggregate SQL query over one relation.

    Parameters
    ----------
    aggregate:
        One of COUNT/SUM/AVG/MIN/MAX.
    attribute:
        The aggregated attribute.  Must be ``None`` for ``COUNT`` (COUNT(*))
        and a numeric attribute name otherwise.
    where:
        Optional WHERE-clause expression; defaults to TRUE.
    group_by:
        Optional list of grouping attributes.  Per the paper, a GROUP BY
        query is treated as a union of per-group queries.
    """

    aggregate: AggregateFunction
    attribute: str | None = None
    where: Expression = field(default_factory=TrueExpression)
    group_by: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.aggregate.needs_attribute and self.attribute is None:
            raise QueryError(
                f"{self.aggregate.value} requires an aggregation attribute"
            )
        if not self.aggregate.needs_attribute and self.attribute is not None:
            raise QueryError("COUNT(*) queries must not name an attribute")
        if not isinstance(self.group_by, tuple):
            object.__setattr__(self, "group_by", tuple(self.group_by))

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def count(cls, where: Expression | None = None,
              group_by: Sequence[str] = ()) -> "AggregateQuery":
        """``SELECT COUNT(*) ...``"""
        return cls(AggregateFunction.COUNT, None,
                   where if where is not None else TrueExpression(),
                   tuple(group_by))

    @classmethod
    def sum(cls, attribute: str, where: Expression | None = None,
            group_by: Sequence[str] = ()) -> "AggregateQuery":
        """``SELECT SUM(attribute) ...``"""
        return cls(AggregateFunction.SUM, attribute,
                   where if where is not None else TrueExpression(),
                   tuple(group_by))

    @classmethod
    def avg(cls, attribute: str, where: Expression | None = None,
            group_by: Sequence[str] = ()) -> "AggregateQuery":
        """``SELECT AVG(attribute) ...``"""
        return cls(AggregateFunction.AVG, attribute,
                   where if where is not None else TrueExpression(),
                   tuple(group_by))

    @classmethod
    def min(cls, attribute: str, where: Expression | None = None,
            group_by: Sequence[str] = ()) -> "AggregateQuery":
        """``SELECT MIN(attribute) ...``"""
        return cls(AggregateFunction.MIN, attribute,
                   where if where is not None else TrueExpression(),
                   tuple(group_by))

    @classmethod
    def max(cls, attribute: str, where: Expression | None = None,
            group_by: Sequence[str] = ()) -> "AggregateQuery":
        """``SELECT MAX(attribute) ...``"""
        return cls(AggregateFunction.MAX, attribute,
                   where if where is not None else TrueExpression(),
                   tuple(group_by))

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(self, relation: Relation) -> QueryResult:
        """Execute the query exactly against ``relation``.

        Without GROUP BY the WHERE mask is evaluated once and only the
        aggregated column's matching values are selected; no filtered
        relation is built.
        """
        if self.attribute is not None:
            relation.schema.require_numeric(self.attribute)
        if self.group_by:
            matching = relation.filter(self.where)
            groups: dict[tuple, float | None] = {}
            for key, group in matching.group_by(list(self.group_by)).items():
                groups[key] = self._aggregate_relation(group)
            return QueryResult(value=None, groups=groups,
                               matching_rows=matching.num_rows)
        mask = np.asarray(self.where.evaluate(relation), dtype=bool)
        matching_rows = int(np.count_nonzero(mask))
        if self.attribute is None:  # COUNT(*)
            return QueryResult(value=float(matching_rows),
                               matching_rows=matching_rows)
        selected = relation.column(self.attribute)[mask].astype(np.float64,
                                                                copy=False)
        if self.aggregate not in _SUMMED:
            return QueryResult(value=compute_aggregate(self.aggregate,
                                                       selected),
                               matching_rows=matching_rows)
        exact_sum = ExactSum.of(selected)
        value = (exact_sum.value if self.aggregate is AggregateFunction.SUM
                 else compute_aggregate(self.aggregate, selected))
        return QueryResult(value=value, matching_rows=matching_rows,
                           exact_sum=exact_sum)

    def scalar(self, relation: Relation) -> float | None:
        """Execute and return the scalar value (no GROUP BY allowed)."""
        if self.group_by:
            raise QueryError("scalar() is only valid for queries without GROUP BY")
        return self.execute(relation).value

    def _aggregate_relation(self, matching: Relation) -> float | None:
        if self.aggregate is AggregateFunction.COUNT:
            values: np.ndarray | list[float] = np.zeros(matching.num_rows)
        else:
            assert self.attribute is not None
            values = matching.column(self.attribute).astype(np.float64)
        return compute_aggregate(self.aggregate, values)

    # ------------------------------------------------------------------ #
    # Introspection helpers used by the PC engine
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """A SQL-ish rendering of the query (for logs and reports)."""
        target = "*" if self.attribute is None else self.attribute
        text = f"SELECT {self.aggregate.value}({target}) FROM R"
        if not isinstance(self.where, TrueExpression):
            text += f" WHERE {self.where!r}"
        if self.group_by:
            text += f" GROUP BY {', '.join(self.group_by)}"
        return text

    def referenced_attributes(self) -> set[str]:
        """All attributes the query touches (aggregate + predicate + group)."""
        attributes = set(self.where.attributes()) | set(self.group_by)
        if self.attribute is not None:
            attributes.add(self.attribute)
        return attributes
