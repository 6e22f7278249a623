"""In-memory relational substrate.

This subpackage re-implements the small slice of a relational engine the
paper's evaluation depends on: typed column-store relations, the five
supported aggregates, GROUP BY, inner equi-joins / natural joins, and CSV
IO.  A WHERE clause is a box :class:`~repro.core.predicates.Predicate` (the
paper's predicate language, §3.1), which masks a relation's rows itself, or
``None`` for every row; :meth:`Relation.filter` also takes a boolean mask.
"""

from .aggregates import AggregateFunction, compute_aggregate
from .csvio import read_csv, write_csv
from .joins import hash_join, join_size, natural_join, natural_join_many
from .query import AggregateQuery, QueryResult
from .relation import Relation
from .schema import Column, ColumnType, Schema

__all__ = [
    "AggregateFunction",
    "compute_aggregate",
    "read_csv",
    "write_csv",
    "hash_join",
    "join_size",
    "natural_join",
    "natural_join_many",
    "AggregateQuery",
    "QueryResult",
    "Relation",
    "Column",
    "ColumnType",
    "Schema",
]
