"""Unit tests for repro.relational.aggregates and repro.relational.query."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import QueryError, UnsupportedAggregateError
from repro.relational.aggregates import (
    AggregateFunction,
    ExactSum,
    compute_aggregate,
)
from repro.relational.expressions import Between, IsIn
from repro.relational.query import AggregateQuery
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema


class TestAggregateFunction:
    def test_parse(self):
        assert AggregateFunction.parse("sum") is AggregateFunction.SUM
        assert AggregateFunction.parse(" Count ") is AggregateFunction.COUNT
        with pytest.raises(UnsupportedAggregateError):
            AggregateFunction.parse("median")

    def test_needs_attribute(self):
        assert not AggregateFunction.COUNT.needs_attribute
        assert AggregateFunction.SUM.needs_attribute

    def test_monotonicity_flags(self):
        assert AggregateFunction.COUNT.is_monotone_in_rows
        assert AggregateFunction.SUM.is_monotone_in_rows
        assert not AggregateFunction.MIN.is_monotone_in_rows


class TestComputeAggregate:
    def test_on_values(self):
        values = [1.0, 2.0, 3.0]
        assert compute_aggregate(AggregateFunction.COUNT, values) == 3.0
        assert compute_aggregate(AggregateFunction.SUM, values) == 6.0
        assert compute_aggregate(AggregateFunction.AVG, values) == 2.0
        assert compute_aggregate(AggregateFunction.MIN, values) == 1.0
        assert compute_aggregate(AggregateFunction.MAX, values) == 3.0

    def test_empty_semantics(self):
        assert compute_aggregate(AggregateFunction.COUNT, []) == 0.0
        assert compute_aggregate(AggregateFunction.SUM, []) == 0.0
        assert compute_aggregate(AggregateFunction.AVG, []) is None
        assert compute_aggregate(AggregateFunction.MIN, []) is None
        assert compute_aggregate(AggregateFunction.MAX, []) is None


@pytest.fixture
def orders() -> Relation:
    schema = Schema.from_pairs([("day", ColumnType.FLOAT),
                                ("branch", ColumnType.STRING),
                                ("price", ColumnType.FLOAT)])
    rows = [
        (1.0, "Chicago", 10.0),
        (1.0, "New York", 20.0),
        (2.0, "Chicago", 30.0),
        (2.0, "Chicago", 40.0),
        (3.0, "Trenton", 50.0),
    ]
    return Relation.from_rows(schema, rows, name="orders")


class TestAggregateQuery:
    def test_constructor_validation(self):
        with pytest.raises(QueryError):
            AggregateQuery(AggregateFunction.SUM, None)
        with pytest.raises(QueryError):
            AggregateQuery(AggregateFunction.COUNT, "price")

    def test_count_star(self, orders):
        assert AggregateQuery.count().scalar(orders) == 5.0

    def test_sum_with_predicate(self, orders):
        query = AggregateQuery.sum("price", where=IsIn("branch", ["Chicago"]))
        assert query.scalar(orders) == 80.0

    def test_avg_min_max(self, orders):
        assert AggregateQuery.avg("price").scalar(orders) == 30.0
        assert AggregateQuery.min("price").scalar(orders) == 10.0
        assert AggregateQuery.max("price").scalar(orders) == 50.0

    def test_empty_predicate_result(self, orders):
        query = AggregateQuery.avg("price", where=Between("day", 10.0, 20.0))
        assert query.scalar(orders) is None
        count = AggregateQuery.count(where=Between("day", 10.0, 20.0))
        assert count.scalar(orders) == 0.0

    def test_group_by(self, orders):
        query = AggregateQuery.sum("price", group_by=["branch"])
        result = query.execute(orders)
        assert result.is_grouped
        assert result.groups[("Chicago",)] == 80.0
        assert result.groups[("Trenton",)] == 50.0
        with pytest.raises(QueryError):
            query.scalar(orders)

    def test_group_by_matches_union_of_filters(self, orders):
        """GROUP BY is a union of per-group queries (paper §2)."""
        grouped = AggregateQuery.count(group_by=["branch"]).execute(orders).groups
        for (branch,), value in grouped.items():
            filtered = AggregateQuery.count(where=IsIn("branch", [branch]))
            assert filtered.scalar(orders) == value

    def test_non_numeric_aggregate_rejected(self, orders):
        query = AggregateQuery.sum("branch")
        with pytest.raises(Exception):
            query.execute(orders)

    def test_describe_and_referenced_attributes(self, orders):
        query = AggregateQuery.sum("price", where=Between("day", 1.0, 2.0),
                                   group_by=["branch"])
        description = query.describe()
        assert "SUM(price)" in description
        assert "GROUP BY branch" in description
        assert query.referenced_attributes() == {"price", "day", "branch"}

    def test_matching_rows_reported(self, orders):
        result = AggregateQuery.sum("price", where=Between("day", 2.0, 3.0)).execute(orders)
        assert result.matching_rows == 3

    @pytest.mark.parametrize("aggregate", list(AggregateFunction))
    def test_one_scan_matches_the_filtered_relation(self, aggregate):
        """An ungrouped query selects one column under one mask; its value,
        row count and exact sum equal, bit for bit, what aggregating the
        filtered relation gives (the reference)."""
        rng = np.random.default_rng(7)
        schema = Schema.from_pairs([("t", ColumnType.FLOAT),
                                    ("n", ColumnType.INT)])
        relation = Relation(schema, {
            "t": rng.uniform(0.0, 10.0, 5000),
            "n": rng.integers(-1000, 1000, 5000)})
        for where in (Between("t", 2.5, 7.25), Between("t", 20.0, 30.0)):
            attribute = None if aggregate is AggregateFunction.COUNT else "n"
            result = AggregateQuery(aggregate, attribute, where).execute(
                relation)
            matching = relation.filter(where)
            assert result.matching_rows == matching.num_rows
            if attribute is None:
                assert result.value == float(matching.num_rows)
                continue
            assert result.value == compute_aggregate(
                aggregate, matching.column("n").astype(np.float64))
            summed = aggregate in (AggregateFunction.SUM,
                                   AggregateFunction.AVG)
            assert result.exact_sum == (
                ExactSum.of(matching.column("n")) if summed else None)
