"""Unit tests for the PCAnalyzer facade and ContingencyQuery."""

from __future__ import annotations

import math

import pytest

from repro.core.bounds import BoundOptions
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.engine import ContingencyQuery, PCAnalyzer
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.exceptions import QueryError
from repro.relational.aggregates import AggregateFunction
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema
from repro.service import ContingencyService

NO_CLOSURE = BoundOptions(check_closure=False)


@pytest.fixture
def observed() -> Relation:
    schema = Schema.from_pairs([("utc", ColumnType.FLOAT), ("price", ColumnType.FLOAT)])
    rows = [(10.0, 5.0), (10.5, 15.0), (11.2, 25.0), (12.5, 35.0)]
    return Relation.from_rows(schema, rows, name="observed_sales")


@pytest.fixture
def outage_pcs() -> PredicateConstraintSet:
    """Constraints describing a two-day outage window."""
    day1 = PredicateConstraint(Predicate.range("utc", 11, 12),
                               ValueConstraint({"price": (1.0, 100.0)}),
                               FrequencyConstraint(0, 10), name="day1")
    day2 = PredicateConstraint(Predicate.range("utc", 12, 13),
                               ValueConstraint({"price": (1.0, 200.0)}),
                               FrequencyConstraint(2, 5), name="day2")
    return PredicateConstraintSet([day1, day2])


class TestContingencyQuery:
    def test_constructors_and_validation(self):
        assert ContingencyQuery.count().aggregate is AggregateFunction.COUNT
        assert ContingencyQuery.sum("price").attribute == "price"
        with pytest.raises(QueryError):
            ContingencyQuery(AggregateFunction.SUM, None)
        with pytest.raises(QueryError):
            ContingencyQuery(AggregateFunction.COUNT, "price")

    def test_ground_truth(self, observed):
        query = ContingencyQuery.sum("price", Predicate.range("utc", 10, 11))
        assert query.ground_truth(observed) == 20.0
        assert ContingencyQuery.count().ground_truth(observed) == 4.0

    def test_describe(self):
        query = ContingencyQuery.max("price", Predicate.range("utc", 0, 1))
        text = query.describe()
        assert "MAX(price)" in text and "WHERE" in text
        assert ContingencyQuery.count().describe() == "COUNT(*)"


class TestPCAnalyzerMissingOnly:
    def test_bound_missing_matches_solver(self, outage_pcs):
        analyzer = PCAnalyzer(outage_pcs, options=NO_CLOSURE)
        result = analyzer.bound_missing(ContingencyQuery.sum("price"))
        assert result.upper == pytest.approx(10 * 100.0 + 5 * 200.0)
        assert result.lower == pytest.approx(2 * 1.0)

    def test_bound_without_observed_equals_missing(self, outage_pcs):
        analyzer = PCAnalyzer(outage_pcs, options=NO_CLOSURE)
        query = ContingencyQuery.count()
        assert analyzer.bound(query).upper == analyzer.bound_missing(query).upper


class TestPCAnalyzerCombined:
    def test_sum_combination(self, outage_pcs, observed):
        analyzer = PCAnalyzer(outage_pcs, observed=observed, options=NO_CLOSURE)
        report = analyzer.analyze(ContingencyQuery.sum("price"))
        observed_total = 80.0
        assert report.observed_value == pytest.approx(observed_total)
        assert report.lower == pytest.approx(observed_total + 2.0)
        assert report.upper == pytest.approx(observed_total + 10 * 100.0 + 5 * 200.0)
        assert report.elapsed_seconds >= 0.0
        assert "SUM(price)" in report.summary()

    def test_count_combination_with_region(self, outage_pcs, observed):
        analyzer = PCAnalyzer(outage_pcs, observed=observed, options=NO_CLOSURE)
        region = Predicate.range("utc", 11, 12.4)
        report = analyzer.analyze(ContingencyQuery.count(region))
        # Observed rows at utc 11.2 only; missing day1 rows (up to 10) plus
        # day2 rows that could fall inside [12, 12.4].
        assert report.observed_value == 1.0
        assert report.lower <= 1.0 + 2.0
        assert report.upper == pytest.approx(1.0 + 10.0 + 5.0)

    def test_max_combination(self, outage_pcs, observed):
        analyzer = PCAnalyzer(outage_pcs, observed=observed, options=NO_CLOSURE)
        report = analyzer.analyze(ContingencyQuery.max("price"))
        # Observed max is 35; missing day2 rows are mandatory and worth >= 1,
        # at most 200.
        assert report.upper == pytest.approx(200.0)
        assert report.lower == pytest.approx(35.0)

    def test_min_combination(self, outage_pcs, observed):
        analyzer = PCAnalyzer(outage_pcs, observed=observed, options=NO_CLOSURE)
        report = analyzer.analyze(ContingencyQuery.min("price"))
        assert report.lower == pytest.approx(1.0)
        assert report.upper == pytest.approx(5.0)

    def test_avg_combination_contains_possible_truth(self, outage_pcs, observed):
        analyzer = PCAnalyzer(outage_pcs, observed=observed, options=NO_CLOSURE)
        report = analyzer.analyze(ContingencyQuery.avg("price"))
        observed_average = 20.0
        assert report.lower <= observed_average <= report.upper
        # Extreme: 5 extra rows at 200 and 10 at 100.
        best_case = (80.0 + 10 * 100.0 + 5 * 200.0) / (4 + 15)
        assert report.upper >= best_case - 1e-6

    def test_avg_over_nan_observed_values_is_nan(self):
        """A NaN observed value makes AVG NaN, as it makes SUM, MIN and MAX,
        instead of an inverted range, and no NaN-keyed range is cached."""
        pcset = PredicateConstraintSet([PredicateConstraint(
            Predicate.range("t", 0, 3), ValueConstraint({"v": (0.0, 10.0)}),
            FrequencyConstraint(0, 3), name="c")])
        schema = Schema.from_pairs([("t", ColumnType.FLOAT),
                                    ("v", ColumnType.FLOAT)])
        observed = Relation.from_rows(schema, [(1.0, math.nan), (2.0, 4.0)],
                                      name="nan_readings")
        query = ContingencyQuery.avg("v")
        report = PCAnalyzer(pcset, observed=observed,
                            options=NO_CLOSURE).analyze(query)
        for bound in (report.result_range, report.missing_range):
            assert math.isnan(bound.lower) and math.isnan(bound.upper)
        service = ContingencyService()
        service.register("nan", pcset, observed=observed, options=NO_CLOSURE)
        served = service.analyze("nan", query)
        assert math.isnan(served.lower) and math.isnan(served.upper)
        assert len(service.range_cache) == 0

    def test_bound_all(self, outage_pcs, observed):
        analyzer = PCAnalyzer(outage_pcs, observed=observed, options=NO_CLOSURE)
        queries = [ContingencyQuery.count(), ContingencyQuery.sum("price")]
        reports = analyzer.bound_all(queries)
        assert len(reports) == 2

    def test_validate_constraints(self, outage_pcs, observed):
        analyzer = PCAnalyzer(outage_pcs, observed=observed, options=NO_CLOSURE)
        violations = analyzer.validate_constraints(observed)
        # The observed data has no rows in [12, 13] x >= 2, so day2's minimum
        # frequency is violated on historical data — exactly the kind of
        # check the paper advocates doing before trusting a constraint.
        assert any(v.constraint_name == "day2" for v in violations)


class TestPCAnalyzerAccessors:
    def test_properties(self, outage_pcs, observed):
        analyzer = PCAnalyzer(outage_pcs, observed=observed, options=NO_CLOSURE)
        assert analyzer.pcset is outage_pcs
        assert analyzer.observed is observed
        assert analyzer.options.check_closure is False


class TestQueryHashability:
    """Queries and predicates key the service caches: hash/eq must agree.

    ``ContingencyQuery`` is a frozen dataclass over a ``Predicate`` field;
    if ``Predicate.__hash__``/``__eq__`` ever drifted (e.g. mutable mapping
    fields sneaking into the hash), dict-keyed caching would silently break.
    """

    def test_predicate_equality_implies_equal_hash(self):
        first = Predicate.range("utc", 11, 12).with_equals("branch", "Chicago")
        second = Predicate.equals("branch", "Chicago").with_range("utc", 11, 12)
        assert first == second
        assert hash(first) == hash(second)

    def test_predicate_as_dict_key(self):
        lookup = {Predicate.range("utc", 11, 12): "window"}
        assert lookup[Predicate.range("utc", 11, 12)] == "window"
        assert Predicate.range("utc", 11, 13) not in lookup
        assert Predicate.true() not in lookup
        lookup[Predicate.true()] = "everything"
        assert lookup[Predicate.true()] == "everything"

    def test_query_equality_implies_equal_hash(self):
        region = Predicate.range("utc", 11, 13)
        first = ContingencyQuery.sum("price", region)
        second = ContingencyQuery.sum("price", Predicate.range("utc", 11, 13))
        assert first == second
        assert hash(first) == hash(second)

    def test_query_inequality(self):
        region = Predicate.range("utc", 11, 13)
        base = ContingencyQuery.sum("price", region)
        assert base != ContingencyQuery.avg("price", region)
        assert base != ContingencyQuery.sum("utc", region)
        assert base != ContingencyQuery.sum("price")
        assert base != ContingencyQuery.sum(
            "price", Predicate.range("utc", 11, 14))

    def test_query_as_dict_key_end_to_end(self):
        region = Predicate.range("utc", 11, 13)
        cache: dict[ContingencyQuery, str] = {}
        cache[ContingencyQuery.sum("price", region)] = "cached"
        cache[ContingencyQuery.count()] = "count"
        # A structurally equal query built from fresh objects must hit.
        assert cache[ContingencyQuery.sum(
            "price", Predicate.range("utc", 11, 13))] == "cached"
        assert cache[ContingencyQuery.count()] == "count"
        assert len({ContingencyQuery.count(), ContingencyQuery.count(),
                    ContingencyQuery.count(region)}) == 2

    def test_membership_predicate_hash_ignores_value_order(self):
        first = Predicate.isin("branch", ["Chicago", "Trenton"])
        second = Predicate.isin("branch", ["Trenton", "Chicago"])
        assert first == second
        assert hash(first) == hash(second)
