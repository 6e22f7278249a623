"""End-to-end integration and soundness property tests.

The central guarantee of the paper is: *if the predicate-constraints hold,
the result range contains the true answer, always*.  These tests exercise
that guarantee across the whole stack — synthetic datasets, automatic PC
construction, random missing-data scenarios, random query workloads and all
five aggregates — as well as the full sensor-outage walkthrough from the
paper's introduction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BoundOptions,
    ContingencyQuery,
    FrequencyConstraint,
    PCAnalyzer,
    Predicate,
    PredicateConstraint,
    PredicateConstraintSet,
    ValueConstraint,
    build_corr_pcs,
)
from repro.core.builders import build_partition_pcs, build_random_pcs
from repro.datasets.intel_wireless import generate_intel_wireless
from repro.relational.aggregates import AggregateFunction
from repro.workloads.missing import remove_correlated, remove_random
from repro.workloads.queries import QueryWorkloadSpec, generate_query_workload

NO_CLOSURE = BoundOptions(check_closure=False)


class TestSensorOutageWalkthrough:
    """The introduction's scenario: one of ten partitions failed to load."""

    def setup_method(self):
        self.relation = generate_intel_wireless(num_rows=5_000, seed=42)
        # Partition 7 of 10 (by time) failed to load.
        low, high = self.relation.column_range("time")
        width = (high - low) / 10.0
        self.outage = Predicate.range("time", low + 6 * width, low + 7 * width)
        mask = self.outage.evaluate(self.relation)
        self.missing = self.relation.filter(mask)
        self.observed = self.relation.filter(~mask)

    def test_full_workflow(self):
        # The analyst writes constraints about the lost partition by looking
        # at comparable historical windows; here we build them automatically.
        pcset = build_corr_pcs(self.missing, "light", 32,
                               candidates=["device_id", "time"])
        analyzer = PCAnalyzer(pcset, observed=self.observed, options=NO_CLOSURE)

        threshold = float(np.quantile(self.relation.column("light"), 0.9))
        query = ContingencyQuery.count(Predicate.range("light", threshold,
                                                       float("inf")))
        report = analyzer.analyze(query)
        truth = query.ground_truth(self.relation)
        assert report.lower - 1e-6 <= truth <= report.upper + 1e-6

        total_light = ContingencyQuery.sum("light")
        report_sum = analyzer.analyze(total_light)
        assert report_sum.lower - 1e-6 <= total_light.ground_truth(self.relation) \
            <= report_sum.upper + 1e-6

    def test_constraint_validation_against_history(self):
        pcset = build_corr_pcs(self.missing, "light", 32,
                               candidates=["device_id", "time"])
        # The constraints were derived from the missing partition itself, so
        # they must hold on it and be reported as violation-free.
        assert not pcset.validate_against(self.missing)


class TestSoundnessAcrossSchemes:
    """Every PC construction scheme must yield sound bounds for every aggregate."""

    @pytest.fixture(scope="class")
    def scenario(self):
        relation = generate_intel_wireless(num_rows=4_000, seed=31)
        return remove_correlated(relation, 0.5, "light", highest=True)

    @pytest.fixture(scope="class")
    def queries(self, scenario):
        spec = QueryWorkloadSpec(AggregateFunction.SUM, "light",
                                 ("device_id", "time"), num_queries=10)
        relation = scenario.observed.concat(scenario.missing)
        return generate_query_workload(relation, spec, seed=17)

    @pytest.mark.parametrize("builder_name", ["corr", "partition", "random"])
    def test_bounds_contain_truth(self, scenario, queries, builder_name):
        missing = scenario.missing
        if builder_name == "corr":
            pcset = build_corr_pcs(missing, "light", 25,
                                   candidates=["device_id", "time"])
        elif builder_name == "partition":
            pcset = build_partition_pcs(missing, ["time"], 25,
                                        value_attributes=["light"])
        else:
            pcset = build_random_pcs(missing, ["device_id", "time"], 25,
                                     value_attributes=["light"],
                                     rng=np.random.default_rng(3))
        analyzer = PCAnalyzer(pcset, options=NO_CLOSURE)
        for query in queries:
            truth = query.ground_truth(missing)
            result = analyzer.bound_missing(query)
            assert result.contains(truth), (builder_name, query.describe(), truth,
                                            result)

    def test_all_aggregates_sound(self, scenario):
        missing = scenario.missing
        pcset = build_corr_pcs(missing, "light", 25, candidates=["device_id", "time"])
        analyzer = PCAnalyzer(pcset, options=NO_CLOSURE)
        region = Predicate.range("time", *missing.column_range("time"))
        cases = [
            (ContingencyQuery.count(region), missing.num_rows),
            (ContingencyQuery.sum("light", region), missing.column_sum("light")),
            (ContingencyQuery.avg("light", region), missing.column_mean("light")),
            (ContingencyQuery.min("light", region), missing.column_min("light")),
            (ContingencyQuery.max("light", region), missing.column_max("light")),
        ]
        for query, truth in cases:
            result = analyzer.bound_missing(query)
            assert result.contains(truth), (query.describe(), truth, result)


class TestRandomMissingnessProperty:
    """Hypothesis: soundness holds across random missing fractions and seeds."""

    @given(fraction=st.floats(min_value=0.1, max_value=0.9),
           seed=st.integers(min_value=0, max_value=50),
           correlated=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_sum_and_count_bounds_hold(self, fraction, seed, correlated):
        relation = generate_intel_wireless(num_rows=1_500, seed=seed)
        if correlated:
            scenario = remove_correlated(relation, fraction, "light")
        else:
            scenario = remove_random(relation, fraction,
                                     rng=np.random.default_rng(seed))
        if scenario.missing.num_rows == 0:
            return
        pcset = build_partition_pcs(scenario.missing, ["time"], 16,
                                    value_attributes=["light"])
        analyzer = PCAnalyzer(pcset, options=NO_CLOSURE)
        count = analyzer.bound_missing(ContingencyQuery.count())
        total = analyzer.bound_missing(ContingencyQuery.sum("light"))
        assert count.contains(scenario.missing.num_rows)
        assert total.contains(scenario.missing.column_sum("light"))


class TestManualConstraintWorkflow:
    """The paper's §2.1 sales example written out by hand."""

    def test_chicago_new_york_outage(self):
        domains = None
        chicago = PredicateConstraint(
            Predicate.equals("branch", "Chicago"),
            ValueConstraint({"price": (0.0, 149.99)}),
            FrequencyConstraint.at_most(300 * 3), name="chicago-3-days")
        new_york = PredicateConstraint(
            Predicate.equals("branch", "New York"),
            ValueConstraint({"price": (0.0, 99.99)}),
            FrequencyConstraint.at_most(200 * 3), name="new-york-3-days")
        from repro.solvers.sat import AttributeDomain
        pcset = PredicateConstraintSet(
            [chicago, new_york],
            domains={"branch": AttributeDomain.categorical(
                ["Chicago", "New York"])})
        # Closure holds because the outage only affected those two branches.
        assert pcset.is_closed()
        analyzer = PCAnalyzer(pcset)
        report = analyzer.analyze(ContingencyQuery.sum("price"))
        expected_upper = 900 * 149.99 + 600 * 99.99
        assert report.upper == pytest.approx(expected_upper)
        assert report.lower == pytest.approx(0.0)
