"""Unit tests for program-aware admission control.

The controller is pinned directly (accept / reject over synthetic costs),
the pricing model is pinned for monotonicity and warm/sharded discounts,
and the service integration is pinned end-to-end: an over-budget query is
shed *before* any decomposition or compilation, a batch admits each
distinct cache miss on its own, and report-cache hits are never priced.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.engine import ContingencyQuery
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.exceptions import QueryRejectedError
from repro.service import ContingencyService, price_query
from repro.service.admission import AdmissionController, QueryCost


def pc(lo, hi, name, klo=0, khi=10):
    return PredicateConstraint(Predicate.range("t", lo, hi),
                               ValueConstraint({"v": (0.0, 10.0)}),
                               FrequencyConstraint(klo, khi), name=name)


def chain_pcset(count: int = 6) -> PredicateConstraintSet:
    return PredicateConstraintSet(
        [pc(float(i), i + 1.5, f"c{i}") for i in range(count)])


def cost(units: float) -> QueryCost:
    return QueryCost(units=units, aggregate="COUNT", constraint_count=1,
                     estimated_cells=1, shard_count=1, strategy="serial",
                     program_warm=False, pool_warm_hit_rate=0.0)


# --------------------------------------------------------------------- #
# The controller
# --------------------------------------------------------------------- #
class TestAdmissionController:
    def test_admits_under_budget_and_releases(self):
        # Admission holds no capacity, so an admitted query has nothing to
        # release: the next one is checked against the budget alone.
        controller = AdmissionController(max_query_cost=10)
        controller.admit(cost(4))
        controller.admit(cost(10))
        stats = controller.statistics
        assert stats.priced == 2 and stats.admitted == 2
        assert stats.units_admitted == 14

    def test_over_budget_rejected_with_reason(self):
        controller = AdmissionController(max_query_cost=5)
        with pytest.raises(QueryRejectedError) as info:
            controller.admit(cost(6))
        assert info.value.reason == "over-budget"
        assert info.value.cost == 6 and info.value.limit == 5
        assert controller.statistics.rejected_over_budget == 1

    def test_admit_many_checks_each_then_reserves_the_sum(self):
        controller = AdmissionController(max_query_cost=5)
        controller.admit_many([cost(3), cost(4)])
        stats = controller.statistics
        assert stats.admitted == 2 and stats.units_admitted == 7
        with pytest.raises(QueryRejectedError):
            controller.admit_many([cost(3), cost(6)])  # one member too big

    def test_admit_many_prices_every_member_exactly_once(self):
        # Success path: three members, three priced, three admitted.
        controller = AdmissionController(max_query_cost=5)
        controller.admit_many([cost(1), cost(2), cost(3)])
        stats = controller.statistics
        assert stats.priced == 3 and stats.admitted == 3
        # Rejection path: both members were priced before the second one
        # tripped the budget, and neither was admitted.
        rejecting = AdmissionController(max_query_cost=5)
        with pytest.raises(QueryRejectedError):
            rejecting.admit_many([cost(3), cost(6)])
        stats = rejecting.statistics
        assert stats.priced == 2
        assert stats.rejected_over_budget == 1
        assert stats.admitted == 0


# --------------------------------------------------------------------- #
# Pricing
# --------------------------------------------------------------------- #
class TestPricing:
    def price(self, pcset, query, **options):
        solver = PCBoundSolver(pcset, BoundOptions(check_closure=False,
                                                   **options))
        return solver, price_query(solver, query)

    def test_monotone_in_constraint_count(self):
        _, small = self.price(chain_pcset(3), ContingencyQuery.count())
        _, large = self.price(chain_pcset(6), ContingencyQuery.count())
        assert large.units > small.units
        assert large.constraint_count > small.constraint_count

    def test_warm_program_is_cheaper(self):
        solver = PCBoundSolver(chain_pcset(4),
                               BoundOptions(check_closure=False))
        query = ContingencyQuery.count()
        cold = price_query(solver, query)
        solver.bound(query.aggregate)  # compiles and caches the program
        warm = price_query(solver, query)
        assert warm.program_warm and not cold.program_warm
        assert warm.units < cold.units

    def test_warm_discount_applies_to_component_sharded_sessions(self):
        # Component-sharded execution compiles only shard-token program
        # keys; warmth must be probed against those, not the (forever
        # cold) unsharded pair key.
        pcset = PredicateConstraintSet(
            [pc(float(2 * i), 2 * i + 0.9, f"w{i}") for i in range(4)])
        pcset.mark_disjoint(True)
        solver = PCBoundSolver(pcset, BoundOptions(
            check_closure=False, solve_workers=2))
        query = ContingencyQuery.count()
        cold = price_query(solver, query)
        assert cold.strategy == "component" and not cold.program_warm
        solver.bound(query.aggregate)  # compiles the per-shard programs
        warm = price_query(solver, query)
        assert warm.program_warm
        assert warm.units < cold.units

    def test_fanned_out_query_is_cheaper_than_serial(self):
        _, serial = self.price(chain_pcset(6), ContingencyQuery.count())
        _, sharded = self.price(chain_pcset(6), ContingencyQuery.count(),
                                solve_workers=3)
        assert sharded.strategy == "region" and sharded.shard_count >= 2
        assert serial.strategy == "serial"
        assert sharded.units < serial.units

    def test_avg_prices_its_probe_budget(self):
        _, count = self.price(chain_pcset(4), ContingencyQuery.count())
        _, avg = self.price(chain_pcset(4), ContingencyQuery.avg("v"))
        assert avg.units > count.units

    def test_pricing_never_solves_or_decomposes(self):
        solver, priced = self.price(chain_pcset(5), ContingencyQuery.count())
        assert priced.units > 0
        assert solver.decompositions_computed == 0
        assert solver.programs_compiled == 0


# --------------------------------------------------------------------- #
# Service integration
# --------------------------------------------------------------------- #
class TestServiceAdmission:
    OPTIONS = BoundOptions(check_closure=False)

    def test_over_budget_query_shed_before_any_solve(self):
        with ContingencyService(max_query_cost=0.5) as service:
            session = service.register("s", chain_pcset(),
                                       options=self.OPTIONS)
            with pytest.raises(QueryRejectedError) as info:
                service.analyze("s", ContingencyQuery.count())
            assert info.value.reason == "over-budget"
            solver = session.analyzer.solver
            assert solver.decompositions_computed == 0
            assert solver.programs_compiled == 0
            stats = service.statistics()
            assert stats.admission["rejected_over_budget"] == 1
            assert "admission control" in stats.summary()

    def test_admitted_query_answers_and_frees_capacity(self):
        with ContingencyService(max_query_cost=1e9) as service:
            service.register("s", chain_pcset(), options=self.OPTIONS)
            report = service.analyze("s", ContingencyQuery.count())
            baseline = PCBoundSolver(chain_pcset(), self.OPTIONS)
            expected = baseline.bound(ContingencyQuery.count().aggregate)
            assert (report.missing_range.lower, report.missing_range.upper) \
                == (expected.lower, expected.upper)
            stats = service.statistics().admission
            assert stats["admitted"] == 1 and stats["units_admitted"] > 0.0

    def test_report_cache_hits_bypass_admission(self):
        with ContingencyService(max_query_cost=1e9) as service:
            service.register("s", chain_pcset(), options=self.OPTIONS)
            query = ContingencyQuery.count()
            service.analyze("s", query)
            service.analyze("s", query)  # warm: served from the report cache
            stats = service.statistics().admission
            assert stats["priced"] == 1 and stats["admitted"] == 1

    def test_batch_rejected_before_dispatch(self):
        with ContingencyService(max_query_cost=0.5) as service:
            session = service.register("s", chain_pcset(),
                                       options=self.OPTIONS)
            queries = [ContingencyQuery.count(),
                       ContingencyQuery.sum("v")]
            with pytest.raises(QueryRejectedError):
                service.execute_batch("s", queries)
            solver = session.analyzer.solver
            assert solver.decompositions_computed == 0
            assert solver.programs_compiled == 0

    def test_batch_admits_distinct_misses_as_one_reservation(self):
        with ContingencyService(max_query_cost=1e9) as service:
            service.register("s", chain_pcset(), options=self.OPTIONS)
            queries = [ContingencyQuery.count(), ContingencyQuery.count(),
                       ContingencyQuery.sum("v")]
            result = service.execute_batch("s", queries)
            assert len(result) == 3
            stats = service.statistics().admission
            # The two distinct misses are priced and admitted on their own;
            # the duplicate COUNT is neither.
            assert stats["priced"] == stats["admitted"] == 2

    def test_concurrent_cold_racers_solve_once(self):
        # Admission must not forfeit the report cache's single-flight
        # dedup: only the racer that computes is priced, admitted and
        # solves; the other is served the winner's report like a hit.
        with ContingencyService(max_query_cost=1e9) as service:
            session = service.register("s", chain_pcset(),
                                       options=self.OPTIONS)
            query = ContingencyQuery.count()
            barrier = threading.Barrier(2)
            reports = []

            def racer():
                barrier.wait()
                reports.append(service.analyze("s", query))

            threads = [threading.Thread(target=racer) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert len(reports) == 2
            assert (reports[0].lower, reports[0].upper) == \
                (reports[1].lower, reports[1].upper)
            assert session.analyzer.solver.decompositions_computed == 1
            stats = service.statistics().admission
            assert stats["priced"] == stats["admitted"] == 1

    def test_budgeted_cold_query_is_looked_up_once(self):
        with ContingencyService(max_query_cost=1e9) as service:
            service.register("s", chain_pcset(), options=self.OPTIONS)
            service.analyze("s", ContingencyQuery.count())
            statistics = service.statistics()
            assert statistics.report_cache.misses == 1
            assert statistics.report_cache.hits == 0
            assert statistics.admission["priced"] == 1
            assert statistics.admission["admitted"] == 1

    def test_service_without_policy_admits_freely(self):
        with ContingencyService() as service:
            service.register("s", chain_pcset(), options=self.OPTIONS)
            service.analyze("s", ContingencyQuery.count())
            assert service.admission is None
            assert service.statistics().admission is None
