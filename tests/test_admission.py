"""Unit tests for program-aware admission control.

The controller is pinned directly (accept / reject / defer / timeout over
synthetic costs), the pricing model is pinned for monotonicity and
warm/sharded discounts, and the service integration is pinned end-to-end:
an over-budget query is shed *before* any decomposition or compilation, the
bounded queue defers and resumes, batches admit as one reservation, and
report-cache hits bypass admission entirely.
"""

from __future__ import annotations

import threading
import time

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
from repro.service import AdmissionPolicy, ContingencyService, price_query
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
        controller = AdmissionController(AdmissionPolicy(max_query_cost=10,
                                                         capacity=10))
        with controller.admit(cost(4)):
            assert controller.statistics.units_in_flight == 4
        stats = controller.statistics
        assert stats.admitted == 1 and stats.units_in_flight == 0

    def test_over_budget_rejected_with_reason(self):
        controller = AdmissionController(AdmissionPolicy(max_query_cost=5))
        with pytest.raises(QueryRejectedError) as info:
            controller.admit(cost(6))
        assert info.value.reason == "over-budget"
        assert info.value.cost == 6 and info.value.limit == 5
        assert controller.statistics.rejected_over_budget == 1

    def test_queue_full_rejects_immediately(self):
        controller = AdmissionController(AdmissionPolicy(capacity=5,
                                                         max_pending=0))
        ticket = controller.admit(cost(4))
        with pytest.raises(QueryRejectedError) as info:
            controller.admit(cost(4))
        assert info.value.reason == "queue-full"
        ticket.release()
        controller.admit(cost(4)).release()  # capacity freed

    def test_deferred_query_resumes_on_release(self):
        controller = AdmissionController(AdmissionPolicy(
            capacity=5, max_pending=1, max_wait_seconds=5.0))
        first = controller.admit(cost(4))
        admitted = threading.Event()

        def deferred():
            with controller.admit(cost(4)):
                admitted.set()

        waiter = threading.Thread(target=deferred)
        waiter.start()
        time.sleep(0.05)
        assert not admitted.is_set()  # parked on the bounded queue
        assert controller.statistics.pending == 1
        first.release()
        waiter.join(timeout=5.0)
        assert admitted.is_set()
        assert controller.statistics.deferred == 1
        assert controller.statistics.admitted == 2

    def test_deferred_query_times_out(self):
        controller = AdmissionController(AdmissionPolicy(
            capacity=5, max_pending=1, max_wait_seconds=0.05))
        ticket = controller.admit(cost(4))
        with pytest.raises(QueryRejectedError) as info:
            controller.admit(cost(4))
        assert info.value.reason == "timeout"
        ticket.release()

    def test_oversized_query_runs_alone(self):
        # capacity is a concurrency budget, not a per-query ceiling: a query
        # bigger than the whole capacity still runs when nothing else does.
        controller = AdmissionController(AdmissionPolicy(capacity=5))
        with controller.admit(cost(9)):
            pass
        assert controller.statistics.admitted == 1

    def test_admit_many_checks_each_then_reserves_the_sum(self):
        controller = AdmissionController(AdmissionPolicy(max_query_cost=5,
                                                         capacity=20))
        ticket = controller.admit_many([cost(3), cost(4)])
        assert controller.statistics.units_in_flight == 7
        ticket.release()
        with pytest.raises(QueryRejectedError):
            controller.admit_many([cost(3), cost(6)])  # one member too big

    def test_release_is_idempotent(self):
        controller = AdmissionController(AdmissionPolicy(capacity=5))
        ticket = controller.admit(cost(3))
        ticket.release()
        ticket.release()
        assert controller.statistics.units_in_flight == 0


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
        with ContingencyService(admission=AdmissionPolicy(
                max_query_cost=0.5)) as service:
            session = service.register("s", chain_pcset(),
                                       options=self.OPTIONS)
            with pytest.raises(QueryRejectedError) as info:
                service.analyze("s", ContingencyQuery.count())
            assert info.value.reason == "over-budget"
            solver = session.analyzer.solver
            assert solver.decompositions_computed == 0
            assert solver.programs_compiled == 0
            stats = service.statistics()
            assert stats.admission["rejected"] == 1
            assert "admission control" in stats.summary()

    def test_admitted_query_answers_and_frees_capacity(self):
        with ContingencyService(admission=AdmissionPolicy(
                max_query_cost=1e9, capacity=1e9)) as service:
            service.register("s", chain_pcset(), options=self.OPTIONS)
            report = service.analyze("s", ContingencyQuery.count())
            baseline = PCBoundSolver(chain_pcset(), self.OPTIONS)
            expected = baseline.bound(ContingencyQuery.count().aggregate)
            assert (report.missing_range.lower, report.missing_range.upper) \
                == (expected.lower, expected.upper)
            stats = service.statistics().admission
            assert stats["admitted"] == 1 and stats["units_in_flight"] == 0.0

    def test_report_cache_hits_bypass_admission(self):
        with ContingencyService(admission=AdmissionPolicy(
                max_query_cost=1e9)) as service:
            service.register("s", chain_pcset(), options=self.OPTIONS)
            query = ContingencyQuery.count()
            service.analyze("s", query)
            service.analyze("s", query)  # warm: served from the report cache
            stats = service.statistics().admission
            assert stats["priced"] == 1 and stats["admitted"] == 1

    def test_batch_rejected_before_dispatch(self):
        with ContingencyService(admission=AdmissionPolicy(
                max_query_cost=0.5)) as service:
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
        with ContingencyService(admission=AdmissionPolicy(
                max_query_cost=1e9, capacity=1e9)) as service:
            service.register("s", chain_pcset(), options=self.OPTIONS)
            queries = [ContingencyQuery.count(), ContingencyQuery.count(),
                       ContingencyQuery.sum("v")]
            result = service.execute_batch("s", queries)
            assert len(result) == 3
            stats = service.statistics().admission
            # One combined reservation, fully released.
            assert stats["admitted"] == 1
            assert stats["units_in_flight"] == 0.0

    def test_concurrent_cold_racers_solve_once(self):
        # Admission must not forfeit the report cache's single-flight
        # dedup: racers each hold admitted units, but only one solves.
        with ContingencyService(admission=AdmissionPolicy(
                max_query_cost=1e9, capacity=1e9)) as service:
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

    def test_service_without_policy_admits_freely(self):
        with ContingencyService() as service:
            service.register("s", chain_pcset(), options=self.OPTIONS)
            service.analyze("s", ContingencyQuery.count())
            assert service.admission is None
            assert service.statistics().admission is None


# --------------------------------------------------------------------- #
# Deferred-queue wakeup ordering
# --------------------------------------------------------------------- #
class TestWakeupOrdering:
    """Released capacity goes to the shortest-priced waiter first, with a
    per-session fairness penalty and no newcomer bypass — the elastic
    scheduler's admission leg."""

    def wait_for_pending(self, controller, count, timeout=5.0):
        deadline = time.monotonic() + timeout
        while controller.statistics.pending != count:
            if time.monotonic() > deadline:
                raise AssertionError(
                    f"pending never reached {count} "
                    f"(now {controller.statistics.pending})")
            time.sleep(0.005)

    def test_shortest_priced_waiter_admits_first(self):
        # Capacity 4, fully held.  Waiters arrive largest-first (4, 3, 2);
        # each fills the capacity alone, so admissions serialize and the
        # recorded order is exactly the head-selection order: shortest
        # first, not FIFO.
        controller = AdmissionController(AdmissionPolicy(
            capacity=4, max_pending=3, max_wait_seconds=10.0))
        held = controller.admit(cost(4))
        order: list[float] = []

        def deferred(units):
            with controller.admit(cost(units), session=f"s{units}"):
                order.append(units)

        threads = []
        for units, pending in ((4, 1), (3, 2), (2, 3)):
            thread = threading.Thread(target=deferred, args=(units,))
            thread.start()
            threads.append(thread)
            self.wait_for_pending(controller, pending)
        held.release()
        for thread in threads:
            thread.join(timeout=10.0)
        assert order == [2, 3, 4]
        stats = controller.statistics
        assert stats.deferred == 3 and stats.admitted == 4
        assert stats.pending == 0 and stats.units_in_flight == 0

    def test_newcomer_never_bypasses_a_parked_large_waiter(self):
        # Capacity 10 with 7 held: an 8-unit waiter parks, then a 2-unit
        # newcomer arrives that *would* fit — it must queue anyway, or a
        # stream of small arrivals starves the large waiter forever.
        controller = AdmissionController(AdmissionPolicy(
            capacity=10, max_pending=2, max_wait_seconds=10.0))
        held = controller.admit(cost(7), session="a")
        admissions: list[float] = []

        def deferred(units, session):
            with controller.admit(cost(units), session=session):
                admissions.append(units)
                time.sleep(0.02)  # hold briefly so both overlap

        large = threading.Thread(target=deferred, args=(8, "b"))
        large.start()
        self.wait_for_pending(controller, 1)
        small = threading.Thread(target=deferred, args=(2, "a"))
        small.start()
        self.wait_for_pending(controller, 2)
        # The newcomer fits (7 + 2 <= 10) yet is parked behind the queue.
        assert controller.statistics.admitted == 1
        held.release()
        large.join(timeout=10.0)
        small.join(timeout=10.0)
        assert sorted(admissions) == [2, 8]
        assert controller.statistics.admitted == 3
        assert controller.statistics.units_in_flight == 0

    def test_session_flood_does_not_starve_other_sessions(self):
        # Session "a" got the last admission and has another query parked;
        # session "b"'s waiter is larger AND arrived later, but the
        # fairness penalty on back-to-back same-session admissions makes
        # "b" the head once capacity frees.
        controller = AdmissionController(AdmissionPolicy(
            capacity=2, max_pending=2, max_wait_seconds=10.0))
        held = controller.admit(cost(2), session="a")
        order: list[str] = []

        def deferred(units, session):
            with controller.admit(cost(units), session=session):
                order.append(session)

        first = threading.Thread(target=deferred, args=(1, "a"))
        first.start()
        self.wait_for_pending(controller, 1)
        second = threading.Thread(target=deferred, args=(2, "b"))
        second.start()
        self.wait_for_pending(controller, 2)
        held.release()
        first.join(timeout=10.0)
        second.join(timeout=10.0)
        assert order == ["b", "a"]
        assert controller.statistics.admitted == 3

    def test_admit_many_prices_every_member_exactly_once(self):
        # Success path: three members, three priced, one combined admit.
        controller = AdmissionController(AdmissionPolicy(max_query_cost=5,
                                                         capacity=100))
        with controller.admit_many([cost(1), cost(2), cost(3)]):
            pass
        stats = controller.statistics
        assert stats.priced == 3 and stats.admitted == 1
        # Rejection path: both members were priced before the second one
        # tripped the budget — the old accounting counted only the
        # offending member.
        rejecting = AdmissionController(AdmissionPolicy(max_query_cost=5))
        with pytest.raises(QueryRejectedError):
            rejecting.admit_many([cost(3), cost(6)])
        stats = rejecting.statistics
        assert stats.priced == 2
        assert stats.rejected_over_budget == 1
        assert stats.admitted == 0
