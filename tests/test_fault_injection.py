"""Chaos suite: deterministic fault injection against the fault-tolerance
contract.

Every scenario scripts its failure through ``REPRO_FAULTS`` (see
:mod:`repro.faults`) so the exact same recovery path runs on every
machine, every time:

* **kill mid-batch** — a worker dies holding dispatched tasks; the round
  retries them elsewhere and the surviving results are bit-identical to
  the serial path, for all five aggregates;
* **kill mid-round** — a kill on a later dispatch of a round deeper than
  the pool, with its tasks retried on the respawned worker;
* **poison quarantine** — a task that kills its worker twice is
  quarantined and fails *only its own query* with
  :class:`~repro.exceptions.PoisonTaskError` while sibling tasks and
  concurrent queries complete;
* **deadlines** — delayed replies past the query deadline abandon the
  round and raise :class:`~repro.exceptions.QueryDeadlineError` carrying
  partial progress, well under the injected delay's total cost;
* **graceful degradation** — under ``degrade="worst-case"`` a poisoned
  shard contributes its precomputed worst-case range instead: the merged
  range stays a sound superset of the exact one and the result is stamped
  with the degraded shard positions.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.builders import build_partition_pcs
from repro.core.engine import ContingencyQuery, PCAnalyzer
from repro.exceptions import PoisonTaskError, QueryDeadlineError, ReproError
from repro.faults import (
    FAULTS_ENV,
    Deadline,
    FaultPlan,
    current_deadline,
    deadline_scope,
    parse_faults,
    resolve_faults,
)
from repro.obs.metrics import get_registry
from repro.parallel.pool import _DEFAULT_TASK_RETRIES, WorkerPool
from repro.relational.aggregates import AggregateFunction
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema
from repro.service import ContingencyService

WORKERS = max(2, int(os.environ.get("REPRO_TEST_WORKERS", "3")))

ALL_AGGREGATES = (AggregateFunction.COUNT, AggregateFunction.SUM,
                  AggregateFunction.AVG, AggregateFunction.MIN,
                  AggregateFunction.MAX)


@pytest.fixture(autouse=True)
def _isolated_fault_env(monkeypatch):
    """Each test states its own fault plan; the chaos CI leg's global
    ``REPRO_FAULTS`` must not leak into scenarios scripted differently."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    yield


def make_relation(rows: int = 240, seed: int = 5) -> Relation:
    rng = np.random.default_rng(seed)
    schema = Schema.from_pairs([("t", ColumnType.FLOAT),
                                ("v", ColumnType.FLOAT)])
    data = np.column_stack([rng.uniform(0.0, 40.0, rows),
                            rng.uniform(1.0, 60.0, rows)])
    return Relation.from_rows(schema, [tuple(row) for row in data],
                              name="chaos-test")


def make_solver(**options) -> PCBoundSolver:
    pcset = build_partition_pcs(make_relation(), ["t"], 6)
    return PCBoundSolver(pcset,
                         BoundOptions(check_closure=False, **options))


def keyed_shard_programs(solver: PCBoundSolver,
                         shards: int = 3) -> list[tuple]:
    sharded = solver.sharded_plan(None, max_shards=shards)
    assert sharded.is_sharded
    return [(solver.shard_program_key(shard, None),
             solver.shard_program(shard, None))
            for shard in sharded]


def direct_endpoints(keyed, aggregate, attribute="v"):
    return [(r.lower, r.upper, r.closed)
            for r in (program.bound(aggregate, attribute)
                      for _, program in keyed)]


def counter_value(name: str) -> float:
    return get_registry().counter(name).value


# --------------------------------------------------------------------- #
# Plan grammar
# --------------------------------------------------------------------- #
class TestFaultPlanParsing:
    def test_readme_example_parses(self):
        plan = parse_faults(
            "kill:worker=1,task=7;delay:shard=2,ms=500;drop_reply:nth=3")
        assert bool(plan)
        assert plan.spec.startswith("kill:")

    def test_selectors_fire_deterministically(self):
        plan = parse_faults("delay:worker=0,nth=2,ms=5")
        # nth counts only dispatches matching the other selectors.
        assert plan.on_dispatch(1, "solve_batch", 0) is None
        assert plan.on_dispatch(0, "solve_batch", 0) is None  # 1st match
        assert plan.on_dispatch(0, "solve_batch", 1) == ("delay", 5.0)
        # The count is exhausted after one firing.
        assert plan.on_dispatch(0, "solve_batch", 2) is None
        assert plan.fired() == 1
        plan.reset()
        assert plan.fired() == 0

    def test_count_caps_firings(self):
        plan = parse_faults("fail:shard=0,count=2,message=boom")
        assert plan.on_dispatch(0, "solve_batch", 0) == ("fail", "boom")
        assert plan.on_dispatch(1, "solve_batch", 0) == ("fail", "boom")
        assert plan.on_dispatch(2, "solve_batch", 0) is None

    def test_first_matching_clause_wins(self):
        plan = parse_faults("delay:ms=1;kill:worker=0")
        assert plan.on_dispatch(0, "solve_batch", 0) == ("delay", 1.0)

    @pytest.mark.parametrize("spec", [
        "explode:worker=1",          # unknown action
        "kill:worker",               # malformed pair
        "kill:worker=x",             # non-integer selector
        "kill:bogus=1",              # unknown selector
        "kill:count=0",              # count below 1
    ])
    def test_malformed_plans_fail_loudly(self, spec):
        with pytest.raises(ReproError):
            parse_faults(spec)

    def test_pool_rejects_kinds_it_never_dispatches(self, monkeypatch):
        """A ``kind=`` selector naming no pool task kind fails when the
        pool resolves the plan, instead of silently never firing."""
        monkeypatch.setenv(FAULTS_ENV, "delay:ms=1;kill:kind=solve")
        with pytest.raises(ReproError,
                           match="unknown fault kind 'solve'.*solve_batch"):
            WorkerPool(max_workers=2, mode="process")
        monkeypatch.setenv(FAULTS_ENV, "kill:kind=decompose_batch")
        pool = WorkerPool(max_workers=2, mode="process")
        assert pool.fault_plan.spec == "kill:kind=decompose_batch"

    def test_environment_wins_over_configured(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "kill:task=1")
        plan = resolve_faults("delay:ms=1")
        assert isinstance(plan, FaultPlan)
        assert plan.spec == "kill:task=1"
        monkeypatch.delenv(FAULTS_ENV)
        assert resolve_faults(None) is None


# --------------------------------------------------------------------- #
# Deadline primitives
# --------------------------------------------------------------------- #
class TestDeadlines:
    def test_deadline_must_be_positive(self):
        with pytest.raises(ReproError):
            Deadline(0.0)

    def test_scope_nests_and_restores(self):
        assert current_deadline() is None
        outer = Deadline(60.0)
        inner = Deadline(30.0)
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            with deadline_scope(None):  # no-op scope
                assert current_deadline() is outer
        assert current_deadline() is None

    def test_inline_round_honours_expired_deadline(self):
        solver = make_solver()
        keyed = keyed_shard_programs(solver)
        pool = WorkerPool(max_workers=WORKERS, mode="serial")
        with deadline_scope(Deadline(1e-9)):
            with pytest.raises(QueryDeadlineError) as excinfo:
                pool.solve_programs(keyed, AggregateFunction.SUM, "v")
        assert excinfo.value.pending > 0


# --------------------------------------------------------------------- #
# Crash recovery: kill mid-batch, kill mid-round
# --------------------------------------------------------------------- #
class TestKillRecovery:
    def test_kill_mid_batch_bit_identical_all_aggregates(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "kill:task=1")
        solver = make_solver()
        keyed = keyed_shard_programs(solver)
        retried_before = counter_value("pool.tasks_retried")
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            assert pool.fault_plan is not None
            for aggregate in ALL_AGGREGATES:
                # Re-arm the plan so the first dispatch of *every* round
                # dies: each aggregate exercises kill -> respawn -> retry.
                pool.fault_plan.reset()
                recovered = pool.solve_programs(keyed, aggregate, "v")
                assert recovered == direct_endpoints(keyed, aggregate)
            statistics = pool.statistics
            assert statistics.tasks_retried >= len(ALL_AGGREGATES)
            assert statistics.worker_restarts >= len(ALL_AGGREGATES)
            assert statistics.tasks_quarantined == 0
        finally:
            pool.shutdown()
        # The retries surfaced on the shared metrics registry (the feed
        # `repro stats` renders).
        assert counter_value("pool.tasks_retried") >= \
            retried_before + len(ALL_AGGREGATES)

    def test_kill_mid_round_bit_identical(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "kill:task=2")
        solver = make_solver()
        keyed = keyed_shard_programs(solver, shards=6)
        pool = WorkerPool(max_workers=2, mode="process")
        try:
            recovered = pool.solve_programs(keyed, AggregateFunction.SUM, "v")
            assert recovered == direct_endpoints(keyed,
                                                 AggregateFunction.SUM)
            assert pool.statistics.worker_restarts >= 1
            assert pool.statistics.tasks_retried >= 1
        finally:
            pool.shutdown()

    def test_injected_failure_propagates_once(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "fail:task=1,message=chaos-proof")
        solver = make_solver()
        keyed = keyed_shard_programs(solver)
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            with pytest.raises(Exception, match="chaos-proof"):
                pool.solve_programs(keyed, AggregateFunction.COUNT)
            # The plan is exhausted: the next round is clean and serial-
            # identical — an injected error never sticks to the pool.
            assert pool.solve_programs(keyed, AggregateFunction.COUNT) == \
                direct_endpoints(keyed, AggregateFunction.COUNT)
        finally:
            pool.shutdown()

    def test_dropped_reply_is_surfaced_by_the_deadline(self, monkeypatch):
        # A dropped reply is a *silent* worker, not a dead one: liveness
        # checks see nothing wrong, so the loss is detected by the query
        # deadline, which abandons the round with partial progress instead
        # of hanging forever.
        monkeypatch.setenv(FAULTS_ENV, "drop_reply:task=1")
        solver = make_solver()
        keyed = keyed_shard_programs(solver)
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            started = time.monotonic()
            with deadline_scope(Deadline(0.75)):
                with pytest.raises(QueryDeadlineError) as excinfo:
                    pool.solve_programs(keyed, AggregateFunction.SUM, "v")
            assert time.monotonic() - started < 5.0
            assert excinfo.value.pending >= 1
            # The plan is exhausted; the next round answers clean.
            assert pool.solve_programs(keyed, AggregateFunction.SUM, "v") == \
                direct_endpoints(keyed, AggregateFunction.SUM)
        finally:
            pool.shutdown()


# --------------------------------------------------------------------- #
# Poison-task quarantine
# --------------------------------------------------------------------- #
class TestPoisonQuarantine:
    def test_poison_task_quarantined_siblings_survive(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "kill:shard=1,count=2")
        solver = make_solver()
        keyed = keyed_shard_programs(solver)
        quarantined_before = counter_value("pool.tasks_quarantined")
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            with pytest.raises(PoisonTaskError) as excinfo:
                pool.solve_programs(keyed, AggregateFunction.SUM, "v")
            error = excinfo.value
            assert error.fingerprint is not None
            assert error.fingerprint in str(error)
            assert error.attempts == _DEFAULT_TASK_RETRIES
            # Sibling tasks drained before the round failed.
            assert "sibling" in str(error)
            statistics = pool.statistics
            assert statistics.tasks_quarantined >= 1
            assert statistics.tasks_retried >= 1
            # The poison plan is exhausted: the same query now completes
            # bit-identically to the serial path on the same pool.
            assert pool.solve_programs(keyed, AggregateFunction.SUM, "v") == \
                direct_endpoints(keyed, AggregateFunction.SUM)
        finally:
            pool.shutdown()
        assert counter_value("pool.tasks_quarantined") >= \
            quarantined_before + 1

    def test_poison_fails_only_its_own_query(self, monkeypatch):
        # Shard position 2 exists only in the wide query: the fault can
        # never touch the narrow one, however the rounds interleave.
        monkeypatch.setenv(FAULTS_ENV, "kill:shard=2,count=2")
        solver = make_solver()
        wide = keyed_shard_programs(solver, shards=3)
        narrow = keyed_shard_programs(solver, shards=2)
        assert len(wide) >= 3 and len(narrow) == 2
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            with ThreadPoolExecutor(max_workers=2) as executor:
                poisoned = executor.submit(
                    pool.solve_programs, wide, AggregateFunction.SUM, "v")
                healthy = executor.submit(
                    pool.solve_programs, narrow, AggregateFunction.MAX, "t")
                with pytest.raises(PoisonTaskError):
                    poisoned.result(timeout=60)
                assert healthy.result(timeout=60) == \
                    direct_endpoints(narrow, AggregateFunction.MAX, "t")
        finally:
            pool.shutdown()


# --------------------------------------------------------------------- #
# Deadlines end to end
# --------------------------------------------------------------------- #
class TestDeadlineEndToEnd:
    def test_delayed_replies_past_deadline_abandon_round(self, monkeypatch):
        # Every dispatch sleeps 400 ms; with a 50 ms budget the round must
        # abandon its in-flight tasks and raise far sooner than the
        # injected delays could ever finish.
        monkeypatch.setenv(FAULTS_ENV, "delay:ms=400,count=99")
        solver = make_solver()
        keyed = keyed_shard_programs(solver)
        exceeded_before = counter_value("queries.deadline_exceeded")
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            started = time.monotonic()
            with deadline_scope(Deadline(0.05)):
                with pytest.raises(QueryDeadlineError) as excinfo:
                    pool.solve_programs(keyed, AggregateFunction.SUM, "v")
            assert time.monotonic() - started < 1.0
            error = excinfo.value
            assert error.deadline == pytest.approx(0.05)
            assert error.elapsed >= 0.05
            assert error.pending > 0
        finally:
            pool.shutdown()
        # The ambient-scope path raises below the solver, so the
        # queries.* counter is untouched here (it belongs to bound()).
        assert counter_value("queries.deadline_exceeded") == exceeded_before

    def test_solver_deadline_option(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "delay:ms=400,count=99")
        solver = make_solver(deadline_seconds=0.05, solve_workers=WORKERS)
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        solver._worker_pool = pool
        exceeded_before = counter_value("queries.deadline_exceeded")
        try:
            started = time.monotonic()
            with pytest.raises(QueryDeadlineError):
                solver.bound(AggregateFunction.SUM, "v")
            assert time.monotonic() - started < 1.0
        finally:
            pool.shutdown()
        assert counter_value("queries.deadline_exceeded") == \
            exceeded_before + 1


# --------------------------------------------------------------------- #
# Graceful degradation
# --------------------------------------------------------------------- #
class TestDegradation:
    def test_worst_case_range_is_superset_for_all_aggregates(self):
        solver = make_solver()
        keyed = keyed_shard_programs(solver)
        for _key, program in keyed:
            for aggregate in ALL_AGGREGATES:
                exact = program.bound(aggregate, "v")
                worst = program.worst_case_range(aggregate, "v")
                if worst.lower is not None:
                    assert exact.lower is not None
                    assert worst.lower <= exact.lower + 1e-9
                if worst.upper is not None:
                    assert exact.upper is not None
                    assert worst.upper >= exact.upper - 1e-9

    def test_poisoned_shard_degrades_to_sound_range(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "kill:shard=0,count=2")
        exact = make_solver().bound(AggregateFunction.SUM, "v")
        degraded_before = counter_value("queries.degraded")
        solver = make_solver(degrade="worst-case", solve_workers=WORKERS)
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        solver._worker_pool = pool
        try:
            result = solver.bound(AggregateFunction.SUM, "v")
        finally:
            pool.shutdown()
        # Sound: the degraded range contains the exact one.
        assert result.lower <= exact.lower + 1e-9
        assert result.upper >= exact.upper - 1e-9
        # And the result says exactly which shard was degraded.
        assert result.statistics is not None
        assert tuple(result.statistics.degraded_shards) == (0,)
        assert counter_value("queries.degraded") == degraded_before + 1

    def test_unknown_degrade_policy_rejected(self):
        # Rejected when the options are built, not when a sharded query
        # first reads the policy.
        with pytest.raises(ReproError, match="degrade"):
            make_solver(degrade="optimistic", solve_workers=WORKERS)

    def test_degrade_typo_rejected_on_the_serial_path(self):
        """The serial path never reads the policy, so a typo used to
        answer as if no policy were set."""
        with pytest.raises(ReproError, match="degrade"):
            make_solver(degrade="worst_case")


# --------------------------------------------------------------------- #
# Service integration: counters, summary, reports
# --------------------------------------------------------------------- #
class TestServiceFaultTolerance:
    def make_scenario(self):
        relation = make_relation(seed=11)
        pcset = build_partition_pcs(relation, ["t"], 6)
        return relation, pcset

    def test_service_deadline_counted_and_summarised(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "delay:ms=400,count=99")
        relation, pcset = self.make_scenario()
        options = BoundOptions(check_closure=False, solve_workers=WORKERS,
                               deadline_seconds=0.05)
        with ContingencyService(max_workers=WORKERS, pool_mode="process",
                                default_options=options) as service:
            service.register("chaos", pcset, observed=relation)
            started = time.monotonic()
            with pytest.raises(QueryDeadlineError):
                service.analyze("chaos", ContingencyQuery.sum("v"))
            assert time.monotonic() - started < 1.0
            statistics = service.statistics()
            assert statistics.deadline_exceeded == 1
            assert statistics.as_dict()["deadline_exceeded"] == 1
            assert "1 deadline(s) exceeded" in statistics.summary()

    def test_service_degraded_report_counted(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "kill:shard=0,count=2")
        relation, pcset = self.make_scenario()
        options = BoundOptions(check_closure=False, solve_workers=WORKERS,
                               degrade="worst-case")
        with ContingencyService(max_workers=WORKERS, pool_mode="process",
                                default_options=options) as service:
            service.register("chaos", pcset, observed=relation)
            report = service.analyze("chaos", ContingencyQuery.sum("v"))
            assert report.degraded_shards == (0,)
            assert "degraded shards" in report.summary()
            # Exact twin for comparison (no pool, no faults): sound
            # containment holds through the full analyzer stack.
            exact = PCAnalyzer(pcset, observed=relation).analyze(
                ContingencyQuery.sum("v"))
            assert report.lower <= exact.lower + 1e-9
            assert report.upper >= exact.upper - 1e-9
            statistics = service.statistics()
            assert statistics.degraded == 1
            assert "1 degraded answer(s)" in statistics.summary()

    def test_pool_fault_counters_reach_service_summary(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "kill:task=1")
        relation, pcset = self.make_scenario()
        options = BoundOptions(check_closure=False, solve_workers=WORKERS)
        with ContingencyService(max_workers=WORKERS, pool_mode="process",
                                default_options=options) as service:
            service.register("chaos", pcset, observed=relation)
            report = service.analyze("chaos", ContingencyQuery.sum("v"))
            exact = PCAnalyzer(pcset, observed=relation).analyze(
                ContingencyQuery.sum("v"))
            assert report.lower == pytest.approx(exact.lower, rel=1e-9)
            assert report.upper == pytest.approx(exact.upper, rel=1e-9)
            statistics = service.statistics()
            assert statistics.worker_pool["tasks_retried"] >= 1
            assert statistics.worker_pool["worker_restarts"] >= 1
            summary = statistics.summary()
            assert "task(s) retried" in summary
            assert "breaker trip(s)" in summary

    def test_fingerprints_separate_degraded_sessions(self):
        relation, pcset = self.make_scenario()
        with ContingencyService() as service:
            plain = service.register("plain", pcset, observed=relation,
                                     options=BoundOptions(
                                         check_closure=False))
            degraded = service.register("degraded", pcset, observed=relation,
                                        options=BoundOptions(
                                            check_closure=False,
                                            degrade="worst-case"))
            # A degraded session must never share report-cache entries
            # with an exact one; a deadline changes failure behaviour
            # only, so it keeps the fingerprint.
            assert plain.fingerprint != degraded.fingerprint
            deadline = service.register("deadline", pcset, observed=relation,
                                        options=BoundOptions(
                                            check_closure=False,
                                            deadline_seconds=30.0))
            assert deadline.fingerprint == plain.fingerprint
            described = deadline.describe()
            assert described["deadline_seconds"] == 30.0
            assert described["degrade"] is None
