"""Lifecycle, affinity and warm-cache behaviour of the persistent pool.

The pool's contract has three legs the soundness harness cannot see:

* **lifecycle** — idempotent shutdown, context management, lazy restart,
  and transparent recovery when a worker process is killed mid-service;
* **affinity** — a program key is pinned to one worker, so its warm cache
  is actually reused (observable as warm hits without program re-ships);
* **equivalence** — both modes (serial / process) return the endpoints and
  reports the direct in-process calls produce.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.builders import build_partition_pcs
from repro.core.engine import ContingencyQuery, PCAnalyzer
from repro.core.predicates import Predicate
from repro.exceptions import SolverError
from repro.parallel.pool import WorkerPool, shared_pool, shutdown_shared_pools
from repro.relational.aggregates import AggregateFunction
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema
from repro.service import ContingencyService

# Width-1 pools degrade to serial by design (pinned in TestModesAndFallbacks),
# so the lifecycle/affinity tests need at least two real workers even on the
# REPRO_TEST_WORKERS=1 CI leg.
WORKERS = max(2, int(os.environ.get("REPRO_TEST_WORKERS", "3")))


def make_relation(rows: int = 240, seed: int = 5) -> Relation:
    rng = np.random.default_rng(seed)
    schema = Schema.from_pairs([("t", ColumnType.FLOAT),
                                ("v", ColumnType.FLOAT)])
    data = np.column_stack([rng.uniform(0.0, 40.0, rows),
                            rng.uniform(1.0, 60.0, rows)])
    return Relation.from_rows(schema, [tuple(row) for row in data],
                              name="pool-test")


def keyed_shard_programs(solver: PCBoundSolver,
                         shards: int = 3) -> list[tuple]:
    sharded = solver.sharded_plan(None, max_shards=shards)
    assert sharded.is_sharded
    return [(solver.shard_program_key(shard, None),
             solver.shard_program(shard, None))
            for shard in sharded]


@pytest.fixture
def solver() -> PCBoundSolver:
    pcset = build_partition_pcs(make_relation(), ["t"], 6)
    return PCBoundSolver(pcset, BoundOptions(check_closure=False))


def direct_endpoints(keyed, aggregate, attribute="v"):
    return [(r.lower, r.upper, r.closed)
            for r in (program.bound(aggregate, attribute)
                      for _, program in keyed)]


class TestLifecycle:
    def test_shutdown_is_idempotent_and_context_managed(self, solver):
        keyed = keyed_shard_programs(solver)
        with WorkerPool(max_workers=WORKERS, mode="process") as pool:
            endpoints = pool.solve_programs(keyed, AggregateFunction.SUM, "v")
            assert endpoints == direct_endpoints(keyed, AggregateFunction.SUM)
            assert pool.alive_workers() == WORKERS
        assert pool.alive_workers() == 0
        pool.shutdown()  # second shutdown: no-op, no error
        pool.shutdown()

    def test_pool_restarts_lazily_after_shutdown(self, solver):
        keyed = keyed_shard_programs(solver)
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        first = pool.solve_programs(keyed, AggregateFunction.COUNT)
        pool.shutdown()
        assert pool.alive_workers() == 0
        second = pool.solve_programs(keyed, AggregateFunction.COUNT)
        assert first == second
        pool.shutdown()

    def test_restart_bounces_workers(self, solver):
        keyed = keyed_shard_programs(solver)
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        pool.solve_programs(keyed, AggregateFunction.SUM, "v")
        pids = set(pool.worker_pids())
        pool.restart()
        assert pool.alive_workers() == WORKERS
        assert set(pool.worker_pids()).isdisjoint(pids)
        pool.shutdown()

    def test_killed_worker_is_respawned_and_round_completes(self, solver):
        keyed = keyed_shard_programs(solver)
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            baseline = pool.solve_programs(keyed, AggregateFunction.SUM, "v")
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.1)
            recovered = pool.solve_programs(keyed, AggregateFunction.SUM, "v")
            assert recovered == baseline
            assert pool.statistics.worker_restarts >= 1
            assert pool.alive_workers() == WORKERS
        finally:
            pool.shutdown()

    def test_worker_failure_propagates_as_exception(self, solver):
        pool = WorkerPool(max_workers=2, mode="process")
        try:
            with pytest.raises(SolverError, match="cache miss"):
                # A bare key with no program: the worker cannot resolve it.
                request = (AggregateFunction.COUNT, 0.0, 0.0)
                pool._locked_round([
                    ("solve_batch", "no-such-key",
                     ("no-such-key", None, (request,)), 0),
                    ("solve_batch", "no-such-key-2",
                     ("no-such-key-2", None, (request,)), 1)])
        finally:
            pool.shutdown()

    def test_large_rounds_do_not_deadlock(self, solver):
        """Rounds far larger than a pipe buffer complete: the in-flight cap
        keeps dispatch and collection interleaved, so a worker can never
        block sending results while the parent blocks sending tasks."""
        keyed = keyed_shard_programs(solver)
        big = [keyed[index % len(keyed)] for index in range(4000)]
        with WorkerPool(max_workers=2, mode="process") as pool:
            endpoints = pool.solve_programs(big, AggregateFunction.MIN, "v")
        expected = direct_endpoints(keyed, AggregateFunction.MIN)
        assert endpoints == [expected[index % len(expected)]
                             for index in range(4000)]

    def test_round_deeper_than_in_flight_cap_completes(self):
        """40 tasks on one affinity key queue far past the in-flight cap on
        one worker; the round drains that queue with one dispatch per task
        and returns the serial enumeration for every entry."""
        from repro.core.cells import CellDecomposer

        pcset = build_partition_pcs(make_relation(), ["t"], 4)
        tasks = [("hot-key", pcset, None)] * 40
        expected = {cell.covering
                    for cell in CellDecomposer(pcset).decompose().cells}
        with WorkerPool(max_workers=WORKERS, mode="process") as pool:
            results = pool.decompose_shards(tasks, batch_size=1)
            statistics = pool.statistics
        assert statistics.tasks_dispatched == len(tasks)
        assert len(results) == len(tasks)
        assert all({cell.covering for cell in result.cells} == expected
                   for result in results)

    def test_shared_pools_are_reused_and_reaped(self):
        first = shared_pool(max_workers=WORKERS)
        second = shared_pool(max_workers=WORKERS)
        assert first is second
        other = shared_pool(max_workers=WORKERS + 1)
        assert other is not first
        shutdown_shared_pools()
        third = shared_pool(max_workers=WORKERS)
        assert third is not first


class TestModesAndFallbacks:
    def test_mode_validation(self):
        rejected = r"unknown pool mode .* \('serial', 'process'\)"
        for mode in ("quantum", "thread", "auto"):
            with pytest.raises(SolverError, match=rejected):
                WorkerPool(mode=mode)
            with pytest.raises(SolverError, match=rejected):
                ContingencyService(pool_mode=mode)
        with pytest.raises(SolverError, match="must be positive"):
            WorkerPool(max_workers=0)

    def test_width_one_degrades_to_serial(self):
        assert WorkerPool(max_workers=1, mode="process").mode == "serial"

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_solve_programs_matches_direct_bounds(self, solver, mode):
        keyed = keyed_shard_programs(solver)
        workers = 1 if mode == "serial" else WORKERS
        with WorkerPool(max_workers=workers, mode=mode) as pool:
            for aggregate in (AggregateFunction.COUNT, AggregateFunction.SUM,
                              AggregateFunction.MIN, AggregateFunction.MAX):
                assert pool.solve_programs(keyed, aggregate, "v") == \
                    direct_endpoints(keyed, aggregate)

    @pytest.mark.parametrize("mode", ["process"])
    def test_avg_probes_match_direct_calls(self, solver, mode):
        keyed = keyed_shard_programs(solver)
        probes = [(10.0, True, True), (30.0, False, True), (50.0, True, False)]
        with WorkerPool(max_workers=WORKERS, mode=mode) as pool:
            pooled = pool.avg_probes(keyed, "v", probes)
        # Reference: each probe solved alone, a width-1 batch per shard.
        direct = [[program.avg_probe_optima_batch("v", [probe])[0]
                   for _, program in keyed]
                  for probe in probes]
        assert pooled == direct


class TestBatchedTaskVocabulary:
    """Every pool entry point ships batches; a one-item job is width 1."""

    BATCHED_KINDS = {"warm", "register", "solve_batch", "probe_batch",
                     "decompose_batch", "analyze_batch"}

    def test_handler_table_holds_only_the_batched_kinds(self):
        from repro.parallel.pool import _HANDLERS

        assert set(_HANDLERS) == self.BATCHED_KINDS

    def test_fanout_shape_dispatches_only_batched_kinds(self, monkeypatch):
        """Two process workers serve a 2-shard region session (one
        width-1 ``decompose_batch`` per shard) and a component-sharded
        session asked all five aggregates: serial-identical ranges, and
        nothing but the batched kinds on the wire."""
        from test_region_sharding import chain_pcset, disjoint_pcset

        aggregates = [(AggregateFunction.COUNT, None),
                      (AggregateFunction.SUM, "v"),
                      (AggregateFunction.MIN, "v"),
                      (AggregateFunction.MAX, "v"),
                      (AggregateFunction.AVG, "v")]
        dispatched = []
        with WorkerPool(max_workers=2, mode="process",
                        name="fanout-shape") as pool:
            dispatch = pool._dispatch

            def recording(kind, args, *rest, **kwargs):
                dispatched.append((kind, args))
                return dispatch(kind, args, *rest, **kwargs)

            monkeypatch.setattr(pool, "_dispatch", recording)
            for pcset, strategy in ((chain_pcset(6), "region"),
                                    (disjoint_pcset(6), "component")):
                serial = PCBoundSolver(pcset,
                                       BoundOptions(check_closure=False))
                sharded = PCBoundSolver(pcset, BoundOptions(
                    check_closure=False, solve_workers=2), worker_pool=pool)
                plan = sharded.sharded_plan(None)
                assert plan.strategy == strategy and len(plan) == 2
                for aggregate, attribute in aggregates:
                    # An observed partition keeps AVG off its fast path,
                    # so the component session runs the probe search.
                    want = serial.bound(aggregate, attribute,
                                        known_sum=60.0, known_count=12.0)
                    got = sharded.bound(aggregate, attribute,
                                        known_sum=60.0, known_count=12.0)
                    assert (got.lower, got.upper, got.closed) == \
                        (want.lower, want.upper, want.closed), \
                        (strategy, aggregate)
        kinds = {kind for kind, _ in dispatched}
        assert kinds <= self.BATCHED_KINDS
        assert {"decompose_batch", "solve_batch", "probe_batch"} <= kinds
        decompositions = [args for kind, args in dispatched
                          if kind == "decompose_batch"]
        assert len(decompositions) == 2
        assert all(len(entries) == 1 for _key, entries in decompositions)


class TestAffinityAndWarmCaches:
    def test_affinity_is_sticky_and_balanced(self):
        pool = WorkerPool(max_workers=3, mode="process")
        keys = [f"key-{index}" for index in range(9)]
        first = [pool.worker_for(key) for key in keys]
        # Sticky: the same key always routes to the same worker.
        assert [pool.worker_for(key) for key in keys] == first
        # Balanced: 9 fresh keys over 3 workers land 3 per worker.
        assert sorted(first.count(index) for index in range(3)) == [3, 3, 3]
        pool.shutdown()

    def test_warm_cache_hits_skip_program_shipping(self, solver):
        keyed = keyed_shard_programs(solver)
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            pool.warm(dict(keyed))
            shipped_after_warm = pool.statistics.programs_shipped
            assert shipped_after_warm == len(keyed)
            # Warming again is a no-op.
            pool.warm(dict(keyed))
            assert pool.statistics.programs_shipped == shipped_after_warm
            # Solves for warmed keys ship no programs: warm hits only.
            for _ in range(3):
                pool.solve_programs(keyed, AggregateFunction.SUM, "v")
            assert pool.statistics.programs_shipped == shipped_after_warm
            assert pool.statistics.warm_hits >= 3 * len(keyed)
            assert pool.statistics.warm_hit_rate > 0.5
            # Every key is warm on exactly its affinity worker.
            for key, _ in keyed:
                assert key in pool.warm_keys_on(pool.worker_for(key))
        finally:
            pool.shutdown()

    def test_warm_round_leaves_every_program_on_its_affinity_worker(
            self, solver):
        """A warm round far deeper than the in-flight cap still lands every
        program on the worker its key routes to, so the solves that follow
        ship nothing."""
        programs = keyed_shard_programs(solver)
        keyed = [(f"key-{index}", programs[index % len(programs)][1])
                 for index in range(300)]
        with WorkerPool(max_workers=2, mode="process") as pool:
            pool.warm(dict(keyed))
            for key, _ in keyed:
                assert key in pool.warm_keys_on(pool.worker_for(key))
            endpoints = pool.solve_programs(keyed, AggregateFunction.SUM, "v")
            statistics = pool.statistics
        assert statistics.programs_shipped == len(keyed)
        assert statistics.warm_hits == len(keyed)
        expected = direct_endpoints(programs, AggregateFunction.SUM)
        assert endpoints == [expected[index % len(expected)]
                             for index in range(len(keyed))]

    def test_restart_resets_load_counters_but_keeps_sticky_map(self):
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            indexes = {key: pool.worker_for(key)
                       for key in ("k0", "k1", "k2", "k3")}
            assert sum(pool._assigned) == 4
            pool.restart()
            # The dead incarnation's load history is gone...
            assert pool._assigned == [0] * WORKERS
            # ...but sticky placement survives the bounce.
            for key, index in indexes.items():
                assert pool.worker_for(key) == index
        finally:
            pool.shutdown()

    def test_worker_lru_eviction_recovers_by_reshipping(self, solver,
                                                        monkeypatch):
        """Warm-key bookkeeping is advisory: a worker that evicted a
        program under memory pressure gets it re-shipped, not an error."""
        import repro.parallel.pool as pool_module

        monkeypatch.setattr(pool_module, "_WORKER_CACHE_ENTRIES", 1)
        keyed = keyed_shard_programs(solver)
        # Width 2: each worker holds several keys but caches only one, so
        # round-robin traffic forces evictions on every round.
        pool = WorkerPool(max_workers=2, mode="process")
        try:
            baseline = direct_endpoints(keyed, AggregateFunction.SUM)
            first = pool.solve_programs(keyed, AggregateFunction.SUM, "v")
            shipped = pool.statistics.programs_shipped
            second = pool.solve_programs(keyed, AggregateFunction.SUM, "v")
            assert first == baseline and second == baseline
            # The second round hit evicted entries: programs were
            # re-shipped instead of raising WorkerCacheMiss at the caller.
            assert pool.statistics.programs_shipped > shipped
        finally:
            pool.shutdown()

    def test_respawned_worker_is_rewarmed_transparently(self, solver):
        keyed = keyed_shard_programs(solver)
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            pool.warm(dict(keyed))
            baseline = pool.solve_programs(keyed, AggregateFunction.SUM, "v")
            for pid in pool.worker_pids():
                os.kill(pid, signal.SIGKILL)
            time.sleep(0.1)
            shipped_before = pool.statistics.programs_shipped
            recovered = pool.solve_programs(keyed, AggregateFunction.SUM, "v")
            assert recovered == baseline
            # Cold respawned workers were re-shipped their programs.  Only
            # workers with affinity keys had tasks to recover, so only they
            # are guaranteed a respawn.
            involved = {pool.worker_for(key) for key, _ in keyed}
            assert pool.statistics.programs_shipped > shipped_before
            assert pool.statistics.worker_restarts >= len(involved)
        finally:
            pool.shutdown()


class TestServiceIntegration:
    def make_service_scenario(self):
        relation = make_relation(seed=11)
        pcset = build_partition_pcs(relation, ["t"], 6)
        queries = [ContingencyQuery.sum("v", Predicate.range("t", 5.0 * i,
                                                             5.0 * i + 10.0))
                   for i in range(4)]
        queries += [ContingencyQuery.avg("v", Predicate.range("t", 5.0 * i,
                                                              5.0 * i + 10.0))
                    for i in range(4)]
        return relation, pcset, queries

    def test_process_pool_batches_reuse_warm_workers(self, monkeypatch):
        # This pins the warm-*worker* path: clearing the report cache must
        # re-dispatch to the pool.  A persistent tier (the REPRO_CACHE_DIR
        # CI leg) would answer the second batch from the store instead.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        relation, pcset, queries = self.make_service_scenario()
        with ContingencyService(max_workers=WORKERS,
                                pool_mode="process") as service:
            service.register("pool", pcset, observed=relation)
            first = service.execute_batch("pool", queries)
            service.report_cache.clear()
            second = service.execute_batch("pool", queries)
            assert [(r.lower, r.upper) for r in first.reports] == \
                [(r.lower, r.upper) for r in second.reports]
            # The second batch found every program warm on its affinity
            # worker: keys only, no skeleton pickling, no re-registration.
            assert second.statistics.pool_statistics["programs_shipped"] == 0
            assert second.statistics.pool_statistics["sessions_shipped"] == 0
            assert second.statistics.pool_statistics["warm_hits"] > 0
            # And the reports match a plain serial analyzer.
            analyzer = PCAnalyzer(pcset, observed=relation)
            for query, report in zip(queries, first.reports):
                serial = analyzer.analyze(query)
                assert report.lower == pytest.approx(serial.lower, rel=1e-9)
                assert report.upper == pytest.approx(serial.upper, rel=1e-9)
        assert service.worker_pool.alive_workers() == 0

    def test_service_batches_survive_worker_kill(self, monkeypatch):
        # Same pin as above: the recovery batch must reach the (restarted)
        # pool rather than be served from a persistent store.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        relation, pcset, queries = self.make_service_scenario()
        with ContingencyService(max_workers=WORKERS,
                                pool_mode="process") as service:
            service.register("pool", pcset, observed=relation)
            first = service.execute_batch("pool", queries)
            victim = service.worker_pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.1)
            service.report_cache.clear()
            recovered = service.execute_batch("pool", queries)
            assert [(r.lower, r.upper) for r in first.reports] == \
                [(r.lower, r.upper) for r in recovered.reports]
            assert service.worker_pool.statistics.worker_restarts >= 1

    def test_sharded_solver_borrows_injected_pool(self):
        relation, pcset, _ = self.make_service_scenario()
        pool = WorkerPool(max_workers=WORKERS, mode="process", name="injected")
        try:
            solver = PCBoundSolver(
                pcset, BoundOptions(check_closure=False, solve_workers=3),
                worker_pool=pool)
            serial = PCBoundSolver(pcset, BoundOptions(check_closure=False))
            for aggregate, attribute in [(AggregateFunction.COUNT, None),
                                         (AggregateFunction.SUM, "v"),
                                         (AggregateFunction.AVG, "v")]:
                pooled_range = solver.bound(aggregate, attribute)
                serial_range = serial.bound(aggregate, attribute)
                assert pooled_range.lower == pytest.approx(serial_range.lower,
                                                           rel=1e-9)
                assert pooled_range.upper == pytest.approx(serial_range.upper,
                                                           rel=1e-9)
            assert pool.statistics.tasks_dispatched > 0
        finally:
            pool.shutdown()
