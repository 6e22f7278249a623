"""Unit coverage for the batched-solve machinery around the kernel.

The equality of batched *results* with independent references lives in
``test_property_soundness.py``; this module pins the plumbing: adaptive
batch sizing (:mod:`repro.solvers.batching`), the pool's batched task kinds
and traffic counters, the admission price inversion, and the profile's
batch-aware shard accounting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.solvers.batching import MAX_BATCH_SIZE, adaptive_batch_size, chunked


class TestKnobs:
    def test_adaptive_targets_one_batch_per_worker(self):
        assert adaptive_batch_size(12, 4) == 3
        assert adaptive_batch_size(13, 4) == 4
        assert adaptive_batch_size(1, 4) == 1
        assert adaptive_batch_size(0, 4) == 1

    def test_adaptive_clamps_and_density_shrink(self):
        # Clamp: one worker and 1000 tasks still caps at MAX_BATCH_SIZE.
        assert adaptive_batch_size(1000, 1) == MAX_BATCH_SIZE
        # Heavy estimated enumeration shrinks the batch so one task never
        # concentrates the whole round's predicted work.
        light = adaptive_batch_size(64, 1, estimated_cells=64)
        heavy = adaptive_batch_size(64, 1, estimated_cells=64 * 1024)
        assert heavy < light
        assert heavy >= 1

    def test_chunked(self):
        assert chunked([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]
        assert chunked([], 3) == []
        with pytest.raises(ValueError):
            chunked([1], 0)


class TestPoolBatchTraffic:
    def test_statistics_record_tasks_vs_cells(self):
        from repro.parallel.pool import WorkerPool

        pool = WorkerPool(max_workers=1, mode="serial", name="traffic-test")
        pool._record_batch_traffic(2, 10)
        assert pool.statistics.tasks_shipped == 2
        assert pool.statistics.cells_solved == 10
        assert pool.statistics.cells_per_task == 5.0
        snapshot = pool.statistics.snapshot()
        assert snapshot.as_dict()["cells_per_task"] == 5.0

    def test_avg_probes_batched_one_task_per_shard(self):
        """A 3-probe round over 2 shards ships 2 tasks carrying 6 cells."""
        from repro.core.bounds import BoundOptions, PCBoundSolver
        from repro.parallel.pool import WorkerPool

        from test_property_soundness import scenario

        _, _, _, pcset, _ = scenario(717, "disjoint")
        solver = PCBoundSolver(pcset, BoundOptions(solve_workers=2))
        sharded = solver.sharded_plan(None, "v", max_shards=2)
        keyed = [(solver.shard_program_key(shard, None, "v"),
                  solver.shard_program(shard, None, "v"))
                 for shard in sharded]
        assert len(keyed) >= 2
        keyed = keyed[:2]
        probes = [(1.0, True, True), (2.0, False, True), (3.0, True, False)]
        with WorkerPool(max_workers=2, mode="process",
                        name="probe-test") as pool:
            outcomes = pool.avg_probes(keyed, probes)
        assert len(outcomes) == len(probes)
        assert all(len(per_shard) == len(keyed) for per_shard in outcomes)
        assert pool.statistics.tasks_shipped == len(keyed)
        assert pool.statistics.cells_solved == len(keyed) * len(probes)
        # Same results as each probe solved alone as a width-1 batch.
        assert outcomes == [[program.avg_probe_optima_batch([probe])[0]
                             for _, program in keyed]
                            for probe in probes]


class TestAdmissionInversion:
    def _cost(self, units, cells, constraints=10, shards=1, warm=False,
              hit_rate=0.0):
        from repro.service.admission import QueryCost

        return QueryCost(units=units, aggregate="count",
                         constraint_count=constraints, estimated_cells=cells,
                         shard_count=shards, strategy="serial",
                         program_warm=warm, pool_warm_hit_rate=hit_rate)

    def test_inversion_recovers_the_fitting_cell_count(self):
        """price(cell_budget) <= budget < price(cell_budget + 1)."""
        from repro.service.admission import admissible_cell_budget

        # Serial cold COUNT: units = (cells + constraints) + cells.
        cells, constraints = 500, 20
        cost = self._cost(units=float(2 * cells + constraints), cells=cells,
                          constraints=constraints)
        budget = 300.0
        fitting = admissible_cell_budget(cost, budget)
        assert fitting == 140  # 2 * 140 + 20 == 280 <= 300 < 2 * 141 + 20

    def test_inversion_warm_query_prices_solve_only(self):
        from repro.service.admission import admissible_cell_budget

        cost = self._cost(units=500.0, cells=500, warm=True)
        assert admissible_cell_budget(cost, 123.0) == 123

    def test_inversion_zero_when_nothing_fits(self):
        from repro.service.admission import admissible_cell_budget

        cost = self._cost(units=1020.0, cells=500, constraints=20)
        assert admissible_cell_budget(cost, 10.0) == 0

    def test_rejection_carries_cell_budget_and_message(self):
        from repro.exceptions import QueryRejectedError
        from repro.service.admission import AdmissionController

        controller = AdmissionController(max_query_cost=50.0)
        cost = self._cost(units=220.0, cells=100, constraints=10)
        with pytest.raises(QueryRejectedError) as caught:
            controller.admit(cost)
        error = caught.value
        assert error.reason == "over-budget"
        assert error.cell_budget is not None and error.cell_budget > 0
        assert f"~{error.cell_budget} estimated cell(s)" in str(error)

    def test_batch_rejection_carries_cell_budget(self):
        from repro.exceptions import QueryRejectedError
        from repro.service.admission import AdmissionController

        controller = AdmissionController(max_query_cost=50.0)
        costs = [self._cost(units=10.0, cells=5),
                 self._cost(units=220.0, cells=100)]
        with pytest.raises(QueryRejectedError) as caught:
            controller.admit_many(costs)
        assert caught.value.cell_budget is not None


class TestProfileBatchAccounting:
    def _node(self, name, duration, attributes=None, children=None):
        from repro.obs.profile import ProfileNode

        return ProfileNode(name=name, span_id=name, start=0.0,
                           duration=duration,
                           attributes=dict(attributes or {}),
                           children=list(children or []))

    def test_shard_times_aggregate_per_shard_id(self):
        """Ten one-cell task spans == one ten-cell batch span, per shard."""
        from repro.obs.profile import QueryProfile

        tasked = QueryProfile(trace_id="t1", root=self._node(
            "bound", 1.0, children=[
                self._node(f"pool.solve-{shard}-{i}", 0.1, {"shard": shard})
                for shard in (0, 1) for i in range(10)]))
        batched = QueryProfile(trace_id="t2", root=self._node(
            "bound", 1.0, children=[
                self._node("pool.probe_batch",
                           1.0, {"shard": 0, "cells": 10}),
                self._node("pool.probe_batch",
                           1.0, {"shard": 1, "cells": 10})]))
        assert len(tasked.shard_times()) == 2
        assert len(batched.shard_times()) == 2
        assert tasked.shard_cells() == [10, 10]
        assert batched.shard_cells() == [10, 10]
        assert tasked.shard_skew() == pytest.approx(1.0)
        assert batched.shard_skew() == pytest.approx(1.0)

    def test_cell_skew_sees_hot_shard_through_batching(self):
        """Task counts mask the hot shard; the cell counters must not."""
        from repro.obs.profile import QueryProfile

        profile = QueryProfile(trace_id="t3", root=self._node(
            "bound", 1.0, children=[
                self._node("pool.solve_batch", 0.5, {"shard": 0, "cells": 30}),
                self._node("pool.solve_batch", 0.5, {"shard": 1, "cells": 10}),
            ]))
        assert profile.shard_cell_skew() == pytest.approx(30 / 20)

    def test_batch_counts_and_render(self):
        from repro.obs.profile import QueryProfile

        profile = QueryProfile(trace_id="t4", root=self._node(
            "bound", 1.0, children=[
                self._node("pool.solve_batch", 0.2, {"cells": 4}),
                self._node("pool.probe_batch", 0.2, {"cells": 6}),
                self._node("pool.solve", 0.2, {}),
            ]))
        counts = profile.batch_counts()
        assert counts == {"batched_tasks": 2.0, "batched_cells": 10.0}
        rendered = profile.render()
        assert "batched 10 cell(s) in 2 task(s)" in rendered
        payload = profile.to_dict()
        assert payload["batched_tasks"] == 2.0
        assert payload["batched_cells"] == 10.0

    def test_solver_batch_size_histogram_observes(self):
        """The kernel layer records batch widths into solver.batch_size."""
        from repro.core.bounds import BoundOptions, PCBoundSolver
        from repro.obs.metrics import get_registry
        from repro.relational.aggregates import AggregateFunction

        from test_property_soundness import scenario

        _, _, _, pcset, _ = scenario(818, "disjoint")
        program = PCBoundSolver(pcset, BoundOptions()).program(None, "v")
        before = get_registry().histogram("solver.batch_size").count
        program.bound_batch([(AggregateFunction.COUNT, 0.0, 0),
                             (AggregateFunction.SUM, 0.0, 0)])
        after = get_registry().histogram("solver.batch_size").count
        assert after > before
