"""Unit tests for the plan-pipeline sharding pass, region splitting above all.

The randomized harness (test_property_soundness) pins the end-to-end range
equalities; these tests pin the pass itself — layout selection and its
cell-count gate, the region splitter's partition-attribute and
cut-point choices, sub-region coverage, the cell-union merge equalling the
serial enumeration under every knob, cache-token separation, the worker
pool's decompose fan-out, and the cross-shard AVG search.
"""

from __future__ import annotations

import pytest

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.cells import (
    CellDecomposer,
    DecompositionStrategy,
    estimate_cell_count,
)
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.exceptions import SolverError
from repro.plan.ir import BoundQuery, build_plan
from repro.plan.sharding import (
    ConstraintComponentSharding,
    RegionSharding,
    merge_shard_decompositions,
    select_sharding,
)
from repro.relational.aggregates import AggregateFunction


def pc(lo, hi, name, klo=0, khi=10, value_range=(0.0, 10.0)):
    return PredicateConstraint(Predicate.range("t", lo, hi),
                               ValueConstraint({"v": value_range}),
                               FrequencyConstraint(klo, khi), name=name)


def chain_pcset(count: int = 6, mandatory: bool = False
                ) -> PredicateConstraintSet:
    """``count`` overlapping windows chained along ``t`` — one component."""
    return PredicateConstraintSet([
        pc(float(i), i + 1.5, f"c{i}", klo=(1 if mandatory and i % 2 else 0),
           khi=10 + i, value_range=(float(i), float(i + 5)))
        for i in range(count)])


def disjoint_pcset(count: int = 6) -> PredicateConstraintSet:
    pcset = PredicateConstraintSet([
        pc(float(2 * i), 2 * i + 0.9, f"w{i}") for i in range(count)])
    pcset.mark_disjoint(True)
    return pcset


def plan_for(pcset, region=None, attribute="v"):
    aggregate = (AggregateFunction.COUNT if attribute is None
                 else AggregateFunction.SUM)
    return build_plan(BoundQuery(aggregate, attribute, region), pcset)


# --------------------------------------------------------------------- #
# Layout selection
# --------------------------------------------------------------------- #
class TestSelectSharding:
    def test_component_wins_when_graph_shards(self):
        sharded = select_sharding(plan_for(disjoint_pcset()), max_shards=3)
        assert sharded.strategy == "component"
        assert sharded.is_sharded and len(sharded) == 3

    def test_one_component_under_region_preference_region_shards(self):
        # A one-component plan above the gate region-shards by itself.
        sharded = select_sharding(plan_for(chain_pcset()), max_shards=3)
        assert sharded.strategy == "region"
        assert sharded.is_sharded and len(sharded) == 3

    def test_auto_gates_region_on_estimated_cells(self):
        # (chained constraints, worst-case cells, region-shards?): 4 is the
        # longest chain under REGION_SHARDING_MIN_CELLS, 5 the shortest
        # that clears it.
        for count, cells, shards in ((2, 3, False), (4, 15, False),
                                     (5, 31, True), (6, 63, True)):
            plan = plan_for(chain_pcset(count))
            assert estimate_cell_count(plan.pcset) == cells
            sharded = select_sharding(plan, max_shards=2)
            assert sharded.is_sharded is shards, count
            assert sharded.strategy == ("region" if shards
                                        else "component"), count


# --------------------------------------------------------------------- #
# The region splitter's geometry
# --------------------------------------------------------------------- #
class TestRegionSplitter:
    def test_partition_attribute_prefers_most_constrained(self):
        mixed = PredicateConstraintSet([
            PredicateConstraint(
                Predicate.range("t", float(i), i + 1.5).with_range("u", 0, 1),
                ValueConstraint({"v": (0.0, 10.0)}),
                FrequencyConstraint(0, 10), name=f"m{i}")
            for i in range(4)])
        # Every constraint bounds both t and u, but u's midpoints collapse
        # to one value — only t qualifies.
        assert RegionSharding.partition_attribute(plan_for(mixed)) == "t"

    def test_no_partition_attribute_means_single_shard(self):
        categorical = PredicateConstraintSet([
            PredicateConstraint(Predicate.equals("city", name),
                                ValueConstraint({"v": (0.0, 1.0)}),
                                FrequencyConstraint(0, 5), name=name)
            for name in ("a", "b")])
        sharded = RegionSharding().split(plan_for(categorical),
                                         max_shards=2)
        assert not sharded.is_sharded

    def test_slices_cover_the_attribute_line(self):
        sharded = RegionSharding().split(plan_for(chain_pcset()),
                                         max_shards=3)
        bounds = [shard.bounds for shard in sharded]
        assert bounds[0][0] == float("-inf")
        assert bounds[-1][1] == float("inf")
        for left, right in zip(bounds, bounds[1:]):
            assert left[1] == right[0]  # closed slices share the cut point

    def test_sub_regions_conjoin_the_query_region(self):
        region = Predicate.range("t", 1.0, 5.0)
        sharded = RegionSharding().split(
            plan_for(chain_pcset(), region=region), max_shards=2)
        assert sharded.is_sharded
        for shard in sharded:
            sub = shard.plan.query.region
            interval = sub.range_for("t")
            assert interval.low >= 1.0 and interval.high <= 5.0
            # The full constraint set rides along (cells index the parent).
            assert len(shard.pcset) == len(chain_pcset())

    def test_region_disjoint_from_slice_drops_it(self):
        # The query region sits entirely left of the upper constraints, so
        # the right slices conjoin empty and the split degrades gracefully.
        region = Predicate.range("t", 0.0, 0.5)
        sharded = RegionSharding().split(
            plan_for(chain_pcset(), region=region), max_shards=3)
        assert len(sharded) <= 3

    def test_cache_tokens_distinguish_region_from_component(self):
        plan = plan_for(chain_pcset())
        region_sharded = RegionSharding().split(plan, max_shards=2)
        component_sharded = ConstraintComponentSharding().split(
            plan_for(disjoint_pcset(2)), max_shards=2)
        tokens = {shard.cache_token() for shard in region_sharded}
        tokens |= {shard.cache_token() for shard in component_sharded}
        assert len(tokens) == len(region_sharded) + len(component_sharded)

    def test_invalid_max_shards_rejected(self):
        with pytest.raises(SolverError):
            RegionSharding().split(plan_for(chain_pcset()),
                                   max_shards=0)

    def test_describe_names_strategy_and_slices(self):
        sharded = RegionSharding().split(plan_for(chain_pcset()),
                                         max_shards=2)
        text = sharded.describe()
        assert "region strategy" in text and "t in [" in text


# --------------------------------------------------------------------- #
# The cell-union merge equals the serial enumeration
# --------------------------------------------------------------------- #
class TestMergeShardDecompositions:
    @pytest.mark.parametrize("strategy", [DecompositionStrategy.DFS_REWRITE,
                                          DecompositionStrategy.DFS,
                                          DecompositionStrategy.NAIVE])
    @pytest.mark.parametrize("depth", [None, 2])
    def test_union_equals_serial_cells(self, strategy, depth):
        """The union equality holds for every enumeration
        :class:`CellDecomposer` takes, not only the exact one the solver
        runs."""
        pcset = chain_pcset(5)
        plan = plan_for(pcset)
        sharded = RegionSharding().split(plan, max_shards=3)
        assert sharded.is_sharded
        serial = CellDecomposer(pcset, strategy, depth).decompose(None)
        per_shard = [CellDecomposer(shard.plan.pcset, strategy, depth)
                     .decompose(shard.plan.query.region)
                     for shard in sharded]
        merged = merge_shard_decompositions(plan, per_shard)
        assert ({cell.covering for cell in merged.cells}
                == {cell.covering for cell in serial.cells})
        assert merged.statistics.satisfiable_cells == len(serial.cells)
        assert merged.statistics.num_constraints == len(pcset)

    def test_merged_statistics_sum_the_shards_work(self):
        pcset = chain_pcset(5)
        plan = plan_for(pcset)
        sharded = RegionSharding().split(plan, max_shards=3)
        per_shard = [CellDecomposer(shard.plan.pcset,
                                    DecompositionStrategy.DFS_REWRITE, None)
                     .decompose(shard.plan.query.region)
                     for shard in sharded]
        merged = merge_shard_decompositions(plan, per_shard)
        assert merged.statistics.solver_calls == sum(
            d.statistics.solver_calls for d in per_shard)

    def test_boundary_cells_deduplicate(self):
        # A constraint hugging a cut point is satisfiable on both sides;
        # the union must report it once.
        pcset = chain_pcset(4)
        plan = plan_for(pcset)
        sharded = RegionSharding().split(plan, max_shards=2)
        per_shard = [CellDecomposer(shard.plan.pcset,
                                    DecompositionStrategy.DFS_REWRITE, None)
                     .decompose(shard.plan.query.region)
                     for shard in sharded]
        total = sum(len(d.cells) for d in per_shard)
        merged = merge_shard_decompositions(plan, per_shard)
        assert len(merged.cells) < total  # at least one duplicate existed
        coverings = [cell.covering for cell in merged.cells]
        assert len(coverings) == len(set(coverings))


# --------------------------------------------------------------------- #
# Solver integration: region-sharded execution is serial-identical
# --------------------------------------------------------------------- #
AGGREGATES = [(AggregateFunction.COUNT, None), (AggregateFunction.SUM, "v"),
              (AggregateFunction.MIN, "v"), (AggregateFunction.MAX, "v"),
              (AggregateFunction.AVG, "v")]


def region_options():
    return BoundOptions(check_closure=False, solve_workers=3)


class TestSolverIntegration:
    @pytest.mark.parametrize("mandatory", [False, True])
    def test_all_aggregates_identical_to_serial(self, mandatory):
        pcset = chain_pcset(6, mandatory=mandatory)
        serial = PCBoundSolver(pcset, BoundOptions(check_closure=False))
        region = PCBoundSolver(pcset, region_options())
        sharded = region.sharded_plan(None)
        assert sharded.strategy == "region" and len(sharded) >= 2
        for aggregate, attribute in AGGREGATES:
            expected = serial.bound(aggregate, attribute)
            actual = region.bound(aggregate, attribute)
            assert (actual.lower, actual.upper) == \
                (expected.lower, expected.upper), aggregate

    def test_region_sharded_with_query_region(self):
        pcset = chain_pcset(6)
        serial = PCBoundSolver(pcset, BoundOptions(check_closure=False))
        region = PCBoundSolver(pcset, region_options())
        where = Predicate.range("t", 1.0, 6.0)
        for aggregate, attribute in AGGREGATES:
            expected = serial.bound(aggregate, attribute, where)
            actual = region.bound(aggregate, attribute, where)
            assert (actual.lower, actual.upper) == \
                (expected.lower, expected.upper), aggregate

    def test_decomposition_counted_once_and_memoized(self):
        region = PCBoundSolver(chain_pcset(6), region_options())
        region.bound(AggregateFunction.COUNT)
        assert region.decompositions_computed == 1
        region.bound(AggregateFunction.SUM, "v")
        region.bound(AggregateFunction.COUNT)
        assert region.decompositions_computed == 1  # warm program reused

    def test_process_pool_region_decompose_matches_serial(self):
        from repro.parallel.pool import WorkerPool

        pcset = chain_pcset(6, mandatory=True)
        serial = PCBoundSolver(pcset, BoundOptions(check_closure=False))
        with WorkerPool(max_workers=3, mode="process",
                        name="region-test") as pool:
            solver = PCBoundSolver(pcset, region_options(), worker_pool=pool)
            before = pool.statistics.tasks_dispatched
            for aggregate, attribute in AGGREGATES:
                expected = serial.bound(aggregate, attribute)
                actual = solver.bound(aggregate, attribute)
                assert (actual.lower, actual.upper) == \
                    (expected.lower, expected.upper), aggregate
            assert pool.statistics.tasks_dispatched >= before + 2

    def test_pool_workers_do_not_recurse_into_region_fanout(self):
        """A worker-side analyzer degrades to the serial path (guard check)."""
        from repro.parallel import pool as pool_module

        solver = PCBoundSolver(chain_pcset(5), region_options())
        pool_module._IN_WORKER = True
        try:
            result = solver.bound(AggregateFunction.COUNT)
        finally:
            pool_module._IN_WORKER = False
        serial = PCBoundSolver(chain_pcset(5),
                               BoundOptions(check_closure=False))
        expected = serial.bound(AggregateFunction.COUNT)
        assert (result.lower, result.upper) == (expected.lower, expected.upper)


# --------------------------------------------------------------------- #
# Cross-shard AVG probing
# --------------------------------------------------------------------- #
class TestSpeculativeAvg:
    """The AVG search over shard programs lands on the serial endpoints.

    Each round probes one midpoint per open direction across the shards
    through ``WorkerPool.avg_probes``; the ``known_rows`` case adds an
    observed partition, which drops the cardinality floor from the probes
    and widens the search bracket.
    """

    def _sharded_setup(self, known_sum: float, known_count: float):
        pcset = PredicateConstraintSet([
            pc(float(2 * i), 2 * i + 0.9, f"w{i}", klo=2, khi=8,
               value_range=(float(i), float(i + 7)))
            for i in range(4)])
        pcset.mark_disjoint(True)
        solver = PCBoundSolver(pcset, BoundOptions(check_closure=False))
        sharded = solver.sharded_plan(None, max_shards=2)
        assert sharded.is_sharded and sharded.strategy == "component"
        keyed = [(solver.shard_program_key(shard, None),
                  solver.shard_program(shard, None))
                 for shard in sharded]
        program = solver.program(None)
        serial = program.bound(AggregateFunction.AVG, "v", known_sum,
                               known_count)
        return keyed, serial

    @pytest.mark.parametrize("known_rows", [False, True])
    def test_endpoints_identical_to_serial(self, known_rows):
        from repro.parallel.pool import WorkerPool
        from repro.plan.program import avg_endpoints

        known_sum, known_count = (36.0, 3.0) if known_rows else (0.0, 0.0)
        keyed, serial = self._sharded_setup(known_sum, known_count)
        with WorkerPool(max_workers=3, mode="process",
                        name="cross-shard-avg") as pool:
            lower, upper = avg_endpoints(
                [program for _, program in keyed], "v", known_sum,
                known_count,
                lambda probes: pool.avg_probes(keyed, "v", probes))
            assert pool.statistics.tasks_shipped > 0
        assert lower == serial.lower and upper == serial.upper
