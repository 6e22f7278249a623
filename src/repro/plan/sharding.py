"""Sharding as a plan-pipeline pass: two splitters, one contract.

The sharding pass maps one optimized :class:`~repro.plan.ir.BoundPlan` to a
:class:`ShardedBoundPlan`, and every downstream consumer — the bound
solver, the worker pool, the service layer, the CLI — sees the same
sharded-plan contract regardless of *how* the plan was split.  Splitters
are pure: ``split`` never solves, decomposes or mutates the plan, it only
proposes a layout, which is what lets the service layer price a query from
its sharded plan before any work is dispatched.  Two splitters ship:

**Constraint-component splitting** (:class:`ConstraintComponentSharding`).
The §4.2 MILP couples two cell variables only when some predicate-constraint
covers both, and a constraint covers a cell only when the cell lies inside
its predicate.  Constraints whose predicates never overlap therefore never
share a cell: the *connected components* of the predicate-overlap graph
induce a block-diagonal MILP, and each block can compile and solve as its
own :class:`~repro.plan.BoundProgram` on its own worker.  Per-shard result
ranges recombine exactly through :func:`merge_shard_ranges`
(COUNT/SUM-additive, MIN/MAX-extrema); AVG runs its Dinkelbach iteration
over the shard programs, adding their optimal allocations' parts
(:func:`repro.plan.program.avg_endpoints`).

**Region-level splitting** (:class:`RegionSharding`).  A one-component
overlap graph defeats component splitting — and it is exactly the regime
where the exponential cell enumeration hurts most.  The region splitter
partitions the query region along a *partition attribute* into sub-regions
covering the attribute's whole line, and each shard is the parent plan with
the sub-region pushed down.  Because frequency budgets do **not** decompose
across a region cut (a constraint straddling the cut could spend its whole
``ku`` on either side, so summing per-sub-region optima would double-count
it), region shards deliberately merge one level *below* ranges: each shard
contributes its sub-region's satisfiable **cells**, and
:func:`merge_shard_decompositions` unions them into a decomposition that is
provably identical to the serial one —

* the sub-region boxes cover the attribute line, so a cell satisfiable
  inside the query region is satisfiable inside at least one sub-region
  (completeness), and conjoining a sub-region box only restricts, so every
  shard cell is a serial cell (soundness);
* DFS rewriting is an exact implication, so the equality holds for the
  exact enumeration every shard runs.  (It holds for every strategy and
  early-stop depth :class:`~repro.core.cells.CellDecomposer` takes, too:
  early stopping assumes the same below-depth subtrees in whichever shard
  reaches them.)

The compiled program over the merged decomposition *is* the serial program,
so all five aggregates — AVG included — return bit-identical ranges while
the enumeration work fans out across the worker pool.  Range-level merging
then degenerates to the single-program case (or to component merging, when
the caller composes both), which is what keeps ``merge_shard_ranges`` the
single range-combination contract for every strategy.

Layout selection (:func:`select_sharding`) reads only the plan: component
splitting wins whenever the overlap graph shards (it parallelises whole
solves exactly), and region splitting covers the one-component remainder
once the plan's worst-case cell count
(:func:`~repro.core.cells.estimate_cell_count`) reaches
:data:`REGION_SHARDING_MIN_CELLS`, so trivially small decompositions never
pay fan-out overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.cells import (
    CellDecomposition,
    DecompositionStatistics,
    estimate_cell_count,
)
from ..core.pcset import PredicateConstraintSet
from ..core.predicates import Predicate
from ..core.ranges import ResultRange
from ..exceptions import PredicateError, SolverError
from ..relational.aggregates import AggregateFunction
from .ir import BoundPlan, BoundQuery

__all__ = ["SHARDABLE_AGGREGATES", "PlanShard",
           "ShardedBoundPlan", "ConstraintComponentSharding",
           "RegionSharding", "select_sharding",
           "partition_constraint_indices", "merge_shard_ranges",
           "merge_shard_statistics", "merge_shard_decompositions"]

_INF = float("inf")

#: Aggregates whose bounds recombine exactly from independent shards.
SHARDABLE_AGGREGATES = frozenset({
    AggregateFunction.COUNT,
    AggregateFunction.SUM,
    AggregateFunction.MIN,
    AggregateFunction.MAX,
})

#: Worst-case cell count below which a one-component plan stays unsharded —
#: decompositions this small finish faster inline than any fan-out round.
REGION_SHARDING_MIN_CELLS = 16


def partition_constraint_indices(pcset: PredicateConstraintSet
                                 ) -> list[tuple[int, ...]]:
    """Connected components of the predicate-overlap graph, as index tuples.

    Components are ordered by their smallest member and indices inside a
    component are ascending, so the partition is deterministic for a given
    constraint order.  A pairwise-disjoint set (the paper's partitioned fast
    path) short-circuits to singletons without the quadratic overlap scan.
    """
    count = len(pcset)
    if count == 0:
        return []
    if pcset.is_pairwise_disjoint():
        return [(index,) for index in range(count)]
    predicates = pcset.predicates()
    parent = list(range(count))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for i in range(count):
        for j in range(i + 1, count):
            root_i, root_j = find(i), find(j)
            if root_i == root_j:
                continue
            if predicates[i].overlaps(predicates[j]):
                parent[root_j] = root_i
    components: dict[int, list[int]] = {}
    for index in range(count):
        components.setdefault(find(index), []).append(index)
    ordered = sorted(components.values(), key=lambda member: member[0])
    return [tuple(member) for member in ordered]


@dataclass(frozen=True)
class PlanShard:
    """One independent slice of a sharded plan.

    For component shards ``indices`` are the positions of this shard's
    constraints in the parent plan's (optimized) constraint set and ``plan``
    is a complete :class:`BoundPlan` over just those constraints.  For
    region shards the constraint set is the parent's in full (``indices``
    spans it) and ``plan`` instead narrows the *query region* to this
    shard's slice of the partition attribute; ``partition_attribute`` and
    ``bounds`` record the slice.  Either way the shard plan compiles through
    the ordinary :func:`repro.plan.compile_plan` path.
    """

    shard_index: int
    shard_count: int
    indices: tuple[int, ...]
    plan: BoundPlan
    split: str = "component"
    partition_attribute: str | None = None
    bounds: tuple[float, float] | None = None

    @property
    def pcset(self) -> PredicateConstraintSet:
        return self.plan.pcset

    def cache_token(self) -> tuple:
        """A key suffix distinguishing this shard in the program cache.

        Appended to the existing (namespace, region, attribute) program key.
        Component shards keep the historical token shape (constraint indices
        plus shard layout); region shards key by their partition slice, so a
        region shard can never alias a component shard — or the unsharded
        program — of the same pair.
        """
        if self.split == "region":
            return ("region-shard", self.shard_count, self.shard_index,
                    self.partition_attribute, self.bounds)
        return ("shard", self.shard_count, self.shard_index, self.indices)

    def describe(self) -> str:
        if self.split == "region":
            low, high = self.bounds if self.bounds is not None else (-_INF, _INF)
            return (f"shard {self.shard_index + 1}/{self.shard_count}: "
                    f"{self.partition_attribute} in [{low}, {high}] "
                    f"({len(self.pcset)} constraint(s))")
        names = ", ".join(pc.name for pc in self.pcset)
        return (f"shard {self.shard_index + 1}/{self.shard_count}: "
                f"{len(self.pcset)} constraint(s) [{names}]")


@dataclass(frozen=True)
class ShardedBoundPlan:
    """A bound plan split into independently-executable shards.

    ``strategy`` names the splitter that produced the layout (``"component"``
    or ``"region"``) and decides how shard results recombine: component
    shards solve independently and merge *ranges*
    (:func:`merge_shard_ranges`); region shards decompose independently and
    merge *cells* (:func:`merge_shard_decompositions`) into the serial
    program.  A plan the strategy could not split yields exactly one shard,
    which callers should treat as "do not shard" (:attr:`is_sharded` is
    False).
    """

    parent: BoundPlan
    shards: tuple[PlanShard, ...]
    strategy: str = "component"

    @property
    def is_sharded(self) -> bool:
        return len(self.shards) > 1

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)

    def describe(self) -> str:
        lines = [f"sharded plan: {self.parent.query.describe()} "
                 f"({self.strategy} strategy, {len(self.shards)} shard(s))"]
        lines.extend(f"  {shard.describe()}" for shard in self.shards)
        return "\n".join(lines)


def _validate_max_shards(max_shards: int | None) -> None:
    if max_shards is not None and max_shards < 1:
        raise SolverError(f"max_shards must be positive, got {max_shards}")


def _single_shard(plan: BoundPlan, strategy: str) -> ShardedBoundPlan:
    """The degenerate "do not shard" layout (one full-plan shard)."""
    shard = PlanShard(shard_index=0, shard_count=1,
                      indices=tuple(range(len(plan.pcset))), plan=plan,
                      split=strategy)
    return ShardedBoundPlan(parent=plan, shards=(shard,), strategy=strategy)


def _group_components(components: list[tuple[int, ...]],
                      max_shards: int) -> list[list[int]]:
    """Pack components into at most ``max_shards`` groups, balancing size.

    Greedy longest-processing-time: components in decreasing size land on
    the currently-lightest group.  Constraint count stands in for cost —
    cell enumeration and model size both grow with it.  Group membership is
    re-sorted so each shard preserves the parent's constraint order.
    """
    bins: list[list[int]] = [[] for _ in range(min(max_shards, len(components)))]
    loads = [0] * len(bins)
    for component in sorted(components, key=len, reverse=True):
        target = loads.index(min(loads))
        bins[target].extend(component)
        loads[target] += len(component)
    groups = [sorted(group) for group in bins if group]
    groups.sort(key=lambda group: group[0])
    return groups


class ConstraintComponentSharding:
    """Split a plan along the independent components of its overlap graph.

    ``max_shards`` caps the number of shards (e.g. at the worker-pool
    width); surplus components are packed together, which stays exact —
    a shard holding two independent components is itself block-diagonal.
    Plans whose overlap graph is one component come back as a single shard
    (``is_sharded`` False) rather than an error.
    """

    def split(self, plan: BoundPlan,
              max_shards: int | None = None) -> ShardedBoundPlan:
        _validate_max_shards(max_shards)
        components = partition_constraint_indices(plan.pcset)
        if len(components) <= 1:
            groups = [sorted(components[0])] if components else []
        else:
            groups = _group_components(components, max_shards or len(components))
        if not groups:
            groups = [[]]
        disjoint = plan.pcset.is_pairwise_disjoint()
        shards = []
        for shard_index, indices in enumerate(groups):
            subset = PredicateConstraintSet(
                [plan.pcset[index] for index in indices], plan.pcset.domains)
            if disjoint:
                subset.mark_disjoint(True)
            shard_plan_ir = plan.amended(pcset=subset).annotated(
                f"sharding: component slice {shard_index + 1}/{len(groups)} "
                f"({len(indices)} of {len(plan.pcset)} constraint(s))")
            shards.append(PlanShard(shard_index=shard_index,
                                    shard_count=len(groups),
                                    indices=tuple(indices),
                                    plan=shard_plan_ir,
                                    split="component"))
        return ShardedBoundPlan(parent=plan, shards=tuple(shards),
                                strategy="component")


class RegionSharding:
    """Split a plan's query region along a partition attribute.

    The attribute is chosen automatically (the numeric attribute bounded by
    the most constraint predicates, ties broken lexicographically).  Cut
    points are placed between quantile chunks of the constraints' interval
    midpoints on that attribute, so each sub-region attracts a balanced
    share of the enumeration work; the outermost sub-regions extend to ±∞
    so the slices cover the whole attribute line (the completeness half of
    the cell-union equality in the module docstring).  Every shard keeps
    the parent's full constraint set —
    cells index into the parent's constraint order, which is what lets
    :func:`merge_shard_decompositions` reassemble the serial decomposition.
    """

    def split(self, plan: BoundPlan,
              max_shards: int | None = None) -> ShardedBoundPlan:
        _validate_max_shards(max_shards)
        if max_shards is None:
            max_shards = 2
        if max_shards < 2 or len(plan.pcset) == 0:
            return _single_shard(plan, "region")
        attribute = self.partition_attribute(plan)
        if attribute is None:
            return _single_shard(plan, "region")
        cuts = self.cut_points(plan, attribute, max_shards)
        if not cuts:
            return _single_shard(plan, "region")
        edges = [-_INF, *cuts, _INF]
        slices = list(zip(edges[:-1], edges[1:]))
        region = plan.query.region
        kept: list[tuple[tuple[float, float], Predicate]] = []
        for low, high in slices:
            window = Predicate.range(attribute, low, high)
            try:
                sub_region = window if region is None else region.conjoin(window)
            except PredicateError:
                continue  # the slice misses the query region entirely
            kept.append(((low, high), sub_region))
        if len(kept) < 2:
            return _single_shard(plan, "region")
        shards = []
        for shard_index, (bounds, sub_region) in enumerate(kept):
            query = BoundQuery(plan.query.aggregate, plan.query.attribute,
                               sub_region)
            shard_plan_ir = plan.amended(query=query).annotated(
                f"sharding: region slice {shard_index + 1}/{len(kept)} "
                f"({attribute} in [{bounds[0]}, {bounds[1]}])")
            shards.append(PlanShard(shard_index=shard_index,
                                    shard_count=len(kept),
                                    indices=tuple(range(len(plan.pcset))),
                                    plan=shard_plan_ir,
                                    split="region",
                                    partition_attribute=attribute,
                                    bounds=bounds))
        return ShardedBoundPlan(parent=plan, shards=tuple(shards),
                                strategy="region")

    # ------------------------------------------------------------------ #
    # Partition-attribute and cut-point selection (pure predicate math)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _interval_midpoints(plan: BoundPlan, attribute: str) -> list[float]:
        """Midpoints of the constraints' intervals on ``attribute``.

        Intervals are clipped to the query region's range on the attribute
        first (a constraint's slice outside the region attracts no cells),
        and constraints that leave the attribute unbounded on both sides
        contribute nothing — they straddle every cut regardless.
        """
        region = plan.query.region
        region_range = None if region is None else region.range_for(attribute)
        midpoints: list[float] = []
        for pc in plan.pcset:
            interval = pc.predicate.range_for(attribute)
            if interval is None:
                continue
            low, high = interval.low, interval.high
            if region_range is not None:
                low = max(low, region_range.low)
                high = min(high, region_range.high)
            if low > high:
                continue
            if math.isinf(low) and math.isinf(high):
                continue
            if math.isinf(low):
                midpoints.append(high)
            elif math.isinf(high):
                midpoints.append(low)
            else:
                midpoints.append((low + high) / 2.0)
        midpoints.sort()
        return midpoints

    @classmethod
    def partition_attribute(cls, plan: BoundPlan) -> str | None:
        """The attribute the splitter will cut, or None when none qualifies.

        A qualifying attribute is numerically bounded by at least one
        predicate and shows at least two distinct interval midpoints (one
        midpoint means every constraint sits on top of the cut, which can
        prune nothing).  Among qualifiers the most-constrained attribute
        wins — more bounded intervals mean more subtrees the sub-region
        pushdown can prune — with lexicographic tie-breaking for
        determinism.
        """
        best: tuple[int, str] | None = None
        attributes = {attribute
                      for pc in plan.pcset
                      for attribute in pc.predicate.ranges}
        for attribute in sorted(attributes):
            midpoints = cls._interval_midpoints(plan, attribute)
            if len(set(midpoints)) < 2:
                continue
            score = (len(midpoints), attribute)
            if best is None or score[0] > best[0]:
                best = score
        return None if best is None else best[1]

    @classmethod
    def cut_points(cls, plan: BoundPlan, attribute: str,
                   max_shards: int) -> list[float]:
        """Strictly increasing cut values between balanced midpoint chunks.

        Cuts can only fall in *gaps* — positions where adjacent sorted
        midpoints strictly increase (cutting through a pile of equal
        midpoints buys nothing).  Each of the ``max_shards - 1`` quantile
        boundaries snaps to its nearest unused gap, so duplicated
        structures (several constraints sharing an interval) still split
        into balanced slices, and fewer gaps gracefully produce fewer
        shards.  The quantiles are midpoint-*count* quantiles: each slice
        attracts an equal share of constraint structure, the only signal
        available before anything has run.
        """
        midpoints = cls._interval_midpoints(plan, attribute)
        gaps = [index for index in range(1, len(midpoints))
                if midpoints[index - 1] < midpoints[index]]
        if not gaps:
            return []
        total = len(midpoints)
        shards = min(max_shards, len(gaps) + 1)
        chosen: set[int] = set()
        for boundary in range(1, shards):
            target = boundary * total / shards
            free = [gap for gap in gaps if gap not in chosen]
            if not free:
                break
            chosen.add(min(free, key=lambda gap: abs(gap - target)))
        return [(midpoints[gap - 1] + midpoints[gap]) / 2.0
                for gap in sorted(chosen)]


def select_sharding(plan: BoundPlan,
                    max_shards: int | None = None) -> ShardedBoundPlan:
    """The sharded layout for ``plan``, decided from the plan alone.

    Component splitting when the overlap graph shards (it parallelises
    whole solves exactly, so it always dominates); otherwise region
    splitting, once the worst-case cell count reaches
    :data:`REGION_SHARDING_MIN_CELLS` — tiny enumerations run inline faster
    than any fan-out round.  A plan neither splitter can split comes back
    as the one-shard component layout.
    """
    component = ConstraintComponentSharding().split(plan, max_shards)
    if (component.is_sharded
            or estimate_cell_count(plan.pcset) < REGION_SHARDING_MIN_CELLS):
        return component
    region = RegionSharding().split(plan, max_shards)
    return region if region.is_sharded else component


# --------------------------------------------------------------------- #
# Merge contracts
# --------------------------------------------------------------------- #
def _merge_additive(ranges: list[ResultRange]) -> tuple[float, float]:
    lower = 0.0
    upper = 0.0
    for result in ranges:
        # COUNT/SUM shard ranges always carry numeric endpoints (possibly
        # infinite); None would indicate a non-additive aggregate slipped in.
        if result.lower is None or result.upper is None:
            raise SolverError(
                f"cannot additively merge range with undefined endpoint: {result}")
        lower += result.lower
        upper += result.upper
    return lower, upper


def _merge_extremum(values: list[float | None], want_max: bool) -> float | None:
    present = [value for value in values if value is not None]
    if not present:
        return None
    return max(present) if want_max else min(present)


def merge_shard_statistics(statistics_list) -> DecompositionStatistics:
    """Sum per-shard decomposition counters into one batch-level record.

    Keeps the sharded path's observability on par with serial execution:
    the merged range reports the total enumeration work its shards paid,
    exactly as a single monolithic decomposition would.
    """
    merged = DecompositionStatistics()
    for statistics in statistics_list:
        if statistics is None:
            continue
        merged.num_constraints += statistics.num_constraints
        merged.cells_evaluated += statistics.cells_evaluated
        merged.solver_calls += statistics.solver_calls
        merged.rewrites_saved += statistics.rewrites_saved
        merged.subtrees_pruned += statistics.subtrees_pruned
        merged.satisfiable_cells += statistics.satisfiable_cells
        merged.assumed_satisfiable += statistics.assumed_satisfiable
    return merged


def merge_shard_ranges(aggregate: AggregateFunction,
                       ranges: list[ResultRange],
                       attribute: str | None = None,
                       statistics: DecompositionStatistics | None = None
                       ) -> ResultRange:
    """Recombine per-shard missing-partition ranges into the full range.

    COUNT/SUM add endpoint-wise (the separable-MILP argument in the module
    docstring); MAX/MIN take extrema with ``None`` endpoints meaning "this
    shard guarantees/permits no rows" and dropping out of the merge.  AVG is
    rejected — route it through :func:`repro.plan.program.avg_endpoints`
    instead.  This is the one range-combination contract every
    strategy shares: component shards feed it their per-shard solves, and
    region shards reach it through the merged serial-identical program
    (trivially, as the one-shard case).
    """
    if aggregate not in SHARDABLE_AGGREGATES:
        raise SolverError(
            f"{aggregate.value} bounds do not decompose across shards")
    if not ranges:
        raise SolverError("merge_shard_ranges() needs at least one range")
    if aggregate in (AggregateFunction.COUNT, AggregateFunction.SUM):
        lower, upper = _merge_additive(ranges)
    elif aggregate is AggregateFunction.MAX:
        # Any shard's guaranteed row is a global guarantee; the largest
        # possible value overall is the largest any shard permits.
        lower = _merge_extremum([result.lower for result in ranges], want_max=True)
        upper = _merge_extremum([result.upper for result in ranges], want_max=True)
    else:
        lower = _merge_extremum([result.lower for result in ranges], want_max=False)
        upper = _merge_extremum([result.upper for result in ranges], want_max=False)
    return ResultRange(lower, upper, aggregate, attribute,
                       closed=all(result.closed for result in ranges),
                       statistics=statistics)


def merge_shard_decompositions(plan: BoundPlan,
                               decompositions: list[CellDecomposition]
                               ) -> CellDecomposition:
    """Union region shards' cells into the parent plan's decomposition.

    Cells are deduplicated by covering set (a cell satisfiable on both
    sides of a cut — e.g. one containing the cut point — appears in two
    shards) and ordered canonically, so the merged decomposition is
    deterministic regardless of shard completion order.  Counters are
    summed — the merged record reports the total work the shards paid,
    matching :func:`merge_shard_statistics` semantics — while
    ``num_constraints`` and ``satisfiable_cells`` describe the merged
    artifact itself: the *parent's* constraint count and the *deduplicated*
    cells.
    """
    seen: dict[frozenset, object] = {}
    for decomposition in decompositions:
        for cell in decomposition.cells:
            seen.setdefault(cell.covering, cell)
    cells = sorted(seen.values(),
                   key=lambda cell: (len(cell.covering),
                                     tuple(sorted(cell.covering))))
    statistics = merge_shard_statistics(
        decomposition.statistics for decomposition in decompositions)
    statistics.num_constraints = len(plan.pcset)
    statistics.satisfiable_cells = len(cells)
    return CellDecomposition(list(cells), statistics, plan.query.region)
