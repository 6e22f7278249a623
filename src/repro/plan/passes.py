"""Bound-preserving optimizer passes over :class:`~repro.plan.ir.BoundPlan`.

Each pass is a callable ``plan -> plan`` that may rewrite the constraint set
or the enumeration knobs but never the result range the compiled program
will produce (strategy selection may *loosen* a range — early stopping only
ever adds cells, which keeps bounds sound — and does so only when the
caller opted in with a cell budget).  The soundness arguments live next to
each pass; the test-suite pins them down by comparing optimized and
unoptimized pipelines across aggregates.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Callable, Iterable, Sequence

from ..core.cells import (
    DecompositionStatistics,
    DecompositionStrategy,
    estimate_cell_count,
    worst_case_cell_count,
)
from ..core.constraints import FrequencyConstraint, PredicateConstraint
from ..core.pcset import PredicateConstraintSet
from ..obs.metrics import get_registry
from .ir import BoundPlan

__all__ = ["PlanPass", "ObservedCellStatistics", "RegionPruningPass",
           "ConstraintMergingPass", "StrategySelectionPass", "default_passes",
           "optimize_plan", "estimated_cell_count"]

PlanPass = Callable[[BoundPlan], BoundPlan]


def estimated_cell_count(plan: BoundPlan,
                         cell_statistics: "ObservedCellStatistics | None" = None
                         ) -> tuple[int, str]:
    """Predicted satisfiable cells for ``plan``, with the estimate's source.

    The single costing signal behind both arms of strategy selection: the
    cell-budget pass compares it against the plan's budget, and sharding
    selection (:func:`repro.plan.sharding.select_sharding`) gates region
    splitting on it.  Returns ``(estimate, source)`` where ``source`` is
    ``"worst-case"`` (the combinatorial bound) or ``"observed"`` (the
    density feed's tighter prediction, used only when it is tighter).
    """
    estimate = estimate_cell_count(plan.pcset)
    source = "worst-case"
    if cell_statistics is not None:
        observed = cell_statistics.estimate(len(plan.pcset))
        if observed is not None and observed < estimate:
            estimate, source = observed, "observed"
    return estimate, source


class ObservedCellStatistics:
    """Measured cells-per-decomposition, feeding adaptive strategy selection.

    The worst-case ``2^n`` cell estimate is wildly pessimistic on real
    constraint sets — most subsets are unsatisfiable — so a cell budget
    tuned against it early-stops far more often than the data requires.
    This feed records, for every *exact* decomposition the owning solver
    (or service) actually ran, the observed density ``satisfiable cells /
    worst case``, and predicts future cell counts by scaling the worst case
    with the highest density seen.  Taking the maximum keeps the estimate
    conservative on the cost axis (enumeration is never budgeted on a
    density the workload has not already beaten), and either direction of
    estimation error stays *sound*: early stopping only ever adds cells.

    Early-stopped decompositions are excluded — their cell counts are
    partially assumed, not measured.  Thread-safe; scope one instance per
    solver or share one per service (the service shares, so every session
    benefits from every other session's measurements).
    """

    #: Observations required before estimates replace the worst case.
    MIN_SAMPLES = 3

    def __init__(self, max_samples: int = 64):
        self._lock = threading.Lock()
        self._samples: deque[tuple[int, float]] = deque(maxlen=max_samples)

    def observe(self, statistics: DecompositionStatistics) -> None:
        """Record one finished decomposition's measured cell count."""
        registry = get_registry()
        if statistics.assumed_satisfiable > 0:
            registry.counter("cells.observations_skipped").inc()
            return  # early-stopped: cells were assumed, not measured
        count = statistics.num_constraints
        if count < 2 or count >= 62:
            registry.counter("cells.observations_skipped").inc()
            return  # degenerate or estimate-capped sizes carry no signal
        density = statistics.satisfiable_cells / worst_case_cell_count(count)
        with self._lock:
            self._samples.append((count, density))
            samples = len(self._samples)
        registry.counter("cells.observations").inc()
        registry.gauge("cells.samples").set(samples)

    @property
    def sample_count(self) -> int:
        with self._lock:
            return len(self._samples)

    def estimate(self, num_constraints: int) -> int | None:
        """Predicted satisfiable cells for a set of ``num_constraints``.

        Only samples from sets of **at most** ``num_constraints``
        constraints participate: density (cells over ``2^n − 1``) falls as
        ``n`` grows for any fixed overlap structure, so scaling a smaller
        set's density *up* is conservative on the cost axis, while a huge
        near-disjoint set's vanishing density scaled *down* to a small
        dense set would silently disable the caller's cell-budget guard.
        ``None`` until :data:`MIN_SAMPLES` such decompositions have been
        observed — strategy selection then falls back to the worst case.
        """
        with self._lock:
            densities = [sample_density
                         for sample_count, sample_density in self._samples
                         if sample_count <= num_constraints]
        if len(densities) < self.MIN_SAMPLES:
            return None
        worst = worst_case_cell_count(num_constraints)
        estimated = int(math.ceil(max(densities) * worst))
        return max(num_constraints, min(estimated, worst))


class RegionPruningPass:
    """Drop constraints that cannot influence a region-restricted query.

    A constraint whose predicate does not overlap the query region covers no
    cell that survives predicate pushdown (every one of its cells lies
    inside the predicate, hence outside the region), so it contributes no
    variable to any model.  It can still matter in exactly one way: when it
    *forces* rows to exist (``kl > 0``), those mandatory rows interact with
    lower bounds and slack allocations — such constraints are kept.  The
    net effect on every bound is therefore zero, while the decomposition's
    search space shrinks exponentially in the number of pruned constraints.
    """

    name = "region-pruning"

    def __call__(self, plan: BoundPlan) -> BoundPlan:
        region = plan.query.region
        if region is None or region.is_tautology() or len(plan.pcset) == 0:
            return plan
        pcset = plan.pcset.restricted_to(region)
        if len(pcset) == len(plan.pcset):
            return plan
        pruned = len(plan.pcset) - len(pcset)
        if plan.pcset.is_pairwise_disjoint():
            # A subset of pairwise-disjoint predicates stays disjoint; keep
            # the fast-path hint so large partitions skip the O(n^2) scan.
            pcset.mark_disjoint(True)
        return plan.amended(pcset=pcset).annotated(
            f"{self.name}: dropped {pruned} constraint(s) outside the query "
            f"region ({len(pcset)} remain)")


class ConstraintMergingPass:
    """Merge constraints whose predicates are identical.

    Two predicate-constraints over the same predicate talk about the same
    set of unknown rows, so both value constraints apply to every such row
    (intersect them) and both frequency intervals apply to their count
    (intersect those too).  In the cell decomposition the pair is always
    covered together, so merging collapses a redundant dimension of the
    2^n enumeration without changing any cell's capacity or value bounds —
    bounds are preserved exactly.

    Two kinds of group are deliberately left unmerged to keep that
    exactness guarantee:

    * groups whose frequency intervals do not intersect — the set is
      unsatisfiable either way, and the solver's infeasibility diagnostics
      should name the originals;
    * groups where some *mandatory* member's (``kl > 0``) value constraint
      is strictly wider than the group's intersection — MIN/MAX's
      forced-extremum scan reads each mandatory constraint's own value
      bounds, so merging would substitute the tighter intersection and
      change (tighten, soundly, but change) the result relative to the
      unoptimized plan.
    """

    name = "duplicate-merging"

    def __call__(self, plan: BoundPlan) -> BoundPlan:
        if len(plan.pcset) < 2:
            return plan
        groups: dict[object, list[PredicateConstraint]] = {}
        order: list[object] = []
        for pc in plan.pcset:
            if pc.predicate not in groups:
                groups[pc.predicate] = []
                order.append(pc.predicate)
            groups[pc.predicate].append(pc)
        if all(len(group) == 1 for group in groups.values()):
            return plan
        merged: list[PredicateConstraint] = []
        merged_groups = 0
        for predicate in order:
            group = groups[predicate]
            if len(group) == 1:
                merged.append(group[0])
                continue
            combined = self._merge_group(group)
            if combined is None:
                merged.extend(group)
            else:
                merged.append(combined)
                merged_groups += 1
        if not merged_groups:
            return plan
        pcset = PredicateConstraintSet(merged, plan.pcset.domains)
        return plan.amended(pcset=pcset).annotated(
            f"{self.name}: merged {merged_groups} group(s) of identical "
            f"predicates ({len(merged)} constraint(s) remain)")

    @staticmethod
    def _merge_group(group: Sequence[PredicateConstraint]
                     ) -> PredicateConstraint | None:
        lower = max(pc.min_rows() for pc in group)
        upper = min(pc.max_rows() for pc in group)
        if lower > upper:
            return None  # jointly unsatisfiable; let the solver report it
        values = group[0].values
        for pc in group[1:]:
            values = values.intersect(pc.values)
        if any(pc.min_rows() > 0 and pc.values != values for pc in group):
            # A mandatory member with value bounds wider than the group's
            # intersection: merging would tighten the forced-extremum scan
            # (see class docstring).
            return None
        name = "&".join(pc.name for pc in group)
        return PredicateConstraint(group[0].predicate, values,
                                   FrequencyConstraint(lower, upper), name=name)


class StrategySelectionPass:
    """Pick exact DFS vs. early-stopped enumeration under a cell budget.

    The exact DFS visits up to ``2^n`` prefixes.  When the plan carries a
    ``cell_budget`` and the estimated cell count exceeds it, this pass caps
    the search at ``early_stop_depth = floor(log2(budget))``: below that
    depth prefixes are assumed satisfiable, which can only *add* cells —
    bounds stay sound (possibly looser) and runtime becomes linear in the
    budget.  Plans with an explicit ``early_stop_depth``, a disjoint
    constraint set (already linear) or no budget are left untouched.

    The estimate is adaptive when an :class:`ObservedCellStatistics` feed is
    supplied (the solver wires in its own; the service shares one across
    sessions): once enough exact decompositions have been measured, the
    worst-case ``2^n`` is replaced by the observed density scaled to this
    plan's constraint count, so workloads whose overlap structure yields few
    cells keep exact enumeration where the worst case would have
    early-stopped them.  Without a feed (or before it has samples) the pass
    behaves exactly as before.
    """

    name = "strategy-selection"

    def __init__(self, cell_statistics: ObservedCellStatistics | None = None):
        self._cell_statistics = cell_statistics

    def __call__(self, plan: BoundPlan) -> BoundPlan:
        budget = plan.cell_budget
        if budget is None or budget <= 0 or plan.early_stop_depth is not None:
            return plan
        if plan.strategy is DecompositionStrategy.NAIVE:
            return plan  # the naive strategy ignores early stopping
        if plan.pcset.is_pairwise_disjoint():
            return plan  # the disjoint fast path is already linear
        estimate, source = estimated_cell_count(plan, self._cell_statistics)
        if estimate <= budget:
            return plan
        depth = max(1, int(math.floor(math.log2(budget))))
        if depth >= len(plan.pcset):
            return plan
        return plan.amended(early_stop_depth=depth).annotated(
            f"{self.name}: ~{estimate} {source} cells exceed budget "
            f"{budget}; early-stopping below depth {depth}")


def default_passes(cell_statistics: ObservedCellStatistics | None = None
                   ) -> tuple[PlanPass, ...]:
    """The standard pipeline, in application order.

    Merging runs after pruning so region-irrelevant duplicates are already
    gone; strategy selection runs last so its cell estimate sees the final
    constraint count.  ``cell_statistics`` feeds measured cell counts into
    strategy selection (see :class:`ObservedCellStatistics`).
    """
    return (RegionPruningPass(), ConstraintMergingPass(),
            StrategySelectionPass(cell_statistics))


def optimize_plan(plan: BoundPlan,
                  passes: Iterable[PlanPass] | None = None) -> BoundPlan:
    """Run ``passes`` (default: :func:`default_passes`) over ``plan``."""
    for optimizer_pass in (default_passes() if passes is None else passes):
        plan = optimizer_pass(plan)
    return plan
