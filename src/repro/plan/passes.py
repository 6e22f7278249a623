"""Bound-preserving optimizer passes over :class:`~repro.plan.ir.BoundPlan`.

Each pass is a callable ``plan -> plan`` that may rewrite the constraint set
but never the result range the compiled program will produce.  The
soundness arguments live next to each pass; the test-suite pins them down
by comparing optimized and unoptimized pipelines across aggregates.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..core.constraints import FrequencyConstraint, PredicateConstraint
from ..core.pcset import PredicateConstraintSet
from .ir import BoundPlan

__all__ = ["PlanPass", "RegionPruningPass", "ConstraintMergingPass",
           "default_passes", "optimize_plan"]

PlanPass = Callable[[BoundPlan], BoundPlan]


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


def default_passes() -> tuple[PlanPass, ...]:
    """The standard pipeline, in application order.

    Merging runs after pruning so region-irrelevant duplicates are already
    gone.
    """
    return (RegionPruningPass(), ConstraintMergingPass())


def optimize_plan(plan: BoundPlan,
                  passes: Iterable[PlanPass] | None = None) -> BoundPlan:
    """Run ``passes`` (default: :func:`default_passes`) over ``plan``."""
    for optimizer_pass in (default_passes() if passes is None else passes):
        plan = optimizer_pass(plan)
    return plan
