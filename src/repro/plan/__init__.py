"""The bound-plan pipeline: plan → optimize → compile → solve.

This package turns the monolithic bounding computation of
:class:`repro.core.bounds.PCBoundSolver` into an explicit four-stage
pipeline, mirroring how query engines separate logical planning from
physical execution:

``ir``
    :class:`BoundPlan`, the logical intermediate representation — an
    aggregate query plus the predicate-constraint set it will be bounded
    under and the MILP backend its program solves with.
``passes``
    Optimizer passes over the IR: query-region constraint pruning and
    duplicate predicate merging.  Every pass is bound-preserving: the
    optimized plan yields the same result range as the original.
``program``
    :class:`BoundProgram`, the compiled physical artifact: the exact cell
    decomposition read into per-cell arrays, slack variables and the MILP
    skeleton are materialized once; executions (including every probe of
    AVG's Dinkelbach iteration) only patch objective parameters.  Programs are
    immutable after compilation and safe to share across threads, which is
    what lets the service layer LRU-cache them alongside decompositions.
``sharding``
    The sharding pass: :func:`select_sharding` maps one optimized plan to a
    :class:`ShardedBoundPlan` — constraint-component splitting for
    block-diagonal MILPs, region-level splitting for one-component
    constraint sets whose worst-case cell count is worth fanning out — and
    reads nothing but the plan.

The pipeline's entry points are :func:`build_plan`, :func:`optimize_plan`,
:func:`compile_plan` and :func:`select_sharding`;
:class:`repro.core.bounds.PCBoundSolver` drives them and remains the public
solving facade.
"""

from .ir import BoundPlan, BoundQuery, build_plan
from .passes import (
    ConstraintMergingPass,
    PlanPass,
    RegionPruningPass,
    default_passes,
    optimize_plan,
)
from .program import BoundProgram, compile_plan
from .sharding import (
    ConstraintComponentSharding,
    PlanShard,
    RegionSharding,
    ShardedBoundPlan,
    merge_shard_decompositions,
    merge_shard_ranges,
    select_sharding,
)

__all__ = [
    "BoundPlan",
    "BoundQuery",
    "build_plan",
    "PlanPass",
    "RegionPruningPass",
    "ConstraintMergingPass",
    "default_passes",
    "optimize_plan",
    "BoundProgram",
    "compile_plan",
    "ConstraintComponentSharding",
    "RegionSharding",
    "PlanShard",
    "ShardedBoundPlan",
    "select_sharding",
    "merge_shard_ranges",
    "merge_shard_decompositions",
]
