"""repro — Predicate-Constraint contingency analysis for missing data.

A from-scratch reproduction of *"Fast and Reliable Missing Data Contingency
Analysis with Predicate-Constraints"* (Liang, Shang, Elmore, Krishnan,
Franklin; SIGMOD 2020).

The public API re-exported here covers the typical workflow:

>>> from repro import (Predicate, PredicateConstraint, PredicateConstraintSet,
...                    ValueConstraint, FrequencyConstraint,
...                    PCAnalyzer, ContingencyQuery)
>>> chicago = PredicateConstraint(
...     Predicate.equals("branch", "Chicago"),
...     ValueConstraint({"price": (0.0, 149.99)}),
...     FrequencyConstraint.at_most(5),
...     name="chicago-sales")

Sub-packages
------------
``repro.core``
    The predicate-constraint framework itself (paper §3–§5).
``repro.relational``
    The in-memory relational substrate (ground truth evaluation, joins).
``repro.plan``
    The bound-plan pipeline (plan → optimize → compile → solve): the
    logical :class:`BoundPlan` IR, bound-preserving optimizer passes, and
    compiled :class:`BoundProgram` artifacts the service layer caches.
``repro.solvers``
    Satisfiability, LP/MILP, fractional-edge-cover substrates, and the
    MILP backend registry.
``repro.parallel``
    Parallel solve fan-out: the persistent worker pool (inline or process
    workers) that runs sharded plans (:class:`ShardedBoundPlan`), and cross-backend range
    verification.
``repro.service``
    The long-lived service layer: named/versioned constraint sessions,
    fingerprint-keyed decomposition and report caches, and concurrent batch
    execution (:class:`ContingencyService`).
``repro.baselines``
    The statistical estimators the paper compares against (§6.1).
``repro.datasets`` / ``repro.workloads`` / ``repro.experiments``
    Synthetic re-creations of the evaluation datasets, query/missing-data
    workload generators, and one module per paper table/figure.
"""

from .core import (
    BoundOptions,
    ContingencyQuery,
    ContingencyReport,
    FrequencyConstraint,
    JoinBound,
    JoinBoundAnalyzer,
    JoinRelationSpec,
    PCAnalyzer,
    PCBoundSolver,
    Predicate,
    PredicateConstraint,
    PredicateConstraintSet,
    ResultRange,
    ValueConstraint,
    build_corr_pcs,
    build_histogram_pcs,
    build_partition_pcs,
    build_random_pcs,
)
from .plan import (
    BoundPlan,
    BoundProgram,
    BoundQuery,
    PlanShard,
    ShardedBoundPlan,
    build_plan,
    compile_plan,
    merge_shard_ranges,
    optimize_plan,
)
from .relational import (
    AggregateFunction,
    AggregateQuery,
    ColumnType,
    Relation,
    Schema,
)
from .service import (
    BatchExecutor,
    BatchResult,
    CacheStatistics,
    ContingencyService,
    LRUCache,
    RegisteredSession,
    ServiceStatistics,
    SessionRegistry,
)

__version__ = "1.1.0"

__all__ = [
    "BoundOptions",
    "ContingencyQuery",
    "ContingencyReport",
    "FrequencyConstraint",
    "JoinBound",
    "JoinBoundAnalyzer",
    "JoinRelationSpec",
    "PCAnalyzer",
    "PCBoundSolver",
    "Predicate",
    "PredicateConstraint",
    "PredicateConstraintSet",
    "ResultRange",
    "ValueConstraint",
    "build_corr_pcs",
    "build_histogram_pcs",
    "build_partition_pcs",
    "build_random_pcs",
    "BoundPlan",
    "BoundProgram",
    "BoundQuery",
    "build_plan",
    "compile_plan",
    "optimize_plan",
    "PlanShard",
    "ShardedBoundPlan",
    "merge_shard_ranges",
    "AggregateFunction",
    "AggregateQuery",
    "ColumnType",
    "Relation",
    "Schema",
    "BatchExecutor",
    "BatchResult",
    "CacheStatistics",
    "ContingencyService",
    "LRUCache",
    "RegisteredSession",
    "ServiceStatistics",
    "SessionRegistry",
    "__version__",
]
