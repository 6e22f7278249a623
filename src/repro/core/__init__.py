"""The predicate-constraint framework (the paper's primary contribution).

This subpackage contains the predicate language, the predicate-constraint /
predicate-constraint-set abstractions, cell decomposition with the paper's
optimisations, the MILP bounding engine for the five supported aggregates,
the two join-bound strategies, and the automatic constraint builders used by
the experiments.
"""

from .bounds import (
    BoundExplanation,
    BoundOptions,
    CellAllocation,
    PCBoundSolver,
    ResultRange,
)
from .builders import (
    build_corr_pcs,
    build_histogram_pcs,
    build_overlapping_pcs,
    build_partition_pcs,
    build_random_overlapping_boxes,
    build_random_pcs,
    infer_domains,
    select_correlated_attributes,
)
from .cells import (
    Cell,
    CellDecomposer,
    CellDecomposition,
    DecompositionStatistics,
    DecompositionStrategy,
    decompose_cached,
)
from .constraints import (
    ConstraintViolation,
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from .engine import ContingencyQuery, ContingencyReport, PCAnalyzer
from .io import (
    load_pcset,
    parse_constraint,
    parse_constraints,
    pcset_from_dict,
    pcset_to_dict,
    save_pcset,
)
from .joins import (
    JoinBound,
    JoinBoundAnalyzer,
    JoinRelationSpec,
    fec_join_bound,
    naive_join_bound,
)
from .pcset import PredicateConstraintSet
from .predicates import Predicate

__all__ = [
    "BoundExplanation",
    "BoundOptions",
    "CellAllocation",
    "PCBoundSolver",
    "ResultRange",
    "build_corr_pcs",
    "build_histogram_pcs",
    "build_overlapping_pcs",
    "build_partition_pcs",
    "build_random_overlapping_boxes",
    "build_random_pcs",
    "infer_domains",
    "select_correlated_attributes",
    "Cell",
    "CellDecomposer",
    "CellDecomposition",
    "DecompositionStatistics",
    "DecompositionStrategy",
    "decompose_cached",
    "ConstraintViolation",
    "FrequencyConstraint",
    "PredicateConstraint",
    "ValueConstraint",
    "ContingencyQuery",
    "ContingencyReport",
    "PCAnalyzer",
    "load_pcset",
    "parse_constraint",
    "parse_constraints",
    "pcset_from_dict",
    "pcset_to_dict",
    "save_pcset",
    "JoinBound",
    "JoinBoundAnalyzer",
    "JoinRelationSpec",
    "fec_join_bound",
    "naive_join_bound",
    "PredicateConstraintSet",
    "Predicate",
]
