"""The contingency-analysis service layer (registry, caches, batching).

This subpackage turns the one-shot :class:`~repro.core.engine.PCAnalyzer`
into a long-lived service: constraint sets are registered once under stable
names, cell decompositions and finished reports are cached by content
fingerprint, and query batches execute on the service's worker pool.

Layering: ``repro.service`` sits strictly above ``repro.core``; no core,
plan, parallel, solvers or relational module imports it.
"""

from .admission import (
    AdmissionController,
    AdmissionStatistics,
    QueryCost,
    price_query,
)
from .batch import BatchExecutor, BatchResult, BatchStatistics
from .cache import CacheStatistics, LRUCache
from .fingerprint import (
    RelationVersion,
    combine_fingerprints,
    decomposition_namespace,
    fingerprint_bound_options,
    fingerprint_constraint,
    fingerprint_pcset,
    fingerprint_predicate,
    fingerprint_query,
    fingerprint_relation,
    relation_version,
)
from .registry import RegisteredSession, SessionRegistry
from .service import ContingencyService, ServiceStatistics
from .store import PersistentStore, StoreStatistics, default_cache_dir

__all__ = [
    "AdmissionController",
    "AdmissionStatistics",
    "QueryCost",
    "price_query",
    "BatchExecutor",
    "BatchResult",
    "BatchStatistics",
    "CacheStatistics",
    "LRUCache",
    "PersistentStore",
    "StoreStatistics",
    "default_cache_dir",
    "RelationVersion",
    "relation_version",
    "combine_fingerprints",
    "decomposition_namespace",
    "fingerprint_bound_options",
    "fingerprint_constraint",
    "fingerprint_pcset",
    "fingerprint_predicate",
    "fingerprint_query",
    "fingerprint_relation",
    "RegisteredSession",
    "SessionRegistry",
    "ContingencyService",
    "ServiceStatistics",
]
