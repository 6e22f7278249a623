"""Parallel solve fan-out: the worker pool and cross-backend checks.

This package scales the bound-plan pipeline out instead of up.  PR 2 made
:class:`~repro.plan.BoundProgram` solves pure parameter patches against
immutable compiled skeletons, which is exactly the precondition for the
features that live here (how plans split into shards is a plan-pipeline
pass, :mod:`repro.plan.sharding`):

``pool``
    :class:`WorkerPool`, the one parallel runtime, in two modes: inline
    (``"serial"``) or long-lived process workers with warm per-worker
    program caches keyed by the parent's fingerprints, affinity routing, a
    warm-up protocol, restart on worker death, and the transport for
    cross-shard AVG probes (:meth:`WorkerPool.avg_probes`; the search is
    :func:`repro.plan.program.avg_endpoints`).  Work always ships as
    batches — a one-item job is a width-1 batch.  The service owns one
    pool; bare solvers and the CLI borrow process-global shared process
    pools.
``verify``
    Cross-backend verification: solve one program on two registry backends
    and intersect the ranges.  Two sound ranges always intersect, so a
    :class:`~repro.exceptions.DisjointRangeError` is a high-signal alarm
    that one backend is defective.

Layering: ``repro.parallel`` sits above ``repro.plan`` and ``repro.core``'s
data types but below the service layer; :class:`repro.core.bounds.
PCBoundSolver` drives it when ``BoundOptions.solve_workers`` asks for
fan-out, and the service batch executor runs its phase-2 solves on the
same :class:`WorkerPool`.
"""

from .pool import (
    PoolStatistics,
    WorkerPool,
    shared_pool,
    shutdown_shared_pools,
)
from .verify import cross_check_ranges

__all__ = [
    "WorkerPool",
    "PoolStatistics",
    "shared_pool",
    "shutdown_shared_pools",
    "cross_check_ranges",
]
