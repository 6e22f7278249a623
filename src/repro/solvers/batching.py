"""Batch sizing shared by the kernel, the pool and the planner.

Batched solving is the only solve path.  The batched multi-solve kernel
(:meth:`repro.solvers.milp.CompiledMILP.solve_objectives`) amortises the
per-call solver floor across a matrix of objective rows, and the worker
pool amortises the per-task dispatch floor by shipping one task per
*batch* of work items; a one-item job is simply a width-1 batch.

This module decides how wide a pool batch is: :func:`adaptive_batch_size`
derives the width from pool depth and the plan's worst-case cell count, and
:func:`chunked` splits work into batches of that width.  Batch width may
never influence *what* is computed — only how many solves share one entry
— so it participates in no program key or artifact fingerprint.
"""

from __future__ import annotations

import math

__all__ = ["MAX_BATCH_SIZE", "adaptive_batch_size", "chunked"]

#: Upper clamp on any adaptive batch: large enough to amortise the per-task
#: floor many times over, small enough that one straggler batch cannot hold
#: a whole round hostage (the skew lesson of the PR5/PR6 benchmarks).
MAX_BATCH_SIZE = 64

#: Estimated cells above which a batch is considered "full" of enumeration
#: work: adaptive sizing shrinks batches so no single task carries more than
#: roughly this much predicted work, keeping load balance across dense sets.
_HEAVY_CELLS_PER_BATCH = 256


def adaptive_batch_size(task_count: int, workers: int,
                        estimated_cells: int | None = None) -> int:
    """How many work items one pool task should carry.

    The batch size targets one batch per worker (``ceil(task_count /
    workers)`` — the smallest size that still fills the pool), shrunk when
    the estimated cell count predicts heavy per-item enumeration (so one
    batch never concentrates more than ~:data:`_HEAVY_CELLS_PER_BATCH`
    estimated cells) and clamped to [1, :data:`MAX_BATCH_SIZE`].
    """
    if task_count <= 0:
        return 1
    size = math.ceil(task_count / max(1, workers))
    if estimated_cells is not None and estimated_cells > 0:
        per_item = max(1.0, estimated_cells / task_count)
        size = min(size, max(1, int(_HEAVY_CELLS_PER_BATCH // per_item)))
    return max(1, min(size, MAX_BATCH_SIZE))


def chunked(items: list, size: int) -> list[list]:
    """Split ``items`` into consecutive chunks of at most ``size``."""
    if size <= 0:
        raise ValueError(f"chunk size must be positive, got {size}")
    return [items[start:start + size] for start in range(0, len(items), size)]
