"""Work-stealing knobs for the persistent worker pool.

The pool's affinity routing (:meth:`repro.parallel.pool.WorkerPool.
worker_for`) keeps warm caches warm by pinning every program key to one
worker — but under skew that pin concentrates a round's work on whichever
worker owns the hot keys while its siblings idle.  Work stealing is the
elastic counterweight: when a worker's backlog drains and nothing is in
flight to it, the coordinator re-routes whole queued tasks from the most
loaded peer (coldest keys first, so the victim keeps the tasks its warm
cache serves best), and splits the last queued ``decompose_batch`` when
idle workers outnumber the remaining queued tasks.

Stolen tasks produce bit-identical results — stealing moves *where* a task
runs, never what it computes — so the knob is fingerprint-neutral and on by
default:

``REPRO_STEAL``
    The on/off toggle.  Stealing is **on by default**; ``0`` / ``off`` /
    ``false`` / ``no`` disables it (the control arm of the skew benchmarks;
    the CI matrix pins both states).  The environment wins over any
    per-pool configuration so one variable steers a whole process.

Stealing composes with fault injection (``REPRO_FAULTS``, see
:mod:`repro.faults`): a stolen task keeps its original task id and shard
position, so a fault plan keyed on ``shard=`` fires on the same work unit
whether or not stealing re-routed it, and the chaos CI leg runs the
fault-injection suite under both stealing states.
"""

from __future__ import annotations

import os

__all__ = ["STEAL_ENV", "stealing_enabled", "resolve_stealing"]

STEAL_ENV = "REPRO_STEAL"


def stealing_enabled() -> bool:
    """Whether pool work stealing is on (default) — ``REPRO_STEAL``."""
    value = os.environ.get(STEAL_ENV, "").strip().lower()
    return value not in ("0", "off", "false", "no")


def resolve_stealing(configured: bool | None = None) -> bool:
    """The effective stealing switch: environment override, then the pool's
    constructor setting, then on (the default)."""
    raw = os.environ.get(STEAL_ENV)
    if raw is not None and raw.strip() != "":
        return raw.strip().lower() not in ("0", "off", "false", "no")
    if configured is not None:
        return configured
    return True
