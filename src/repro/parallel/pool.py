"""Persistent worker pools with warm per-worker program caches.

A fresh executor per call pays process fork, analyzer pickling and solver
warm-up on *each* sharded solve or batch phase.  This module is the
long-lived runtime that amortises those costs:

* **Worker-side warm caches.**  Each process worker owns a program cache
  keyed by the *parent's* program-cache keys (content fingerprints + region
  + shard token).  The first solve for a key ships the compiled
  :class:`~repro.plan.BoundProgram` skeleton (a few KB); every later solve
  ships only the key, and the worker patches parameters into its warm copy.
* **Fingerprint-affinity routing.**  A key is pinned to one worker
  (balanced on first sight, sticky afterwards), so repeated traffic for a
  program always lands where its warm copy lives instead of spraying cold
  misses across the pool.
* **Warm-up protocol.**  :meth:`WorkerPool.warm` pre-ships compiled
  skeletons to their affinity workers, and :meth:`WorkerPool.register_session`
  ships a whole analyzer once per worker, so batch phase 2 runs against warm
  worker state from the first query.
* **Explicit lifecycle.**  ``start`` / ``shutdown`` are idempotent, the pool
  is context-managed, dead workers are respawned (and their lost warm state
  re-shipped) transparently, and an ``atexit`` reaper guarantees interrupted
  test runs never strand worker processes.

Two modes share one interface: ``"serial"`` (inline in the caller's
thread, the default and the width-1 degeneration) and ``"process"`` (real
CPU scale-out).  Nested use is safe: code already running inside a pool
worker executes inline instead of re-entering a pool, so a pooled analyzer
whose options request fan-out can never recurse into worker-spawning.

The pool carries cross-shard AVG probes (:meth:`WorkerPool.avg_probes`) and
their per-shard outcomes (each probe's optimum and its optimal allocation's
exact value and row sums) but holds no AVG logic: the search, one function
for one program and for shards alike, is
:func:`repro.plan.program.avg_endpoints`.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import multiprocessing
import multiprocessing.connection
import os
import random
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..exceptions import PoisonTaskError, QueryDeadlineError, SolverError
from ..faults import apply_worker_fault, current_deadline, resolve_faults
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..relational.aggregates import AggregateFunction
from ..solvers.batching import adaptive_batch_size, chunked

__all__ = ["WorkerPool", "PoolStatistics", "POOL_MODES", "shared_pool",
           "shutdown_shared_pools", "default_pool_mode",
           "default_pool_workers", "in_worker", "register_for_reaping"]

#: The pool flavours a caller may request: inline or process workers.
POOL_MODES = ("serial", "process")

# Endpoint triple a solve task returns: (lower, upper, closed).
Endpoints = tuple


def _bound_endpoints(program, request: tuple) -> Endpoints:
    """One ``(aggregate, attribute, known_sum, known_count)`` request as a
    width-1 batch, flattened to endpoints (the shard merge needs nothing
    else)."""
    result = program.bound_batch([request])[0]
    return (result.lower, result.upper, result.closed)


def default_pool_workers() -> int:
    """Default pool width: one worker per core, at most eight."""
    return min(8, os.cpu_count() or 1)


def default_pool_mode() -> str:
    """The service's default pool flavour: inline, unless ``REPRO_POOL=1``
    opts into process workers (the CI matrix leg that exercises the
    warm-pool path)."""
    return "process" if os.environ.get("REPRO_POOL") == "1" else "serial"


# --------------------------------------------------------------------- #
# Re-entrancy guard
# --------------------------------------------------------------------- #
_IN_WORKER = False


def in_worker() -> bool:
    """True inside a pool worker process (guards against nested fan-out)."""
    return _IN_WORKER


# --------------------------------------------------------------------- #
# The atexit reaper
# --------------------------------------------------------------------- #
_reap_lock = threading.Lock()
_reapable: "weakref.WeakSet" = weakref.WeakSet()
_reaper_installed = False


def register_for_reaping(pool) -> None:
    """Guarantee ``pool.shutdown()`` runs at interpreter exit.

    Registration is idempotent and weak: a garbage-collected pool never
    keeps the interpreter alive, and an interrupted pytest run still tears
    its worker processes down instead of stranding them.
    """
    global _reaper_installed
    with _reap_lock:
        _reapable.add(pool)
        if not _reaper_installed:
            atexit.register(_reap_all)
            _reaper_installed = True


def _reap_all() -> None:
    for pool in list(_reapable):
        try:
            pool.shutdown()
        except Exception:  # pragma: no cover - best-effort teardown
            pass


# --------------------------------------------------------------------- #
# Worker-side state and task handlers (process mode)
# --------------------------------------------------------------------- #
#: Per-worker warm program cache capacity.  Bounds worker memory the same
#: way the service's program LRU bounds the parent's; evictions surface as
#: :class:`WorkerCacheMiss`, which the parent recovers from by re-shipping.
_WORKER_CACHE_ENTRIES = 1024


class WorkerCacheMiss(SolverError):
    """A worker no longer holds a program the parent believed warm.

    Raised worker-side (after an LRU eviction or an unexpected restart) and
    shipped back to the parent, which treats its warm-key bookkeeping as
    advisory: it re-dispatches the task with the program attached instead of
    failing the round.
    """

    def __init__(self, key):
        super().__init__(f"worker cache miss for program key {key!r}")
        self.key = key

    def __reduce__(self):
        return (WorkerCacheMiss, (self.key,))


class _WorkerProgramCache:
    """The worker's warm program store: a bounded LRU satisfying the
    ``get_or_compute`` protocol so it can be attached to a worker-side
    solver as its shared program cache (single-threaded per worker, so no
    locking)."""

    def __init__(self, max_entries: int | None = None):
        from collections import OrderedDict

        self._max_entries = max_entries or _WORKER_CACHE_ENTRIES
        self._programs: "OrderedDict" = OrderedDict()

    def get_or_compute(self, key, factory):
        program = self.get(key)
        if program is None:
            program = factory()
            self.put(key, program)
        return program

    def get(self, key):
        program = self._programs.get(key)
        if program is not None:
            self._programs.move_to_end(key)
        return program

    def put(self, key, program) -> None:
        self._programs[key] = program
        self._programs.move_to_end(key)
        while len(self._programs) > self._max_entries:
            self._programs.popitem(last=False)

    def __len__(self) -> int:
        return len(self._programs)


def _resolve_program(programs: _WorkerProgramCache, key, program):
    if program is not None:
        programs.put(key, program)
        return program
    cached = programs.get(key)
    if cached is None:
        raise WorkerCacheMiss(key)
    return cached


def _handle_warm(programs, sessions, task):
    _, _, key, program = task
    programs.put(key, program)
    return len(programs)


def _handle_register(programs, sessions, task):
    _, _, session_key, analyzer = task
    # The pickled analyzer dropped its shared caches at the process
    # boundary; wiring the worker's own cache in their place is what makes
    # warmed skeletons visible to analyze() solves.
    analyzer.solver.attach_program_cache(programs)
    sessions[session_key] = analyzer
    return True


def _handle_solve_batch(programs, sessions, task):
    """A batch of bound requests against one warm program — one task, one
    skeleton lookup, one vectorized kernel entry per (variant, sense) group
    (:meth:`repro.plan.program.BoundProgram.bound_batch`)."""
    _, _, key, program, requests = task
    program = _resolve_program(programs, key, program)
    get_tracer().annotate(cells=len(requests))
    results = program.bound_batch(list(requests))
    return [(result.lower, result.upper, result.closed) for result in results]


def _handle_probe_batch(programs, sessions, task):
    """Every AVG probe of one search round against one shard's program —
    the whole round's coefficient matrix solves in one kernel entry, and
    each probe answers its optimum and allocation sums."""
    _, _, key, program, attribute, probes = task
    program = _resolve_program(programs, key, program)
    get_tracer().annotate(cells=len(probes))
    return program.avg_probe_optima_batch(attribute, list(probes))


def _handle_decompose_batch(programs, sessions, task):
    """A batch of region-shard enumerations in one task.

    Each entry keeps its own ``pool.decompose`` child span tagged with its
    *global* shard position and cell count, so per-shard skew accounting
    stays cell-accurate after batching collapses the task count.
    """
    from ..core.cells import CellDecomposer

    _, _, _key, entries = task
    tracer = get_tracer()
    results = []
    total = 0
    for shard_position, pcset, region in entries:
        with tracer.span("pool.decompose"):
            decomposition = CellDecomposer(pcset).decompose(region)
            tracer.annotate(shard=shard_position,
                            cells=len(decomposition.cells))
        total += len(decomposition.cells)
        results.append(decomposition)
    tracer.annotate(cells=total, shards=len(entries))
    return results


def _handle_analyze_batch(programs, sessions, task):
    """A batch of same-program queries against one registered session."""
    _, _, session_key, program_key, program, queries = task
    if program is not None:
        programs.put(program_key, program)
    analyzer = sessions.get(session_key)
    if analyzer is None:
        raise SolverError(
            "worker has no registered session for an analyze task "
            "(the parent must register before dispatching)")
    get_tracer().annotate(cells=len(queries))
    return [analyzer.analyze(query) for query in queries]


_HANDLERS = {
    "warm": _handle_warm,
    "register": _handle_register,
    "solve_batch": _handle_solve_batch,
    "probe_batch": _handle_probe_batch,
    "decompose_batch": _handle_decompose_batch,
    "analyze_batch": _handle_analyze_batch,
}

#: Constant span names per task kind — instrumentation sites never build
#: names dynamically, so the tracing-disabled fast path allocates nothing.
_TASK_SPANS = {
    "warm": "pool.warm",
    "register": "pool.register",
    "solve_batch": "pool.solve_batch",
    "probe_batch": "pool.probe_batch",
    "decompose_batch": "pool.decompose_batch",
    "analyze_batch": "pool.analyze_batch",
}


def _worker_main(index: int, connection) -> None:
    """One worker process: loop over tasks, keep program/session state warm.

    The transport is one duplex pipe per worker — deliberately not a shared
    queue: a queue's cross-process lock can be stranded by a worker killed
    mid-``put``, deadlocking every sibling, whereas a pipe has exactly one
    reader and one writer per direction and dies with its worker.

    Task payloads are ``(kind, task_id, trace_context, control, *args)``
    and replies ``(task_id, ok, payload, spans)``: the third payload slot
    carries the coordinator's (trace_id, parent_span_id) — or None when it
    is not tracing — and the handler runs under a tracer capture whose
    finished spans travel back in the reply for re-parenting into the
    coordinator's trace.  A killed worker simply never replies, so its
    spans are lost but the coordinator's trace stays structurally intact
    (the re-dispatched task reports from the replacement worker).

    The fourth slot is the fault-injection control directive (see
    :mod:`repro.faults`) — None outside chaos runs.  The *coordinator*
    decides which dispatch a fault fires on (it owns the deterministic
    dispatch ordinal); the worker only executes the shipped directive:
    ``kill`` hard-exits before the handler runs, ``delay`` sleeps,
    ``fail`` raises, ``drop_reply`` computes but never answers.
    """
    global _IN_WORKER
    _IN_WORKER = True
    programs = _WorkerProgramCache()
    sessions: dict = {}
    tracer = get_tracer()
    while True:
        try:
            task = connection.recv()
        except (EOFError, OSError):  # pragma: no cover - parent died
            return
        if task is None:
            return
        kind, task_id, trace_context, control = (task[0], task[1], task[2],
                                                 task[3])
        task = (kind, task_id) + task[4:]
        capture = tracer.capture(_TASK_SPANS[kind], trace_context)
        try:
            drop_reply = apply_worker_fault(control)
            with capture:
                payload = _HANDLERS[kind](programs, sessions, task)
            if drop_reply:
                continue
            connection.send((task_id, True, payload, capture.export()))
        except BaseException as error:  # noqa: BLE001 - forwarded to parent
            try:
                connection.send((task_id, False, error, None))
            except Exception:  # unpicklable exception: ship a description
                try:
                    connection.send((task_id, False,
                                     SolverError(f"{type(error).__name__}: "
                                                 f"{error}"), None))
                except Exception:  # pragma: no cover - pipe gone
                    return


# --------------------------------------------------------------------- #
# Parent-side bookkeeping
# --------------------------------------------------------------------- #
@dataclass
class PoolStatistics:
    """What the pool has done so far (the warm-cache observables)."""

    rounds: int = 0
    tasks_dispatched: int = 0
    programs_shipped: int = 0
    warm_hits: int = 0
    sessions_shipped: int = 0
    #: Crash respawns only — a worker found dead mid-round.  Clean bounces
    #: via :meth:`WorkerPool.restart` count in :attr:`clean_restarts`, so a
    #: monitoring alert on crash loops never fires on deliberate restarts.
    worker_restarts: int = 0
    tasks_shipped: int = 0
    cells_solved: int = 0
    tasks_retried: int = 0
    tasks_quarantined: int = 0
    clean_restarts: int = 0
    breaker_trips: int = 0

    @property
    def warm_hit_rate(self) -> float:
        """Fraction of program-addressed tasks served by a warm worker cache."""
        addressed = self.programs_shipped + self.warm_hits
        if not addressed:
            return 0.0
        return self.warm_hits / addressed

    @property
    def cells_per_task(self) -> float:
        """The batching amortization ratio: solves carried per pool entry."""
        if not self.tasks_shipped:
            return 0.0
        return self.cells_solved / self.tasks_shipped

    def as_dict(self) -> dict[str, float]:
        return {
            "rounds": self.rounds,
            "tasks_dispatched": self.tasks_dispatched,
            "programs_shipped": self.programs_shipped,
            "warm_hits": self.warm_hits,
            "warm_hit_rate": self.warm_hit_rate,
            "sessions_shipped": self.sessions_shipped,
            "worker_restarts": self.worker_restarts,
            "tasks_shipped": self.tasks_shipped,
            "cells_solved": self.cells_solved,
            "cells_per_task": self.cells_per_task,
            "tasks_retried": self.tasks_retried,
            "tasks_quarantined": self.tasks_quarantined,
            "clean_restarts": self.clean_restarts,
            "breaker_trips": self.breaker_trips,
        }

    def snapshot(self) -> "PoolStatistics":
        return PoolStatistics(self.rounds, self.tasks_dispatched,
                              self.programs_shipped, self.warm_hits,
                              self.sessions_shipped, self.worker_restarts,
                              self.tasks_shipped, self.cells_solved,
                              self.tasks_retried, self.tasks_quarantined,
                              self.clean_restarts, self.breaker_trips)


#: Registry counter names, precomputed so publishing never formats strings.
_POOL_METRICS = {field: f"pool.{field}"
                 for field in ("rounds", "tasks_dispatched",
                               "programs_shipped", "warm_hits",
                               "sessions_shipped", "worker_restarts",
                               "tasks_shipped", "cells_solved",
                               "tasks_retried", "tasks_quarantined",
                               "clean_restarts", "breaker_trips")}


class _ProcessWorker:
    """One worker process plus its private duplex pipe and warm-state view."""

    def __init__(self, index: int, context):
        self.index = index
        self.connection, child_connection = context.Pipe(duplex=True)
        self.warm_keys: set = set()
        self.sessions: set = set()
        self.process = context.Process(
            target=_worker_main, args=(index, child_connection),
            daemon=True, name=f"repro-pool-worker-{index}")
        self.process.start()
        child_connection.close()  # the parent keeps only its own end

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self) -> None:
        try:
            self.connection.send(None)
        except Exception:  # pragma: no cover - pipe already broken
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=2.0)
        self.connection.close()


@dataclass
class _PendingTask:
    """Everything needed to re-dispatch a task if its worker dies."""

    position: int | tuple | None
    kind: str
    args: tuple
    worker_index: int
    attempts: int = 1


_MAX_TASK_ATTEMPTS = 3

#: Crash-retry budget: how many times a task may *kill its worker* before it
#: is quarantined as poison instead of re-dispatched.  Distinct from
#: :data:`_MAX_TASK_ATTEMPTS` (the cache-miss re-ship cap): a cache miss is
#: the worker saying "send that again", a dead worker is evidence the
#: payload itself may be lethal.
_DEFAULT_TASK_RETRIES = 2

#: Respawn-storm controls.  More than ``_STORM_THRESHOLD`` respawns inside
#: ``_STORM_WINDOW`` seconds starts jittered backoff before each further
#: respawn (forking into a crash loop at full speed just burns CPU the
#: sibling workers need); more than the breaker threshold trips the pool's
#: circuit breaker, which routes new entry points inline (serial, in the
#: caller's process — always sound) for the cool-down period.
_STORM_WINDOW = 5.0
_STORM_THRESHOLD = 3
_BREAKER_THRESHOLD = 6
_BREAKER_COOLDOWN = 30.0

#: Cap on tasks in flight to one worker.  Bounds the bytes buffered in each
#: pipe direction (tasks inbound, results outbound) well below the kernel's
#: socketpair buffer, which is what makes arbitrarily large rounds
#: deadlock-free — see :meth:`WorkerPool._run_round`.
_MAX_IN_FLIGHT_PER_WORKER = 16


class WorkerPool:
    """A long-lived pool of workers with warm program caches.

    Parameters
    ----------
    max_workers:
        Pool width (default ``min(8, cpu_count)``); ``1`` degrades to
        serial inline execution.
    mode:
        ``"serial"`` (default, inline) or ``"process"``.
    name:
        Label for diagnostics.

    A task that kills its worker :data:`_DEFAULT_TASK_RETRIES` times is
    quarantined as poison and failed with
    :class:`~repro.exceptions.PoisonTaskError`; its sibling tasks still
    complete first, so one poison payload fails only its own query.  More
    than :data:`_BREAKER_THRESHOLD` crash respawns within a 5-second window
    trip the circuit breaker, which routes new entry points inline (serial,
    in-process — slower but crash-immune) for :data:`_BREAKER_COOLDOWN`
    seconds.

    The pool also consults :func:`repro.faults.resolve_faults` at
    construction: a non-empty ``REPRO_FAULTS`` plan makes the coordinator
    ship fault directives with deterministically selected dispatches (the
    chaos-testing hook — see :mod:`repro.faults`).  A ``kind=`` selector
    naming no task kind of this pool raises
    :class:`~repro.exceptions.ReproError` here instead of never firing.

    The pool starts lazily on first use, restarts lazily after
    :meth:`shutdown`, and is safe to share across threads (process-mode
    dispatch rounds are serialised).
    """

    def __init__(self, max_workers: int | None = None, mode: str = "serial",
                 name: str = "worker-pool"):
        if mode not in POOL_MODES:
            raise SolverError(
                f"unknown pool mode {mode!r}; expected one of {POOL_MODES}")
        if max_workers is not None and max_workers <= 0:
            raise SolverError(
                f"max_workers must be positive, got {max_workers}")
        self._max_workers = max_workers or default_pool_workers()
        self._mode = "serial" if self._max_workers == 1 else mode
        self._name = name
        self._breaker_until = 0.0
        self._restart_times: deque = deque(maxlen=32)
        self._faults = resolve_faults()
        if self._faults is not None:
            self._faults.check_kinds(_HANDLERS)
        self._quarantined: list = []
        self._closing = False
        self._round_lock = threading.RLock()
        self._lifecycle_lock = threading.Lock()
        self._affinity_lock = threading.Lock()
        self._statistics_lock = threading.Lock()
        self._affinity: dict = {}
        self._assigned = [0] * self._max_workers
        self._workers: list[_ProcessWorker] | None = None
        self._session_objects: dict = {}
        self._task_ids = itertools.count()
        self._statistics = PoolStatistics()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self._name

    @property
    def mode(self) -> str:
        """The resolved mode (width 1 is always serial)."""
        return self._mode

    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def statistics(self) -> PoolStatistics:
        return self._statistics

    @property
    def fault_plan(self):
        """The active :class:`~repro.faults.FaultPlan`, or None (chaos
        tests assert against its firing state)."""
        return self._faults

    def _bump(self, field: str, amount: int = 1) -> None:
        """Advance one pool counter: the dataclass view (the historical
        surface callers snapshot/delta) and the shared registry together."""
        statistics = self._statistics
        setattr(statistics, field, getattr(statistics, field) + amount)
        get_registry().counter(_POOL_METRICS[field]).inc(amount)

    def _record_batch_traffic(self, tasks: int, cells: int) -> None:
        """Account one entry point's shipped-task vs solved-cell traffic —
        the ``pool.tasks_shipped`` / ``pool.cells_solved`` pair whose ratio
        is the batching amortization EXPLAIN ANALYZE reports."""
        with self._statistics_lock:
            self._bump("tasks_shipped", tasks)
            self._bump("cells_solved", cells)

    def alive_workers(self) -> int:
        """How many worker processes are currently alive (0 when not started
        or in serial mode, where there is nothing to strand)."""
        with self._round_lock:
            if self._workers is None:
                return 0
            return sum(1 for worker in self._workers if worker.alive)

    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes (for tests that kill one)."""
        with self._round_lock:
            if self._workers is None:
                return []
            return [worker.process.pid for worker in self._workers
                    if worker.alive and worker.process.pid is not None]

    def warm_keys_on(self, worker_index: int) -> frozenset:
        """The program keys the parent believes ``worker_index`` holds warm."""
        with self._round_lock:
            if self._workers is None:
                return frozenset()
            return frozenset(self._workers[worker_index].warm_keys)

    def worker_for(self, key) -> int:
        """The affinity worker for ``key``: balanced on first sight, sticky
        afterwards, so one worker's cache stays warm for its keys."""
        with self._affinity_lock:
            index = self._affinity.get(key)
            if index is None:
                index = min(range(self._max_workers),
                            key=lambda candidate: self._assigned[candidate])
                self._affinity[key] = index
                self._assigned[index] += 1
            return index

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Spin the workers up now (otherwise they start on first use)."""
        with self._round_lock:
            self._ensure_started()

    def shutdown(self) -> None:
        """Stop every worker; idempotent, and the pool restarts lazily on
        next use (so a service can bounce its pool without re-creating it).

        Safe against an in-flight round and against concurrent callers
        (double ``shutdown()``, the atexit reaper overlapping an explicit
        one): the ``_closing`` flag asks any running round to unwind at its
        next poll tick (≤ 0.25 s) rather than blocking on ``_round_lock``
        forever, and the worker handles are detached atomically
        under a separate lifecycle lock so exactly one caller tears each
        worker down.  If the round does not release the lock in time the
        teardown proceeds anyway — :meth:`_ProcessWorker.stop` joins with a
        timeout and then terminates, so a wedged worker cannot leak.
        """
        self._closing = True
        locked = self._round_lock.acquire(timeout=2.0)
        try:
            with self._lifecycle_lock:
                workers, self._workers = self._workers, None
        finally:
            if locked:
                self._round_lock.release()
            self._closing = False
        if workers is not None:
            for worker in workers:
                worker.stop()

    def restart(self) -> None:
        """Bounce the pool: fresh workers, cold caches, same sticky map —
        but *reset* load counters.

        The sticky map survives so a key keeps landing on the same index
        (re-warming is cheapest where the key always lived), but the
        cumulative assignment counters describe the dead incarnation's
        history, not the fresh workers' load: carrying them over would skew
        balanced-on-first-sight placement for every key seen after the
        bounce toward whichever workers happened to be idle *before* it.

        Counts in :attr:`PoolStatistics.clean_restarts`, not
        ``worker_restarts`` — crash monitoring must never page on a
        deliberate bounce.
        """
        self._bump("clean_restarts")
        self.shutdown()
        with self._affinity_lock:
            self._assigned = [0] * self._max_workers
        self.start()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    def _ensure_started(self) -> None:
        register_for_reaping(self)
        if self._mode == "process" and self._workers is None:
            context = multiprocessing.get_context()
            self._workers = [_ProcessWorker(index, context)
                             for index in range(self._max_workers)]

    # ------------------------------------------------------------------ #
    # Warm-up protocol
    # ------------------------------------------------------------------ #
    def register_session(self, session_key, analyzer) -> None:
        """Make ``analyzer`` available to workers under ``session_key``.

        Process mode ships the analyzer lazily — once per worker, and only
        to workers that actually receive this session's queries.  Serial
        mode shares the parent's memory, so registration is pure
        bookkeeping.

        The pool keeps one reference per session key (for re-registration
        after a worker restart); re-registering a key replaces it, so the
        footprint tracks the *live* session set — the same lifetime the
        service registry already keeps these analyzers alive for.  Worker
        memory is bounded separately by the per-worker program LRU; the
        parent's warm-key/affinity bookkeeping is a few machine words per
        distinct program key.
        """
        self._session_objects[session_key] = analyzer

    def warm(self, entries: Mapping) -> None:
        """Pre-ship compiled programs to their affinity workers.

        ``entries`` maps parent program-cache keys to compiled
        :class:`~repro.plan.BoundProgram` objects.  Keys a worker already
        holds are skipped, so warming is idempotent and cheap on repeat.
        """
        if self._mode != "process" or not entries:
            return
        requests = []
        with self._round_lock:
            self._ensure_started()
            for key, program in entries.items():
                worker = self._workers[self.worker_for(key)]
                if key in worker.warm_keys:
                    continue
                requests.append(("warm", key, (key, program), None))
            if requests:
                self._run_round(requests)

    # ------------------------------------------------------------------ #
    # Execution entry points
    # ------------------------------------------------------------------ #
    def solve_programs(self, keyed_programs: Sequence[tuple],
                       aggregate: AggregateFunction,
                       attribute: str | None = None,
                       known_sum: float = 0.0, known_count: float = 0.0
                       ) -> list[Endpoints]:
        """Bound ``aggregate(attribute)`` on every ``(key, program)`` pair,
        in order.

        Returns ``(lower, upper, closed)`` endpoint triples.  Every solve
        runs through the batched kernel as a one-request batch; process
        mode ships each as a ``solve_batch`` task to the key's affinity
        worker, with the program attached only if that worker does not
        hold it warm.
        """
        request = (aggregate, attribute, known_sum, known_count)
        self._record_batch_traffic(len(keyed_programs), len(keyed_programs))
        if self._inline() or len(keyed_programs) <= 1:
            tracer = get_tracer()
            results = []
            for position, (_key, program) in enumerate(keyed_programs):
                self._check_deadline(position, len(keyed_programs))
                with tracer.span("pool.solve"):
                    if len(keyed_programs) > 1:
                        tracer.annotate(shard=position)
                    results.append(_bound_endpoints(program, request))
            return results
        requests = [
            ("solve_batch", key, (key, program, (request,)), position)
            for position, (key, program) in enumerate(keyed_programs)]
        results = self._locked_round(requests)
        return [results[position][0]
                for position in range(len(keyed_programs))]

    def solve_programs_resilient(self, keyed_programs: Sequence[tuple],
                                 aggregate: AggregateFunction,
                                 attribute: str | None = None,
                                 known_sum: float = 0.0,
                                 known_count: float = 0.0
                                 ) -> tuple[dict, dict]:
        """:meth:`solve_programs`, but failure-tolerant per shard.

        Returns ``(endpoints, failures)``: ``endpoints`` maps shard
        positions to ``(lower, upper, closed)`` triples for every shard
        that solved, and ``failures`` maps each shard that did not to a
        reason string (``"deadline"``, ``"poison:<fingerprint>"``, or the
        worker's error).  Nothing is raised for per-shard failures — this
        is the entry point for ``degrade="worst-case"``, where the caller
        substitutes each failed shard's precomputed worst-case range and
        the merged result stays sound.
        """
        request = (aggregate, attribute, known_sum, known_count)
        self._record_batch_traffic(len(keyed_programs), len(keyed_programs))
        pairs = list(keyed_programs)
        if self._inline() or len(pairs) <= 1:
            deadline = current_deadline()
            tracer = get_tracer()
            endpoints: dict = {}
            failures: dict = {}
            for position, (_key, program) in enumerate(pairs):
                if deadline is not None and deadline.expired():
                    failures[position] = "deadline"
                    continue
                try:
                    with tracer.span("pool.solve"):
                        if len(pairs) > 1:
                            tracer.annotate(shard=position)
                        endpoints[position] = _bound_endpoints(program,
                                                               request)
                except SolverError as error:
                    failures[position] = f"{type(error).__name__}: {error}"
            return endpoints, failures
        requests = [
            ("solve_batch", key, (key, program, (request,)), position)
            for position, (key, program) in enumerate(pairs)]
        collected, failures = self._locked_round(requests, tolerate=True)
        return ({position: values[0]
                 for position, values in collected.items()}, failures)

    def _check_deadline(self, completed: int, total: int) -> None:
        """Raise :class:`~repro.exceptions.QueryDeadlineError` when the
        ambient query deadline has expired (inline execution paths check
        between items, so serial fan-outs cancel with the same granularity
        as pooled rounds)."""
        deadline = current_deadline()
        if deadline is not None and deadline.expired():
            raise QueryDeadlineError(
                f"query deadline of {deadline.seconds:.3f}s expired after "
                f"{deadline.elapsed():.3f}s with {completed} of {total} "
                f"inline tasks complete",
                deadline=deadline.seconds, elapsed=deadline.elapsed(),
                completed=completed, pending=total - completed)

    def avg_probes(self, keyed_programs: Sequence[tuple], attribute: str,
                   probes: Sequence[tuple]) -> list[list[tuple | None]]:
        """One round of AVG(``attribute``) probes against every shard
        program.

        ``probes`` is a sequence of ``(target, at_least, floor)`` triples
        (:meth:`repro.plan.program.BoundProgram.avg_probe_optima_batch`).
        Returns, per probe, the shard outcomes in shard order (each the
        optimum and the optimal allocation's exact ``Σ value·x`` and
        ``Σ x``): the ``probe_round`` that
        :func:`repro.plan.program.avg_endpoints` reduces.

        The whole round ships as **one task per shard** (the
        ``probe_batch`` kind): every probe's coefficient row solves against
        the shard's warm skeleton in one kernel entry.
        """
        keyed_programs = list(keyed_programs)
        probes = tuple(tuple(probe) for probe in probes)
        shards = len(keyed_programs)
        self._record_batch_traffic(shards, shards * len(probes))
        if self._inline() or shards <= 1:
            tracer = get_tracer()
            per_shard = []
            for position, (_key, program) in enumerate(keyed_programs):
                with tracer.span("pool.probe_batch"):
                    if shards > 1:
                        tracer.annotate(shard=position)
                    tracer.annotate(cells=len(probes))
                    per_shard.append(
                        program.avg_probe_optima_batch(attribute, probes))
        else:
            requests = [
                ("probe_batch", key, (key, program, attribute, probes),
                 position)
                for position, (key, program) in enumerate(keyed_programs)]
            results = self._locked_round(requests)
            per_shard = [results[position] for position in range(shards)]
        return [[per_shard[shard][index] for shard in range(shards)]
                for index in range(len(probes))]

    def decompose_shards(self, keyed_tasks: Sequence[tuple],
                         batch_size: int | None = None) -> list:
        """Enumerate every region shard's cells, in order.

        ``keyed_tasks`` entries are ``(key, pcset, region)`` — the key
        routes the task to its affinity worker (so a repeated sharded query
        keeps landing on the same workers), and the rest is the
        self-contained (exact) decomposition job.
        Returns one :class:`~repro.core.cells.CellDecomposition` per task;
        the caller unions them (:func:`repro.plan.sharding.
        merge_shard_decompositions`).

        Process mode ships ``decompose_batch`` tasks carrying up to
        ``batch_size`` enumerations each (adaptive from pool depth when the
        caller passes none).  Batches group *within* each affinity
        worker's share of the keys, so a batch never drags a shard away
        from the worker its key is pinned to, and per-shard skew spans stay
        cell-accurate; each batch's result list scatters back to the
        global shard order through its position tuple.
        """
        tasks = list(keyed_tasks)
        if self._inline() or len(tasks) <= 1:
            from ..core.cells import CellDecomposer

            self._record_batch_traffic(len(tasks), len(tasks))
            tracer = get_tracer()
            results = []
            for position, (_key, pcset, region) in enumerate(tasks):
                self._check_deadline(position, len(tasks))
                with tracer.span("pool.decompose"):
                    if len(tasks) > 1:
                        tracer.annotate(shard=position)
                    decomposition = CellDecomposer(pcset).decompose(region)
                    tracer.annotate(cells=len(decomposition.cells))
                results.append(decomposition)
            return results
        size = batch_size or adaptive_batch_size(len(tasks),
                                                 self._max_workers)
        groups: dict[int, list[tuple[int, tuple]]] = {}
        for position, task in enumerate(tasks):
            groups.setdefault(self.worker_for(task[0]), []).append(
                (position, tuple(task)))
        requests = []
        for _worker_index, members in sorted(groups.items()):
            for chunk in chunked(members, size):
                key = chunk[0][1][0]
                entries = tuple((position,) + task[1:]
                                for position, task in chunk)
                positions = tuple(position for position, _ in chunk)
                requests.append(("decompose_batch", key, (key, entries),
                                 positions))
        self._record_batch_traffic(len(requests), len(tasks))
        return self._scatter(self._locked_round(requests), len(tasks))

    def analyze(self, session_key, analyzer,
                keyed_queries: Sequence[tuple]) -> list:
        """Answer ``(program_key, program, query)`` entries, in order.

        Serial mode runs ``analyzer.analyze`` directly (shared memory).
        Process mode registers the analyzer on each involved worker once and
        routes by program key so repeated traffic hits warm caches.  Queries
        group by program key and ship as ``analyze_batch`` tasks of adaptive
        width, the first entry's program riding along for the cold-cache
        case.
        """
        self.register_session(session_key, analyzer)
        entries = list(keyed_queries)
        if self._inline() or len(entries) <= 1:
            self._record_batch_traffic(len(entries), len(entries))
            return [analyzer.analyze(query) for _, _, query in entries]
        size = adaptive_batch_size(len(entries), self._max_workers)
        groups: dict[object, list[tuple]] = {}
        for position, (program_key, program, query) in enumerate(entries):
            groups.setdefault(program_key, []).append((position, program, query))
        requests = []
        for program_key, members in groups.items():
            for chunk in chunked(members, size):
                program = next((candidate for _, candidate, _ in chunk
                                if candidate is not None), None)
                queries = tuple(query for _, _, query in chunk)
                positions = tuple(position for position, _, _ in chunk)
                requests.append(
                    ("analyze_batch", program_key,
                     (session_key, program_key, program, queries),
                     positions))
        self._record_batch_traffic(len(requests), len(entries))
        return self._scatter(self._locked_round(requests), len(entries))

    @staticmethod
    def _scatter(collected: dict, count: int) -> list:
        """Flatten a batched round's results back into input order: each
        collected entry pairs a request's position tuple with its results."""
        results: list = [None] * count
        for positions, values in collected.items():
            for position, value in zip(positions, values):
                results[position] = value
        return results

    # ------------------------------------------------------------------ #
    # Inline routing
    # ------------------------------------------------------------------ #
    def _inline(self) -> bool:
        if self._mode == "serial" or in_worker():
            return True
        # A tripped circuit breaker routes new entry points inline: the
        # caller's process computes the same results serially, immune to
        # whatever is crash-looping the workers.
        return time.monotonic() < self._breaker_until

    # ------------------------------------------------------------------ #
    # Process-mode dispatch/collect with restart-on-death
    # ------------------------------------------------------------------ #
    def _locked_round(self, requests: list, tolerate: bool = False):
        with self._round_lock:
            self._ensure_started()
            return self._run_round(requests, tolerate=tolerate)

    def _run_round(self, requests: list, tolerate: bool = False):
        """Dispatch one round of tasks and collect every result.

        Must run under ``_round_lock``: one dispatcher/collector at a time.
        Dead workers are respawned and their in-flight tasks re-dispatched
        (with programs re-shipped and sessions re-registered — the
        respawned worker is cold); a worker's death can never strand the
        round, because each worker has its own pipe and a broken pipe is a
        detectable event, not a shared lock left behind.

        Each task queues on its key's affinity worker, where the worker's
        warm cache and registered sessions live.  Dispatch and collection
        interleave: at most :data:`_MAX_IN_FLIGHT_PER_WORKER` tasks are
        outstanding per worker, so the bytes buffered in any pipe
        direction stay bounded.  Sending a whole large round up-front
        would deadlock — the worker blocks sending results into a full
        outbound buffer and stops receiving, then the parent blocks
        sending into the worker's full inbound buffer, and both sides are
        alive so no recovery ever fires.

        Failure semantics.  The ambient query deadline is checked every
        loop tick: on expiry the round stops dispatching and abandons
        whatever is in flight (late replies land in a later round's recv
        and are dropped as stale).  A task whose crash-retry budget is
        exhausted is *quarantined* — not re-dispatched — and its siblings
        drain before :class:`~repro.exceptions.PoisonTaskError` is raised,
        so one poison payload fails exactly one round.  With
        ``tolerate=True`` neither condition raises; the round returns
        ``(collected, failures)`` where ``failures`` maps positions to
        reason strings — the degraded-execution entry points substitute
        sound worst-case ranges for those positions.
        """
        self._bump("rounds")
        deadline = current_deadline()
        self._quarantined = []
        failures: dict = {}
        pending: dict[int, _PendingTask] = {}
        backlogs: dict[int, deque] = {}
        for kind, key, args, position in requests:
            backlogs.setdefault(self.worker_for(key), deque()).append(
                (kind, args, position))
        collected: dict = {}
        while pending or any(backlogs.values()):
            if self._closing:
                raise SolverError(
                    "worker pool shut down while a round was in flight")
            if deadline is not None and deadline.expired():
                abandoned = len(pending) + sum(len(backlog) for backlog
                                               in backlogs.values())
                get_tracer().annotate(deadline_abandoned=abandoned)
                if tolerate:
                    for task in pending.values():
                        if task.position is not None:
                            failures.setdefault(task.position, "deadline")
                    for backlog in backlogs.values():
                        for _kind, _args, position in backlog:
                            if position is not None:
                                failures.setdefault(position, "deadline")
                    pending.clear()
                    backlogs.clear()
                    break
                raise QueryDeadlineError(
                    f"query deadline of {deadline.seconds:.3f}s expired "
                    f"after {deadline.elapsed():.3f}s with "
                    f"{len(collected)} of {len(requests)} tasks complete "
                    f"({abandoned} abandoned)",
                    deadline=deadline.seconds,
                    elapsed=deadline.elapsed(),
                    completed=len(collected), pending=abandoned)
            self._feed_backlogs(backlogs, pending)
            if not pending:
                continue
            connections = {}
            for task in pending.values():
                worker = self._workers[task.worker_index]
                connections[worker.connection] = task.worker_index
            ready = multiprocessing.connection.wait(list(connections),
                                                    timeout=0.25)
            if not ready:
                self._recover(pending)
                continue
            for connection in ready:
                worker_index = connections[connection]
                try:
                    task_id, ok, payload, spans = connection.recv()
                except (EOFError, OSError):
                    self._respawn(worker_index, pending)
                    continue
                task = pending.pop(task_id, None)
                if task is None:
                    continue  # stale result from an abandoned round
                if not ok:
                    if (isinstance(payload, WorkerCacheMiss)
                            and self._retry_cache_miss(task, pending)):
                        continue
                    if tolerate and task.position is not None:
                        failures[task.position] = (
                            f"{type(payload).__name__}: {payload}")
                        continue
                    raise payload if isinstance(payload, BaseException) \
                        else SolverError(str(payload))
                self._adopt_spans(task, worker_index, spans)
                if task.position is not None:
                    collected[task.position] = payload
        quarantined, self._quarantined = self._quarantined, []
        if quarantined:
            for task, fingerprint in quarantined:
                self._bump("tasks_quarantined")
                if task.position is not None:
                    failures[task.position] = f"poison:{fingerprint}"
            if not tolerate:
                task, fingerprint = quarantined[0]
                raise PoisonTaskError(
                    f"{task.kind!r} task (payload fingerprint {fingerprint}) "
                    f"killed its worker {task.attempts} times and was "
                    f"quarantined; {len(collected)} sibling tasks completed",
                    kind=task.kind, fingerprint=fingerprint,
                    attempts=task.attempts)
        if tolerate:
            return collected, failures
        return collected

    def _adopt_spans(self, task: _PendingTask, worker_index: int,
                     spans) -> None:
        """Splice a reply's worker spans into the coordinator's trace.

        The adopted subtree's root is tagged with the worker that ran the
        task and — for the per-shard task kinds — the shard position, which
        is what :meth:`repro.obs.profile.QueryProfile.shard_skew` reads."""
        if not spans:
            return
        root = get_tracer().adopt(spans)
        if root is None:
            return
        root.attributes.setdefault("worker", worker_index)
        if task.attempts > 1:
            # Crash-retried (or re-shipped) work is visible per task in
            # EXPLAIN ANALYZE, not just in the aggregate counters.
            root.attributes.setdefault("attempts", task.attempts)
        if task.position is not None and task.kind in ("solve_batch",
                                                       "probe_batch"):
            root.attributes.setdefault("shard", task.position)

    def _feed_backlogs(self, backlogs: dict, pending: dict) -> None:
        """Top each worker up to the in-flight cap from its own backlog, in
        affinity order."""
        outstanding: dict[int, int] = {}
        for task in pending.values():
            outstanding[task.worker_index] = \
                outstanding.get(task.worker_index, 0) + 1
        for worker_index, backlog in backlogs.items():
            while (backlog and outstanding.get(worker_index, 0)
                   < _MAX_IN_FLIGHT_PER_WORKER):
                kind, args, position = backlog.popleft()
                self._dispatch(kind, args, position, pending,
                               worker_index=worker_index)
                outstanding[worker_index] = \
                    outstanding.get(worker_index, 0) + 1

    def _retry_cache_miss(self, task: _PendingTask, pending: dict) -> bool:
        """Re-dispatch a task whose worker evicted (or lost) its program.

        Warm-key bookkeeping is advisory: the worker's LRU may have evicted
        an entry the parent still lists as warm.  When the original request
        carried the program, drop the stale warm mark and re-send with the
        program attached; returns False (caller raises) when there is
        nothing to re-ship or the task keeps failing.
        """
        if task.kind not in ("solve_batch", "probe_batch"):
            return False
        key, program = task.args[0], task.args[1]
        if program is None or task.attempts >= _MAX_TASK_ATTEMPTS:
            return False
        self._workers[task.worker_index].warm_keys.discard(key)
        self._dispatch(task.kind, task.args, task.position, pending,
                       worker_index=task.worker_index,
                       attempts=task.attempts + 1)
        return True

    def _fault_directive(self, worker_index: int, kind: str,
                         position) -> tuple | None:
        """Consult the fault plan for one dispatch (None without a plan).

        Batch positions are tuples; the plan's ``shard`` selector matches
        their first (global) position, so shard numbering stays the same
        whether a batch carries one shard or several.
        """
        if self._faults is None:
            return None
        if isinstance(position, tuple):
            position = position[0] if position else -1
        elif position is None:
            position = -1
        return self._faults.on_dispatch(worker_index, kind, position)

    def _dispatch(self, kind: str, args: tuple,
                  position: int | tuple | None, pending: dict,
                  worker_index: int, attempts: int = 1) -> None:
        if self._workers is None:
            raise SolverError("worker pool is shut down")
        worker = self._workers[worker_index]
        if not worker.alive:
            worker = self._respawn(worker_index, pending)
        if kind == "analyze_batch":
            session_key = args[0]
            if session_key not in worker.sessions:
                self._dispatch("register", (session_key,
                                            self._session_objects[session_key]),
                               None, pending, worker_index)
                worker = self._workers[worker_index]
        task_id = next(self._task_ids)
        payload = self._build_payload(kind, task_id, worker, args)
        # Trace context rides in slot 2 of every payload, the fault
        # directive in slot 3; None (the common untraced / unfaulted case)
        # tells the worker to skip the respective machinery entirely.
        payload = (payload[0], payload[1], get_tracer().context(),
                   self._fault_directive(worker_index, kind,
                                         position)) + payload[2:]
        pending[task_id] = _PendingTask(position=position, kind=kind,
                                       args=args, worker_index=worker_index,
                                       attempts=attempts)
        try:
            worker.connection.send(payload)
        except (BrokenPipeError, OSError):
            # The worker died under us; respawn re-dispatches everything
            # pending on it, including the entry just recorded.
            self._respawn(worker_index, pending)
            return
        self._bump("tasks_dispatched")

    def _build_payload(self, kind: str, task_id: int,
                       worker: _ProcessWorker, args: tuple) -> tuple:
        if kind == "register":
            session_key, analyzer = args
            worker.sessions.add(session_key)
            self._bump("sessions_shipped")
            return ("register", task_id, session_key, analyzer)
        if kind == "warm":
            key, program = args
            worker.warm_keys.add(key)
            self._bump("programs_shipped")
            return ("warm", task_id, key, program)
        if kind == "solve_batch":
            key, program, batch_requests = args
            shipped = self._maybe_ship(worker, key, program)
            return ("solve_batch", task_id, key, shipped, batch_requests)
        if kind == "probe_batch":
            key, program, attribute, probe_tuple = args
            shipped = self._maybe_ship(worker, key, program)
            return ("probe_batch", task_id, key, shipped, attribute,
                    probe_tuple)
        if kind == "decompose_batch":
            # Self-contained: no program shipping or warm bookkeeping.
            return (kind, task_id) + args
        assert kind == "analyze_batch"
        session_key, program_key, program, queries = args
        shipped = self._maybe_ship(worker, program_key, program)
        return ("analyze_batch", task_id, session_key, program_key,
                shipped, queries)

    def _maybe_ship(self, worker: _ProcessWorker, key, program):
        """Ship ``program`` only if ``worker`` does not hold ``key`` warm."""
        if key in worker.warm_keys:
            self._bump("warm_hits")
            return None
        worker.warm_keys.add(key)
        self._bump("programs_shipped")
        return program

    def _recover(self, pending: dict) -> None:
        """Respawn dead workers and re-dispatch their in-flight tasks."""
        dead = sorted({task.worker_index for task in pending.values()
                       if not self._workers[task.worker_index].alive})
        for worker_index in dead:
            self._respawn(worker_index, pending)

    @staticmethod
    def _task_fingerprint(task: _PendingTask) -> str:
        """A stable short hash of a task's identity (kind, routing key,
        position) — what the quarantine message carries so a recurring
        poison payload is recognisable across incidents without shipping
        the payload itself into logs."""
        key = task.args[0] if task.args else None
        token = f"{task.kind}:{key!r}:{task.position!r}"
        return hashlib.blake2b(token.encode(), digest_size=6).hexdigest()

    def _note_respawn_storm(self) -> None:
        """Storm accounting before a respawn: jittered backoff once
        respawns come faster than ``_STORM_THRESHOLD`` per window (forking
        into a crash loop at full speed starves the surviving workers),
        and the circuit breaker past ``_BREAKER_THRESHOLD`` (subsequent
        entry points run inline until the cool-down expires).  The jitter
        is seeded from the restart counter, so chaos runs stay
        reproducible.
        """
        now = time.monotonic()
        recent = sum(1 for stamp in self._restart_times
                     if now - stamp < _STORM_WINDOW) + 1
        self._restart_times.append(now)
        if recent >= _BREAKER_THRESHOLD and now >= self._breaker_until:
            self._breaker_until = now + _BREAKER_COOLDOWN
            self._bump("breaker_trips")
        if recent >= _STORM_THRESHOLD:
            rng = random.Random(self._statistics.worker_restarts)
            delay = min(0.4, 0.05 * (2 ** (recent - _STORM_THRESHOLD)))
            time.sleep(delay * (0.75 + 0.5 * rng.random()))

    def _respawn(self, worker_index: int, pending: dict) -> _ProcessWorker:
        if self._workers is None:
            raise SolverError("worker pool is shut down")
        self._bump("worker_restarts")
        self._note_respawn_storm()
        old = self._workers[worker_index]
        try:
            old.process.join(timeout=0.5)
            old.connection.close()
        except Exception:  # pragma: no cover - pipe already broken
            pass
        context = multiprocessing.get_context()
        self._workers[worker_index] = _ProcessWorker(worker_index, context)
        # Re-dispatch everything that was queued on the dead worker, in the
        # original order (task ids are monotone).  The fresh worker is cold:
        # _build_payload re-ships programs and the analyze path re-registers
        # sessions because the new warm/session sets start empty.
        stale = sorted((task_id, task) for task_id, task in pending.items()
                       if task.worker_index == worker_index)
        for task_id, task in stale:
            pending.pop(task_id, None)
        for _, task in stale:
            if task.kind == "register":
                continue  # re-registration happens on demand
            if task.attempts >= _DEFAULT_TASK_RETRIES:
                # Poison: this payload has now killed a worker on every
                # dispatch in its budget.  Quarantine it (no re-dispatch)
                # and let the round drain its siblings before raising —
                # raising here would abandon every other stale task
                # mid-loop, failing work that would have succeeded.
                self._quarantined.append((task,
                                          self._task_fingerprint(task)))
                continue
            self._bump("tasks_retried")
            self._dispatch(task.kind, task.args, task.position, pending,
                           worker_index=worker_index,
                           attempts=task.attempts + 1)
        return self._workers[worker_index]

    def __repr__(self) -> str:
        return (f"WorkerPool({self._name!r}, mode={self._mode!r}, "
                f"workers={self._max_workers}, alive={self.alive_workers()})")


# --------------------------------------------------------------------- #
# The shared-pool registry (the CLI / bare-solver borrow point)
# --------------------------------------------------------------------- #
_shared_lock = threading.Lock()
_shared_pools: dict[int, WorkerPool] = {}


def shared_pool(max_workers: int | None = None) -> WorkerPool:
    """A process-global long-lived process pool for callers without a
    service.

    Bare :class:`~repro.core.bounds.PCBoundSolver` instances (and therefore
    the CLI ``bound --workers`` path) borrow from here, so repeated sharded
    solves amortise worker start-up exactly like service traffic does.
    Pools are keyed by width (width 1 is the inline pool) and reaped atexit.
    """
    workers = max_workers or default_pool_workers()
    with _shared_lock:
        pool = _shared_pools.get(workers)
        if pool is None:
            pool = WorkerPool(max_workers=workers, mode="process",
                              name=f"shared-{workers}")
            _shared_pools[workers] = pool
        return pool


def shutdown_shared_pools() -> None:
    """Tear down every shared pool (tests; atexit covers normal exits)."""
    with _shared_lock:
        for pool in _shared_pools.values():
            pool.shutdown()
        _shared_pools.clear()
