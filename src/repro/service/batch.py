"""Concurrent execution of contingency-query batches.

Production traffic arrives as batches — a dashboard refresh fires dozens of
aggregate queries against the same constraint session at once.  Queries
are independent, so they fan out over a worker pool.  The pool is
**persistent** (:class:`~repro.parallel.pool.WorkerPool`): the executor
borrows the service's pool (or lazily owns one) instead of spinning a fresh
executor per batch, so process workers keep warm program caches across
batches — the first batch ships compiled skeletons and registers the
session on each worker, every later batch ships only keys and queries.

Inline, each query compiles its program on demand inside ``analyze``, and
only when the range tier misses; queries sharing a (region, attribute)
pair share one cached program, and pairs sharing a region share one
decomposition.  A process batch compiles each query's program in the
caller's process, because it ships the program to its worker.

Results come back in input order, each paired with the same
:class:`~repro.core.engine.ContingencyReport` a sequential
:meth:`PCAnalyzer.analyze` call would produce, plus batch-level statistics
(including the pool's warm-cache traffic for the batch).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.engine import ContingencyQuery, ContingencyReport, PCAnalyzer
from ..core.predicates import Predicate
from ..exceptions import SolverError
from ..obs.metrics import timed
from ..obs.trace import get_tracer
from ..parallel.pool import (
    POOL_MODES,
    WorkerPool,
    default_pool_workers,
    pool_for_backend,
)
from .registry import session_fingerprint

__all__ = ["BatchStatistics", "BatchResult", "BatchExecutor"]


@dataclass
class BatchStatistics:
    """What one batch execution cost."""

    total_queries: int = 0
    region_groups: int = 0
    program_groups: int = 0
    max_workers: int = 0
    executor_mode: str = "serial"
    warm_seconds: float = 0.0
    execute_seconds: float = 0.0
    group_sizes: dict[str, int] = field(default_factory=dict)
    pool_statistics: dict[str, float] | None = None

    @property
    def wall_seconds(self) -> float:
        return self.warm_seconds + self.execute_seconds

    def as_dict(self) -> dict[str, object]:
        return {
            "total_queries": self.total_queries,
            "region_groups": self.region_groups,
            "program_groups": self.program_groups,
            "max_workers": self.max_workers,
            "executor_mode": self.executor_mode,
            "warm_seconds": self.warm_seconds,
            "execute_seconds": self.execute_seconds,
            "wall_seconds": self.wall_seconds,
            "group_sizes": dict(self.group_sizes),
            "pool_statistics": (None if self.pool_statistics is None
                                else dict(self.pool_statistics)),
        }

    def summary(self) -> str:
        return (f"{self.total_queries} queries in {self.region_groups} region "
                f"group(s) over {self.max_workers} worker(s): "
                f"warm {self.warm_seconds * 1000:.1f} ms + "
                f"execute {self.execute_seconds * 1000:.1f} ms")


@dataclass
class BatchResult:
    """Per-query reports (input order) plus batch statistics."""

    reports: list[ContingencyReport]
    statistics: BatchStatistics

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    def summary(self) -> str:
        lines = [self.statistics.summary()]
        lines.extend(f"  {report.summary()}" for report in self.reports)
        return "\n".join(lines)


class BatchExecutor:
    """Runs query batches against an analyzer, concurrently and region-grouped.

    Parameters
    ----------
    max_workers:
        Pool width (default: ``min(8, cpu_count)``).  ``1`` degrades
        gracefully to sequential execution.
    mode:
        The pool flavour (``"serial"``, inline, by default; ``"process"``
        for the warm persistent-pool path).  A process batch compiles and
        ships its programs first, in the caller's process, and reports
        that time as ``warm_seconds`` (the ``batch.warm`` span); an inline
        batch reports 0.
    pool:
        A long-lived :class:`~repro.parallel.pool.WorkerPool` to borrow
        (the service passes its own).  When omitted the executor lazily
        creates and owns one with ``(max_workers, mode)`` — still
        persistent across its batches — and tears it down in
        :meth:`close` / on interpreter exit.
    """

    def __init__(self, max_workers: int | None = None, mode: str = "serial",
                 pool: WorkerPool | None = None):
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        if mode not in POOL_MODES:
            raise SolverError(
                f"unknown pool mode {mode!r}; expected one of {POOL_MODES}")
        self._max_workers = max_workers or default_pool_workers()
        self._mode = mode
        self._pool = pool
        self._owns_pool = pool is None
        self._own_pool: WorkerPool | None = None

    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def pool(self) -> WorkerPool | None:
        """The pool batches currently borrow (None until first use)."""
        return self._pool if self._pool is not None else self._own_pool

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down pools this executor owns (idempotent).  Borrowed pools
        belong to their owner (the service) and are left running."""
        if self._owns_pool and self._own_pool is not None:
            self._own_pool.shutdown()
            self._own_pool = None

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _borrowed_pool(self) -> WorkerPool:
        if self._pool is not None:
            return self._pool
        if self._own_pool is None:
            self._own_pool = WorkerPool(max_workers=self._max_workers,
                                        mode=self._mode, name="batch")
        return self._own_pool

    # ------------------------------------------------------------------ #
    # Grouping
    # ------------------------------------------------------------------ #
    def group_by_region(self, queries: list[ContingencyQuery]
                        ) -> dict[Predicate | None, list[int]]:
        """Input positions grouped by (content-equal) query region."""
        groups: dict[Predicate | None, list[int]] = {}
        for position, query in enumerate(queries):
            groups.setdefault(query.region, []).append(position)
        return groups

    def group_by_program(self, queries: list[ContingencyQuery]
                         ) -> dict[tuple[Predicate | None, str | None], list[int]]:
        """Input positions grouped by compiled-program identity.

        A bound program is keyed by (region, aggregated attribute) — one
        program answers every aggregate over the pair, so COUNT/SUM/AVG/...
        queries over the same region and attribute share one compilation.
        """
        groups: dict[tuple[Predicate | None, str | None], list[int]] = {}
        for position, query in enumerate(queries):
            groups.setdefault((query.region, query.attribute), []).append(position)
        return groups

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(self, analyzer: PCAnalyzer,
                queries: list[ContingencyQuery],
                session_key: str | None = None) -> BatchResult:
        """Answer every query; reports come back in input order.

        ``session_key`` identifies the analyzer on pool workers (the
        service passes its session fingerprint); omitted, a content
        fingerprint is derived so direct executor use still gets warm
        worker routing.
        """
        statistics = BatchStatistics(total_queries=len(queries),
                                     max_workers=self._max_workers,
                                     executor_mode=self._mode)
        if not queries:
            return BatchResult([], statistics)

        groups = self.group_by_region(queries)
        statistics.region_groups = len(groups)
        statistics.group_sizes = {
            "TRUE" if region is None else repr(region): len(positions)
            for region, positions in groups.items()
        }
        statistics.program_groups = len(self.group_by_program(queries))

        # Serial mode answers inline, compiling on demand.  Process mode
        # registers the session on each involved worker once, pre-ships
        # the compiled skeletons to their affinity workers, and from then
        # on ships only keys.  Backends that are not process-safe run
        # inline.
        tracer = get_tracer()
        pool = pool_for_backend(self._borrowed_pool(),
                                analyzer.options.milp_backend)
        statistics.executor_mode = pool.mode
        before = pool.statistics.snapshot()
        if pool.mode == "process":
            with timed("batch.warm_seconds") as warm_timer, \
                    tracer.span("batch.warm"):
                solver = analyzer.solver
                entries = {}
                keyed_queries = []
                for query in queries:
                    program_key = solver.program_key(query.region,
                                                     query.attribute)
                    program = solver.program(query.region, query.attribute)
                    entries[program_key] = program
                    keyed_queries.append((program_key, program, query))
                tracer.annotate(programs=len(entries))
                pool.warm(entries)
            statistics.warm_seconds = warm_timer.seconds
            key = session_key or session_fingerprint(
                analyzer.pcset, analyzer.observed, analyzer.options)
        else:
            key = session_key or "batch"
            keyed_queries = [(None, None, query) for query in queries]
        with timed("batch.execute_seconds") as execute_timer, \
                tracer.span("batch.execute"):
            tracer.annotate(queries=len(queries), mode=pool.mode)
            reports = pool.analyze(key, analyzer, keyed_queries)
        statistics.execute_seconds = execute_timer.seconds
        after = pool.statistics.snapshot()
        # Pool traffic attributed to this batch as a before/after delta of
        # the (shared) pool's counters.  Exact for the common sequential
        # case; when batches overlap on one service the deltas apportion the
        # pool's combined traffic across the overlapping batches — an
        # observability caveat, never a correctness one.
        statistics.pool_statistics = {
            name: after.as_dict()[name] - before.as_dict()[name]
            for name in ("tasks_dispatched", "programs_shipped", "warm_hits",
                         "sessions_shipped", "worker_restarts",
                         "tasks_shipped", "cells_solved")
        }
        return BatchResult(reports, statistics)
