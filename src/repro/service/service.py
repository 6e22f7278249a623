"""The contingency-analysis service facade.

:class:`ContingencyService` is the deployment-shaped entry point the ROADMAP
asks for: register constraint sets once, then answer single queries and
concurrent batches against them with all the amortisation machinery wired
together —

* a **decomposition cache** (shared LRU) so any two queries over equal
  constraint sets and regions pay for one cell enumeration total,
* a **program cache** (shared LRU) holding compiled
  :class:`~repro.plan.BoundProgram` objects, so warm queries skip plan
  optimization, profile extraction and MILP skeleton construction and only
  patch parameters into an existing program,
* a **range cache** holding each range over the missing rows under its
  compiled program's key (and, for AVG, the observed sum and count), so a
  report miss over a known query shape (after an append, or in another
  session over the same constraints and options) costs one observed scan
  and no solve,
* an in-memory **report cache** so a byte-identical repeated query is
  answered without touching the solver at all,
* a **session registry** with content-fingerprint deduplication and
  versioning,
* a **batch executor** that groups queries by region and runs them on the
  service's worker pool (inline by default, process workers on request).

Usage::

    service = ContingencyService()
    service.register("sales-outage", pcset, observed=sales)
    report = service.analyze("sales-outage", ContingencyQuery.sum("price"))
    batch = service.execute_batch("sales-outage", queries)
    print(service.statistics().summary())
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from ..core.bounds import BoundOptions
from ..core.engine import ContingencyQuery, ContingencyReport, PCAnalyzer
from ..core.pcset import PredicateConstraintSet
from ..exceptions import QueryDeadlineError, ReproError
from ..faults import query_deadline_scope
from ..obs.metrics import get_registry
from ..obs.profile import QueryProfile
from ..obs.trace import Trace, get_tracer
from ..parallel.pool import WorkerPool, default_pool_mode
from ..relational.relation import Relation
from ..solvers.registry import resolve_backend
from .admission import AdmissionController, QueryCost, price_query
from .batch import BatchExecutor, BatchResult
from .cache import CacheStatistics, LRUCache
from .fingerprint import fingerprint_query
from .registry import RegisteredSession, SessionRegistry
from .store import PersistentStore, default_cache_dir

__all__ = ["ServiceStatistics", "ContingencyService"]

#: Capacity of the shared decomposition LRU (each entry is one
#: region-specific cell decomposition, with its cells).  One program per
#: region serves every aggregate and attribute, so an entry is read again
#: only when the region compiles once more: for a second backend (the
#: cross-backend verifier) or after the program LRU evicted its program.  A
#: few recent regions are all it needs; an evicted entry is still read back
#: from an attached store.
DECOMPOSITION_CACHE_ENTRIES = 16

#: Marks a region whose delta mask an append has not evaluated yet.
_UNTESTED = object()


@dataclass
class ServiceStatistics:
    """A snapshot of the service's cumulative behaviour (the ``delta_*``
    counters: see :meth:`ContingencyService.append_rows`)."""

    decomposition_cache: CacheStatistics
    program_cache: CacheStatistics
    report_cache: CacheStatistics
    range_cache: CacheStatistics
    queries_answered: int
    batches_executed: int
    sessions_registered: int
    decompositions_computed: int
    decomposition_solver_calls: int
    programs_compiled: int
    #: Queries that raised QueryDeadlineError.
    deadline_exceeded: int = 0
    #: Queries answered with at least one worst-case-degraded shard.
    degraded: int = 0
    worker_pool: dict[str, float] | None = None
    admission: dict[str, float] | None = None
    #: Persistent-store traffic (None when no cache_dir is configured).
    store: dict[str, int] | None = None
    #: Report-cache entries kept live across appends (re-keyed, or merged
    #: from the delta) vs. dropped (an AVG or a degraded report whose
    #: region gained rows).
    delta_migrations: int = 0
    delta_invalidations: int = 0
    #: The migrated COUNT, SUM, MIN and MAX reports whose region gained
    #: rows.
    delta_merges: int = 0

    def as_dict(self) -> dict[str, object]:
        return {
            "decomposition_cache": self.decomposition_cache.as_dict(),
            "program_cache": self.program_cache.as_dict(),
            "report_cache": self.report_cache.as_dict(),
            "range_cache": self.range_cache.as_dict(),
            "queries_answered": self.queries_answered,
            "batches_executed": self.batches_executed,
            "sessions_registered": self.sessions_registered,
            "decompositions_computed": self.decompositions_computed,
            "decomposition_solver_calls": self.decomposition_solver_calls,
            "programs_compiled": self.programs_compiled,
            "deadline_exceeded": self.deadline_exceeded,
            "degraded": self.degraded,
            "worker_pool": (None if self.worker_pool is None
                            else dict(self.worker_pool)),
            "admission": (None if self.admission is None
                          else dict(self.admission)),
            "store": (None if self.store is None else dict(self.store)),
            "delta_migrations": self.delta_migrations,
            "delta_merges": self.delta_merges,
            "delta_invalidations": self.delta_invalidations,
        }

    def summary(self) -> str:
        decomposition = self.decomposition_cache
        program = self.program_cache
        report = self.report_cache
        ranges = self.range_cache
        lines = [
            f"queries answered       : {self.queries_answered} "
            f"({self.batches_executed} batch(es), "
            f"{self.sessions_registered} session(s))",
            f"decomposition cache    : {decomposition.hits} hit(s) / "
            f"{decomposition.misses} miss(es) / "
            f"{decomposition.evictions} eviction(s) "
            f"(hit rate {decomposition.hit_rate:.1%})",
            f"program cache          : {program.hits} hit(s) / "
            f"{program.misses} miss(es) / {program.evictions} eviction(s) "
            f"(hit rate {program.hit_rate:.1%})",
            f"report cache           : {report.hits} hit(s) / "
            f"{report.misses} miss(es) / {report.evictions} eviction(s) "
            f"(hit rate {report.hit_rate:.1%})",
            f"range cache            : {ranges.hits} hit(s) / "
            f"{ranges.misses} miss(es) / {ranges.evictions} eviction(s) "
            f"(hit rate {ranges.hit_rate:.1%})",
            f"decompositions computed: {self.decompositions_computed} "
            f"({self.decomposition_solver_calls} satisfiability call(s), "
            f"{self.programs_compiled} program(s) compiled)",
            f"fault tolerance        : {self.deadline_exceeded} deadline(s) "
            f"exceeded / {self.degraded} degraded "
            f"answer(s)",
        ]
        if self.worker_pool is not None:
            pool = self.worker_pool
            lines.append(
                f"worker pool            : "
                f"{int(pool.get('tasks_retried', 0))} task(s) retried / "
                f"{int(pool.get('tasks_quarantined', 0))} quarantined / "
                f"{int(pool.get('worker_restarts', 0))} crash restart(s) / "
                f"{int(pool.get('breaker_trips', 0))} breaker trip(s)")
        if self.admission is not None:
            lines.append(
                f"admission control      : "
                f"{int(self.admission['admitted'])} admitted / "
                f"{int(self.admission['rejected_over_budget'])} rejected "
                f"over budget "
                f"({self.admission['units_admitted']:.1f} unit(s) admitted)")
        if self.store is not None:
            lines.append(
                f"persistent store       : "
                f"{int(self.store['reads'])} read(s) / "
                f"{int(self.store['hits'])} hit(s) / "
                f"{int(self.store['writes'])} write(s) / "
                f"{int(self.store['errors'])} error(s)")
        if self.delta_migrations or self.delta_invalidations:
            lines.append(
                f"append deltas          : "
                f"{self.delta_migrations} report(s) migrated / "
                f"{self.delta_invalidations} invalidated / "
                f"{self.delta_merges} merged from the delta")
        return "\n".join(lines)


class ContingencyService:
    """Registry + caches + batch executor behind one object.

    Parameters
    ----------
    program_cache_entries:
        Capacity of the shared compiled-program LRU (each entry is one
        (constraint set, backend, region) bound program, which answers
        every aggregate and attribute over the region).
    report_cache_entries:
        Capacity of the per-(session, query) report LRU, and of the range
        LRU (one missing-row range per compiled program and aggregate).
    max_workers:
        Worker-pool width for batch execution and sharded fan-out.
    default_options:
        :class:`BoundOptions` applied to sessions registered without
        explicit options.
    verify_backend:
        Opt-in cross-backend verification: a registry backend name (e.g.
        ``"branch-and-bound"``, the pure-Python implementation — maximally
        independent from the default scipy/HiGHS path).  Every session that
        does not pin its own ``BoundOptions.verify_backend`` solves every
        program on this second backend too and intersects the ranges; a
        disjoint pair raises :class:`~repro.exceptions.DisjointRangeError`,
        turning a silent solver defect into an alarm.  An unknown name
        fails here, at construction.
    pool_mode:
        Flavour of the service-owned persistent
        :class:`~repro.parallel.pool.WorkerPool`: ``"serial"`` (default,
        inline) or ``"process"`` (warm worker caches + real CPU scale-out).
        Defaults to the ``REPRO_POOL`` environment toggle (``1`` selects
        processes — the CI leg that exercises the warm-pool path).  The
        pool outlives every batch: it serves batch phase 2 and every
        session's sharded fan-out, and is torn down by :meth:`shutdown`
        (or the atexit reaper).
    max_query_cost:
        Optional per-query budget in cost units enabling program-aware
        admission control: every cold query is priced from its plan
        (constraint count, estimated cells, sharded layout, program
        warmth, pool warm-hit rate) *before* anything is solved, and a
        query priced above the budget is shed with
        :class:`~repro.exceptions.QueryRejectedError`.  Report-cache hits
        are not priced (answering from cache costs nothing to meter).
    cache_dir:
        Optional directory for the persistent cache tier (see
        :mod:`repro.service.store`).  When set — explicitly or via the
        ``REPRO_CACHE_DIR`` environment toggle — the decomposition and range
        caches write through to a sqlite store in that directory and read
        from it on memory misses, so warm work survives restarts and can be
        shared between processes on one host.  Ranges are keyed by program,
        not by data, so a restarted service answers an appended relation's
        queries without solving.  Reports stay in memory: a report miss is
        a range hit plus one observed scan.  The store is strictly
        best-effort: any store failure is a cache miss, never an error.
        Compiled programs are deliberately not persisted — they recompile
        in milliseconds from a cached decomposition and may hold
        backend-specific state.
    """

    def __init__(self, *, program_cache_entries: int = 1024,
                 report_cache_entries: int = 2048,
                 max_workers: int | None = None,
                 default_options: BoundOptions | None = None,
                 verify_backend: str | None = None,
                 pool_mode: str | None = None,
                 max_query_cost: float | None = None,
                 cache_dir: str | None = None):
        if verify_backend is not None:
            resolve_backend(verify_backend)  # a typo fails now, not per query
        self._worker_pool = WorkerPool(max_workers=max_workers,
                                       mode=pool_mode or default_pool_mode(),
                                       name="service")
        self._decomposition_cache = LRUCache(DECOMPOSITION_CACHE_ENTRIES,
                                             name="decomposition")
        self._program_cache = LRUCache(program_cache_entries, name="program")
        self._report_cache = LRUCache(report_cache_entries, name="report")
        self._range_cache = LRUCache(report_cache_entries, name="range")
        cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
        self._store: PersistentStore | None = None
        if cache_dir:
            self._store = PersistentStore(cache_dir)
            self._decomposition_cache.attach_store(self._store,
                                                   "decomposition")
            self._range_cache.attach_store(self._store, "range")
        self._registry = SessionRegistry(
            decomposition_cache=self._decomposition_cache,
            program_cache=self._program_cache,
            worker_pool=self._worker_pool,
            range_cache=self._range_cache)
        self._executor = BatchExecutor(max_workers, pool=self._worker_pool)
        self._default_options = default_options
        self._verify_backend = verify_backend
        self._admission = (None if max_query_cost is None
                           else AdmissionController(max_query_cost))
        self._queries_answered = 0
        self._batches_executed = 0
        self._deadline_exceeded = 0
        self._degraded = 0
        self._delta_migrations = 0
        self._delta_merges = 0
        self._delta_invalidations = 0
        self._counter_lock = threading.Lock()
        self._append_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Registry facade
    # ------------------------------------------------------------------ #
    @property
    def registry(self) -> SessionRegistry:
        return self._registry

    @property
    def worker_pool(self) -> WorkerPool:
        """The service-owned persistent worker pool."""
        return self._worker_pool

    @property
    def admission(self) -> AdmissionController | None:
        """The admission controller (None without a ``max_query_cost``)."""
        return self._admission

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Stop the worker pool (idempotent; it restarts lazily if the
        service keeps serving).  The atexit reaper covers services that are
        never shut down explicitly."""
        self._executor.close()
        self._worker_pool.shutdown()
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "ContingencyService":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    @property
    def decomposition_cache(self) -> LRUCache:
        return self._decomposition_cache

    @property
    def program_cache(self) -> LRUCache:
        return self._program_cache

    @property
    def report_cache(self) -> LRUCache:
        return self._report_cache

    @property
    def range_cache(self) -> LRUCache:
        return self._range_cache

    @property
    def store(self) -> PersistentStore | None:
        """The persistent cache tier (None without a cache_dir)."""
        return self._store

    def register(self, name: str, pcset: PredicateConstraintSet,
                 observed: Relation | None = None,
                 options: BoundOptions | None = None) -> RegisteredSession:
        """Register (or idempotently re-register) a constraint session.

        Under a service-wide ``verify_backend`` the verification backend is
        folded into the session's options (unless the caller pinned one
        explicitly), so it participates in the session fingerprint — a
        verified session and an unverified one never share report-cache
        entries, because their failure behaviour differs.
        """
        options = options or self._default_options
        if self._verify_backend is not None:
            options = options or BoundOptions()
            if options.verify_backend is None:
                options = replace(options, verify_backend=self._verify_backend)
        return self._registry.register(name, pcset, observed=observed,
                                       options=options)

    def session(self, name: str,
                version: int | None = None) -> RegisteredSession:
        return self._registry.get(name, version)

    def sessions(self) -> list[RegisteredSession]:
        return self._registry.sessions()

    # ------------------------------------------------------------------ #
    # Query answering
    # ------------------------------------------------------------------ #
    def analyze(self, name: str, query: ContingencyQuery,
                version: int | None = None,
                profile: bool = False) -> ContingencyReport:
        """Answer one query against a registered session, through the caches.

        The report cache key is (session fingerprint, query fingerprint):
        session fingerprints cover constraints, observed data and options,
        so a cached report can never leak across semantically different
        sessions, while re-registered identical content keeps its warm
        cache.

        ``profile=True`` additionally records the query's span tree —
        forcing a trace for just this call, whether or not ``REPRO_TRACE``
        is set — and returns a report whose ``profile`` attribute is the
        rendered-able :class:`~repro.obs.QueryProfile` (the EXPLAIN ANALYZE
        view; cached reports themselves are never mutated).
        """
        session = self._registry.get(name, version)
        if not profile:
            return self._analyze_in_session(session, query)
        tracer = get_tracer()
        with tracer.trace("query", force=True) as handle:
            tracer.annotate(query=query.describe(), session=session.name)
            report = self._analyze_in_session(session, query)
        query_profile = (QueryProfile.from_trace(handle)
                         if isinstance(handle, Trace) else None)
        return replace(report, profile=query_profile)

    def _analyze_in_session(self, session: RegisteredSession,
                            query: ContingencyQuery) -> ContingencyReport:
        with self._counter_lock:
            self._queries_answered += 1
        get_registry().counter("service.queries_answered").inc()
        query_fingerprint = fingerprint_query(query)
        key = ("report", session.fingerprint, query_fingerprint)
        tracer = get_tracer()
        if tracer.active:
            # peek() perturbs neither LRU recency nor the cache counters,
            # so annotating the verdict is observation-only.
            tracer.annotate(report_cache=(
                "hit" if self._report_cache.peek(key) is not None
                else "miss"))
        # The session's deadline scope covers pricing and the solve; a
        # report-cache hit checks no deadline, since a cached answer is
        # effectively instantaneous.
        try:
            with query_deadline_scope(session.options.deadline_seconds):
                report = self._analyze_admitted(session, query, key, tracer)
        except QueryDeadlineError:
            with self._counter_lock:
                self._deadline_exceeded += 1
            raise
        if report.degraded_shards:
            with self._counter_lock:
                self._degraded += 1
        return report

    def _analyze_admitted(self, session: RegisteredSession,
                          query: ContingencyQuery, key, tracer
                          ) -> ContingencyReport:
        def analyze() -> ContingencyReport:
            # Runs only on the miss that computes: a hit, and a racer that
            # finds the winner's report, are never priced.  Under a budget
            # the query is priced from its plan and admitted, or shed,
            # before any solve runs.
            if self._admission is not None:
                with tracer.span("admission"):
                    cost = self._price(session, query)
                    tracer.annotate(units=cost.units)
                    self._admission.admit(cost)
            return session.analyze(query)

        return self._report_cache.get_or_compute(key, analyze)

    def _price(self, session: RegisteredSession,
               query: ContingencyQuery) -> QueryCost:
        """Price one query from its plan (no decomposition, no solve)."""
        return price_query(session.analyzer.solver, query,
                           pool_statistics=self._worker_pool.statistics)

    def execute_batch(self, name: str, queries: list[ContingencyQuery],
                      version: int | None = None) -> BatchResult:
        """Answer a batch concurrently; reports come back in input order.

        Queries already in the report cache are answered inline, and
        identical queries *within* the batch are deduplicated before
        dispatch — only distinct cache misses go through the region-grouped
        concurrent executor, so a dashboard that fires the same query from
        several widgets pays for one solve.
        """
        session = self._registry.get(name, version)
        with self._counter_lock:
            self._batches_executed += 1
            self._queries_answered += len(queries)
        registry = get_registry()
        registry.counter("service.batches_executed").inc()
        registry.counter("service.queries_answered").inc(len(queries))

        cached: dict[int, ContingencyReport] = {}
        missing_by_query: dict[str, list[int]] = {}
        for position, query in enumerate(queries):
            query_fingerprint = fingerprint_query(query)
            key = ("report", session.fingerprint, query_fingerprint)
            report = self._report_cache.get(key)
            if report is None:
                missing_by_query.setdefault(query_fingerprint, []).append(position)
            else:
                cached[position] = report

        distinct_positions = [positions[0]
                              for positions in missing_by_query.values()]
        distinct_queries = [queries[position]
                            for position in distinct_positions]
        # Price each distinct cache miss before anything is dispatched:
        # every one must clear the per-query budget, and the whole batch is
        # shed at the plan stage when one cannot.
        if self._admission is not None and distinct_queries:
            self._admission.admit_many([self._price(session, query)
                                        for query in distinct_queries])
        result = self._executor.execute(session.analyzer, distinct_queries,
                                        session_key=session.fingerprint)
        for (query_fingerprint, positions), report in zip(
                missing_by_query.items(), result.reports):
            if report.degraded_shards:
                with self._counter_lock:
                    self._degraded += 1
            self._report_cache.put(
                ("report", session.fingerprint, query_fingerprint), report)
            for position in positions:
                cached[position] = report

        reports = [cached[position] for position in range(len(queries))]
        result.statistics.total_queries = len(queries)
        return BatchResult(reports, result.statistics)

    # ------------------------------------------------------------------ #
    # Data deltas
    # ------------------------------------------------------------------ #
    def append_rows(self, name: str,
                    rows: "Relation | list", *,
                    version: int | None = None) -> RegisteredSession:
        """Append rows to a session's observed relation, keeping warm work.

        Registers a new session version whose observed relation is
        ``session.observed.append(rows)`` and *migrates* the old version's
        cached reports.  A report depends on observed data only through the
        rows matching its query's WHERE region (the missing-partition bound
        is data-independent), so each distinct region is tested against the
        delta once.  A report whose region matches **zero** delta rows is
        bit-identical under the new version and is re-keyed to it; a COUNT,
        SUM, MIN or MAX report whose region gained rows is merged from the
        old report and those rows, a SUM by adding their exact sum
        (:meth:`~repro.core.engine.PCAnalyzer.merge_appended`,
        ``cache.delta_merges``); both count as ``cache.delta_migrations``.
        Either way the new report equals a cold analyzer's bit for bit.  An
        AVG (or degraded) report whose region gained rows stays behind with
        the old, still queryable version (``cache.delta_invalidations``),
        and the new version recomputes it as one scan plus a solve under
        its new observed sum and count.  Nothing is committed to the
        persistent store.  Appends to one service hold one lock from
        reading the latest version to the end of the migration, so racing
        appends never extend the same version; queries take no such lock.
        An append costs its delta and the number of live cached reports,
        not the relation's size or its append chain's length, and it
        stores its rows once: the new version and its delta are views of
        the chain's shared buffer (see
        :meth:`~repro.relational.relation.Relation.append`), and it
        shares the old version's private copy of the constraint set.

        Decomposition, program and range caches are keyed by constraint-set
        content, not data, so they stay warm across appends by
        construction; only report-level reuse needs this migration.

        ``rows`` may be a relation with the session's schema, row tuples in
        schema order, or ``{column: value}`` mappings.  Non-append mutations
        have no such incremental path — re-register the session, which is a
        full invalidation of report-level reuse.
        """
        with self._append_lock:
            session = self._registry.get(name, version)
            if session.observed is None:
                raise ReproError(
                    f"session {name!r} has no observed relation to append to")
            if isinstance(rows, Relation):
                delta = rows
            else:
                materialised = list(rows)
                delta = (Relation.from_dicts(session.observed.schema,
                                             materialised)
                         if materialised and isinstance(materialised[0], dict)
                         else Relation.from_rows(session.observed.schema,
                                                 materialised))
            appended = session.observed.append(delta)
            new_session = self._registry.register(name, session.pcset,
                                                  observed=appended,
                                                  options=session.options)
            if new_session.fingerprint == session.fingerprint:
                return new_session  # empty delta — nothing to migrate
            migrated, merged, invalidated = self._migrate_reports(
                session, new_session, delta)
        with self._counter_lock:
            self._delta_migrations += migrated
            self._delta_merges += merged
            self._delta_invalidations += invalidated
        registry = get_registry()
        if migrated:
            registry.counter("cache.delta_migrations").inc(migrated)
        if merged:
            registry.counter("cache.delta_merges").inc(merged)
        if invalidated:
            registry.counter("cache.delta_invalidations").inc(invalidated)
        return new_session

    def _migrate_reports(self, session: RegisteredSession,
                         new_session: RegisteredSession,
                         delta: Relation) -> tuple[int, int, int]:
        """Carry ``session``'s cached reports over to ``new_session``;
        returns (migrated, merged, invalidated) counts."""
        migrated = merged = invalidated = 0
        # Each region's delta rows, or None when no delta row matches it;
        # a region that holds every delta row shares ``delta`` itself, so
        # its exact sums are computed once.  Regions compare by value, and
        # None stands for the whole relation.
        matches = {}
        # Each cached report carries its query, so the report cache itself
        # says which reports to test against the delta.
        for key in self._report_cache.keys():
            if key[1] != session.fingerprint:
                continue
            report = self._report_cache.peek(key)
            if report is None:
                continue
            region = report.query.region
            matched = matches.get(region, _UNTESTED)
            if matched is _UNTESTED:
                where = report.query.to_aggregate_query().where
                mask = np.asarray(where.evaluate(delta), dtype=bool)
                matched = matches[region] = (
                    None if not mask.any() else
                    delta if mask.all() else delta.filter(mask))
            if matched is not None:
                report = PCAnalyzer.merge_appended(report, matched)
                if report is None:
                    invalidated += 1
                    continue
                merged += 1
            self._report_cache.put(("report", new_session.fingerprint, key[2]),
                                   report)
            migrated += 1
        return migrated, merged, invalidated

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def statistics(self) -> ServiceStatistics:
        decompositions = 0
        solver_calls = 0
        programs = 0
        for session in self._registry.sessions():
            session_decompositions, session_calls, session_programs = \
                session.solver_counters()
            decompositions += session_decompositions
            solver_calls += session_calls
            programs += session_programs
        return ServiceStatistics(
            decomposition_cache=self._decomposition_cache.statistics.snapshot(),
            program_cache=self._program_cache.statistics.snapshot(),
            report_cache=self._report_cache.statistics.snapshot(),
            range_cache=self._range_cache.statistics.snapshot(),
            queries_answered=self._queries_answered,
            batches_executed=self._batches_executed,
            sessions_registered=len(self._registry),
            decompositions_computed=decompositions,
            decomposition_solver_calls=solver_calls,
            programs_compiled=programs,
            deadline_exceeded=self._deadline_exceeded,
            degraded=self._degraded,
            worker_pool=self._worker_pool.statistics.as_dict(),
            admission=(None if self._admission is None
                       else self._admission.statistics.as_dict()),
            store=(None if self._store is None
                   else self._store.statistics.as_dict()),
            delta_migrations=self._delta_migrations,
            delta_merges=self._delta_merges,
            delta_invalidations=self._delta_invalidations,
        )

    def clear_caches(self) -> None:
        """Drop cached decompositions, programs, ranges and reports
        (counters kept)."""
        self._decomposition_cache.clear()
        self._program_cache.clear()
        self._range_cache.clear()
        self._report_cache.clear()
