"""Result ranges for aggregates over the missing partition (paper §4).

Given a predicate-constraint set and a query, :class:`PCBoundSolver` computes
the *result range* — the tightest ``[lower, upper]`` interval containing the
aggregate's value over every relation instance that satisfies the
constraints.

Since the plan-pipeline refactor the solver is a thin facade over
:mod:`repro.plan`: every query is lowered to a logical
:class:`~repro.plan.BoundPlan`, optimized (region pruning, duplicate
merging), compiled into a :class:`~repro.plan.BoundProgram` — the exact
cell decomposition read once into per-cell arrays, the slack layout and the
MILP skeleton's CSC rows — and executed by patching parameters into that
program.  Programs are cached per (constraint set, region), privately or in
a shared LRU supplied by the service layer: one program answers every
aggregate over every attribute of its region, so repeated queries (and
every probe of AVG's Dinkelbach iteration) skip model construction
entirely.

One deviation from the paper's informal description is documented here
because it matters for soundness: when a query predicate is pushed down and
some predicate-constraint forces rows to exist (``kl > 0``), those rows may
legitimately live *outside* the query region.  We therefore add a
zero-objective slack allocation per such constraint instead of forcing the
mandatory rows into query-relevant cells, which keeps both bound directions
sound (the feasible region is a superset of the true one).
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, replace

from ..exceptions import QueryDeadlineError, SolverError
from ..faults import query_deadline_scope
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..plan.ir import BoundPlan, BoundQuery, build_plan
from ..plan.passes import optimize_plan
from ..plan.program import BoundProgram, avg_endpoints, compile_plan
from ..relational.aggregates import AggregateFunction
from ..solvers.milp import MILPBackend
from .cells import (
    CellDecomposition,
    _structural_namespace,
    decompose_cached,
    estimate_cell_count,
)
from .pcset import PredicateConstraintSet
from .predicates import Predicate
from .ranges import ResultRange

__all__ = ["ResultRange", "PCBoundSolver", "BoundOptions", "BoundExplanation",
           "CellAllocation"]

_INF = float("inf")


@dataclass
class BoundOptions:
    """Tuning knobs for :class:`PCBoundSolver`.

    The first block configures solving: the MILP backend and the closure
    check.  Every plan runs through the bound-preserving optimizer passes
    (region pruning, duplicate merging), enumerates its cells exactly (DFS
    with rewriting, no early stop) and executes as a compiled program; no
    option changes the enumeration.

    The second block configures parallel fan-out and verification
    (see :mod:`repro.parallel`):

    ``solve_workers``
        When > 1, queries are sharded onto a worker pool of this width
        through the plan pipeline's sharding pass, which decides the layout
        from the plan alone (:func:`~repro.plan.sharding.select_sharding`):
        multi-component constraint sets split into per-component programs
        (ranges merged exactly), and one-component sets whose worst-case
        cell count reaches the region gate split by query region (cell
        enumeration fanned out, then merged into the serial-identical
        program).  ``None`` (and ``1``) keep the serial single-program path.
    ``verify_backend``
        When set, every bound is additionally solved on this second registry
        backend and the two ranges are intersected; disjoint ranges raise
        :class:`~repro.exceptions.DisjointRangeError` (the cross-backend
        alarm).  Must name a backend different from ``milp_backend`` to be
        a meaningful oracle, though equal names are tolerated.

    The third block configures fault tolerance (see :mod:`repro.faults`):

    ``deadline_seconds``
        Wall-clock budget per :meth:`PCBoundSolver.bound` call
        (``--deadline`` on the CLI).  On expiry the fan-out stops
        dispatching, abandons in-flight work, and raises
        :class:`~repro.exceptions.QueryDeadlineError` carrying partial
        progress.  Under the service the scope opens before the query is
        priced, so pricing counts against the budget.  Excluded from option
        fingerprints: it changes failure behaviour, never a returned range.
    ``degrade``
        ``"worst-case"`` opts the component-sharded aggregates into
        graceful degradation: a shard whose solve dies repeatedly or runs
        past the deadline contributes its solver-free worst-case range
        (:meth:`~repro.plan.program.BoundProgram.worst_case_range`) instead
        of failing the query.  The merged range is still sound — a superset
        of the exact range — and the result's statistics are stamped with
        ``degraded_shards``.  *Included* in option fingerprints: it can
        change returned ranges.  Any other value than ``None`` and
        ``"worst-case"`` raises :class:`~repro.exceptions.SolverError` at
        construction.
    """

    milp_backend: str = MILPBackend.SCIPY
    check_closure: bool = True
    solve_workers: int | None = None
    verify_backend: str | None = None
    deadline_seconds: float | None = None
    degrade: str | None = None

    def __post_init__(self) -> None:
        if self.degrade not in (None, "worst-case"):
            raise SolverError(f"unknown degrade policy {self.degrade!r}; "
                              "expected 'worst-case'")


@dataclass(frozen=True)
class CellAllocation:
    """One cell's share of the worst-case allocation behind a bound."""

    covering_constraints: tuple[str, ...]
    rows_allocated: float
    per_row_value: float

    @property
    def contribution(self) -> float:
        return self.rows_allocated * self.per_row_value


@dataclass(frozen=True)
class BoundExplanation:
    """Why a bound takes the value it does (the optimal MILP allocation).

    ``allocations`` lists every cell that received rows in the worst-case
    instance together with its per-row value; ``saturated_constraints`` names
    the predicate-constraints whose frequency upper bound is fully used —
    tightening any of those is what would tighten the bound.
    """

    aggregate: AggregateFunction
    attribute: str | None
    bound: float
    allocations: tuple[CellAllocation, ...]
    saturated_constraints: tuple[str, ...]

    def summary(self) -> str:
        lines = [f"{self.aggregate.value} upper bound = {self.bound}"]
        for allocation in self.allocations:
            lines.append(
                f"  {allocation.rows_allocated:.0f} rows x {allocation.per_row_value} "
                f"in cell covered by {', '.join(allocation.covering_constraints)}")
        if self.saturated_constraints:
            lines.append("  saturated frequency constraints: "
                         + ", ".join(self.saturated_constraints))
        return "\n".join(lines)


class PCBoundSolver:
    """Computes result ranges for one predicate-constraint set.

    Parameters
    ----------
    pcset, options:
        The constraint set and tuning knobs.
    decomposition_cache:
        Optional shared cache (any object with ``get_or_compute(key,
        factory)``, e.g. :class:`repro.service.LRUCache`).  When given,
        decompositions are stored there under a content-derived namespace so
        equal constraint sets share work across solvers and threads; when
        omitted, a region decomposes once per compiled program.
    cache_namespace:
        Overrides the namespace used inside a shared cache.  Defaults to a
        structural key derived from the constraint set's content, which is
        always sound; the service layer passes its fingerprint-based
        namespace instead.
    program_cache:
        Optional shared cache for compiled :class:`BoundProgram` objects
        (same protocol as ``decomposition_cache``).  When omitted, programs
        are cached in a private per-instance dict.
    range_cache:
        Optional shared cache of closed-world missing ranges (any object
        with ``get(key)`` and ``put(key, value)``).  A range over the
        missing rows depends only on the compiled program, the aggregate
        and attribute, the fan-out width and, for AVG, the observed sum and
        count, so it is memoized under ``("range", program_key, aggregate,
        attribute, solve_workers, known_sum, known_count)`` (the observed
        pair is 0.0 for every aggregate but AVG) and a repeated query skips
        compiling and solving.  Degraded ranges and calls that raise are
        never memoized; verification, open-world widening and the observed
        combine run on every call.  When omitted nothing is memoized.
    worker_pool:
        Optional long-lived :class:`~repro.parallel.pool.WorkerPool` the
        sharded fan-out borrows instead of spinning a per-call executor
        (the service layer passes its own pool).  When omitted and
        ``options.solve_workers > 1``, a process-global shared pool is
        borrowed.
    """

    def __init__(self, pcset: PredicateConstraintSet,
                 options: BoundOptions | None = None,
                 decomposition_cache=None,
                 cache_namespace: object = None,
                 program_cache=None,
                 worker_pool=None,
                 range_cache=None):
        self._pcset = pcset
        self._options = options or BoundOptions()
        self._shared_cache = decomposition_cache
        self._cache_namespace = cache_namespace
        self._program_cache = program_cache
        self._range_cache = range_cache
        self._worker_pool = worker_pool
        self._local_programs: dict[object, BoundProgram] = {}
        self._local_program_locks: dict[object, threading.Lock] = {}
        self._sharded_plans: dict[tuple, object] = {}
        self._decompositions_computed = 0
        self._decomposition_solver_calls = 0
        self._programs_compiled = 0
        self._counter_lock = threading.Lock()
        self._program_lock = threading.Lock()
        self._verify_solver: PCBoundSolver | None = None

    # ------------------------------------------------------------------ #
    # Pickling (process-pool fan-out)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Locks are dropped and rebuilt; shared caches do not cross processes.

        A worker process receives the solver with its *private* program
        cache intact (warm compiled skeletons travel), but with any shared
        LRU caches replaced by ``None`` — a cache shared by
        reference cannot span processes, and silently pickling a snapshot
        would masquerade as shared state.  The worker falls back to private
        caching, which is correct, merely less deduplicated.
        """
        state = dict(self.__dict__)
        state["_shared_cache"] = None
        state["_program_cache"] = None
        state["_range_cache"] = None
        state["_worker_pool"] = None
        state["_local_program_locks"] = {}
        del state["_counter_lock"]
        del state["_program_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._counter_lock = threading.Lock()
        self._program_lock = threading.Lock()

    @property
    def pcset(self) -> PredicateConstraintSet:
        return self._pcset

    @property
    def options(self) -> BoundOptions:
        return self._options

    @property
    def worker_pool(self):
        """The injected worker pool, if any (None means borrow the shared one)."""
        return self._worker_pool

    def attach_program_cache(self, cache) -> None:
        """Swap in a program cache (the worker-pool warm-cache handshake).

        Pool workers receive solvers whose shared caches were dropped at the
        pickle boundary; attaching the worker's own cache here is what lets
        programs the parent pre-shipped (under :meth:`program_key` /
        :meth:`shard_program_key` keys) satisfy this solver's lookups.
        """
        self._program_cache = cache

    def program_key(self, region: Predicate | None = None) -> tuple:
        """The content-derived cache key for the region's program.

        The decomposition namespace covers the constraint set's content; the
        backend is appended because it changes the compiled artifact.  The
        key is stable across processes: the worker pool addresses warm
        worker-side caches with the parent's keys.
        """
        return ("program", self._namespace(), self._options.milp_backend,
                region)

    def shard_program_key(self, shard, region: Predicate | None) -> tuple:
        """The cache key for one shard's program (program key + shard token)."""
        return self.program_key(region) + shard.cache_token()

    def has_cached_program(self, region: Predicate | None = None,
                           shard=None) -> bool:
        """Whether the region's (or one shard's) compiled program is warm.

        Admission pricing consults this to discount queries that will only
        patch parameters into an existing skeleton — passing ``shard``
        checks the shard-token-extended key that component-sharded
        execution actually populates, instead of the unsharded region key
        it never compiles.  The lookup peeks: it must not perturb cache
        statistics or LRU recency, and it never compiles anything.
        """
        token = () if shard is None else shard.cache_token()
        if self._program_cache is not None:
            peek = getattr(self._program_cache, "peek",
                           self._program_cache.get)
            return peek(self.program_key(region) + token) is not None
        with self._program_lock:
            return (region, *token) in self._local_programs

    @property
    def decompositions_computed(self) -> int:
        """How many decompositions this solver actually ran (cache misses).

        Includes the verification solver's work when cross-backend
        verification is active — the observable stays "what did answering
        through this facade cost", whichever internal solver paid it.
        """
        return self._decompositions_computed + (
            0 if self._verify_solver is None
            else self._verify_solver.decompositions_computed)

    @property
    def decomposition_solver_calls(self) -> int:
        """Cumulative satisfiability-solver calls across fresh decompositions.

        Cache hits (shared or private) leave this counter untouched — it is
        the observable the service's acceptance tests pin down: answering a
        repeated query must not move it.
        """
        return self._decomposition_solver_calls + (
            0 if self._verify_solver is None
            else self._verify_solver.decomposition_solver_calls)

    @property
    def programs_compiled(self) -> int:
        """How many bound programs this solver compiled (program-cache misses)."""
        return self._programs_compiled + (
            0 if self._verify_solver is None
            else self._verify_solver.programs_compiled)

    # ------------------------------------------------------------------ #
    # Public bound API
    # ------------------------------------------------------------------ #
    def bound(self, aggregate: AggregateFunction, attribute: str | None = None,
              region: Predicate | None = None,
              known_sum: float = 0.0, known_count: float = 0.0) -> ResultRange:
        """The result range of ``aggregate(attribute)`` over the missing rows.

        ``known_sum`` / ``known_count`` describe the observed partition and
        are only used by AVG (whose bound depends jointly on both).

        Execution routes through up to three paths, all governed by the
        options: the serial compiled program (default), the sharded fan-out
        (``solve_workers > 1`` and the plan splits into independent
        components), and — orthogonally — cross-backend verification
        (``verify_backend``), which intersects the range with a second
        backend's and alarms on disagreement.  With a range cache the
        closed-world range is looked up before either solve path runs.
        """
        if aggregate.needs_attribute and attribute is None:
            raise SolverError(f"{aggregate.value} bounds require an attribute")
        tracer = get_tracer()
        deadline = query_deadline_scope(self._options.deadline_seconds)
        try:
            with deadline, tracer.span("bound"):
                tracer.annotate(aggregate=aggregate.value)
                closed = self._is_closed(region)
                result = self._memoized_missing(aggregate, attribute, region,
                                                known_sum, known_count)
                if self._options.verify_backend is not None:
                    with tracer.span("bound.verify"):
                        result = self._cross_check(result, aggregate,
                                                   attribute, region,
                                                   known_sum, known_count)
                if not closed:
                    result = self._widen_for_open_world(result, aggregate)
                return result
        except QueryDeadlineError:
            get_registry().counter("queries.deadline_exceeded").inc()
            raise

    def _memoized_missing(self, aggregate: AggregateFunction,
                          attribute: str | None, region: Predicate | None,
                          known_sum: float, known_count: float) -> ResultRange:
        """:meth:`_bound_missing` behind the range cache (see the class
        docstring).  ``solve_workers`` joins the key because a
        component-sharded SUM adds up its shards' optima where the serial
        path solves one objective, so the two may differ by an ulp or two.
        AVG's observed sum and count are exact floats, so a region an
        append did not touch keeps its key."""
        cache = self._range_cache
        if cache is None:
            return self._bound_missing(aggregate, attribute, region,
                                       known_sum, known_count)
        observed = ((known_sum, known_count)
                    if aggregate is AggregateFunction.AVG else (0.0, 0.0))
        key = ("range", self.program_key(region), aggregate, attribute,
               self._options.solve_workers, *observed)
        result = cache.get(key)
        if result is None:
            result = self._bound_missing(aggregate, attribute, region,
                                         known_sum, known_count)
            if not getattr(result.statistics, "degraded_shards", ()):
                cache.put(key, result)
        return result

    def _bound_missing(self, aggregate: AggregateFunction,
                       attribute: str | None, region: Predicate | None,
                       known_sum: float, known_count: float) -> ResultRange:
        """The closed-world missing-partition range, serial or sharded."""
        tracer = get_tracer()
        workers = self._options.solve_workers
        if workers is not None and workers > 1:
            from ..parallel.pool import in_worker
            from ..plan.sharding import SHARDABLE_AGGREGATES

            # Inside a pool worker the fan-out IS the pool; sharding again
            # would run every per-shard solve inline (or spawn pools from
            # workers), multiplying cost for zero concurrency, so pooled
            # analyzers degrade to the serial path.
            if not in_worker():
                with tracer.span("shard.plan"):
                    sharded = self.sharded_plan(region, max_shards=workers)
                    tracer.annotate(strategy=sharded.strategy,
                                    shards=len(sharded))
                if sharded.is_sharded and sharded.strategy == "component":
                    if aggregate in SHARDABLE_AGGREGATES:
                        with tracer.span("solve.sharded"):
                            tracer.annotate(shards=len(sharded))
                            return self._bound_sharded(sharded, aggregate,
                                                       attribute, region,
                                                       workers)
                    if aggregate is AggregateFunction.AVG:
                        with tracer.span("solve.avg_sharded"):
                            tracer.annotate(shards=len(sharded))
                            return self._bound_avg_sharded(
                                sharded, attribute, region, known_sum,
                                known_count, workers)
                # Region-sharded plans deliberately fall through: the serial
                # program path below compiles against the pool-merged
                # decomposition (see _decompose_plan), so every aggregate —
                # AVG included — executes on the serial-identical program
                # while the enumeration work fanned out.
        program = self.program(region)
        with tracer.span("solve.serial"):
            return program.bound_batch(
                [(aggregate, attribute, known_sum, known_count)])[0]

    def borrow_pool(self, workers: int):
        """The worker pool the fan-out runs on: the injected (service-owned)
        pool when one was supplied, else the process-global shared process
        pool of width ``workers`` — either way long-lived, so repeated
        sharded solves never pay pool start-up or re-ship warm programs.
        """
        from ..parallel.pool import shared_pool

        if self._worker_pool is not None:
            return self._worker_pool
        return shared_pool(max_workers=workers)

    def _keyed_shard_programs(self, sharded, region: Predicate | None
                              ) -> list[tuple]:
        """(pool key, compiled program) per shard, parent-cache warm."""
        return [(self.shard_program_key(shard, region),
                 self.shard_program(shard, region))
                for shard in sharded]

    def _bound_sharded(self, sharded, aggregate: AggregateFunction,
                       attribute: str | None, region: Predicate | None,
                       workers: int) -> ResultRange:
        """Fan the per-shard programs out over the pool and merge the ranges.

        With ``degrade="worst-case"`` the fan-out is failure-tolerant: each
        shard that times out, dies repeatedly, or errors substitutes its
        solver-free worst-case range — sound, just looser — and the merged
        statistics are stamped with the degraded shard positions.
        """
        from ..plan.sharding import (
            merge_shard_ranges,
            merge_shard_statistics,
        )

        degrade = self._options.degrade
        keyed = self._keyed_shard_programs(sharded, region)
        pool = self.borrow_pool(workers)
        degraded: list[int] = []
        if degrade == "worst-case":
            collected, failures = pool.solve_programs_resilient(
                keyed, aggregate, attribute)
            endpoints = []
            for position, (_key, program) in enumerate(keyed):
                triple = collected.get(position)
                if triple is None:
                    fallback = program.worst_case_range(aggregate, attribute)
                    triple = (fallback.lower, fallback.upper, fallback.closed)
                    degraded.append(position)
                endpoints.append(triple)
            if degraded:
                tracer = get_tracer()
                tracer.annotate(degraded_shards=tuple(degraded))
                get_registry().counter("queries.degraded").inc()
        else:
            endpoints = pool.solve_programs(keyed, aggregate, attribute)
        ranges = [ResultRange(lower, upper, aggregate, attribute, closed=closed)
                  for lower, upper, closed in endpoints]
        # Statistics come from the parent's shard programs, not the worker
        # results: workers return bare endpoints, and the parent compiled
        # (or cache-loaded) every shard program anyway.
        statistics = merge_shard_statistics(
            program.statistics for _, program in keyed)
        statistics.degraded_shards = tuple(degraded)
        return merge_shard_ranges(aggregate, ranges, attribute,
                                  statistics=statistics)

    def _bound_avg_sharded(self, sharded, attribute: str | None,
                           region: Predicate | None, known_sum: float,
                           known_count: float, workers: int) -> ResultRange:
        """AVG across component shards: the one AVG search
        (:func:`~repro.plan.program.avg_endpoints`) over the shard
        programs, each iteration one pooled probe task per shard."""
        from ..plan.sharding import merge_shard_statistics

        keyed = self._keyed_shard_programs(sharded, region)
        lower, upper = avg_endpoints(
            [program for _, program in keyed], attribute, known_sum,
            known_count,
            functools.partial(self.borrow_pool(workers).avg_probes, keyed,
                              attribute))
        statistics = merge_shard_statistics(
            program.statistics for _, program in keyed)
        return ResultRange(lower, upper, AggregateFunction.AVG, attribute,
                           statistics=statistics)

    def _cross_check(self, result: ResultRange, aggregate: AggregateFunction,
                     attribute: str | None, region: Predicate | None,
                     known_sum: float, known_count: float) -> ResultRange:
        """Solve on the verify backend and intersect (alarm on disjoint)."""
        from ..parallel.verify import cross_check_ranges

        verifier = self._verification_solver()
        secondary = verifier._bound_missing(aggregate, attribute, region,
                                            known_sum, known_count)
        label = f"{aggregate.value}({attribute or '*'})"
        return cross_check_ranges(result, secondary,
                                  self._options.milp_backend,
                                  self._options.verify_backend or "",
                                  context=label)

    def _verification_solver(self) -> "PCBoundSolver":
        """A sibling solver pinned to the verify backend, sharing the caches.

        The decomposition namespace excludes the MILP backend, so the
        verifier reuses every cached decomposition; its programs key under
        their own backend name and never collide with the primary's.
        Verification runs serially — fan-out on the oracle path would only
        obscure which backend produced a bad range.
        """
        with self._program_lock:
            if self._verify_solver is None:
                options = replace(self._options,
                                  milp_backend=self._options.verify_backend,
                                  verify_backend=None,
                                  solve_workers=None)
                self._verify_solver = PCBoundSolver(
                    self._pcset, options,
                    decomposition_cache=self._shared_cache,
                    cache_namespace=self._cache_namespace,
                    program_cache=self._program_cache)
            return self._verify_solver

    def explain(self, aggregate: AggregateFunction, attribute: str | None = None,
                region: Predicate | None = None) -> BoundExplanation:
        """Explain the *upper* bound of a COUNT or SUM query.

        Returns the optimal worst-case allocation (how many rows are placed
        in which cell, at what per-row value) and the predicate-constraints
        whose frequency capacity that allocation exhausts.  Only COUNT and
        SUM are supported — their bounds come directly from one MILP solve.
        Constraint names refer to the optimized plan, so merged duplicates
        appear under their combined ``a&b`` name.
        """
        if aggregate not in (AggregateFunction.COUNT, AggregateFunction.SUM):
            raise SolverError("explain() supports COUNT and SUM bounds only")
        if aggregate is AggregateFunction.SUM and attribute is None:
            raise SolverError("SUM explanations require an attribute")
        bound, allocations, saturated = self.program(region).explain_upper(
            aggregate, attribute)
        return BoundExplanation(
            aggregate, attribute, bound,
            tuple(CellAllocation(*allocation) for allocation in allocations),
            saturated)

    # ------------------------------------------------------------------ #
    # The pipeline: plan -> optimize -> compile
    # ------------------------------------------------------------------ #
    def plan(self, query) -> BoundPlan:
        """The optimized logical plan for anything query-shaped.

        Introspection entry point: ``solver.plan(query).describe()`` shows
        which constraints survive pruning/merging and which backend the
        compiled program will solve with.
        """
        tracer = get_tracer()
        with tracer.span("plan"):
            plan = build_plan(query, self._pcset, self._options)
            with tracer.span("plan.optimize"):
                plan = optimize_plan(plan)
            tracer.annotate(constraints=len(plan.pcset))
        return plan

    def program(self, region: Predicate | None = None) -> BoundProgram:
        """The compiled program for a region, cached.

        One program answers every aggregate over every attribute of the
        region, so the cache key names neither.  With a shared program
        cache the per-key locking inside ``get_or_compute`` dedupes
        concurrent compilations; the private fallback mirrors that per-key
        scheme, so distinct regions compile concurrently while same-key
        racers share one compile.
        """
        return self._cached_program(region, (), lambda: self._compile(region))

    def sharded_plan(self, region: Predicate | None = None,
                     max_shards: int | None = None):
        """The :class:`~repro.plan.ShardedBoundPlan` for a region: its
        optimized plan run through the sharding pass
        (:func:`~repro.plan.sharding.select_sharding`), capped at
        ``max_shards`` (defaulting to ``options.solve_workers``).  The layout
        depends on the plan alone; a plan neither splitter can split comes
        back with one shard (``is_sharded`` False).

        Sharded plans are cached per (region, max_shards): building one
        runs the optimizer plus a quadratic predicate-overlap scan, which a
        warm repeated query must not pay again.  Plans and the shard
        layouts they induce are immutable, so the cached object is safe to
        share across threads.
        """
        from ..plan.sharding import select_sharding

        if max_shards is None:
            max_shards = self._options.solve_workers
        key = (region, max_shards)
        with self._program_lock:
            cached = self._sharded_plans.get(key)
        if cached is not None:
            return cached
        sharded = select_sharding(self._region_plan(region),
                                  max_shards=max_shards)
        with self._program_lock:
            return self._sharded_plans.setdefault(key, sharded)

    def shard_program(self, shard, region: Predicate | None) -> BoundProgram:
        """The compiled program for one plan shard, cached like any program.

        Shard programs live in the same (shared or private) cache as their
        unsharded siblings: the key is the region's program key extended
        with the shard's
        :meth:`~repro.parallel.PlanShard.cache_token`, so repeated sharded
        queries patch parameters into warm per-shard skeletons exactly like
        the serial path does.
        """
        return self._cached_program(region, shard.cache_token(),
                                    lambda: self._compile_shard(shard, region))

    def _cached_program(self, region: Predicate | None, token: tuple,
                        factory) -> BoundProgram:
        """Per-key deduplicated program caching (shared LRU or private
        dict) of the region's program, or of the shard ``token`` names."""
        if self._program_cache is not None:
            return self._program_cache.get_or_compute(
                self.program_key(region) + token, factory)
        key = (region, *token)
        with self._program_lock:
            program = self._local_programs.get(key)
            if program is not None:
                return program
            key_lock = self._local_program_locks.setdefault(key, threading.Lock())
        with key_lock:
            with self._program_lock:
                program = self._local_programs.get(key)
            if program is None:
                program = factory()
                with self._program_lock:
                    self._local_programs[key] = program
                    self._local_program_locks.pop(key, None)
            return program

    def _namespace(self) -> object:
        if self._cache_namespace is not None:
            return self._cache_namespace
        return _structural_namespace(self._pcset)

    def _region_plan(self, region: Predicate | None) -> BoundPlan:
        """The optimized plan of the region's program.  No optimizer pass
        reads the aggregate or the attribute, so it is the COUNT(*) plan."""
        return self.plan(BoundQuery(AggregateFunction.COUNT, None, region))

    def _compile(self, region: Predicate | None) -> BoundProgram:
        tracer = get_tracer()
        with tracer.span("compile"):
            plan = self._region_plan(region)
            decomposition = self._decompose_plan(plan)
            program = compile_plan(plan, decomposition)
            tracer.annotate(cells=len(decomposition.cells))
        with self._counter_lock:
            self._programs_compiled += 1
        return program

    def _compile_shard(self, shard, region: Predicate | None) -> BoundProgram:
        """Compile one shard's sub-plan into its own program.

        The shard's constraint subset decomposes independently (its cells
        are exactly the full decomposition's cells covered by this shard's
        constraints); under a shared cache the entry is namespaced by the
        shard token so it can never masquerade as the full decomposition of
        the same region.
        """
        plan = shard.plan
        namespace = None
        if self._shared_cache is not None and self._cache_namespace is not None:
            namespace = ("plan-shard", self._cache_namespace,
                         shard.cache_token())
        tracer = get_tracer()
        with tracer.span("compile.shard"):
            decomposition = decompose_cached(
                plan.pcset, region,
                cache=self._shared_cache,
                namespace=namespace,
                on_compute=self._record_decomposition)
            program = compile_plan(plan, decomposition)
            tracer.annotate(cells=len(decomposition.cells))
        with self._counter_lock:
            self._programs_compiled += 1
        return program

    # ------------------------------------------------------------------ #
    # Closure handling
    # ------------------------------------------------------------------ #
    def _is_closed(self, region: Predicate | None) -> bool:
        if not self._options.check_closure:
            return True
        return self._pcset.is_closed(region)

    @staticmethod
    def _widen_for_open_world(result: ResultRange,
                              aggregate: AggregateFunction) -> ResultRange:
        """Without closure nothing constrains uncovered rows: bounds blow up."""
        lower: float | None
        upper: float | None
        if aggregate is AggregateFunction.COUNT:
            lower, upper = result.lower, _INF
        elif aggregate in (AggregateFunction.SUM, AggregateFunction.AVG):
            lower, upper = -_INF, _INF
        elif aggregate is AggregateFunction.MAX:
            lower, upper = result.lower, _INF
        else:
            lower, upper = -_INF, result.upper
        return ResultRange(lower, upper, result.aggregate, result.attribute,
                           closed=False, statistics=result.statistics)

    # ------------------------------------------------------------------ #
    # Decomposition
    # ------------------------------------------------------------------ #
    def decompose(self, region: Predicate | None = None) -> CellDecomposition:
        """The cell decomposition for ``region`` (cached when the solver has
        a shared decomposition cache).

        Public so callers can reuse or pre-warm decompositions.  Runs
        through the plan pipeline, so the cells are those of the
        *optimized* constraint set.
        """
        return self._decompose_plan(self._region_plan(region))

    def _record_decomposition(self, decomposition: CellDecomposition) -> None:
        # Distinct regions can decompose concurrently under a shared cache
        # (concurrent service callers), so the read-modify-write on the
        # counters needs a lock to stay exact.
        with self._counter_lock:
            self._decompositions_computed += 1
            self._decomposition_solver_calls += decomposition.statistics.solver_calls

    def _region_decomposition_factory(self, plan: BoundPlan):
        """A pool-fanned way to compute ``plan``'s decomposition, or None.

        Returns a zero-argument callable only when the sharding pass chose
        region splitting for this pair (one-component overlap graph at or
        above the cell-count gate, a usable partition attribute, fan-out
        requested and not already running inside a pool worker).  The
        callable produces a decomposition *identical* to the inline
        enumeration — the cell-union equality argued in
        :mod:`repro.plan.sharding` — so it slots into
        :func:`decompose_cached` as a ``compute_override`` without touching
        keys, namespaces or the accounting callback.
        """
        workers = self._options.solve_workers
        if workers is None or workers <= 1:
            return None
        from ..parallel.pool import in_worker

        if in_worker():
            return None
        sharded = self.sharded_plan(plan.query.region, max_shards=workers)
        if sharded.strategy != "region" or not sharded.is_sharded:
            return None
        return lambda: self._pooled_region_decomposition(plan, sharded,
                                                         workers)

    def _pooled_region_decomposition(self, plan: BoundPlan, sharded,
                                     workers: int) -> CellDecomposition:
        """Fan the region shards' enumerations out and union their cells.

        Each task carries its shard's full constraint set and sub-region
        (self-contained, so any worker can run it); routing keys reuse the
        shard program keys, so repeated sharded queries keep their affinity
        workers.  Every shard enumerates exactly, like the serial path, so
        the merged cell set equals the serial enumeration.  Every shard goes
        to the pool; the caller caches the merged decomposition whole,
        under the parent region's key, exactly like an inline one.

        Batch size for the pool's batched shipping comes from the plan's
        worst-case cell count: dense constraint sets (heavy per-shard
        enumeration) keep batches small so one task cannot become the
        critical-path straggler, small ones batch aggressively.
        """
        from ..plan.sharding import merge_shard_decompositions
        from ..solvers.batching import adaptive_batch_size

        region = plan.query.region
        keyed = [(self.shard_program_key(shard, region),
                  shard.plan.pcset, shard.plan.query.region)
                 for shard in sharded]
        pool = self.borrow_pool(workers)
        batch_size = adaptive_batch_size(
            len(keyed), pool.max_workers,
            estimated_cells=estimate_cell_count(plan.pcset))
        return merge_shard_decompositions(
            plan, pool.decompose_shards(keyed, batch_size=batch_size))

    def _decompose_plan(self, plan: BoundPlan) -> CellDecomposition:
        """``plan``'s decomposition, through the shared cache when the
        solver has one (the caller's namespace covers the original
        constraint set, and every entry is a whole-region decomposition of
        the optimized set, which follows from that set and the region;
        without a caller's namespace the optimized set's structural key
        names it)."""
        tracer = get_tracer()
        with tracer.span("decompose"):
            decomposition = decompose_cached(
                plan.pcset, plan.query.region,
                cache=self._shared_cache,
                namespace=(None if self._cache_namespace is None
                           else ("plan", self._cache_namespace)),
                on_compute=self._record_decomposition,
                compute_override=self._region_decomposition_factory(plan))
            tracer.annotate(cells=len(decomposition.cells))
        return decomposition
