"""The public facade of the predicate-constraint framework.

:class:`PCAnalyzer` answers contingency-analysis questions: *given what I
believe about the missing rows (a predicate-constraint set) and the data I
do have, what range of values could my aggregate query take?*

Queries are expressed as :class:`ContingencyQuery` — an aggregate, an
optional aggregated attribute, and an optional box-predicate region (the
query's WHERE clause).  The analyzer bounds the missing partition with
:class:`~repro.core.bounds.PCBoundSolver` and, when an observed relation is
supplied, combines that bound with the exact answer over the observed rows
(the paper's "partial ground truth" combination, §6.2).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from ..exceptions import QueryError
from ..obs.trace import get_tracer
from ..relational.aggregates import (
    AggregateFunction,
    ExactSum,
    compute_aggregate,
)
from ..relational.query import AggregateQuery
from ..relational.relation import Relation
from .bounds import BoundOptions, PCBoundSolver, ResultRange
from .pcset import PredicateConstraintSet
from .predicates import Predicate

__all__ = ["ContingencyQuery", "ContingencyReport", "PCAnalyzer"]

_INF = float("inf")


@dataclass(frozen=True)
class ContingencyQuery:
    """An aggregate query in the form the bounding engine understands.

    ``region`` is the WHERE clause restricted to the box-predicate language
    of §3.1 (conjunctions of ranges and equalities) — the same restriction
    the paper places on predicate-constraints themselves.
    """

    aggregate: AggregateFunction
    attribute: str | None = None
    region: Predicate | None = None

    def __post_init__(self) -> None:
        if self.aggregate.needs_attribute and self.attribute is None:
            raise QueryError(f"{self.aggregate.value} requires an attribute")
        if not self.aggregate.needs_attribute and self.attribute is not None:
            raise QueryError("COUNT(*) queries must not name an attribute")

    # Convenience constructors ------------------------------------------------
    @classmethod
    def count(cls, region: Predicate | None = None) -> "ContingencyQuery":
        return cls(AggregateFunction.COUNT, None, region)

    @classmethod
    def sum(cls, attribute: str, region: Predicate | None = None) -> "ContingencyQuery":
        return cls(AggregateFunction.SUM, attribute, region)

    @classmethod
    def avg(cls, attribute: str, region: Predicate | None = None) -> "ContingencyQuery":
        return cls(AggregateFunction.AVG, attribute, region)

    @classmethod
    def min(cls, attribute: str, region: Predicate | None = None) -> "ContingencyQuery":
        return cls(AggregateFunction.MIN, attribute, region)

    @classmethod
    def max(cls, attribute: str, region: Predicate | None = None) -> "ContingencyQuery":
        return cls(AggregateFunction.MAX, attribute, region)

    def to_aggregate_query(self) -> AggregateQuery:
        """The equivalent relational query (for exact evaluation on data)."""
        return AggregateQuery(self.aggregate, self.attribute, self.region)

    def ground_truth(self, relation: Relation) -> float | None:
        """The exact answer of this query over ``relation``."""
        return self.to_aggregate_query().scalar(relation)

    def describe(self) -> str:
        target = "*" if self.attribute is None else self.attribute
        text = f"{self.aggregate.value}({target})"
        if self.region is not None and not self.region.is_tautology():
            text += f" WHERE {self.region!r}"
        return text


@dataclass
class ContingencyReport:
    """The full output of a contingency analysis for one query."""

    query: ContingencyQuery
    result_range: ResultRange
    missing_range: ResultRange
    observed_value: float | None
    observed_rows: int
    elapsed_seconds: float
    #: The matching observed rows' exact sum, for SUM and AVG over an
    #: observed relation (``observed_value`` is its rounded value for SUM).
    observed_sum: ExactSum | None = None
    #: The EXPLAIN ANALYZE span tree, attached only when the caller asked
    #: for one (``ContingencyService.analyze(..., profile=True)``) — plain
    #: analyzer calls leave it None so reports stay lean and picklable
    #: across the worker-pool boundary.
    profile: "object | None" = None

    @property
    def lower(self) -> float | None:
        return self.result_range.lower

    @property
    def upper(self) -> float | None:
        return self.result_range.upper

    @property
    def degraded_shards(self) -> tuple:
        """Shard positions answered from worst-case fallback ranges.

        Non-empty only under ``BoundOptions(degrade="worst-case")`` when a
        shard timed out or kept failing: its contribution is the
        precomputed worst-case range (a sound superset), and this tuple
        names exactly which shards were degraded.  Empty means every shard
        was solved exactly.
        """
        statistics = self.result_range.statistics
        if statistics is None:
            return ()
        return tuple(getattr(statistics, "degraded_shards", ()) or ())

    def summary(self) -> str:
        """A one-line human-readable summary."""
        text = (f"{self.query.describe()}: range [{self.lower}, {self.upper}] "
                f"(observed={self.observed_value}, "
                f"missing ∈ [{self.missing_range.lower}, {self.missing_range.upper}], "
                f"{self.elapsed_seconds * 1000:.1f} ms)")
        if self.degraded_shards:
            text += f" [degraded shards: {list(self.degraded_shards)}]"
        return text


class PCAnalyzer:
    """Bounds aggregate queries under predicate-constraints on missing rows.

    Parameters
    ----------
    pcset:
        Constraints describing the missing partition ``R?``.
    observed:
        The certain partition ``R*`` (optional).  When given, reported
        ranges cover the whole relation ``R* ∪ R?``; otherwise they cover
        only the missing partition.
    options:
        Solver tuning knobs (MILP backend, closure checking, fan-out,
        verification, deadlines).
    decomposition_cache:
        Optional shared decomposition cache (see
        :class:`~repro.core.bounds.PCBoundSolver`).  The service layer passes
        one :class:`repro.service.LRUCache` to every analyzer it creates so
        repeated or region-sharing queries skip re-decomposition.
    cache_namespace:
        Overrides the namespace used inside the shared cache (defaults to a
        content fingerprint of the constraint set).
    program_cache:
        Optional shared cache of compiled bound programs (see
        :class:`~repro.plan.BoundProgram`); the service layer passes one so
        warm queries skip plan compilation as well as decomposition.
    worker_pool:
        Optional long-lived :class:`~repro.parallel.pool.WorkerPool` the
        solver's sharded fan-out borrows (the service passes its own).
    range_cache:
        Optional shared cache of missing-row ranges keyed by compiled
        program (see :class:`~repro.core.bounds.PCBoundSolver`); the service
        passes one so a report miss over a known (region, attribute,
        aggregate) skips compiling and solving.  Without it nothing is
        memoized.
    """

    def __init__(self, pcset: PredicateConstraintSet,
                 observed: Relation | None = None,
                 options: BoundOptions | None = None,
                 decomposition_cache=None,
                 cache_namespace: object = None,
                 program_cache=None,
                 worker_pool=None,
                 range_cache=None):
        self._pcset = pcset
        self._observed = observed
        self._options = options or BoundOptions()
        self._solver = PCBoundSolver(pcset, self._options,
                                     decomposition_cache=decomposition_cache,
                                     cache_namespace=cache_namespace,
                                     program_cache=program_cache,
                                     worker_pool=worker_pool,
                                     range_cache=range_cache)

    @property
    def pcset(self) -> PredicateConstraintSet:
        return self._pcset

    @property
    def observed(self) -> Relation | None:
        return self._observed

    @property
    def options(self) -> BoundOptions:
        return self._options

    @property
    def solver(self) -> PCBoundSolver:
        """The underlying bound solver (exposes decomposition counters)."""
        return self._solver

    def plan_for(self, query: ContingencyQuery):
        """The optimized :class:`~repro.plan.BoundPlan` for ``query``.

        Introspection only — ``analyze`` compiles and executes the same
        plan.  ``plan_for(query).describe()`` is the query's EXPLAIN output.
        """
        return self._solver.plan(query)

    def sharded_plan_for(self, query: ContingencyQuery):
        """The :class:`~repro.plan.ShardedBoundPlan` the sharding pass would
        execute ``query`` through (introspection: strategy, shard layout).

        Like :meth:`plan_for` this never decomposes or solves — the service
        layer prices admission decisions from it, and the CLI renders it as
        the sharding half of the EXPLAIN output.
        """
        return self._solver.sharded_plan(query.region)

    # ------------------------------------------------------------------ #
    # Main API
    # ------------------------------------------------------------------ #
    def bound(self, query: ContingencyQuery) -> ResultRange:
        """The result range for ``query`` (observed ∪ missing)."""
        return self.analyze(query).result_range

    def bound_missing(self, query: ContingencyQuery) -> ResultRange:
        """The result range for ``query`` over the missing partition only."""
        return self._solver.bound(query.aggregate, query.attribute, query.region)

    def analyze(self, query: ContingencyQuery) -> ContingencyReport:
        """Bound the query and package the full report."""
        started = time.perf_counter()
        tracer = get_tracer()
        with tracer.span("analyze"):
            tracer.annotate(aggregate=query.aggregate.value)
            with tracer.span("observed"):
                observed_value, observed_rows, observed_sum = \
                    self._observed_summary(query)
            if query.aggregate is AggregateFunction.AVG:
                known_sum = (0.0 if observed_sum is None
                             else observed_sum.value)
                if math.isnan(known_sum):
                    # A NaN observed value makes every average NaN, as it
                    # makes the other aggregates' results NaN; the search
                    # would answer an inverted range, and a NaN known_sum
                    # never equals itself as a range-tier key.
                    missing = ResultRange(math.nan, math.nan, query.aggregate,
                                          query.attribute)
                else:
                    missing = self._solver.bound(
                        query.aggregate, query.attribute, query.region,
                        known_sum=known_sum,
                        known_count=float(observed_rows))
                combined = missing  # AVG combination inside the solver.
            else:
                missing = self._solver.bound(query.aggregate, query.attribute,
                                             query.region)
                combined = (missing if self._observed is None else
                            self._combine(query, missing, observed_value,
                                          observed_sum))
        elapsed = time.perf_counter() - started
        return ContingencyReport(query=query, result_range=combined,
                                 missing_range=missing,
                                 observed_value=observed_value,
                                 observed_rows=observed_rows,
                                 elapsed_seconds=elapsed,
                                 observed_sum=observed_sum)

    def bound_all(self, queries: list[ContingencyQuery]) -> list[ContingencyReport]:
        """Analyze a workload of queries."""
        return [self.analyze(query) for query in queries]

    def analyze_group_by(self, query: ContingencyQuery, group_attribute: str,
                         groups: list | None = None) -> dict[object, ContingencyReport]:
        """Per-group result ranges (the paper treats GROUP BY as a query union).

        Each group value becomes one query whose region conjoins
        ``group_attribute = value`` onto the base query's region.  Group
        values are taken from, in order of preference: the explicit
        ``groups`` argument, the attribute's categorical domain declared on
        the constraint set, or the distinct values observed in the certain
        partition.  Note that with only observed values the result cannot
        speak for groups that exist exclusively in the missing rows.
        """
        values = self._group_values(group_attribute, groups)
        reports: dict[object, ContingencyReport] = {}
        for value in values:
            if isinstance(value, str):
                group_predicate = Predicate.equals(group_attribute, value)
            else:
                group_predicate = Predicate.range(group_attribute, float(value),
                                                  float(value))
            region = (group_predicate if query.region is None
                      else query.region.conjoin(group_predicate))
            grouped_query = ContingencyQuery(query.aggregate, query.attribute, region)
            reports[value] = self.analyze(grouped_query)
        return reports

    def _group_values(self, group_attribute: str, groups: list | None) -> list:
        if groups is not None:
            return list(groups)
        domain = self._pcset.domains.get(group_attribute)
        if domain is not None and not domain.is_numeric:
            return sorted(domain.categories.values, key=repr)
        if self._observed is not None and group_attribute in self._observed.schema:
            return list(self._observed.distinct_values(group_attribute))
        raise QueryError(
            f"cannot enumerate groups for {group_attribute!r}: pass them explicitly, "
            "declare a categorical domain, or provide an observed relation")

    def validate_constraints(self, historical: Relation) -> list:
        """Check the constraint set against historical data (paper §1, point 1)."""
        return self._pcset.validate_against(historical)

    # ------------------------------------------------------------------ #
    # Observed-partition handling
    # ------------------------------------------------------------------ #
    def _observed_summary(self, query: ContingencyQuery
                          ) -> tuple[float | None, int, ExactSum | None]:
        """(observed aggregate, matching row count, exact matching sum for
        SUM and AVG)."""
        if self._observed is None:
            return None, 0, None
        result = query.to_aggregate_query().execute(self._observed)
        return result.value, result.matching_rows, result.exact_sum

    @classmethod
    def merge_appended(cls, report: ContingencyReport,
                       matched: Relation) -> ContingencyReport | None:
        """``report`` over an observed relation after an append, from
        ``report`` over it before; ``matched`` holds the appended rows in
        the report's region.  It reads no analyzer state, so an append
        builds no analyzer for the new version.

        COUNT, SUM, MIN and MAX merge exactly under inserts: the count adds
        the matched rows, the exact sum adds their
        :class:`~repro.relational.aggregates.ExactSum` (memoized on
        ``matched``, so regions that share it sum it once; the rounded
        value is a cold scan's, NaN and infinities included), and an
        extreme is the extreme of the old value (None: no old rows) and the
        matched rows', NaN propagating as in ``np.min``.  The missing range
        depends on the program, not the data, so it is reused and
        :meth:`_combine` rebuilds the result: the merge equals a cold
        ``analyze`` bit for bit.  AVG (its range must be solved again under
        the new sum and count) and a degraded report (the range tier never
        reuses a fallback range) return None: they rescan.
        """
        query = report.query
        aggregate = query.aggregate
        if aggregate is AggregateFunction.AVG or report.degraded_shards:
            return None
        matching = matched.num_rows
        observed_sum = None
        if aggregate is AggregateFunction.COUNT:
            observed = report.observed_value + matching
        elif aggregate is AggregateFunction.SUM:
            observed_sum = (report.observed_sum
                            + matched.exact_sum(query.attribute))
            observed = observed_sum.value
        else:
            old = report.observed_value
            observed = compute_aggregate(aggregate,
                                         matched.column(query.attribute))
            if old is not None:
                pick = (np.minimum if aggregate is AggregateFunction.MIN
                        else np.maximum)
                observed = (old if observed is None
                            else float(pick(old, observed)))
        return replace(report,
                       result_range=cls._combine(query, report.missing_range,
                                                 observed, observed_sum),
                       observed_value=observed,
                       observed_rows=report.observed_rows + matching,
                       observed_sum=observed_sum)

    @classmethod
    def _combine(cls, query: ContingencyQuery, missing: ResultRange,
                 observed_value: float | None,
                 observed_sum: ExactSum | None) -> ResultRange:
        """Combine the missing-partition range with the observed answer."""
        aggregate = query.aggregate
        if aggregate is AggregateFunction.COUNT:
            return missing.shifted(observed_value)
        if aggregate is AggregateFunction.SUM:
            return cls._combine_sum(missing, observed_sum)
        if aggregate is AggregateFunction.MAX:
            return cls._combine_max(missing, observed_value)
        if aggregate is AggregateFunction.MIN:
            return cls._combine_min(missing, observed_value)
        return missing

    @staticmethod
    def _combine_sum(missing: ResultRange, observed: ExactSum) -> ResultRange:
        """Add the exact observed sum to each missing endpoint exactly and
        round the lower end down and the upper end up, so the range holds
        every exact total, not only its nearest doubles (an infinite
        endpoint or a NaN observed sum adds as in IEEE arithmetic)."""
        lower, upper = missing.lower, missing.upper
        return replace(
            missing,
            lower=None if lower is None else observed.shifted(lower, False),
            upper=None if upper is None else observed.shifted(upper, True))

    @staticmethod
    def _combine_max(missing: ResultRange, observed: float | None) -> ResultRange:
        candidates_lower = [value for value in (observed, missing.lower)
                            if value is not None]
        lower = max(candidates_lower) if candidates_lower else None
        if missing.upper is None:
            upper = observed
        elif observed is None:
            upper = missing.upper
        else:
            upper = max(observed, missing.upper)
        return ResultRange(lower, upper, missing.aggregate, missing.attribute,
                           closed=missing.closed, statistics=missing.statistics)

    @staticmethod
    def _combine_min(missing: ResultRange, observed: float | None) -> ResultRange:
        candidates_upper = [value for value in (observed, missing.upper)
                            if value is not None]
        upper = min(candidates_upper) if candidates_upper else None
        if missing.lower is None:
            lower = observed
        elif observed is None:
            lower = missing.lower
        else:
            lower = min(observed, missing.lower)
        return ResultRange(lower, upper, missing.aggregate, missing.attribute,
                           closed=missing.closed, statistics=missing.statistics)
