"""Program-aware admission control: price queries from their plans.

A production service must refuse work it cannot afford *before* paying for
it.  The plan pipeline makes that possible: ``plan_for(query)`` plus the
sharding pass expose — without decomposing or solving anything — exactly the
quantities that predict a query's cost: the optimized constraint count, the
worst-case satisfiable-cell count
(:func:`~repro.core.cells.estimate_cell_count`, which region sharding
reads too), the sharded layout (strategy and shard count), whether the
compiled program is already warm in the cache, and the worker pool's
warm-hit rate.

:func:`price_query` folds those signals into a scalar unit count
(:class:`QueryCost`), and :class:`AdmissionController` holds it against
one per-query budget (``max_query_cost``): a query priced above it is shed
with :class:`~repro.exceptions.QueryRejectedError`, which carries the
price model's inversion of the budget (:func:`admissible_cell_budget`).
Admission holds no capacity, so an admitted query owes the controller
nothing when it finishes.

Everything happens at the plan stage: a rejected query never touches the
decomposition cache, never compiles a program, and never dispatches a pool
task.  Report-cache hits are never priced — answering from cache costs
nothing worth metering.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from ..core.cells import estimate_cell_count
from ..exceptions import QueryRejectedError
from ..obs.metrics import get_registry
from ..plan.program import AVG_MAX_PROBES
from ..relational.aggregates import AggregateFunction

__all__ = ["QueryCost", "price_query", "admissible_cell_budget",
           "AdmissionStatistics", "AdmissionController"]

#: Registry counter names, precomputed so the mutation hot path never
#: formats strings (mirrors the worker pool's ``_POOL_METRICS`` idiom).
_ADMISSION_METRICS = {
    field: f"admission.{field}"
    for field in ("priced", "admitted", "rejected_over_budget",
                  "units_admitted")
}


@dataclass(frozen=True)
class QueryCost:
    """One query's priced execution, with the signals behind the number.

    ``units`` is the scalar the controller meters; the remaining fields
    record how it was derived so rejections are explainable (``describe``)
    and monitoring can aggregate by cause.
    """

    units: float
    aggregate: str
    constraint_count: int
    estimated_cells: int
    shard_count: int
    strategy: str
    program_warm: bool
    pool_warm_hit_rate: float

    def describe(self) -> str:
        warmth = "warm" if self.program_warm else "cold"
        return (f"{self.aggregate} priced at {self.units:.1f} unit(s) "
                f"({self.constraint_count} constraint(s), "
                f"~{self.estimated_cells} cell(s), {self.strategy} x "
                f"{self.shard_count} shard(s), {warmth} program)")

    def as_dict(self) -> dict[str, object]:
        return {
            "units": self.units,
            "aggregate": self.aggregate,
            "constraint_count": self.constraint_count,
            "estimated_cells": self.estimated_cells,
            "shard_count": self.shard_count,
            "strategy": self.strategy,
            "program_warm": self.program_warm,
            "pool_warm_hit_rate": self.pool_warm_hit_rate,
        }


def price_query(solver, query, *, pool_statistics=None) -> QueryCost:
    """Price ``query`` against ``solver``'s plan — no decomposition, no solve.

    The model is deliberately simple, monotone, and sourced entirely from
    plan-stage quantities (one unit ≈ one satisfiability check or one
    patched-objective solve over one cell):

    * **build cost** — a cold (region, attribute) pair pays the enumeration
      plus compilation, ``estimated_cells + constraints``; a warm pair pays
      nothing.  The worker pool's warm-hit rate discounts the cold cost —
      a pool that has been answering this workload likely holds the
      per-shard skeletons already.
    * **solve cost** — one objective patch over the estimated cells, divided
      by the shard count (shards solve concurrently), and multiplied for
      AVG by its iteration cap in both directions, ``2 * AVG_MAX_PROBES``
      (each Dinkelbach iteration is one patched solve per direction; a
      search usually closes in two or three).

    Monotone by construction: more constraints or more estimated cells can
    only raise the price, warmth and sharding can only lower it.
    """
    sharded = solver.sharded_plan(query.region, query.attribute)
    plan = sharded.parent
    cells = max(1, estimate_cell_count(plan.pcset))
    constraints = len(plan.pcset)
    # The sharded layout only discounts the price when the solver will
    # actually execute it — a session without fan-out runs serially no
    # matter how the plan could have been split.
    workers = getattr(solver.options, "solve_workers", None)
    fans_out = (workers is not None and workers > 1) and sharded.is_sharded
    shard_count = len(sharded) if fans_out else 1
    strategy = sharded.strategy if fans_out else "serial"
    # Warmth is probed against the programs the chosen layout will actually
    # look up: component-sharded execution compiles only shard-token keys
    # (the unsharded pair key stays forever cold there), while serial and
    # region-sharded execution compile the pair program itself.
    if fans_out and sharded.strategy == "component":
        warm = all(solver.has_cached_program(query.region, query.attribute,
                                             shard=shard)
                   for shard in sharded)
    else:
        warm = solver.has_cached_program(query.region, query.attribute)
    warm_hit_rate = 0.0
    if pool_statistics is not None:
        warm_hit_rate = min(1.0, max(0.0, pool_statistics.warm_hit_rate))

    build = 0.0
    if not warm:
        build = float(cells + constraints)
        # Sharded builds fan out; pool warmth means skeletons are likely
        # already resident worker-side.
        build = build / shard_count * (1.0 - 0.5 * warm_hit_rate)
    probes = 1
    if query.aggregate is AggregateFunction.AVG:
        probes = 2 * AVG_MAX_PROBES
    solve = probes * float(cells) / shard_count
    return QueryCost(units=build + solve,
                     aggregate=query.aggregate.value,
                     constraint_count=constraints,
                     estimated_cells=cells,
                     shard_count=shard_count,
                     strategy=strategy,
                     program_warm=warm,
                     pool_warm_hit_rate=warm_hit_rate)


def admissible_cell_budget(cost: QueryCost, budget: float) -> int:
    """The largest estimated-cell count that would clear ``budget``.

    Inverts :func:`price_query` for a query with ``cost``'s shape (same
    aggregate, constraint count, sharded layout and warmth): the price is
    linear in the estimated cells, so solving ``price(cells) <= budget``
    for ``cells`` gives rejected callers a concrete downscoping target —
    "tighten your region below this many estimated cells and the query
    fits" — instead of an opaque unit total.
    """
    shard_count = max(1, cost.shard_count)
    cells = max(1, cost.estimated_cells)
    discount = 0.0
    if not cost.program_warm:
        discount = (1.0 - 0.5 * cost.pool_warm_hit_rate) / shard_count
    # Recover the probe multiplier from the priced total — the only term
    # price_query derives from options rather than recording on the cost.
    build = (cells + cost.constraint_count) * discount
    probes = max((cost.units - build) * shard_count / cells, 1.0)
    per_cell = probes / shard_count + discount
    base = cost.constraint_count * discount
    if budget <= base:
        return 0
    return max(0, int((budget - base) / per_cell))


@dataclass
class AdmissionStatistics:
    """What the controller has decided so far."""

    priced: int = 0
    admitted: int = 0
    rejected_over_budget: int = 0
    units_admitted: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "priced": self.priced,
            "admitted": self.admitted,
            "rejected_over_budget": self.rejected_over_budget,
            "units_admitted": self.units_admitted,
        }


class AdmissionController:
    """Thread-safe enforcement of one per-query budget, ``max_query_cost``.

    ``admit`` and ``admit_many`` return once every cost clears the budget
    and raise :class:`~repro.exceptions.QueryRejectedError` otherwise.
    """

    def __init__(self, max_query_cost: float):
        self._max_query_cost = max_query_cost
        self._lock = threading.Lock()
        self._statistics = AdmissionStatistics()

    def _bump(self, field: str, amount: float = 1) -> None:
        """Advance one decision counter in the dataclass snapshot *and* the
        process-wide metrics registry (``admission.*``)."""
        with self._lock:
            statistics = self._statistics
            setattr(statistics, field, getattr(statistics, field) + amount)
        get_registry().counter(_ADMISSION_METRICS[field]).inc(amount)

    @property
    def statistics(self) -> AdmissionStatistics:
        with self._lock:
            return replace(self._statistics)

    def admit(self, cost: QueryCost) -> None:
        """Admit one query, or shed it when ``cost`` exceeds the budget."""
        self._admit([cost], "query")

    def admit_many(self, costs: list[QueryCost]) -> None:
        """Admit a batch's distinct cache misses, each on its own budget.

        Every member is counted as priced once, up front, and each must
        clear ``max_query_cost`` (a batch is not a loophole around the
        per-query ceiling): one member over it rejects the whole batch
        before any member is admitted.
        """
        self._admit(costs, "batch")

    def _admit(self, costs: list[QueryCost], what: str) -> None:
        self._bump("priced", len(costs))
        budget = self._max_query_cost
        for cost in costs:
            if cost.units > budget:
                self._bump("rejected_over_budget")
                fitting = admissible_cell_budget(cost, budget)
                raise QueryRejectedError(
                    f"{what} rejected before any solve was dispatched: "
                    f"{cost.describe()} exceeds the per-query budget of "
                    f"{budget:.1f} unit(s); a same-shaped query of at most "
                    f"~{fitting} estimated cell(s) would fit",
                    cost=cost.units, limit=budget, reason="over-budget",
                    cell_budget=fitting)
        self._bump("admitted", len(costs))
        self._bump("units_admitted", sum(cost.units for cost in costs))
