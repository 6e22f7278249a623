"""Seeded inputs for the three closed-loop workloads.

Each workload turns a seed into (a) a service configuration, (b) the
sessions set up before the timed phase and (c) an endless, deterministic
stream of operations that one client sends, waiting for every answer.  The
program under test only ever sees the generated inputs.

* ``cold-chain`` — every request registers a fresh jittered one-component
  chained constraint set and asks one query: nothing is reusable, so the
  box-SAT cell enumeration is the whole cost.
* ``dashboard-100k`` — one 100k-row session, a Zipf-skewed pool of region
  queries that fits every cache, periodic appends, and a persistent store
  warmed by an earlier instance.
* ``fanout-2proc`` — sessions on a 2-process pool alternating between a
  component-sharded and a region-sharded constraint set, each asked all
  five aggregates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from repro.core.bounds import BoundOptions
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.engine import ContingencyQuery, PCAnalyzer
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema
from repro.service import ContingencyService

__all__ = ["Register", "Query", "Append", "WORKLOADS", "make_workload",
           "serial_answer"]


@dataclass(frozen=True)
class Register:
    session: str
    pcset: PredicateConstraintSet
    observed: Relation | None
    options: BoundOptions


@dataclass(frozen=True)
class Query:
    session: str
    query: ContingencyQuery
    checked: bool = False


@dataclass(frozen=True)
class Append:
    session: str
    rows: Relation


def _aggregate_query(aggregate: str, attribute: str,
                     region: Predicate) -> ContingencyQuery:
    if aggregate == "count":
        return ContingencyQuery.count(region)
    return getattr(ContingencyQuery, aggregate)(attribute, region)


def chained_pcset(rng: np.random.Generator, windows: int,
                  t_offset: float = 0.0) -> PredicateConstraintSet:
    """One overlap component: windows chained along ``t``, each carrying
    four mutually overlapping ``u`` bands, every edge jittered."""
    bands = [(0.0, 40.0), (25.0, 65.0), (50.0, 90.0), (75.0, 100.0)]
    constraints = []
    for window in range(windows):
        # Small jitter: neighbouring windows always overlap, so the set
        # stays one component and its cost stays comparable across seeds.
        start = t_offset + 15.0 * window + rng.uniform(-0.5, 0.5)
        width = 18.0 + rng.uniform(-0.5, 0.5)
        for band, (low, high) in enumerate(bands):
            predicate = Predicate.range("t", round(start, 3),
                                        round(start + width, 3)).with_range(
                "u", round(low + rng.uniform(-2, 2), 3),
                round(high + rng.uniform(-2, 2), 3))
            constraints.append(PredicateConstraint(
                predicate,
                ValueConstraint({"v": (0.0, float(rng.integers(60, 140)))}),
                FrequencyConstraint(0, int(rng.integers(20, 80))),
                name=f"w{window}b{band}"))
    return PredicateConstraintSet(constraints)


def component_pcset(rng: np.random.Generator, components: int = 4,
                    windows: int = 3) -> PredicateConstraintSet:
    """``components`` chains far apart along ``t`` (disjoint overlap groups)."""
    constraints = []
    for component in range(components):
        chain = chained_pcset(rng, windows, t_offset=100.0 * component)
        constraints.extend(pc.rename(f"k{component}{pc.name}") for pc in chain)
    return PredicateConstraintSet(constraints)


class Workload:
    """Base class: one seeded input stream plus its service shape."""

    name = ""
    pool_mode = "serial"
    max_workers: int | None = None
    uses_store = False
    #: Operations in one traced pass at ``--seconds 10`` (scaled linearly).
    trace_ops_per_10s = 100

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def make_service(self, store_dir: str | None) -> ContingencyService:
        return ContingencyService(
            pool_mode=self.pool_mode, max_workers=self.max_workers,
            cache_dir=store_dir if self.uses_store else None)

    def standing_sessions(self) -> list[Register]:
        """Sessions registered during set-up (before the timed phase)."""
        return []

    def warmup(self) -> list:
        """Operations a throwaway instance runs to warm the store."""
        return []

    def operations(self):
        raise NotImplementedError

    def validate(self) -> list[str]:
        """Problems with the generated inputs (none by default)."""
        return []

    def trace_ops(self, seconds: float) -> int:
        return max(8, round(self.trace_ops_per_10s * self.scale
                            * seconds / 10.0))


class ColdChain(Workload):
    name = "cold-chain"
    trace_ops_per_10s = 100
    SIZES = (8, 12, 16)  # windows of four bands: 32, 48 and 64 constraints
    AGGREGATES = ("count", "sum", "max")
    REGION_SHARE = 0.45
    CHECK_EVERY = 15

    def operations(self):
        rng = self.rng(1)
        options = BoundOptions(check_closure=False)
        for index in itertools.count():
            windows = self.SIZES[index % len(self.SIZES)]
            if self.scale < 1.0:
                windows = max(2, round(windows * self.scale))
            pcset = chained_pcset(rng, windows)
            span = 15.0 * windows + 3.0
            width = span * self.REGION_SHARE
            low = rng.uniform(-1.5, span - width)
            region = Predicate.range("t", round(low, 3), round(low + width, 3))
            # Sizes and aggregates rotate so every nine requests hold each
            # (size, aggregate) pair once.
            aggregate = self.AGGREGATES[(index // len(self.SIZES))
                                        % len(self.AGGREGATES)]
            name = f"chain-{index}"
            yield Register(name, pcset, None, options)
            yield Query(name, _aggregate_query(aggregate, "v", region),
                        checked=index % self.CHECK_EVERY == 1)


class Dashboard(Workload):
    name = "dashboard-100k"
    uses_store = True
    trace_ops_per_10s = 700
    ROWS = 100_000
    DAYS = 7.0
    REGIONS = 100
    AGGREGATES = ("count", "sum", "min", "max")
    ZIPF_S = 1.1
    LATE_PLACES = (0, 3)
    APPEND_EVERY = 150
    APPEND_ROWS = 200
    CHECK_EVERY = 97
    SESSION = "dashboard"

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        rng = self.rng(0)
        rows = max(1000, round(self.ROWS * scale))
        self.schema = Schema.from_pairs([("utc", ColumnType.FLOAT),
                                         ("price", ColumnType.FLOAT)])
        utc = np.sort(rng.uniform(0.0, self.DAYS - 1.0, rows))
        price = np.round(rng.gamma(2.0, 20.0, rows) + 0.99, 2)
        self.observed = Relation(self.schema, {"utc": utc, "price": price},
                                 name="sales")
        self.pcset = self._constraints(rng)
        self.options = BoundOptions(check_closure=False)
        # Key i of the pool is drawn with Zipf weight (i + 1)^-s.  Regions
        # come in a seeded order; the COUNT and SUM keys of every region
        # take the popular ranks and MIN and MAX the tail, as on a
        # dashboard of counts and totals.  By popularity, two regions in
        # five reach the late window the appends land in (their reports
        # invalidate) and the rest end before it (theirs migrate).  Laying
        # the pool out by rank keeps the hit and miss mix, and with it the
        # percentiles, the same from seed to seed.
        order = [int(region) for region in rng.permutation(self.REGIONS)]
        late = self.DAYS - 1.0
        regions: dict[int, Predicate] = {}
        for place, region in enumerate(order):
            # Widths follow the place, not the seed: 2.5 or 3.25 days for
            # the late regions, 0.5 to 1.5 for the others.
            if place % 5 in self.LATE_PLACES:
                low = late - 1.5 - 0.25 * (place % 5) + rng.uniform(-0.1, 0.1)
                high = self.DAYS
            else:
                width = 0.5 + 0.2 * (place % 6)
                low = rng.uniform(0.0, late - width)
                high = low + width
            regions[region] = Predicate.range("utc", round(low, 3),
                                              round(high, 3))
        self.keys = [(aggregate, regions[region])
                     for pair in (self.AGGREGATES[:2], self.AGGREGATES[2:])
                     for region in order for aggregate in pair]
        weights = np.arange(1, len(self.keys) + 1, dtype=float) ** -self.ZIPF_S
        self.cdf = np.cumsum(weights / weights.sum())

    def _constraints(self, rng) -> PredicateConstraintSet:
        constraints = []
        for day in range(6):
            start = day + rng.uniform(-0.1, 0.1)
            high_price = float(rng.integers(100, 200)) + 0.99
            constraints.append(PredicateConstraint(
                Predicate.range("utc", round(start, 3), round(start + 1.4, 3)),
                ValueConstraint({"price": (0.99, high_price)}),
                FrequencyConstraint(int(rng.integers(20, 40)),
                                    int(rng.integers(200, 300))),
                name=f"day{day}"))
        return PredicateConstraintSet(constraints)

    def standing_sessions(self) -> list[Register]:
        # A fresh copy each time: the relation memoizes its fingerprint, and
        # a restarted service would have to compute it again.
        observed = Relation(self.schema, {
            name: column.copy()
            for name, column in self.observed.columns().items()}, name="sales")
        return [Register(self.SESSION, self.pcset, observed, self.options)]

    def _query(self, key) -> ContingencyQuery:
        aggregate, region = key
        return _aggregate_query(aggregate, "price", region)

    def warmup(self) -> list:
        return [Query(self.SESSION, self._query(key)) for key in self.keys]

    def operations(self):
        rng = self.rng(1)
        for index in itertools.count():
            if index and index % self.APPEND_EVERY == 0:
                yield Append(self.SESSION,
                             self._delta(rng, index // self.APPEND_EVERY))
            draw = int(np.searchsorted(self.cdf, rng.random(), side="right"))
            key = self.keys[min(draw, len(self.keys) - 1)]
            yield Query(self.SESSION, self._query(key),
                        checked=index % self.CHECK_EVERY == 1)

    def _delta(self, rng, batch: int) -> Relation:
        """~200 recent rows in a late-``utc`` window that moves per batch."""
        low = self.DAYS - 0.99 + 0.02 * (batch % 40)
        count = self.APPEND_ROWS + int(rng.integers(-20, 21))
        utc = np.sort(rng.uniform(low, low + 0.2, count))
        price = np.round(rng.gamma(2.0, 20.0, count) + 0.99, 2)
        return Relation(self.schema, {"utc": utc, "price": price},
                        name="sales")


class Fanout(Workload):
    name = "fanout-2proc"
    pool_mode = "process"
    max_workers = 2
    trace_ops_per_10s = 54
    ROWS = 2000
    AGGREGATES = ("count", "sum", "min", "max", "avg")
    #: One component-sharded and one region-sharded session are checked.
    CHECKED_SESSIONS = (0, 2)

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.schema = Schema.from_pairs([("t", ColumnType.FLOAT),
                                         ("u", ColumnType.FLOAT),
                                         ("v", ColumnType.FLOAT)])
        self.options = BoundOptions(check_closure=False, solve_workers=2)

    def _observed(self, rng, span: float) -> Relation:
        rows = max(50, round(self.ROWS * self.scale))
        return Relation(self.schema, {
            "t": rng.uniform(0.0, span, rows),
            "u": rng.uniform(0.0, 100.0, rows),
            "v": np.round(rng.uniform(0.0, 100.0, rows), 2)}, name="readings")

    def operations(self):
        rng = self.rng(1)
        for index in itertools.count():
            if self.expected_strategy(index) == "component":
                pcset = component_pcset(rng)
                span = 303.0
                region = Predicate.range("t", round(rng.uniform(-2, 2), 3),
                                         round(span + rng.uniform(-2, 2), 3))
            else:
                windows = 6
                pcset = chained_pcset(rng, windows)
                span = 15.0 * windows + 3.0
                low = rng.uniform(-1.5, 4.0)
                region = Predicate.range("t", round(low, 3),
                                         round(span - rng.uniform(0, 4), 3))
            name = f"fan-{index}"
            yield Register(name, pcset, self._observed(rng, span),
                           self.options)
            checked = index in self.CHECKED_SESSIONS
            for aggregate in self.AGGREGATES:
                yield Query(name, _aggregate_query(aggregate, "v", region),
                            checked=checked)

    def validate(self) -> list[str]:
        """The first cycle of sessions must plan to the sharding strategy
        it stands for (checked on fresh analyzers, before any feedback)."""
        problems = []
        operations = list(itertools.islice(
            self.operations(), 3 * (1 + len(self.AGGREGATES))))
        sessions = [operation for operation in operations
                    if isinstance(operation, Register)]
        for index, register in enumerate(sessions):
            query = next(operation.query for operation in operations
                         if isinstance(operation, Query)
                         and operation.session == register.session)
            sharded = PCAnalyzer(register.pcset, observed=register.observed,
                                 options=register.options
                                 ).sharded_plan_for(query)
            expected = self.expected_strategy(index)
            if sharded.strategy != expected or not sharded.is_sharded:
                problems.append(f"{register.session} plans to "
                                f"{sharded.strategy!r}, not {expected!r}")
        return problems

    @staticmethod
    def expected_strategy(index: int) -> str:
        """Sessions cycle component, component, region.  With five queries
        a session, this keeps the median inside the component SUM times
        and p90 inside the component AVG times, clear of a boundary
        between two latency groups."""
        return "region" if index % 3 == 2 else "component"


WORKLOADS = {workload.name: workload
             for workload in (ColdChain, Dashboard, Fanout)}


def make_workload(name: str, seed: int, scale: float = 1.0) -> Workload:
    return WORKLOADS[name](seed, scale)


def serial_answer(register: Register, query: ContingencyQuery):
    """The reference: a fresh serial analyzer with no caches."""
    analyzer = PCAnalyzer(register.pcset, observed=register.observed,
                          options=replace(register.options,
                                          solve_workers=None))
    return analyzer.analyze(query)
