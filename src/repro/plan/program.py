"""Compiled bound programs: the physical artifact of the plan pipeline.

A :class:`BoundProgram` is the compiled form of one optimized
:class:`~repro.plan.ir.BoundPlan`, specialised to a (query region,
aggregated attribute) pair and able to answer *every* aggregate over that
pair.  Compilation materializes, exactly once:

* the cell decomposition (through the shared decomposition cache),
* per-cell profiles (capacity, value bounds clipped to the query region),
* the slack-variable layout for mandatory rows that may live outside the
  region (one satisfiability check per mandatory constraint — previously
  re-run for every MILP build),
* the MILP *skeleton*: one column per cell (then one per slack variable),
  their upper bounds and the frequency coupling rows, written straight into
  the arrays of a :class:`~repro.solvers.milp.CompiledMILP`.

Executions then only patch parameters: SUM/COUNT swap objective vectors,
AVG's binary search swaps the ``value - target`` objective per probe, and
MIN/MAX read precompiled extrema after one memoized feasibility check.  The
AVG search itself, :func:`avg_endpoints`, serves one program and the
component programs of a sharded plan alike.  This is what makes
compiled-program reuse cheap enough for the service layer to treat programs
as cacheable values alongside decompositions.

There is no second model builder to compare against:
``tests/test_range_oracle.py`` checks COUNT, SUM, MIN and MAX against an
enumeration of every allocation of rows to the points of tiny generated
sets, and ``tests/test_avg_oracle.py`` does the same for AVG.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..exceptions import SolverError
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..relational.aggregates import AggregateFunction
from ..solvers.lp import LPSolution, Sense, SolutionStatus
from ..solvers.milp import CompiledMILP
from ..core.cells import CellDecomposition
from ..core.pcset import PredicateConstraintSet
from ..core.predicates import Predicate
from ..core.ranges import ResultRange
from .ir import BoundPlan

__all__ = ["CellProfile", "BoundProgram", "compile_plan", "avg_endpoints",
           "AVG_TOLERANCE", "AVG_MAX_PROBES"]

_INF = float("inf")

#: The AVG search (:func:`avg_endpoints`) stops once its bracket is this
#: narrow relative to the bracket's magnitude, or after this many probes
#: per direction.
AVG_TOLERANCE = 1e-6
AVG_MAX_PROBES = 64

_UNSATISFIABLE = ("the predicate-constraint set is unsatisfiable: no "
                  "allocation of missing rows meets every frequency constraint")

# Skeleton variants: which profile subset a model is built over, and whether
# the "at least one allocated row" floor (AVG with no observed rows) applies.
_FULL = "full"
_ACTIVE = "active"
_ACTIVE_FLOOR = "active-floor"

# Batch-size histogram buckets: row counts per kernel entry, not latencies.
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                       512.0)


@dataclass(frozen=True)
class CellProfile:
    """Per-cell data extracted from the covering constraints."""

    index: int
    covering: frozenset[int]
    capacity: int
    value_upper: float
    value_lower: float


def _compile_skeleton(profiles: list[CellProfile], slack_bounds: dict[int, int],
                      pcset: PredicateConstraintSet, floor_row: bool,
                      backend: str) -> CompiledMILP:
    """One frozen model structure over ``profiles``: variables and coupling
    rows, no objective.

    Columns are the cells in profile order, then one slack variable per
    ``slack_bounds`` entry in constraint order.  Rows are the frequency
    constraints in order, then the "at least one allocated row" floor over
    the cells when ``floor_row``.  A constraint that covers nothing gets no
    row (it raises if it forces rows), and neither does one covering a
    single cell with no slack and no forced rows: that cell's capacity is
    already at most the constraint's maximum.  Skipping it keeps the
    disjoint / partitioned case a pure box problem, which the greedy step
    solves in linear time (paper §4.2).
    """
    slack = sorted(slack_bounds)
    upper = np.array([profile.capacity for profile in profiles]
                     + [slack_bounds[index] for index in slack], dtype=float)
    coverage = np.zeros((len(pcset), len(upper)))
    for column, profile in enumerate(profiles):
        coverage[list(profile.covering), column] = 1.0
    for column, index in enumerate(slack, start=len(profiles)):
        coverage[index, column] = 1.0
    terms = np.count_nonzero(coverage, axis=1)
    kept: list[int] = []
    for index, pc in enumerate(pcset):
        if terms[index] == 0:
            if pc.min_rows() > 0:
                raise SolverError(
                    f"constraint {pc.name!r} forces rows to exist but its "
                    "predicate is unsatisfiable")
        elif terms[index] > 1 or index in slack_bounds or pc.min_rows() > 0:
            kept.append(index)
    matrix = coverage[kept]
    row_lower = [float(pcset[index].min_rows()) for index in kept]
    row_upper = [float(pcset[index].max_rows()) for index in kept]
    if floor_row:
        floor = np.zeros(len(upper))
        floor[:len(profiles)] = 1.0
        matrix = np.vstack([matrix, floor])
        row_lower.append(1.0)
        row_upper.append(_INF)
    return CompiledMILP(upper, matrix, row_lower, row_upper, backend)


def _objective_matrix(milp: CompiledMILP, rows: Sequence[Sequence[float]]
                      ) -> np.ndarray:
    """Cell-coefficient ``rows`` as objective rows over ``milp``'s columns:
    the slack columns after the cells carry 0."""
    matrix = np.zeros((len(rows), milp.num_variables))
    matrix[:, :len(rows[0])] = rows
    return matrix


class BoundProgram:
    """One compiled (constraint set, region, attribute) bounding program.

    Answers all five aggregates; AVG additionally takes the observed
    partition's ``(known_sum, known_count)`` as execution-time parameters.
    Compiled state is immutable; lazily-built pieces (skeleton variants,
    forced extrema) are guarded by a lock, so one program instance can serve
    concurrent batch traffic.
    """

    def __init__(self, plan: BoundPlan, decomposition: CellDecomposition):
        self._plan = plan
        self._pcset = plan.pcset
        self._region = plan.query.region
        self._attribute = plan.query.attribute
        self._decomposition = decomposition
        self._backend = plan.milp_backend
        self._lock = threading.Lock()

        self._profiles = self._build_profiles()
        self._active = [p for p in self._profiles if p.capacity > 0]
        self._slack_bounds = self._compile_slack_bounds()
        self._skeletons: dict[str, CompiledMILP] = {}
        self._forced_extrema: dict[bool, float | None] = {}
        self._satisfiable: bool | None = None
        # Patchable coefficient vectors, aligned with the skeleton variants.
        self._full_uppers = np.array([p.value_upper for p in self._profiles])
        self._full_lowers = np.array([p.value_lower for p in self._profiles])
        self._active_uppers = np.array([p.value_upper for p in self._active])
        self._active_lowers = np.array([p.value_lower for p in self._active])

    # ------------------------------------------------------------------ #
    # Pickling (process-pool solve fan-out)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Everything but the lock: compiled skeletons travel with the program.

        The worker pool hands warm programs to worker processes, so
        lazily-built skeletons, forced extrema and the feasibility verdict
        are deliberately kept in the state — a worker receives the same warm
        artifact the parent had instead of re-deriving it.
        """
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def plan(self) -> BoundPlan:
        return self._plan

    @property
    def decomposition(self) -> CellDecomposition:
        return self._decomposition

    @property
    def profiles(self) -> list[CellProfile]:
        return list(self._profiles)

    @property
    def active_profiles(self) -> list[CellProfile]:
        """The cells that can actually hold rows (capacity > 0).

        :func:`avg_endpoints` unions these across its programs for the AVG
        bracket (no active cells, infinite value bounds, search start).
        """
        return list(self._active)

    @property
    def pcset(self) -> PredicateConstraintSet:
        return self._pcset

    @property
    def attribute(self) -> str | None:
        return self._attribute

    @property
    def region(self) -> Predicate | None:
        return self._region

    def check_satisfiable(self) -> None:
        """Raise :class:`~repro.exceptions.SolverError` unless some
        allocation of rows meets every constraint.

        COUNT and SUM learn this from their own solves; MIN, MAX and AVG's
        solver-free answers ask here, so every aggregate raises on the same
        sets.  Without mandatory rows the empty allocation always qualifies.
        Otherwise the verdict, memoized per program, is COUNT's max solve
        over the full skeleton; without active cells the empty allocation is
        the only one left, and it qualifies when every constraint that
        forces rows can park them outside the query region.  A failed solve
        raises its own error and is not memoized.
        """
        if not self._pcset.has_mandatory_rows():
            return
        with self._lock:
            satisfiable = self._satisfiable
        if satisfiable is None:
            if self._active:
                status, objective = self._solve_rows(
                    _FULL, [np.ones(len(self._profiles))], Sense.MAXIMIZE)[0]
                satisfiable = status is not SolutionStatus.INFEASIBLE
                if satisfiable:
                    self._checked_value(status, objective, Sense.MAXIMIZE)
            else:
                satisfiable = all(index in self._slack_bounds
                                  for index, pc in enumerate(self._pcset)
                                  if pc.min_rows() > 0)
            with self._lock:
                self._satisfiable = satisfiable
        if not satisfiable:
            raise SolverError(_UNSATISFIABLE)

    # ------------------------------------------------------------------ #
    # Compilation steps
    # ------------------------------------------------------------------ #
    def _build_profiles(self) -> list[CellProfile]:
        """One profile per cell: its capacity and the aggregated
        attribute's value bounds, clipped to the query region.

        A cell is barren (capacity 0) when, on the aggregated attribute or
        on any attribute a constraint bounds, its covering constraints'
        bounds (folded with their predicate ranges, as
        :meth:`~repro.core.constraints.PredicateConstraint.value_lower`
        does) clipped to the region's range on that attribute are empty:
        no row of the cell can meet them all.  Each constraint's bounds are
        read once per program.  An attribute whose bounds meet across every
        constraint cannot empty a cell, so only the others are checked.
        """
        attribute, region, pcset = self._attribute, self._region, self._pcset
        names = {name for pc in pcset for name in pc.values.attributes()}
        if attribute is not None:
            names.add(attribute)
        bounds: dict[str, tuple[list[float], list[float]]] = {}
        for name in names:
            lows = [pc.value_lower(name) for pc in pcset]
            highs = [pc.value_upper(name) for pc in pcset]
            clip = None if region is None else region.range_for(name)
            if clip is not None:
                lows = [max(low, clip.low) for low in lows]
                highs = [min(high, clip.high) for high in highs]
            bounds[name] = (lows, highs)
        checked = [(lows, highs) for name, (lows, highs) in bounds.items()
                   if name != attribute and max(lows) > min(highs)]
        capacities = [pc.max_rows() for pc in pcset]
        profiles: list[CellProfile] = []
        for index, cell in enumerate(self._decomposition.cells):
            covering = cell.covering
            capacity = min(capacities[i] for i in covering)
            if attribute is None:
                value_upper, value_lower = 1.0, 1.0
            else:
                lows, highs = bounds[attribute]
                value_upper = min(highs[i] for i in covering)
                value_lower = max(lows[i] for i in covering)
                if value_upper < value_lower:
                    capacity = 0
            if any(min(highs[i] for i in covering)
                   < max(lows[i] for i in covering)
                   for lows, highs in checked):
                capacity = 0
            profiles.append(CellProfile(index, covering, capacity,
                                        value_upper, value_lower))
        return profiles

    def _compile_slack_bounds(self) -> dict[int, int]:
        """Zero-objective allocations for mandatory rows outside the region.

        One satisfiability check per mandatory constraint, paid at compile
        time instead of on every model build.
        """
        slack_bounds: dict[int, int] = {}
        if self._region is None:
            return slack_bounds
        solver = self._pcset.solver()
        region_box = self._region.to_box()
        for constraint_index, pc in enumerate(self._pcset):
            if pc.min_rows() == 0:
                # Slack allocations only matter when mandatory rows could be
                # parked outside the query region; with kl = 0 the optimiser
                # would always leave the slack at zero anyway.
                continue
            outside_possible = solver.is_satisfiable(
                [pc.predicate.to_box()], [region_box])
            if outside_possible:
                slack_bounds[constraint_index] = pc.max_rows()
        return slack_bounds

    def _skeleton(self, variant: str) -> CompiledMILP:
        with self._lock:
            skeleton = self._skeletons.get(variant)
            if skeleton is None:
                profiles = self._profiles if variant == _FULL else self._active
                skeleton = _compile_skeleton(
                    profiles, self._slack_bounds, self._pcset,
                    floor_row=(variant == _ACTIVE_FLOOR),
                    backend=self._backend)
                self._skeletons[variant] = skeleton
            return skeleton

    # ------------------------------------------------------------------ #
    # Shared solve plumbing
    # ------------------------------------------------------------------ #
    def _solve_rows(self, variant: str, rows: list[np.ndarray], sense: Sense
                    ) -> list[tuple[SolutionStatus, float | None]]:
        """Optimise every patched objective row against one skeleton.

        Every patched-objective MILP solve funnels through here — one
        skeleton lookup, one lock acquisition and one kernel entry per
        call, and the one chokepoint the per-span solver-call tallies hang
        off (no-op without an active trace).  Returns raw per-row
        ``(status, objective)`` pairs for :meth:`_checked_value`.
        """
        count = len(rows)
        if count == 0:
            return []
        get_tracer().add("solver_calls", count)
        get_registry().histogram("solver.batch_size",
                                 buckets=_BATCH_SIZE_BUCKETS).observe(count)
        skeleton = self._skeleton(variant)
        return skeleton.solve_objectives(_objective_matrix(skeleton, rows),
                                         sense)

    @staticmethod
    def _checked_value(status: SolutionStatus, objective: float | None,
                       sense: Sense) -> float:
        """The bound status policy for one solved row: infeasible and
        failed solves raise, unbounded ones are the signed infinity."""
        if status is SolutionStatus.INFEASIBLE:
            raise SolverError(_UNSATISFIABLE)
        if status is SolutionStatus.UNBOUNDED:
            return _INF if sense is Sense.MAXIMIZE else -_INF
        if status is not SolutionStatus.OPTIMAL or objective is None:
            raise SolverError(f"MILP solve failed with status {status.value}")
        return objective

    def solve_for_explanation(self, coefficients: Sequence[float]
                              ) -> LPSolution:
        """Maximise ``coefficients`` (one per profile) over the full
        skeleton.  The allocation's first columns are the cells, in profile
        order."""
        skeleton = self._skeleton(_FULL)
        return skeleton.solve(_objective_matrix(skeleton, [coefficients])[0],
                              Sense.MAXIMIZE)

    # ------------------------------------------------------------------ #
    # Execution: one entry point per aggregate
    # ------------------------------------------------------------------ #
    def bound(self, aggregate: AggregateFunction,
              known_sum: float = 0.0, known_count: float = 0.0) -> ResultRange:
        """The result range of ``aggregate`` over the missing rows (a
        width-1 :meth:`bound_batch`)."""
        return self.bound_batch([(aggregate, known_sum, known_count)])[0]

    def worst_case_range(self, aggregate: AggregateFunction,
                         known_sum: float = 0.0,
                         known_count: float = 0.0) -> ResultRange:
        """A solver-free sound superset of :meth:`bound`'s range.

        Computed directly from the compiled cell profiles — every cell at
        its capacity, every value at its clipped extreme, no coupling
        constraints — so it costs one pass over the profiles and cannot
        fail or time out.  This is the ``degrade="worst-case"`` fallback: a
        shard whose exact solve died or ran past the deadline substitutes
        this range, and the merged result is still sound (the true answer
        lies inside a superset of a superset).  It is deliberately *loose*:
        mandatory-row floors, cross-cell frequency coupling and the AVG
        search are all relaxed.
        """
        if aggregate is AggregateFunction.COUNT:
            # Ignore mandatory-row floors (exact lower >= 0 = this lower)
            # and every coupling row (exact upper <= capacity sum).
            upper = float(sum(p.capacity for p in self._active))
            return self._range(0.0, upper, AggregateFunction.COUNT)
        if aggregate is AggregateFunction.SUM:
            if any(math.isinf(p.value_upper) and p.value_upper > 0
                   for p in self._active):
                upper = _INF
            else:
                upper = float(sum(max(0.0, p.capacity * p.value_upper)
                                  for p in self._active))
            if any(math.isinf(p.value_lower) and p.value_lower < 0
                   for p in self._active):
                lower = -_INF
            else:
                lower = float(sum(min(0.0, p.capacity * p.value_lower)
                                  for p in self._active))
            return self._range(lower, upper, AggregateFunction.SUM,
                               self._attribute)
        if aggregate is AggregateFunction.MAX:
            if not self._active:
                return self._range(None, None, AggregateFunction.MAX,
                                   self._attribute)
            # No forced-extremum lower guarantee: None (undefined) is the
            # sound relaxation of "some row must exist with value >= x".
            upper = max(p.value_upper for p in self._active)
            return self._range(None, upper, AggregateFunction.MAX,
                               self._attribute)
        if aggregate is AggregateFunction.MIN:
            if not self._active:
                return self._range(None, None, AggregateFunction.MIN,
                                   self._attribute)
            lower = min(p.value_lower for p in self._active)
            return self._range(lower, None, AggregateFunction.MIN,
                               self._attribute)
        if aggregate is AggregateFunction.AVG:
            lower, upper = _avg_bracket(self._active, known_sum, known_count)
            return self._range(lower, upper, AggregateFunction.AVG,
                               self._attribute)
        raise SolverError(f"unsupported aggregate {aggregate!r}")  # pragma: no cover

    def bound_batch(self, requests: list[tuple]) -> list[ResultRange]:
        """Answer ``(aggregate, known_sum, known_count)`` requests as a batch.

        The COUNT/SUM one-shot solves across the whole request list are
        grouped by (skeleton variant, sense) and solved through single
        kernel entries — one :meth:`_skeleton` lookup and one lock
        acquisition per group — instead of one solver invocation per
        objective.  MIN/MAX read compiled extrema (no solver calls) and
        AVG runs the §4.2 search (:func:`avg_endpoints`), each round one
        :meth:`avg_probe_optima_batch` call.  A request's range never
        depends on what else shares its batch.
        """
        descriptors: list[tuple[str, np.ndarray, Sense]] = []

        def enqueue(variant: str, coefficients: np.ndarray,
                    sense: Sense) -> int:
            descriptors.append((variant, coefficients, sense))
            return len(descriptors) - 1

        builders: list = []
        for aggregate, known_sum, known_count in requests:
            if aggregate is AggregateFunction.MAX:
                builders.append(self._bound_max())
            elif aggregate is AggregateFunction.MIN:
                builders.append(self._bound_min())
            elif aggregate is AggregateFunction.AVG:
                builders.append(self._bound_avg(known_sum, known_count))
            elif aggregate is AggregateFunction.COUNT:
                if not self._profiles:
                    self.check_satisfiable()
                    builders.append(self._range(0.0, 0.0,
                                                AggregateFunction.COUNT))
                    continue
                ones = np.ones(len(self._profiles))
                upper_slot = enqueue(_FULL, ones, Sense.MAXIMIZE)
                lower_slot = (enqueue(_FULL, ones, Sense.MINIMIZE)
                              if self._pcset.has_mandatory_rows() else None)

                def build_count(solved, upper_slot=upper_slot,
                                lower_slot=lower_slot):
                    lower = 0.0 if lower_slot is None else solved[lower_slot]
                    return self._range(lower, solved[upper_slot],
                                       AggregateFunction.COUNT)

                builders.append(build_count)
            elif aggregate is AggregateFunction.SUM:
                if not self._profiles:
                    self.check_satisfiable()
                    builders.append(self._range(0.0, 0.0, AggregateFunction.SUM,
                                                self._attribute))
                    continue
                # The infinite-value fast paths replace a solve; everything
                # else enqueues one row per direction.
                if any(math.isinf(p.value_upper) and p.value_upper > 0
                       for p in self._active):
                    upper_slot, upper_const = None, _INF
                else:
                    upper_slot = enqueue(_FULL, self._full_uppers,
                                         Sense.MAXIMIZE)
                    upper_const = None
                mandatory = self._pcset.has_mandatory_rows()
                non_negative = all(profile.value_lower >= 0
                                   for profile in self._profiles)
                if not mandatory and non_negative:
                    lower_slot, lower_const = None, 0.0
                elif any(math.isinf(p.value_lower) and p.value_lower < 0
                         for p in self._active):
                    lower_slot, lower_const = None, -_INF
                else:
                    lower_slot = enqueue(_FULL, self._full_lowers,
                                         Sense.MINIMIZE)
                    lower_const = None

                if upper_slot is None and lower_slot is None:
                    self.check_satisfiable()  # no solve checks it

                def build_sum(solved, upper_slot=upper_slot,
                              upper_const=upper_const, lower_slot=lower_slot,
                              lower_const=lower_const):
                    upper = (upper_const if upper_slot is None
                             else solved[upper_slot])
                    lower = (lower_const if lower_slot is None
                             else solved[lower_slot])
                    return self._range(lower, upper, AggregateFunction.SUM,
                                       self._attribute)

                builders.append(build_sum)
            else:  # pragma: no cover - the enum has no other members
                raise SolverError(f"unsupported aggregate {aggregate!r}")

        solved: dict[int, float] = {}
        groups: dict[tuple[str, Sense], list[int]] = {}
        for index, (variant, _coefficients, sense) in enumerate(descriptors):
            groups.setdefault((variant, sense), []).append(index)
        for (variant, sense), members in groups.items():
            outcomes = self._solve_rows(
                variant, [descriptors[index][1] for index in members], sense)
            for member, (status, objective) in zip(members, outcomes):
                solved[member] = self._checked_value(status, objective, sense)
        return [builder if isinstance(builder, ResultRange)
                else builder(solved) for builder in builders]

    def _range(self, lower: float | None, upper: float | None,
               aggregate: AggregateFunction,
               attribute: str | None = None) -> ResultRange:
        return ResultRange(lower, upper, aggregate, attribute,
                           statistics=self._decomposition.statistics)

    # MIN / MAX ---------------------------------------------------------- #
    def _bound_max(self) -> ResultRange:
        self.check_satisfiable()
        if not self._active:
            return self._range(None, None, AggregateFunction.MAX, self._attribute)
        upper = max(profile.value_upper for profile in self._active)
        lower = self._forced_extremum(want_max=True)
        return self._range(lower, upper, AggregateFunction.MAX, self._attribute)

    def _bound_min(self) -> ResultRange:
        self.check_satisfiable()
        if not self._active:
            return self._range(None, None, AggregateFunction.MIN, self._attribute)
        lower = min(profile.value_lower for profile in self._active)
        upper = self._forced_extremum(want_max=False)
        return self._range(lower, upper, AggregateFunction.MIN, self._attribute)

    def _forced_extremum(self, want_max: bool) -> float | None:
        """Guaranteed MAX lower / MIN upper from constraints that force rows.

        A constraint with ``kl > 0`` whose predicate lies entirely inside the
        query region guarantees at least one matching row, whose value is
        bracketed by the constraint's value bounds.  Compiled once per
        direction (the satisfiability scan does not depend on parameters).
        """
        with self._lock:
            if want_max in self._forced_extrema:
                return self._forced_extrema[want_max]
        attribute = self._attribute
        solver = self._pcset.solver()
        region_box = self._region.to_box() if self._region is not None else None
        best: float | None = None
        for pc in self._pcset:
            if pc.min_rows() <= 0:
                continue
            if region_box is not None:
                escapes_region = solver.is_satisfiable(
                    [pc.predicate.to_box()], [region_box])
                if escapes_region:
                    continue
            candidate = (pc.value_lower(attribute) if want_max
                         else pc.value_upper(attribute))
            if not math.isfinite(candidate):
                continue
            if best is None:
                best = candidate
            elif want_max:
                best = max(best, candidate)
            else:
                best = min(best, candidate)
        with self._lock:
            self._forced_extrema[want_max] = best
        return best

    # AVG (binary search, paper §4.2) ------------------------------------ #
    def _bound_avg(self, known_sum: float, known_count: float) -> ResultRange:
        lower, upper = avg_endpoints(
            [self], known_sum, known_count,
            lambda probes: [[optimum] for optimum
                            in self.avg_probe_optima_batch(probes)])
        return self._range(lower, upper, AggregateFunction.AVG,
                           self._attribute)

    def avg_probe_optima_batch(self, probes: Sequence[tuple]
                               ) -> list[float | None]:
        """The optima of one round of AVG probes against this program.

        ``probes`` holds ``(target, at_least, floor)`` triples.  A probe's
        optimum is the ``value − target`` objective over this program's
        active cells, maximised when ``at_least`` and minimised otherwise,
        with the "at least one allocated row" row added when ``floor``.
        A floored probe on a program without active cells is ``None``: the
        program cannot carry that row.  Every other probe follows the bound
        status policy (:meth:`_checked_value`), so an infeasible or failed
        solve raises and an unbounded one is the signed infinity.

        Rows are grouped by (skeleton variant, sense), so a round costs at
        most four kernel entries (one :meth:`_skeleton` lookup and one lock
        acquisition each).
        """
        results: list[float | None] = [None] * len(probes)
        rows: dict[tuple[str, Sense], list[np.ndarray]] = {}
        slots: dict[tuple[str, Sense], list[int]] = {}
        for position, (target, at_least, floor) in enumerate(probes):
            if floor and not self._active:
                continue
            values = self._active_uppers if at_least else self._active_lowers
            sense = Sense.MAXIMIZE if at_least else Sense.MINIMIZE
            group = (_ACTIVE_FLOOR if floor else _ACTIVE, sense)
            rows.setdefault(group, []).append(values - target)
            slots.setdefault(group, []).append(position)
        for (variant, sense), group_rows in rows.items():
            outcomes = self._solve_rows(variant, group_rows, sense)
            for position, (status, objective) in zip(slots[(variant, sense)],
                                                     outcomes):
                results[position] = self._checked_value(status, objective,
                                                        sense)
        return results


def _avg_bracket(active: Sequence[CellProfile], known_sum: float,
                 known_count: float) -> tuple[float | None, float | None]:
    """The solver-free AVG range over the ``active`` cells.

    Every achievable average lies between the extreme clipped cell values
    and the observed average.  Without active cells only the observed
    average remains (or nothing), and an unbounded value bound gives
    (−inf, inf).
    """
    if not active:
        if known_count > 0:
            average = known_sum / known_count
            return average, average
        return None, None
    uppers = [p.value_upper for p in active]
    lowers = [p.value_lower for p in active]
    if any(math.isinf(value) for value in uppers + lowers):
        return -_INF, _INF
    known = [known_sum / known_count] if known_count else []
    return min(lowers + known), max(uppers + known)


def avg_endpoints(programs: Sequence[BoundProgram], known_sum: float,
                  known_count: float, probe_round: Callable
                  ) -> tuple[float | None, float | None]:
    """The (lower, upper) AVG range over ``programs`` (paper §4.2).

    ``programs`` is one program, or the component programs of a sharded
    plan, whose cells and constraints partition the unsharded program's.
    ``probe_round(probes)`` answers a list of ``(target, at_least, floor)``
    probes with, per probe, the optima of every program in order: a single
    program's own :meth:`BoundProgram.avg_probe_optima_batch`, or
    :meth:`repro.parallel.pool.WorkerPool.avg_probes` for shards.

    The search starts from :func:`_avg_bracket`, which is already the
    answer when nothing forces rows and no rows are observed (one row at
    the extreme cell attains the extreme average).  Otherwise it bisects
    both directions in lockstep, one probe per open direction per round,
    until the bracket is :data:`AVG_TOLERANCE` narrow or
    :data:`AVG_MAX_PROBES` probes are spent.  A target is achievable when
    the optimum of ``value − target`` plus the observed rows' share
    ``known_sum − target · known_count`` reaches 0.  The programs' optima
    add up, since the objective and every frequency row separate.  The
    floor row (no observed rows) is the one constraint that spans
    programs: its optimum is the best, over which program carries the row,
    of that program's floored optimum plus everyone else's free one.  The
    returned endpoints are the bracket's conservative ends, so the range
    contains the true extremes.

    A set that forces rows but admits no allocation raises
    :class:`~repro.exceptions.SolverError`, like COUNT and SUM: through a
    probe's status, or, when no probe runs (no active cells, an unbounded
    value bound, a bracket closed from the start), through every program's
    :meth:`BoundProgram.check_satisfiable` verdict.
    """
    active = [profile for program in programs
              for profile in program.active_profiles]
    low, high = _avg_bracket(active, known_sum, known_count)
    mandatory = any(program.pcset.has_mandatory_rows() for program in programs)
    if low is None or math.isinf(high) or not (mandatory or known_count):
        for program in programs:
            program.check_satisfiable()
        return low, high
    floor = known_count == 0
    # Several programs share the floor row, so each probe asks every
    # program for its free and its floored optimum.
    split = floor and len(programs) > 1
    brackets = {True: [low, high], False: [low, high]}
    tracer = get_tracer()
    for round_index in range(AVG_MAX_PROBES):
        targets = [(at_least, (bracket[0] + bracket[1]) / 2.0)
                   for at_least, bracket in brackets.items()
                   if bracket[1] - bracket[0] > AVG_TOLERANCE * max(
                       1.0, abs(bracket[1]), abs(bracket[0]))]
        if not targets:
            if round_index == 0:
                # Closed from the start: no probe ran.
                for program in programs:
                    program.check_satisfiable()
            break
        probes = []
        for at_least, target in targets:
            if split:
                probes.append((target, at_least, False))
            probes.append((target, at_least, floor))
        with tracer.span("avg.round"):
            tracer.annotate(probes=len(probes), shards=len(programs))
            optima = iter(probe_round(probes))
        for at_least, target in targets:
            if split:
                frees, floors = next(optima), next(optima)
                total = sum(frees)
                candidates = [total - free + floored
                              for free, floored in zip(frees, floors)
                              if floored is not None]
                optimum = max(candidates) if at_least else min(candidates)
            else:
                optimum = sum(next(optima))
            value = optimum + (known_sum - target * known_count)
            achievable = value >= -1e-9 if at_least else value <= 1e-9
            # The upper search moves its low end up to an achievable target
            # and its high end down to any other; the lower search mirrors.
            brackets[at_least][0 if achievable == at_least else 1] = target
    return brackets[False][0], brackets[True][1]


def compile_plan(plan: BoundPlan, decomposition: CellDecomposition
                 ) -> BoundProgram:
    """Compile a plan and its decomposition into a program (every plan the
    solver compiles has been through :func:`~repro.plan.passes.optimize_plan`;
    tests compile raw plans to check that the passes preserve ranges)."""
    return BoundProgram(plan, decomposition)
