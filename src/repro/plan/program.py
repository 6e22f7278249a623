"""Compiled bound programs: the physical artifact of the plan pipeline.

A :class:`BoundProgram` is the compiled form of one optimized
:class:`~repro.plan.ir.BoundPlan`, specialised to a (query region,
aggregated attribute) pair and able to answer *every* aggregate over that
pair.  Compilation reads the cell decomposition (through the shared
decomposition cache) into arrays exactly once and keeps only those arrays
and the decomposition's statistics:

* the covering as a CSR over the cells: cell ``i`` is covered by the
  constraints ``indices[indptr[i]:indptr[i + 1]]``, ascending,
* per-cell float vectors ``capacity``, ``value_lower`` and ``value_upper``
  (value bounds clipped to the query region) and the ``active`` mask of the
  cells that can hold rows,
* the slack-variable layout for mandatory rows that may live outside the
  region (one satisfiability check per mandatory constraint — previously
  re-run for every MILP build),
* the MILP *skeleton*: one column per cell (then one per slack variable),
  their upper bounds and the frequency coupling rows, written from the
  covering CSR straight into the CSC matrix of a
  :class:`~repro.solvers.milp.CompiledMILP`, the form HiGHS reads.

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
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csc_array

from ..exceptions import SolverError
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..relational.aggregates import AggregateFunction
from ..solvers.lp import Sense, SolutionStatus
from ..solvers.milp import CompiledMILP
from ..core.cells import CellDecomposition
from ..core.pcset import PredicateConstraintSet
from ..core.predicates import Predicate
from ..core.ranges import ResultRange
from .ir import BoundPlan

__all__ = ["BoundProgram", "compile_plan", "avg_endpoints",
           "AVG_TOLERANCE", "AVG_MAX_PROBES"]

_INF = float("inf")

#: The AVG search (:func:`avg_endpoints`) stops once its bracket is this
#: narrow relative to the bracket's magnitude, or after this many probes
#: per direction.
AVG_TOLERANCE = 1e-6
AVG_MAX_PROBES = 64

_UNSATISFIABLE = ("the predicate-constraint set is unsatisfiable: no "
                  "allocation of missing rows meets every frequency constraint")

# Skeleton variants: which cells a model is built over, and whether the
# "at least one allocated row" floor (AVG with no observed rows) applies.
_FULL = "full"
_ACTIVE = "active"
_ACTIVE_FLOOR = "active-floor"

# Batch-size histogram buckets: row counts per kernel entry, not latencies.
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                       512.0)


def _objective_matrix(milp: CompiledMILP, rows: Sequence[Sequence[float]]
                      ) -> np.ndarray:
    """Cell-coefficient ``rows`` as objective rows over ``milp``'s columns:
    the slack columns after the cells carry 0."""
    matrix = np.zeros((len(rows), milp.num_variables))
    matrix[:, :len(rows[0])] = rows
    return matrix


def _avg_bracket(lowers: np.ndarray, uppers: np.ndarray, known_sum: float,
                 known_count: float) -> tuple[float | None, float | None]:
    """The solver-free AVG range over active cells with value bounds
    ``lowers`` and ``uppers``.

    Every achievable average lies between the extreme clipped cell values
    and the observed average.  Without active cells only the observed
    average remains (or nothing), and an unbounded value bound gives
    (−inf, inf).
    """
    if not len(lowers):
        if known_count > 0:
            average = known_sum / known_count
            return average, average
        return None, None
    if np.isinf(uppers).any() or np.isinf(lowers).any():
        return -_INF, _INF
    known = [known_sum / known_count] if known_count else []
    return (min([float(lowers.min())] + known),
            max([float(uppers.max())] + known))


class BoundProgram:
    """One compiled (constraint set, region, attribute) bounding program.

    Answers all five aggregates; AVG additionally takes the observed
    partition's ``(known_sum, known_count)`` as execution-time parameters.
    The cell arrays (``indptr``, ``indices``, ``capacity``, ``value_lower``,
    ``value_upper``, ``active``) and ``statistics`` are read-only after
    compilation; lazily-built pieces (skeleton variants, forced extrema)
    are guarded by a lock, so one program instance can serve concurrent
    batch traffic.
    """

    def __init__(self, plan: BoundPlan, decomposition: CellDecomposition):
        self._plan = plan
        self._pcset = plan.pcset
        self._region = plan.query.region
        self._attribute = plan.query.attribute
        self._backend = plan.milp_backend
        self._lock = threading.Lock()

        #: The decomposition's counters; the program keeps no cell objects.
        self.statistics = decomposition.statistics
        cells = decomposition.cells
        self.indptr = np.zeros(len(cells) + 1, dtype=np.int32)
        self.indptr[1:] = np.cumsum([len(cell.covering) for cell in cells])
        self.indices = np.fromiter(
            (index for cell in cells for index in sorted(cell.covering)),
            dtype=np.int32, count=int(self.indptr[-1]))
        self._compile_cells()
        self._slack_bounds = self._compile_slack_bounds()
        self._skeletons: dict[str, CompiledMILP] = {}
        self._forced_extrema: dict[bool, float | None] = {}
        self._satisfiable: bool | None = None

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
            if self.active.any():
                status, objective = self._solve_rows(
                    _FULL, [np.ones(len(self.capacity))], Sense.MAXIMIZE)[0]
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

    def explain_upper(self, aggregate: AggregateFunction
                      ) -> tuple[float, list[tuple], tuple[str, ...]]:
        """The allocation behind COUNT's (or SUM's) upper bound.

        Maximises the rows (or the rows at every cell's upper value) over
        the full skeleton.  Returns the optimum; for each cell that received
        rows, its covering constraints' names, its rows and its per-row
        value; and the names of the constraints whose maximum the
        allocation reaches.
        """
        count = len(self.capacity)
        if not count:
            return 0.0, [], ()
        coefficients = (np.ones(count) if aggregate is AggregateFunction.COUNT
                        else self.value_upper)
        skeleton = self._skeleton(_FULL)
        solution = skeleton.solve(
            _objective_matrix(skeleton, [coefficients])[0],
            Sense.MAXIMIZE).raise_for_status()
        # The allocation's first columns are the cells, in cell order.
        rows = np.maximum(solution.x[:count], 0.0)
        names = [pc.name for pc in self._pcset]
        allocations = [
            (tuple(names[index] for index
                   in self.indices[self.indptr[cell]:self.indptr[cell + 1]]),
             rows[cell].item(), coefficients[cell].item())
            for cell in np.flatnonzero(rows > 0)]
        allocated = np.bincount(
            self.indices, weights=np.repeat(rows, np.diff(self.indptr)),
            minlength=len(names))
        saturated = tuple(
            pc.name for pc, total in zip(self._pcset, allocated.tolist())
            if total >= pc.max_rows() - 1e-9 and pc.max_rows() > 0)
        return solution.objective, allocations, saturated

    # ------------------------------------------------------------------ #
    # Compilation steps
    # ------------------------------------------------------------------ #
    def _per_cell(self, reduce: np.ufunc, values: Sequence[float]
                  ) -> np.ndarray:
        """``reduce`` over each cell's covering constraints of ``values``
        (one per constraint): exact in any order for min and max."""
        if not len(self.indices):
            return np.zeros(0)
        return reduce.reduceat(np.asarray(values, dtype=float)[self.indices],
                               self.indptr[:-1])

    def _compile_cells(self) -> None:
        """Every cell's capacity and the aggregated attribute's value
        bounds, clipped to the query region.

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
        self.capacity = self._per_cell(np.minimum,
                                       [pc.max_rows() for pc in pcset])
        barren = np.zeros(len(self.capacity), dtype=bool)
        if attribute is None:
            self.value_upper = np.ones(len(self.capacity))
            self.value_lower = np.ones(len(self.capacity))
        else:
            lows, highs = bounds[attribute]
            self.value_upper = self._per_cell(np.minimum, highs)
            self.value_lower = self._per_cell(np.maximum, lows)
            barren |= self.value_upper < self.value_lower
        for name, (lows, highs) in bounds.items():
            if name != attribute and max(lows) > min(highs):
                barren |= (self._per_cell(np.minimum, highs)
                           < self._per_cell(np.maximum, lows))
        self.capacity[barren] = 0.0
        self.active = self.capacity > 0

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

    def _compile_skeleton(self, variant: str) -> CompiledMILP:
        """One frozen model structure for ``variant``: variables and
        coupling rows, no objective.

        Columns are the cells (every cell for ``_FULL``, the active ones
        otherwise) in cell order, then one slack variable per slack bound
        in constraint order.  Rows are the frequency constraints in order,
        then the "at least one allocated row" floor over the cells for
        ``_ACTIVE_FLOOR``.  A constraint that covers nothing gets no row (it
        raises if it forces rows), and neither does one covering a single
        cell with no slack and no forced rows: that cell's capacity is
        already at most the constraint's maximum.  Skipping it keeps the
        disjoint / partitioned case a pure box problem, which the greedy
        step solves in linear time (paper §4.2).  The rows are written from
        the covering CSR as CSC columns with ascending row indices and no
        explicit zeros.
        """
        pcset, slack_bounds = self._pcset, self._slack_bounds
        slack = sorted(slack_bounds)
        floor = variant == _ACTIVE_FLOOR
        columns = (np.ones(len(self.capacity), dtype=bool) if variant == _FULL
                   else self.active)
        lengths = np.diff(self.indptr)
        entries = self.indices[np.repeat(columns, lengths)]
        lengths = lengths[columns]
        terms = np.bincount(entries, minlength=len(pcset))
        terms[slack] += 1
        kept: list[int] = []
        for index, pc in enumerate(pcset):
            if terms[index] == 0:
                if pc.min_rows() > 0:
                    raise SolverError(
                        f"constraint {pc.name!r} forces rows to exist but its "
                        "predicate is unsatisfiable")
            elif (terms[index] > 1 or index in slack_bounds
                  or pc.min_rows() > 0):
                kept.append(index)
        row_of = np.full(len(pcset), -1, dtype=np.int32)
        row_of[kept] = np.arange(len(kept), dtype=np.int32)
        rows = row_of[entries]
        written = rows >= 0
        per_column = np.bincount(
            np.repeat(np.arange(len(lengths)), lengths)[written],
            minlength=len(lengths))
        rows = rows[written]
        if floor:
            rows = np.insert(rows, np.cumsum(per_column), len(kept))
            per_column += 1
        rows = np.concatenate([rows, row_of[slack]])
        indptr = np.zeros(len(per_column) + len(slack) + 1, dtype=np.int32)
        indptr[1:] = np.cumsum(np.append(per_column,
                                         np.ones(len(slack), dtype=int)))
        matrix = csc_array((np.ones(len(rows)), rows, indptr),
                           shape=(len(kept) + floor, len(indptr) - 1))
        upper = np.concatenate([self.capacity[columns],
                                [slack_bounds[index] for index in slack]])
        row_lower = [float(pcset[index].min_rows()) for index in kept]
        row_upper = [float(pcset[index].max_rows()) for index in kept]
        if floor:
            row_lower.append(1.0)
            row_upper.append(_INF)
        return CompiledMILP(upper, matrix, row_lower, row_upper, self._backend)

    def _skeleton(self, variant: str) -> CompiledMILP:
        with self._lock:
            skeleton = self._skeletons.get(variant)
            if skeleton is None:
                skeleton = self._compile_skeleton(variant)
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

        Computed directly from the compiled cell vectors — every cell at
        its capacity, every value at its clipped extreme, no coupling
        constraints — so it costs one pass over the cells and cannot
        fail or time out.  This is the ``degrade="worst-case"`` fallback: a
        shard whose exact solve died or ran past the deadline substitutes
        this range, and the merged result is still sound (the true answer
        lies inside a superset of a superset).  It is deliberately *loose*:
        mandatory-row floors, cross-cell frequency coupling and the AVG
        search are all relaxed.
        """
        capacity = self.capacity[self.active]
        uppers = self.value_upper[self.active]
        lowers = self.value_lower[self.active]
        if aggregate is AggregateFunction.COUNT:
            # Ignore mandatory-row floors (exact lower >= 0 = this lower)
            # and every coupling row (exact upper <= capacity sum).
            return self._range(0.0, float(sum(capacity.tolist())),
                               AggregateFunction.COUNT)
        if aggregate is AggregateFunction.SUM:
            # Python's sum adds left to right; numpy's pairwise sum would
            # move the last bits of these endpoints.
            upper = (_INF if np.isposinf(uppers).any() else
                     float(sum(np.maximum(capacity * uppers, 0.0).tolist())))
            lower = (-_INF if np.isneginf(lowers).any() else
                     float(sum(np.minimum(capacity * lowers, 0.0).tolist())))
            return self._range(lower, upper, AggregateFunction.SUM,
                               self._attribute)
        if aggregate is AggregateFunction.MAX:
            # No forced-extremum lower guarantee: None (undefined) is the
            # sound relaxation of "some row must exist with value >= x".
            upper = float(uppers.max()) if len(uppers) else None
            return self._range(None, upper, AggregateFunction.MAX,
                               self._attribute)
        if aggregate is AggregateFunction.MIN:
            lower = float(lowers.min()) if len(lowers) else None
            return self._range(lower, None, AggregateFunction.MIN,
                               self._attribute)
        if aggregate is AggregateFunction.AVG:
            lower, upper = _avg_bracket(lowers, uppers, known_sum, known_count)
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
                if not len(self.capacity):
                    self.check_satisfiable()
                    builders.append(self._range(0.0, 0.0,
                                                AggregateFunction.COUNT))
                    continue
                ones = np.ones(len(self.capacity))
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
                if not len(self.capacity):
                    self.check_satisfiable()
                    builders.append(self._range(0.0, 0.0, AggregateFunction.SUM,
                                                self._attribute))
                    continue
                # The infinite-value fast paths replace a solve; everything
                # else enqueues one row per direction.
                if np.isposinf(self.value_upper[self.active]).any():
                    upper_slot, upper_const = None, _INF
                else:
                    upper_slot = enqueue(_FULL, self.value_upper,
                                         Sense.MAXIMIZE)
                    upper_const = None
                mandatory = self._pcset.has_mandatory_rows()
                if not mandatory and (self.value_lower >= 0).all():
                    lower_slot, lower_const = None, 0.0
                elif np.isneginf(self.value_lower[self.active]).any():
                    lower_slot, lower_const = None, -_INF
                else:
                    lower_slot = enqueue(_FULL, self.value_lower,
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
                           statistics=self.statistics)

    # MIN / MAX ---------------------------------------------------------- #
    def _bound_max(self) -> ResultRange:
        self.check_satisfiable()
        if not self.active.any():
            return self._range(None, None, AggregateFunction.MAX, self._attribute)
        upper = float(self.value_upper[self.active].max())
        lower = self._forced_extremum(want_max=True)
        return self._range(lower, upper, AggregateFunction.MAX, self._attribute)

    def _bound_min(self) -> ResultRange:
        self.check_satisfiable()
        if not self.active.any():
            return self._range(None, None, AggregateFunction.MIN, self._attribute)
        lower = float(self.value_lower[self.active].min())
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
        uppers = self.value_upper[self.active]
        lowers = self.value_lower[self.active]
        results: list[float | None] = [None] * len(probes)
        rows: dict[tuple[str, Sense], list[np.ndarray]] = {}
        slots: dict[tuple[str, Sense], list[int]] = {}
        for position, (target, at_least, floor) in enumerate(probes):
            if floor and not len(uppers):
                continue
            values = uppers if at_least else lowers
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

    The search starts from :func:`_avg_bracket` over every program's active
    cells, which is already the answer when nothing forces rows and no rows
    are observed (one row at the extreme cell attains the extreme average).
    Otherwise it bisects both directions in lockstep, one probe per open
    direction per round, until the bracket is :data:`AVG_TOLERANCE` narrow
    or :data:`AVG_MAX_PROBES` probes are spent.  A target is achievable
    when the optimum of ``value − target`` plus the observed rows' share
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
    low, high = _avg_bracket(
        np.concatenate([program.value_lower[program.active]
                        for program in programs]),
        np.concatenate([program.value_upper[program.active]
                        for program in programs]),
        known_sum, known_count)
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
