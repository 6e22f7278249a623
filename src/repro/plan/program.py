"""Compiled bound programs: the physical artifact of the plan pipeline.

A :class:`BoundProgram` is the compiled form of one optimized
:class:`~repro.plan.ir.BoundPlan`, specialised to a (constraint set, query
region) pair and able to answer *every* aggregate over *every* attribute of
that region: the paper's §4.2 allocation program has one variable per cell
and one row per frequency constraint, and the aggregated attribute only
picks the objective's coefficients.  Compilation reads the cell
decomposition (through the shared decomposition cache) into arrays exactly
once and keeps only those arrays and the decomposition's statistics:

* the covering as a CSR over the cells: cell ``i`` is covered by the
  constraints ``indices[indptr[i]:indptr[i + 1]]``, ascending,
* the per-cell float vector ``capacity`` and the ``active`` mask of the
  cells that can hold rows,
* the slack-variable layout for mandatory rows that may live outside the
  region (one satisfiability check per mandatory constraint — previously
  re-run for every MILP build),
* the MILP *skeleton*: one column per cell (then one per slack variable),
  their upper bounds and the frequency coupling rows, written from the
  covering CSR straight into the CSC matrix of a
  :class:`~repro.solvers.milp.CompiledMILP`, the form HiGHS reads.

Per attribute, the program memoizes each cell's value bounds clipped to the
region (:meth:`BoundProgram.value_bounds`).  Executions then only patch
parameters: SUM/COUNT swap objective vectors, AVG's Dinkelbach iteration
swaps the ``value - target`` objective per probe and reads the optimal
allocation back, and MIN/MAX read the value bounds and the slack layout
after one memoized feasibility check.  The AVG search itself,
:func:`avg_endpoints`, serves one program and the component programs of a
sharded plan alike, and ends on the exact extreme averages rounded outward
(the paper's §4.2 bisects to a tolerance instead).  This is what makes
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
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csc_array

from ..exceptions import SolverError
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..relational.aggregates import AggregateFunction
from ..solvers.lp import LPSolution, Sense, SolutionStatus
from ..solvers.milp import CompiledMILP
from ..solvers.registry import backend_capabilities
from ..core.cells import CellDecomposition
from ..core.pcset import PredicateConstraintSet
from ..core.predicates import Predicate
from ..core.ranges import ResultRange
from .ir import BoundPlan

__all__ = ["BoundProgram", "compile_plan", "avg_endpoints", "AVG_MAX_PROBES"]

_INF = float("inf")

#: The AVG search (:func:`avg_endpoints`) gives up on a direction after
#: this many iterations and answers that direction's bracket end.
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


def _rounded(ratio: Fraction, up: bool) -> float:
    """The float beside the exact ``ratio``: the smallest float at or
    above it when ``up``, else the largest float at or below it."""
    nearest = float(ratio)  # int / int: correctly rounded
    if up and nearest < ratio:
        return math.nextafter(nearest, _INF)
    if not up and nearest > ratio:
        return math.nextafter(nearest, -_INF)
    return nearest


def _exact_sum(terms: list[tuple[int, int]]) -> Fraction:
    """The exact sum of ``(numerator, denominator)`` terms whose
    denominators are powers of two: one integer over the largest."""
    denominator = max((term[1] for term in terms), default=1)
    return Fraction(sum(numerator * (denominator // term_denominator)
                        for numerator, term_denominator in terms),
                    denominator)


def _allocation_sums(values: np.ndarray, allocation: np.ndarray
                     ) -> tuple[Fraction, Fraction]:
    """``Σ value·x`` and ``Σ x`` over the allocation ``x``, without
    rounding: every finite float is an integer over a power of two."""
    held = allocation != 0
    weights = [weight.as_integer_ratio()
               for weight in allocation[held].tolist()]
    products = []
    for value, (numerator, denominator) in zip(values[held].tolist(), weights):
        value_numerator, value_denominator = value.as_integer_ratio()
        products.append((value_numerator * numerator,
                         value_denominator * denominator))
    return _exact_sum(products), _exact_sum(weights)


def _avg_bracket(lowers: np.ndarray, uppers: np.ndarray, known_sum: float,
                 known_count: float) -> tuple[float | None, float | None]:
    """The solver-free AVG range over active cells with value bounds
    ``lowers`` and ``uppers``.

    Every achievable average lies between the extreme clipped cell values
    and the observed average, which is rounded outward, so the bracket
    holds the exact extremes.  Without active cells only the observed
    average remains (or nothing), and an unbounded value bound gives
    (−inf, inf).
    """
    known: list[float] = []  # the observed average, rounded down and up
    if known_count:
        average = known_sum / known_count
        if math.isfinite(average):
            exact = Fraction(known_sum) / Fraction(known_count)
            known = [_rounded(exact, up=False), _rounded(exact, up=True)]
        else:
            known = [average, average]
    if not len(lowers):
        return (known[0], known[1]) if known else (None, None)
    if np.isinf(uppers).any() or np.isinf(lowers).any():
        return -_INF, _INF
    return (min([float(lowers.min())] + known[:1]),
            max([float(uppers.max())] + known[1:]))


class BoundProgram:
    """One compiled (constraint set, region) bounding program.

    Answers all five aggregates over any attribute: every request names
    its aggregate and attribute, and AVG additionally takes the observed
    partition's ``(known_sum, known_count)`` as execution-time parameters.
    The cell arrays (``indptr``, ``indices``, ``capacity``, ``active``) and
    ``statistics`` are read-only after compilation; lazily-built pieces
    (skeleton variants and per-attribute value bounds) are guarded by a
    lock, so one program instance can serve concurrent batch traffic.
    """

    def __init__(self, plan: BoundPlan, decomposition: CellDecomposition):
        self._pcset = plan.pcset
        self._region = plan.query.region
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
        self._value_bounds: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._satisfiable: bool | None = None

    # ------------------------------------------------------------------ #
    # Pickling (process-pool solve fan-out)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Everything but the lock: compiled skeletons travel with the program.

        The worker pool hands warm programs to worker processes, so
        lazily-built skeletons, value bounds and the feasibility verdict are
        deliberately kept in the state — a worker receives the same warm
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
    def pcset(self) -> PredicateConstraintSet:
        return self._pcset

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
                solution = self._solve_rows(
                    _FULL, [np.ones(len(self.capacity))], Sense.MAXIMIZE)[0]
                satisfiable = solution.status is not SolutionStatus.INFEASIBLE
                if satisfiable:
                    self._checked_value(solution, Sense.MAXIMIZE)
            else:
                satisfiable = all(index in self._slack_bounds
                                  for index, pc in enumerate(self._pcset)
                                  if pc.min_rows() > 0)
            with self._lock:
                self._satisfiable = satisfiable
        if not satisfiable:
            raise SolverError(_UNSATISFIABLE)

    def explain_upper(self, aggregate: AggregateFunction,
                      attribute: str | None = None
                      ) -> tuple[float, list[tuple], tuple[str, ...]]:
        """The allocation behind COUNT's (or SUM(``attribute``)'s) upper
        bound.

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
                        else self.value_bounds(attribute)[1])
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

    def _clipped_bounds(self, attribute: str
                        ) -> tuple[list[float], list[float]]:
        """Each constraint's lower and upper bound on ``attribute`` (folded
        with its predicate range, as
        :meth:`~repro.core.constraints.PredicateConstraint.value_lower`
        does), clipped to the region's range on it."""
        lows = [pc.value_lower(attribute) for pc in self._pcset]
        highs = [pc.value_upper(attribute) for pc in self._pcset]
        clip = (None if self._region is None
                else self._region.range_for(attribute))
        if clip is not None:
            lows = [max(low, clip.low) for low in lows]
            highs = [min(high, clip.high) for high in highs]
        return lows, highs

    def _compile_cells(self) -> None:
        """Every cell's capacity, 0 for a barren cell.

        A cell is barren when, on some attribute a value constraint bounds,
        its covering constraints' clipped bounds are empty: no row of the
        cell can meet them all.  An attribute whose bounds meet across
        every constraint cannot empty a cell, so only the others are
        checked.  The aggregated attribute plays no part: a satisfiable
        cell has a point inside the region and every covering predicate,
        so the bounds on an attribute no value constraint names always meet
        on that cell.
        """
        pcset = self._pcset
        self.capacity = self._per_cell(np.minimum,
                                       [pc.max_rows() for pc in pcset])
        barren = np.zeros(len(self.capacity), dtype=bool)
        for name in {name for pc in pcset for name in pc.values.attributes()}:
            lows, highs = self._clipped_bounds(name)
            if max(lows) > min(highs):
                barren |= (self._per_cell(np.minimum, highs)
                           < self._per_cell(np.maximum, lows))
        self.capacity[barren] = 0.0
        self.active = self.capacity > 0

    def value_bounds(self, attribute: str) -> tuple[np.ndarray, np.ndarray]:
        """Every cell's lower and upper bound on ``attribute``, clipped to
        the query region: the coefficients SUM, MIN, MAX and AVG read.
        Computed once per attribute."""
        with self._lock:
            bounds = self._value_bounds.get(attribute)
        if bounds is None:
            lows, highs = self._clipped_bounds(attribute)
            bounds = (self._per_cell(np.maximum, lows),
                      self._per_cell(np.minimum, highs))
            with self._lock:
                bounds = self._value_bounds.setdefault(attribute, bounds)
        return bounds

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
                    ) -> list[LPSolution]:
        """Optimise every patched objective row against one skeleton.

        Every patched-objective MILP solve funnels through here — one
        skeleton lookup, one lock acquisition and one kernel entry per
        call, and the one chokepoint the per-span solver-call tallies hang
        off (no-op without an active trace).  Returns the raw per-row
        solutions for :meth:`_checked_value`.
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
    def _checked_value(solution: LPSolution, sense: Sense) -> float:
        """The bound status policy for one solved row: infeasible and
        failed solves raise, unbounded ones are the signed infinity."""
        status = solution.status
        if status is SolutionStatus.INFEASIBLE:
            raise SolverError(_UNSATISFIABLE)
        if status is SolutionStatus.UNBOUNDED:
            return _INF if sense is Sense.MAXIMIZE else -_INF
        if status is not SolutionStatus.OPTIMAL or solution.objective is None:
            raise SolverError(f"MILP solve failed with status {status.value}")
        return solution.objective

    # ------------------------------------------------------------------ #
    # Execution: one entry point per aggregate
    # ------------------------------------------------------------------ #
    def bound(self, aggregate: AggregateFunction, attribute: str | None = None,
              known_sum: float = 0.0, known_count: float = 0.0) -> ResultRange:
        """The result range of ``aggregate(attribute)`` over the missing
        rows (a width-1 :meth:`bound_batch`)."""
        return self.bound_batch(
            [(aggregate, attribute, known_sum, known_count)])[0]

    def worst_case_range(self, aggregate: AggregateFunction,
                         attribute: str | None = None,
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
        if aggregate is AggregateFunction.COUNT:
            # Ignore mandatory-row floors (exact lower >= 0 = this lower)
            # and every coupling row (exact upper <= capacity sum).
            return self._range(0.0, float(sum(capacity.tolist())),
                               AggregateFunction.COUNT)
        lowers, uppers = (values[self.active]
                          for values in self.value_bounds(attribute))
        if aggregate is AggregateFunction.SUM:
            # Python's sum adds left to right; numpy's pairwise sum would
            # move the last bits of these endpoints.
            upper = (_INF if np.isposinf(uppers).any() else
                     float(sum(np.maximum(capacity * uppers, 0.0).tolist())))
            lower = (-_INF if np.isneginf(lowers).any() else
                     float(sum(np.minimum(capacity * lowers, 0.0).tolist())))
            return self._range(lower, upper, AggregateFunction.SUM, attribute)
        if aggregate is AggregateFunction.MAX:
            # No forced-extremum lower guarantee: None (undefined) is the
            # sound relaxation of "some row must exist with value >= x".
            upper = float(uppers.max()) if len(uppers) else None
            return self._range(None, upper, AggregateFunction.MAX, attribute)
        if aggregate is AggregateFunction.MIN:
            lower = float(lowers.min()) if len(lowers) else None
            return self._range(lower, None, AggregateFunction.MIN, attribute)
        if aggregate is AggregateFunction.AVG:
            lower, upper = _avg_bracket(lowers, uppers, known_sum, known_count)
            return self._range(lower, upper, AggregateFunction.AVG, attribute)
        raise SolverError(f"unsupported aggregate {aggregate!r}")  # pragma: no cover

    def bound_batch(self, requests: list[tuple]) -> list[ResultRange]:
        """Answer ``(aggregate, attribute, known_sum, known_count)``
        requests as a batch.

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
        for aggregate, attribute, known_sum, known_count in requests:
            if aggregate is AggregateFunction.MAX:
                builders.append(self._bound_max(attribute))
            elif aggregate is AggregateFunction.MIN:
                builders.append(self._bound_min(attribute))
            elif aggregate is AggregateFunction.AVG:
                builders.append(self._bound_avg(attribute, known_sum,
                                                known_count))
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
                                                attribute))
                    continue
                value_lower, value_upper = self.value_bounds(attribute)
                # The infinite-value fast paths replace a solve; everything
                # else enqueues one row per direction.
                if np.isposinf(value_upper[self.active]).any():
                    upper_slot, upper_const = None, _INF
                else:
                    upper_slot = enqueue(_FULL, value_upper, Sense.MAXIMIZE)
                    upper_const = None
                mandatory = self._pcset.has_mandatory_rows()
                if not mandatory and (value_lower >= 0).all():
                    lower_slot, lower_const = None, 0.0
                elif np.isneginf(value_lower[self.active]).any():
                    lower_slot, lower_const = None, -_INF
                else:
                    lower_slot = enqueue(_FULL, value_lower, Sense.MINIMIZE)
                    lower_const = None

                if upper_slot is None and lower_slot is None:
                    self.check_satisfiable()  # no solve checks it

                def build_sum(solved, upper_slot=upper_slot,
                              upper_const=upper_const, lower_slot=lower_slot,
                              lower_const=lower_const, attribute=attribute):
                    upper = (upper_const if upper_slot is None
                             else solved[upper_slot])
                    lower = (lower_const if lower_slot is None
                             else solved[lower_slot])
                    return self._range(lower, upper, AggregateFunction.SUM,
                                       attribute)

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
            for member, solution in zip(members, outcomes):
                solved[member] = self._checked_value(solution, sense)
        return [builder if isinstance(builder, ResultRange)
                else builder(solved) for builder in builders]

    def _range(self, lower: float | None, upper: float | None,
               aggregate: AggregateFunction,
               attribute: str | None = None) -> ResultRange:
        return ResultRange(lower, upper, aggregate, attribute,
                           statistics=self.statistics)

    # MIN / MAX ---------------------------------------------------------- #
    def _bound_max(self, attribute: str) -> ResultRange:
        self.check_satisfiable()
        if not self.active.any():
            return self._range(None, None, AggregateFunction.MAX, attribute)
        upper = float(self.value_bounds(attribute)[1][self.active].max())
        lower = self._forced_extremum(attribute, want_max=True)
        return self._range(lower, upper, AggregateFunction.MAX, attribute)

    def _bound_min(self, attribute: str) -> ResultRange:
        self.check_satisfiable()
        if not self.active.any():
            return self._range(None, None, AggregateFunction.MIN, attribute)
        lower = float(self.value_bounds(attribute)[0][self.active].min())
        upper = self._forced_extremum(attribute, want_max=False)
        return self._range(lower, upper, AggregateFunction.MIN, attribute)

    def _forced_extremum(self, attribute: str, want_max: bool) -> float | None:
        """Guaranteed MAX lower / MIN upper from constraints that force rows.

        A constraint with ``kl > 0`` whose predicate lies entirely inside the
        query region guarantees at least one matching row, whose value is
        bracketed by the constraint's value bounds.  A mandatory constraint
        escapes the region exactly when it holds a slack bound, so the
        compiled slack layout answers without a satisfiability check.
        """
        best: float | None = None
        for index, pc in enumerate(self._pcset):
            if pc.min_rows() <= 0 or index in self._slack_bounds:
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
        return best

    # AVG (Dinkelbach's iteration; paper §4.2 bisects) ------------------ #
    def _bound_avg(self, attribute: str, known_sum: float,
                   known_count: float) -> ResultRange:
        lower, upper = avg_endpoints(
            [self], attribute, known_sum, known_count,
            lambda probes: [[outcome] for outcome
                            in self.avg_probe_optima_batch(attribute, probes)])
        return self._range(lower, upper, AggregateFunction.AVG, attribute)

    def avg_probe_optima_batch(self, attribute: str, probes: Sequence[tuple]
                               ) -> list[tuple | None]:
        """One round of AVG probes of ``attribute`` against this program.

        ``probes`` holds ``(target, at_least, floor)`` triples.  A probe
        optimises the ``value − target`` objective over this program's
        active cells, maximised when ``at_least`` and minimised otherwise,
        with the "at least one allocated row" row added when ``floor``.  Its
        outcome is ``(optimum, value_sum, rows)``: the optimum, and the
        optimal allocation's ``Σ value·x`` and ``Σ x`` as exact fractions.
        An exact backend's allocation is rounded to integers first; the
        relaxation's fractional one is kept, so its range stays a superset.
        A floored probe on a program without active cells is ``None``: the
        program cannot carry that row.  Every other probe follows the bound
        status policy (:meth:`_checked_value`), so an infeasible or failed
        solve raises, and an unbounded one is the signed infinity with
        ``None`` parts.

        Rows are grouped by (skeleton variant, sense), so a round costs at
        most four kernel entries (one :meth:`_skeleton` lookup and one lock
        acquisition each).
        """
        lowers, uppers = (values[self.active]
                          for values in self.value_bounds(attribute))
        integral = backend_capabilities(self._backend).exact
        results: list[tuple | None] = [None] * len(probes)
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
            values = uppers if sense is Sense.MAXIMIZE else lowers
            solutions = self._solve_rows(variant, group_rows, sense)
            for position, solution in zip(slots[(variant, sense)], solutions):
                optimum = self._checked_value(solution, sense)
                if math.isinf(optimum):
                    results[position] = (optimum, None, None)
                    continue
                # The cells are the first columns; slack columns follow.
                allocation = np.maximum(solution.x[:len(values)], 0.0)
                if integral:
                    allocation = np.round(allocation)
                results[position] = (optimum,
                                     *_allocation_sums(values, allocation))
        return results


def _carried_parts(frees: list[tuple], floors: list[tuple | None],
                   at_least: bool) -> list[tuple]:
    """Per program, the probe outcome of the best allocation that meets the
    floor row spanning the programs: one program carries the row (its
    floored outcome) and every other takes its free one.  The carrier is
    the one whose combination has the best optimum."""
    total = sum(optimum for optimum, _, _ in frees)
    choose = max if at_least else min
    carrier = choose(
        (index for index, floored in enumerate(floors) if floored is not None),
        key=lambda index: total - frees[index][0] + floors[index][0])
    return frees[:carrier] + [floors[carrier]] + frees[carrier + 1:]


def avg_endpoints(programs: Sequence[BoundProgram], attribute: str,
                  known_sum: float, known_count: float, probe_round: Callable
                  ) -> tuple[float | None, float | None]:
    """The (lower, upper) range of AVG(``attribute``) over ``programs``.

    ``programs`` is one program, or the component programs of a sharded
    plan, whose cells and constraints partition the unsharded program's.
    ``probe_round(probes)`` answers a list of ``(target, at_least, floor)``
    probes with, per probe, the outcomes of every program in order: a
    single program's own :meth:`BoundProgram.avg_probe_optima_batch`, or
    :meth:`repro.parallel.pool.WorkerPool.avg_probes` for shards.

    The range starts from :func:`_avg_bracket` over every program's active
    cells, which is already the answer when nothing forces rows and no rows
    are observed (one row at the extreme cell attains the extreme average).
    Otherwise the average ``(known_sum + Σ value·x) / (known_count + Σ x)``
    is a ratio of two linear forms over the allocations, and Dinkelbach's
    iteration finds its extremes (W. Dinkelbach, "On Nonlinear Fractional
    Programming", Management Science 13(7), 1967; the paper's §4.2
    bisects instead).  The upper search starts its target at the bracket's
    low end and the lower search at its high end, in lockstep, one probe
    per open direction per round.  A probe optimises ``value − target``, and
    the optimal allocation's exact average becomes the next target when it
    beats the best so far.  When it does not, no allocation beats the best:
    the probe's optimum ``F(target)`` is at most 0.  The direction then
    closes on that exact extreme, rounded outward to the adjacent float (a
    target is the best rounded the same way, so a probe still finds any
    better allocation).  The programs' outcomes add up, since the objective
    and every frequency row separate.  The floor row (no observed rows) is
    the one constraint that spans programs: the allocation is the best,
    over which program carries the row, of that program's floored probe
    plus everyone else's free one.

    Only an active cell without a frequency limit makes a probe unbounded:
    one whose value beats the target.  As that cell's rows grow, the
    average approaches the cell's value without reaching it, so the probe's
    "allocation" is the extreme value over such cells, which beats the
    target and is the search's next one; no probe at or past it is
    unbounded.  A direction still open after :data:`AVG_MAX_PROBES`
    iterations answers its bracket end, which is sound, and the search
    counts ``queries.avg_capped``.  A set that forces rows but admits no
    allocation raises :class:`~repro.exceptions.SolverError`, like COUNT
    and SUM: through a probe's status, or, when no probe runs (no active
    cells, an unbounded value bound, a one-point bracket), through every
    program's :meth:`BoundProgram.check_satisfiable` verdict.
    """
    # Every program's active cells: value bounds, and which have no limit.
    lowers, uppers, unlimited = [], [], []
    for program in programs:
        lower, upper = program.value_bounds(attribute)
        lowers.append(lower[program.active])
        uppers.append(upper[program.active])
        unlimited.append(np.isinf(program.capacity[program.active]))
    lowers, uppers, unlimited = (np.concatenate(parts)
                                 for parts in (lowers, uppers, unlimited))
    low, high = _avg_bracket(lowers, uppers, known_sum, known_count)
    mandatory = any(program.pcset.has_mandatory_rows() for program in programs)
    if (low is None or math.isinf(low) or math.isinf(high) or low == high
            or not (mandatory or known_count)):
        for program in programs:
            program.check_satisfiable()
        return low, high
    floor = known_count == 0
    # Several programs share the floor row, so each probe asks every
    # program for its free and its floored outcome.
    split = floor and len(programs) > 1
    known_sum, known_count = Fraction(known_sum), Fraction(known_count)
    # Per open direction (``at_least`` is the upper search): its target,
    # its best exact average so far and its endpoint.
    targets = {True: low, False: high}
    best: dict[bool, Fraction] = {}
    ends = {True: high, False: low}
    tracer = get_tracer()
    for _ in range(AVG_MAX_PROBES):
        if not targets:
            break
        probes = []
        for at_least, target in targets.items():
            if split:
                probes.append((target, at_least, False))
            probes.append((target, at_least, floor))
        with tracer.span("avg.round"):
            tracer.annotate(probes=len(probes), shards=len(programs))
            outcomes = iter(probe_round(probes))
        for at_least in list(targets):
            # The programs' free outcomes, then their floored ones if split.
            answers = [next(outcomes) for _ in range(2 if split else 1)]
            if any(math.isinf(outcome[0]) for answer in answers
                   for outcome in answer if outcome is not None):
                average = Fraction(float(uppers[unlimited].max()) if at_least
                                   else float(lowers[unlimited].min()))
            else:
                parts = (_carried_parts(*answers, at_least) if split
                         else answers[0])
                average = ((known_sum + sum(part[1] for part in parts))
                           / (known_count + sum(part[2] for part in parts)))
            previous = best.get(at_least)
            if previous is None or (average > previous if at_least
                                    else average < previous):
                best[at_least] = average
                targets[at_least] = _rounded(average, up=at_least)
            else:
                ends[at_least] = _rounded(previous, up=at_least)
                del targets[at_least]
    if targets:
        get_registry().counter("queries.avg_capped").inc()
    return ends[False], ends[True]


def compile_plan(plan: BoundPlan, decomposition: CellDecomposition
                 ) -> BoundProgram:
    """Compile a plan and its decomposition into a program (every plan the
    solver compiles has been through :func:`~repro.plan.passes.optimize_plan`;
    tests compile raw plans to check that the passes preserve ranges)."""
    return BoundProgram(plan, decomposition)
