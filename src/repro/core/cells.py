"""Cell decomposition of overlapping predicate-constraints (paper §4.1).

A *cell* is a maximal region of the attribute domain covered by exactly one
subset of the predicate-constraints' predicates::

    cell(P) = AND_{i in P} psi_i  AND  AND_{j not in P} NOT psi_j

For ``n`` predicate-constraints there are up to ``2^n`` cells, most of which
are unsatisfiable in practice.  This module enumerates the satisfiable cells
with the paper's four optimisations:

1. **Predicate pushdown** — the query's own predicate is conjoined into every
   cell, so cells that cannot contain query-relevant rows are pruned.
2. **DFS pruning** — cells are enumerated by a depth-first search over
   prefixes; an unsatisfiable prefix prunes its whole subtree.
3. **Expression rewriting** — if a prefix ``X`` is satisfiable and ``X ∧ ψ``
   is not, then ``X ∧ ¬ψ`` is satisfiable without another solver call.
4. **Approximate early stopping** — below a configurable depth, prefixes are
   assumed satisfiable; this can only add cells (loosening but never
   invalidating the bound).

The bounding engine enumerates exactly: :func:`decompose_cached` always runs
DFS with rewriting and no early stop.  :class:`CellDecomposer` still takes
the other strategies and an early-stop depth, as the reference for Figure 7
and for Optimisation 4's ablation.  The decomposition reports statistics
(cells evaluated, solver calls, rewrites) that back the paper's Figure 7.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..exceptions import ConstraintError
from ..solvers.sat import Box, BoxSolver
from .pcset import PredicateConstraintSet
from .predicates import Predicate

__all__ = ["Cell", "DecompositionStrategy", "DecompositionStatistics",
           "CellDecomposition", "CellDecomposer", "decompose_cached",
           "decomposition_cache_key", "estimate_cell_count",
           "worst_case_cell_count"]

_CELL_ESTIMATE_CAP = 1 << 62


def worst_case_cell_count(num_constraints: int) -> int:
    """Worst-case covered cells for ``num_constraints`` overlapping
    predicates: ``2^n - 1``, capped so very large sets never overflow into
    bignum territory.  The single source of truth for this formula.
    """
    if num_constraints <= 0:
        return 0
    if num_constraints >= 62:
        return _CELL_ESTIMATE_CAP
    return (1 << num_constraints) - 1


def estimate_cell_count(pcset: PredicateConstraintSet) -> int:
    """Worst-case number of satisfiable cells for ``pcset``.

    Pairwise-disjoint predicates decompose into exactly one cell each; in
    general up to ``2^n - 1`` covered cells exist (see
    :func:`worst_case_cell_count`).
    """
    count = len(pcset)
    if count == 0:
        return 0
    if pcset.is_pairwise_disjoint():
        return count
    return worst_case_cell_count(count)


@dataclass(frozen=True)
class Cell:
    """One satisfiable cell: the indices of the predicate-constraints covering it."""

    covering: frozenset[int]

    def __post_init__(self) -> None:
        if not self.covering:
            raise ConstraintError("a cell must be covered by at least one constraint")

    @property
    def size(self) -> int:
        return len(self.covering)

    def is_covered_by(self, index: int) -> bool:
        return index in self.covering

    def __repr__(self) -> str:
        return f"Cell({sorted(self.covering)})"


class DecompositionStrategy(enum.Enum):
    """How the satisfiable cells are enumerated."""

    NAIVE = "naive"
    DFS = "dfs"
    DFS_REWRITE = "dfs-rewrite"


@dataclass
class DecompositionStatistics:
    """Counters behind the paper's Figure 7."""

    num_constraints: int = 0
    cells_evaluated: int = 0
    solver_calls: int = 0
    rewrites_saved: int = 0
    subtrees_pruned: int = 0
    satisfiable_cells: int = 0
    assumed_satisfiable: int = 0
    #: Shard positions whose exact solve was replaced by the precomputed
    #: worst-case range under ``degrade="worst-case"`` (empty outside
    #: degraded executions) — the result-side stamp that a range is sound
    #: but looser than the exact answer.
    degraded_shards: tuple = ()

    def as_dict(self) -> dict[str, int]:
        result = {
            "num_constraints": self.num_constraints,
            "cells_evaluated": self.cells_evaluated,
            "solver_calls": self.solver_calls,
            "rewrites_saved": self.rewrites_saved,
            "subtrees_pruned": self.subtrees_pruned,
            "satisfiable_cells": self.satisfiable_cells,
            "assumed_satisfiable": self.assumed_satisfiable,
        }
        if self.degraded_shards:
            result["degraded_shards"] = list(self.degraded_shards)
        return result


@dataclass
class CellDecomposition:
    """The result of decomposing a predicate-constraint set."""

    cells: list[Cell]
    statistics: DecompositionStatistics
    query_region: Predicate | None = None

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def cells_covered_by(self, index: int) -> list[int]:
        """Positions (into ``cells``) of the cells covered by constraint ``index``."""
        return [position for position, cell in enumerate(self.cells)
                if cell.is_covered_by(index)]


class CellDecomposer:
    """Enumerates the satisfiable cells of a predicate-constraint set.

    Parameters
    ----------
    pcset:
        The predicate-constraint set to decompose.
    strategy:
        Which enumeration strategy to use (see :class:`DecompositionStrategy`).
    early_stop_depth:
        If set, prefixes longer than this depth are assumed satisfiable
        without a solver call (Optimisation 4).  ``None`` disables the
        approximation.
    """

    def __init__(self, pcset: PredicateConstraintSet,
                 strategy: DecompositionStrategy = DecompositionStrategy.DFS_REWRITE,
                 early_stop_depth: int | None = None):
        self._pcset = pcset
        self._strategy = strategy
        self._early_stop_depth = early_stop_depth
        self._solver: BoxSolver = pcset.solver()
        self._boxes: list[Box] = [pc.predicate.to_box() for pc in pcset]

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def decompose(self, query_region: Predicate | None = None) -> CellDecomposition:
        """Enumerate satisfiable cells, optionally pushing down a query region."""
        statistics = DecompositionStatistics(num_constraints=len(self._pcset))
        query_box = query_region.to_box() if query_region is not None else None
        if len(self._pcset) == 0:
            return CellDecomposition([], statistics, query_region)
        if self._pcset.is_pairwise_disjoint():
            cells = self._decompose_disjoint(query_box, statistics)
        elif self._strategy is DecompositionStrategy.NAIVE:
            cells = self._decompose_naive(query_box, statistics)
        else:
            use_rewrite = self._strategy is DecompositionStrategy.DFS_REWRITE
            cells = self._decompose_dfs(query_box, statistics, use_rewrite)
        statistics.satisfiable_cells = len(cells)
        # The tally lives at the enumeration site — not at the cache/merge
        # layers above — so inline and process-pooled enumerations all
        # charge their satisfiability-solver calls to whichever span
        # actually ran them, exactly once.
        from ..obs.trace import get_tracer

        get_tracer().add("solver_calls", statistics.solver_calls)
        return CellDecomposition(cells, statistics, query_region)

    # ------------------------------------------------------------------ #
    # Disjoint fast path (paper §4.2, "Faster Algorithm in Special Cases")
    # ------------------------------------------------------------------ #
    def _decompose_disjoint(self, query_box: Box | None,
                            statistics: DecompositionStatistics) -> list[Cell]:
        cells: list[Cell] = []
        for index, box in enumerate(self._boxes):
            statistics.cells_evaluated += 1
            positives = [box] if query_box is None else [box, query_box]
            statistics.solver_calls += 1
            if self._solver.is_satisfiable(positives, []):
                cells.append(Cell(frozenset({index})))
        return cells

    # ------------------------------------------------------------------ #
    # Naive enumeration: one full satisfiability check per subset
    # ------------------------------------------------------------------ #
    def _decompose_naive(self, query_box: Box | None,
                         statistics: DecompositionStatistics) -> list[Cell]:
        count = len(self._boxes)
        cells: list[Cell] = []
        for bitmask in range(1, 1 << count):
            covering = frozenset(
                index for index in range(count) if bitmask & (1 << index)
            )
            statistics.cells_evaluated += 1
            statistics.solver_calls += 1
            if self._check(covering, query_box):
                cells.append(Cell(covering))
        # The all-negated cell is also "evaluated" by the naive scheme even
        # though it can never contribute to a bound (no covering constraint).
        statistics.cells_evaluated += 1
        statistics.solver_calls += 1
        self._check(frozenset(), query_box)
        return cells

    # ------------------------------------------------------------------ #
    # DFS enumeration with optional rewriting and early stopping
    # ------------------------------------------------------------------ #
    def _decompose_dfs(self, query_box: Box | None,
                       statistics: DecompositionStatistics,
                       use_rewrite: bool) -> list[Cell]:
        count = len(self._boxes)
        cells: list[Cell] = []

        def recurse(depth: int, included: tuple[int, ...],
                    excluded: tuple[int, ...]) -> None:
            if depth == count:
                if included:
                    cells.append(Cell(frozenset(included)))
                return

            early_stop = (self._early_stop_depth is not None
                          and depth >= self._early_stop_depth)

            # Branch 1: include psi_depth.
            with_included = included + (depth,)
            if early_stop:
                statistics.assumed_satisfiable += 1
                include_satisfiable = True
            else:
                statistics.cells_evaluated += 1
                statistics.solver_calls += 1
                include_satisfiable = self._check_partial(
                    with_included, excluded, query_box)
            if include_satisfiable:
                recurse(depth + 1, with_included, excluded)
            else:
                statistics.subtrees_pruned += 1

            # Branch 2: exclude psi_depth (i.e. conjoin its negation).
            with_excluded = excluded + (depth,)
            if early_stop:
                statistics.assumed_satisfiable += 1
                exclude_satisfiable = True
            elif use_rewrite and not include_satisfiable:
                # Rewriting heuristic: the parent prefix was satisfiable
                # (otherwise we would not be here) and adding psi made it
                # unsatisfiable, hence adding NOT psi keeps it satisfiable.
                statistics.rewrites_saved += 1
                exclude_satisfiable = True
            else:
                statistics.cells_evaluated += 1
                statistics.solver_calls += 1
                exclude_satisfiable = self._check_partial(
                    included, with_excluded, query_box)
            if exclude_satisfiable:
                recurse(depth + 1, included, with_excluded)
            else:
                statistics.subtrees_pruned += 1

        recurse(0, (), ())
        return cells

    # ------------------------------------------------------------------ #
    # Satisfiability helpers
    # ------------------------------------------------------------------ #
    def _check(self, covering: frozenset[int], query_box: Box | None) -> bool:
        included = tuple(sorted(covering))
        excluded = tuple(index for index in range(len(self._boxes))
                         if index not in covering)
        return self._check_partial(included, excluded, query_box)

    def _check_partial(self, included: Sequence[int], excluded: Sequence[int],
                       query_box: Box | None) -> bool:
        positives = [self._boxes[index] for index in included]
        if query_box is not None:
            positives.append(query_box)
        negatives = [self._boxes[index] for index in excluded]
        return self._solver.is_satisfiable(positives, negatives)


# --------------------------------------------------------------------- #
# Reusable decompositions
# --------------------------------------------------------------------- #
def decomposition_cache_key(namespace: object,
                            query_region: Predicate | None) -> tuple:
    """The cache key under which one decomposition is stored.

    ``namespace`` identifies the constraint set (the service layer derives
    it from content fingerprints so equal constraint sets share entries
    across analyzers); the query region completes the key because predicate
    pushdown makes the cell list region-specific.  :class:`~repro.core.predicates.Predicate` hashes by
    content, so syntactically equal regions collide as intended.
    """
    return ("decomposition", namespace, query_region)


def _structural_namespace(pcset: PredicateConstraintSet) -> tuple:
    """A content-derived namespace for callers that did not supply one.

    Built purely from hashable-by-content pieces (predicates, value and
    frequency constraints, domains), so two equal constraint sets share
    cache entries while *any* difference keys separately.  Keying by object
    identity instead would be unsound: a shared cache would hand one set's
    cells to another.
    """
    constraints = tuple((pc.predicate, pc.values, pc.frequency)
                        for pc in pcset)
    domains = frozenset(pcset.domains.items())
    return (constraints, domains)


def decompose_cached(
    pcset: PredicateConstraintSet,
    query_region: Predicate | None = None,
    *,
    cache=None,
    namespace: object = None,
    on_compute: Callable[[CellDecomposition], None] | None = None,
    compute_override: Callable[[], CellDecomposition] | None = None,
) -> CellDecomposition:
    """Decompose ``pcset`` exactly, reusing a previously computed
    decomposition.

    This is the single entry point through which the bounding engine and the
    service layer obtain decompositions (DFS with rewriting, no early stop):
    callers that pass a ``cache`` (any object with ``get_or_compute(key,
    factory)``, e.g. :class:`repro.service.LRUCache`) skip the exponential
    cell enumeration whenever an equal (namespace, region) pair was
    decomposed before — across queries, analyzers and threads.  ``on_compute`` fires only for
    fresh decompositions, which is how callers keep exact solver-call
    accounting even when most traffic is cache hits.

    ``compute_override`` swaps in an alternative way of *producing* the same
    decomposition on a cache miss — the region-sharded fan-out passes one
    that unions pool-computed sub-region cells — while caching, keying and
    ``on_compute`` accounting stay exactly as for an inline enumeration.
    The override must return a decomposition equal to what the inline path
    would compute (the region splitter's cell-union equality is argued in
    :mod:`repro.plan.sharding`); anything else would poison shared caches.

    ``namespace`` defaults to a structural key derived from the constraint
    set's content, so omitting it is always sound; pass one explicitly (e.g.
    a service-layer fingerprint) only to make the key cheaper or stable
    across processes.
    """

    def compute() -> CellDecomposition:
        if compute_override is not None:
            decomposition = compute_override()
        else:
            decomposition = CellDecomposer(pcset).decompose(query_region)
        if on_compute is not None:
            on_compute(decomposition)
        return decomposition

    if cache is None:
        return compute()
    if namespace is None:
        namespace = _structural_namespace(pcset)
    return cache.get_or_compute(decomposition_cache_key(namespace, query_region),
                                compute)
