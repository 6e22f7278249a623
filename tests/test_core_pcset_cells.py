"""Unit tests for predicate-constraint sets and cell decomposition."""

from __future__ import annotations

import pytest

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.cells import Cell, CellDecomposer, DecompositionStrategy
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.exceptions import ClosureError, ConstraintError, QueryError
from repro.relational.aggregates import AggregateFunction
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema
from repro.solvers.sat import AttributeDomain


def pc(predicate: Predicate, bounds=None, max_rows=10, min_rows=0, name="pc"):
    return PredicateConstraint(predicate, ValueConstraint(bounds or {}),
                               FrequencyConstraint(min_rows, max_rows), name=name)


class TestPredicateConstraintSet:
    def test_add_and_iterate(self):
        pcset = PredicateConstraintSet()
        pcset.add(pc(Predicate.range("x", 0, 1), name="a"))
        pcset.extend([pc(Predicate.range("x", 1, 2), name="b")])
        assert len(pcset) == 2
        assert [c.name for c in pcset] == ["a", "b"]
        assert pcset[0].name == "a"

    def test_duplicate_names_get_renamed(self):
        pcset = PredicateConstraintSet()
        pcset.add(pc(Predicate.range("x", 0, 1), name="dup"))
        pcset.add(pc(Predicate.range("x", 1, 2), name="dup"))
        names = [c.name for c in pcset]
        assert len(set(names)) == 2

    def test_add_rejects_non_constraint(self):
        pcset = PredicateConstraintSet()
        with pytest.raises(ConstraintError):
            pcset.add("not a constraint")

    def test_attributes_and_totals(self):
        pcset = PredicateConstraintSet([
            pc(Predicate.range("x", 0, 1), {"v": (0, 5)}, max_rows=3, min_rows=1),
            pc(Predicate.range("y", 0, 1), max_rows=4),
        ])
        assert pcset.attributes() == {"x", "y", "v"}
        assert pcset.total_max_rows() == 7
        assert pcset.total_min_rows() == 1
        assert pcset.has_mandatory_rows()

    def test_pairwise_disjoint_detection(self):
        disjoint = PredicateConstraintSet([
            pc(Predicate.range("x", 0, 1), name="a"),
            pc(Predicate.range("x", 2, 3), name="b"),
        ])
        overlapping = PredicateConstraintSet([
            pc(Predicate.range("x", 0, 5), name="a"),
            pc(Predicate.range("x", 3, 8), name="b"),
        ])
        assert disjoint.is_pairwise_disjoint()
        assert not overlapping.is_pairwise_disjoint()

    def test_disjoint_hint_is_cleared_on_add(self):
        pcset = PredicateConstraintSet([pc(Predicate.range("x", 0, 1))])
        pcset.mark_disjoint(True)
        assert pcset.is_pairwise_disjoint()
        pcset.add(pc(Predicate.range("x", 0, 1), name="overlap"))
        assert not pcset.is_pairwise_disjoint()

    def test_validation_against_relation(self):
        schema = Schema.from_pairs([("x", ColumnType.FLOAT)])
        relation = Relation(schema, {"x": [0.5, 1.5, 7.0]})
        pcset = PredicateConstraintSet([
            pc(Predicate.range("x", 0, 1), {"x": (0, 1)}, max_rows=5, name="low"),
            pc(Predicate.range("x", 1, 10), {"x": (1, 5)}, max_rows=5, name="high"),
        ])
        violations = pcset.validate_against(relation)
        assert any(v.constraint_name == "high" for v in violations)
        assert not pcset.is_satisfied_by(relation)

    def test_closure_check(self):
        pcset = PredicateConstraintSet([
            pc(Predicate.range("x", 0, 5)),
            pc(Predicate.range("x", 5, 10)),
        ], domains={"x": AttributeDomain.numeric(0, 10)})
        assert pcset.is_closed()
        open_set = PredicateConstraintSet([
            pc(Predicate.range("x", 0, 4)),
        ], domains={"x": AttributeDomain.numeric(0, 10)})
        assert not open_set.is_closed()
        witness = open_set.closure_counterexample()
        assert witness is not None and witness["x"] > 4
        with pytest.raises(ClosureError):
            open_set.require_closed()

    def test_closure_over_region(self):
        open_set = PredicateConstraintSet([
            pc(Predicate.range("x", 0, 4)),
        ], domains={"x": AttributeDomain.numeric(0, 10)})
        assert open_set.is_closed(Predicate.range("x", 1, 3))
        assert not open_set.is_closed(Predicate.range("x", 3, 6))

    def test_closed_hint_shortcuts_search(self):
        open_set = PredicateConstraintSet([
            pc(Predicate.range("x", 0, 4)),
        ], domains={"x": AttributeDomain.numeric(0, 10)})
        open_set.mark_closed(True)
        assert open_set.is_closed()

    def test_restricted_to_keeps_mandatory_constraints(self):
        pcset = PredicateConstraintSet([
            pc(Predicate.range("x", 0, 1), name="inside"),
            pc(Predicate.range("x", 5, 6), name="outside"),
            pc(Predicate.range("x", 8, 9), min_rows=1, name="mandatory"),
        ])
        restricted = pcset.restricted_to(Predicate.range("x", 0, 2))
        names = {c.name for c in restricted}
        assert names == {"inside", "mandatory"}

    def test_map_constraints(self):
        pcset = PredicateConstraintSet([pc(Predicate.range("x", 0, 1), name="a")])
        renamed = pcset.map_constraints(lambda c: c.rename(c.name + "_new"))
        assert [c.name for c in renamed] == ["a_new"]


class TestIntegrality:
    """Each numeric attribute is read one way: integral or real."""

    def mixed_pair(self) -> list[PredicateConstraint]:
        # The integral a holds k = 2..5; the real b also holds k = 2.5.
        return [pc(Predicate.range("k", 2, 5, integral=True),
                   {"v": (0.0, 10.0)}, max_rows=5, name="a"),
                pc(Predicate.range("k", 2.2, 4.8), {"v": (0.0, 100.0)},
                   max_rows=5, name="b")]

    @pytest.mark.parametrize("order", [1, -1])
    def test_mixed_flags_on_one_attribute_are_rejected(self, order):
        with pytest.raises(ConstraintError, match="'a'.*'b'.*disagree on 'k'"):
            PredicateConstraintSet(self.mixed_pair()[::order])

    def test_integral_predicate_under_real_domain_is_rejected(self):
        integral, _real = self.mixed_pair()
        with pytest.raises(ConstraintError, match="'a' reads 'k'"):
            PredicateConstraintSet([integral], {"k": AttributeDomain.numeric()})
        pcset = PredicateConstraintSet([integral])
        with pytest.raises(ConstraintError, match="'a' reads 'k'"):
            pcset.set_domain("k", AttributeDomain.numeric())
        assert "k" not in pcset.domains

    @pytest.mark.parametrize("strategy", list(DecompositionStrategy))
    def test_integral_domain_reads_mixed_flags_over_the_integers(self,
                                                                 strategy):
        pcset = PredicateConstraintSet(
            self.mixed_pair(), {"k": AttributeDomain.numeric(integral=True)})
        predicates = pcset.predicates()
        oracle = set()
        for k in range(0, 8):
            covering = frozenset(
                index for index, predicate in enumerate(predicates)
                if predicate.matches_row({"k": k}))
            if covering:
                oracle.add(covering)
        cells = CellDecomposer(pcset, strategy).decompose()
        assert {cell.covering for cell in cells} == oracle
        assert oracle == {frozenset({0}), frozenset({0, 1})}

    def test_integral_region_over_real_attribute_is_rejected(self):
        _integral, real = self.mixed_pair()
        solver = PCBoundSolver(PredicateConstraintSet([real]),
                               BoundOptions(check_closure=False))
        region = Predicate.range("k", 2, 5, integral=True)
        with pytest.raises(QueryError, match="'k' as integral"):
            solver.bound(AggregateFunction.COUNT, None, region)
        assert solver.decompositions_computed == 0


class TestCell:
    def test_requires_covering(self):
        with pytest.raises(ConstraintError):
            Cell(frozenset())
        cell = Cell(frozenset({1, 3}))
        assert cell.size == 2
        assert cell.is_covered_by(3)
        assert not cell.is_covered_by(2)


class TestCellDecomposition:
    def overlapping_pcset(self) -> PredicateConstraintSet:
        """Figure 2-style overlapping predicates on one attribute."""
        return PredicateConstraintSet([
            pc(Predicate.range("x", 0, 6), name="p0"),
            pc(Predicate.range("x", 4, 10), name="p1"),
            pc(Predicate.range("x", 5, 7), name="p2"),
        ])

    def test_paper_example_cells(self, paper_overlapping_pcs):
        decomposition = CellDecomposer(paper_overlapping_pcs).decompose()
        covers = {tuple(sorted(cell.covering)) for cell in decomposition.cells}
        # c1 = t1 ∧ t2, c2 = ¬t1 ∧ t2 are satisfiable; c3 = t1 ∧ ¬t2 is not.
        assert covers == {(0, 1), (1,)}

    def test_all_strategies_find_the_same_cells(self):
        pcset = self.overlapping_pcset()
        results = {}
        for strategy in DecompositionStrategy:
            cells = CellDecomposer(pcset, strategy).decompose().cells
            results[strategy] = {tuple(sorted(cell.covering)) for cell in cells}
        assert results[DecompositionStrategy.NAIVE] == results[DecompositionStrategy.DFS]
        assert results[DecompositionStrategy.DFS] == \
            results[DecompositionStrategy.DFS_REWRITE]

    def clustered_pcset(self) -> PredicateConstraintSet:
        """Two clusters of overlapping predicates; cross-cluster cells are empty."""
        constraints = []
        for index, (low, high) in enumerate([(0, 6), (2, 8), (4, 10),
                                             (20, 26), (22, 28), (24, 30)]):
            constraints.append(pc(Predicate.range("x", low, high), name=f"p{index}"))
        pcset = PredicateConstraintSet(constraints)
        pcset.mark_disjoint(False)
        return pcset

    def test_dfs_issues_fewer_solver_calls_than_naive(self):
        pcset = self.clustered_pcset()
        naive = CellDecomposer(pcset, DecompositionStrategy.NAIVE).decompose()
        dfs = CellDecomposer(pcset, DecompositionStrategy.DFS).decompose()
        rewrite = CellDecomposer(pcset, DecompositionStrategy.DFS_REWRITE).decompose()
        assert naive.statistics.solver_calls == 2 ** 6
        assert dfs.statistics.solver_calls < naive.statistics.solver_calls
        assert rewrite.statistics.solver_calls <= dfs.statistics.solver_calls
        assert rewrite.statistics.rewrites_saved >= 1
        assert dfs.statistics.subtrees_pruned > 0
        # All strategies agree on the satisfiable cells.
        naive_covers = {tuple(sorted(cell.covering)) for cell in naive.cells}
        dfs_covers = {tuple(sorted(cell.covering)) for cell in dfs.cells}
        rewrite_covers = {tuple(sorted(cell.covering)) for cell in rewrite.cells}
        assert naive_covers == dfs_covers == rewrite_covers

    def test_disjoint_fast_path(self):
        pcset = PredicateConstraintSet([
            pc(Predicate.range("x", 0, 1), name="a"),
            pc(Predicate.range("x", 2, 3), name="b"),
        ])
        decomposition = CellDecomposer(pcset).decompose()
        assert len(decomposition.cells) == 2
        assert all(cell.size == 1 for cell in decomposition.cells)

    def test_query_pushdown_prunes_cells(self):
        pcset = self.overlapping_pcset()
        full = CellDecomposer(pcset).decompose()
        pushed = CellDecomposer(pcset).decompose(Predicate.range("x", 0, 3))
        assert len(pushed.cells) < len(full.cells)
        # Only p0 overlaps [0, 3].
        assert {tuple(sorted(cell.covering)) for cell in pushed.cells} == {(0,)}

    def test_early_stopping_only_adds_cells(self):
        pcset = self.overlapping_pcset()
        exact = CellDecomposer(pcset).decompose()
        approximate = CellDecomposer(pcset, early_stop_depth=1).decompose()
        exact_covers = {tuple(sorted(cell.covering)) for cell in exact.cells}
        approx_covers = {tuple(sorted(cell.covering)) for cell in approximate.cells}
        assert exact_covers <= approx_covers
        assert approximate.statistics.assumed_satisfiable > 0

    def test_empty_pcset(self):
        decomposition = CellDecomposer(PredicateConstraintSet()).decompose()
        assert len(decomposition) == 0

    def test_cells_covered_by(self):
        pcset = self.overlapping_pcset()
        decomposition = CellDecomposer(pcset).decompose()
        positions = decomposition.cells_covered_by(2)
        for position in positions:
            assert decomposition.cells[position].is_covered_by(2)

    def test_categorical_cells(self, sales_domains):
        pcset = PredicateConstraintSet([
            pc(Predicate.equals("branch", "Chicago"), name="chi"),
            pc(Predicate.true(), name="all"),
        ], domains=sales_domains)
        decomposition = CellDecomposer(pcset).decompose()
        covers = {tuple(sorted(cell.covering)) for cell in decomposition.cells}
        # "Chicago and everything" plus "everything except Chicago"; the cell
        # "Chicago but not everything" is unsatisfiable.
        assert covers == {(0, 1), (1,)}


class TestCellDecomposerEdgeCases:
    """Degenerate decompositions that must still produce sound bounds."""

    def test_zero_constraints_bound_to_empty_partition(self):
        from repro.core.bounds import BoundOptions, PCBoundSolver
        from repro.relational.aggregates import AggregateFunction

        pcset = PredicateConstraintSet()
        decomposition = CellDecomposer(pcset).decompose()
        assert len(decomposition) == 0
        assert decomposition.statistics.solver_calls == 0
        # With nothing covering the missing partition the COUNT is exactly 0.
        solver = PCBoundSolver(pcset, BoundOptions(check_closure=False))
        result = solver.bound(AggregateFunction.COUNT)
        assert (result.lower, result.upper) == (0.0, 0.0)

    def test_single_constraint_with_unsatisfiable_negation(self):
        # The domain restricts x to [0, 10]; the predicate covers all of it,
        # so NOT psi is unsatisfiable and the only cell is {0}.  Force the
        # DFS path (a singleton set is trivially "disjoint" otherwise).
        pcset = PredicateConstraintSet(
            [pc(Predicate.range("x", 0, 10), name="everything")],
            domains={"x": AttributeDomain.numeric(0, 10)})
        pcset.mark_disjoint(False)
        decomposition = CellDecomposer(
            pcset, DecompositionStrategy.DFS).decompose()
        assert [tuple(sorted(cell.covering)) for cell in decomposition.cells] \
            == [(0,)]
        # The exclude branch was pruned, not recursed into.
        assert decomposition.statistics.subtrees_pruned == 1

    def test_early_stop_depth_zero_assumes_every_cell(self):
        pcset = PredicateConstraintSet([
            pc(Predicate.range("x", 0, 2), name="a"),
            pc(Predicate.range("x", 5, 6), name="b"),   # disjoint from a
            pc(Predicate.range("x", 1, 3), name="c"),
        ])
        pcset.mark_disjoint(False)
        assumed = CellDecomposer(pcset, early_stop_depth=0).decompose()
        # Depth 0 skips every satisfiability check: all 2^n - 1 covered
        # subsets survive, including impossible ones like {a, b}.
        assert len(assumed.cells) == 2 ** len(pcset) - 1
        assert assumed.statistics.solver_calls == 0
        assert assumed.statistics.assumed_satisfiable > 0
        exact = CellDecomposer(pcset).decompose()
        exact_covers = {tuple(sorted(cell.covering)) for cell in exact.cells}
        assumed_covers = {tuple(sorted(cell.covering)) for cell in assumed.cells}
        assert exact_covers < assumed_covers

    def test_early_stop_depth_zero_only_loosens_bounds(self):
        from repro.core.bounds import BoundOptions
        from repro.plan import BoundQuery, build_plan, compile_plan
        from repro.relational.aggregates import AggregateFunction

        def build():
            pcset = PredicateConstraintSet([
                pc(Predicate.range("x", 0, 2), {"v": (0.0, 5.0)},
                   max_rows=4, min_rows=1, name="a"),
                pc(Predicate.range("x", 5, 6), {"v": (-3.0, 2.0)},
                   max_rows=3, name="b"),
                pc(Predicate.range("x", 1, 3), {"v": (1.0, 9.0)},
                   max_rows=2, name="c"),
            ])
            pcset.mark_disjoint(False)
            return pcset

        def bound(aggregate, attribute, depth):
            # Compiled the way the solver compiles, but from an
            # early-stopped enumeration (Optimisation 4).
            pcset = build()
            plan = build_plan(BoundQuery(aggregate, attribute), pcset,
                              BoundOptions(check_closure=False))
            decomposition = CellDecomposer(
                pcset, early_stop_depth=depth).decompose()
            return compile_plan(plan, decomposition).bound(aggregate)

        for aggregate, attribute in [(AggregateFunction.COUNT, None),
                                     (AggregateFunction.SUM, "v"),
                                     (AggregateFunction.AVG, "v"),
                                     (AggregateFunction.MIN, "v"),
                                     (AggregateFunction.MAX, "v")]:
            exact = bound(aggregate, attribute, None)
            loose = bound(aggregate, attribute, 0)
            # Assumed-satisfiable cells can only widen the range: the loose
            # interval must contain the exact one, never cut into it.
            if exact.lower is not None:
                assert loose.lower is not None and loose.lower <= exact.lower
            if exact.upper is not None:
                assert loose.upper is not None and loose.upper >= exact.upper


class TestDecomposeCached:
    def test_without_cache_computes_every_time(self):
        from repro.core.cells import decompose_cached

        pcset = PredicateConstraintSet([pc(Predicate.range("x", 0, 2))])
        computed = []
        decompose_cached(pcset, on_compute=computed.append)
        decompose_cached(pcset, on_compute=computed.append)
        assert len(computed) == 2

    def test_shared_cache_reuses_by_namespace_and_region(self):
        from repro.core.cells import decompose_cached
        from repro.service.cache import LRUCache

        pcset = PredicateConstraintSet([pc(Predicate.range("x", 0, 2))])
        cache = LRUCache(max_entries=8)
        computed = []
        region = Predicate.range("x", 0, 1)
        first = decompose_cached(pcset, region, cache=cache, namespace="ns",
                                 on_compute=computed.append)
        again = decompose_cached(pcset, Predicate.range("x", 0, 1),
                                 cache=cache, namespace="ns",
                                 on_compute=computed.append)
        assert again is first and len(computed) == 1
        # A different namespace (other constraint set / strategy) recomputes.
        decompose_cached(pcset, region, cache=cache, namespace="other",
                         on_compute=computed.append)
        assert len(computed) == 2

    def test_default_namespace_is_content_derived(self):
        """Omitting the namespace must never mix up constraint sets."""
        from repro.core.cells import decompose_cached
        from repro.service.cache import LRUCache

        cache = LRUCache(max_entries=8)
        one_constraint = PredicateConstraintSet([pc(Predicate.range("x", 0, 2))])
        two_constraints = PredicateConstraintSet([
            pc(Predicate.range("x", 0, 2), name="a"),
            pc(Predicate.range("x", 5, 6), name="b"),
        ])
        first = decompose_cached(one_constraint, cache=cache)
        second = decompose_cached(two_constraints, cache=cache)
        assert second is not first
        assert len(second.cells) == 2 and len(first.cells) == 1
        # Equal content (fresh objects) still shares the entry.
        equal = PredicateConstraintSet([pc(Predicate.range("x", 0, 2))])
        assert decompose_cached(equal, cache=cache) is first
