"""Ablation: approximate early stopping in cell decomposition (paper §4.1,
Optimisation 4).

Stopping the satisfiability search after the first K levels trades bound
tightness for decomposition time: unverified cells are assumed satisfiable,
which can only loosen (never invalidate) the bound.  The benchmark measures
both effects against the exact decomposition on the same overlapping
constraint set.  The solver always enumerates exactly, so each depth's
program is compiled here from :class:`CellDecomposer`'s early-stopped
enumeration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bounds import BoundOptions
from repro.core.builders import build_random_overlapping_boxes
from repro.core.cells import CellDecomposer, DecompositionStrategy
from repro.datasets.intel_wireless import generate_intel_wireless
from repro.plan import BoundQuery, build_plan, compile_plan
from repro.relational.aggregates import AggregateFunction


@pytest.fixture(scope="module")
def pcset():
    relation = generate_intel_wireless(num_rows=3_000, seed=5)
    constraints = build_random_overlapping_boxes(relation, ["device_id", "time"], 12,
                                                 value_attributes=["light"],
                                                 rng=np.random.default_rng(5))
    constraints.mark_disjoint(False)
    return constraints


def _bound_with_depth(pcset, early_stop_depth):
    plan = build_plan(BoundQuery(AggregateFunction.SUM, "light"), pcset,
                      BoundOptions(check_closure=False))
    decomposition = CellDecomposer(
        pcset, early_stop_depth=early_stop_depth).decompose()
    return compile_plan(plan, decomposition).bound(AggregateFunction.SUM,
                                                   "light")


@pytest.mark.paper_artifact("ablation-early-stopping")
@pytest.mark.parametrize("depth", [None, 8, 4])
def test_bench_ablation_early_stopping(benchmark, report_artifact, pcset, depth):
    result = benchmark(_bound_with_depth, pcset, depth)
    exact = _bound_with_depth(pcset, None)
    # Early stopping admits extra (unverified) cells, so the bound can only
    # stay the same or grow — it must remain a valid upper bound.
    assert result.upper >= exact.upper - 1e-6
    decomposition = CellDecomposer(pcset, DecompositionStrategy.DFS_REWRITE,
                                   early_stop_depth=depth).decompose()
    exact_cells = CellDecomposer(pcset, DecompositionStrategy.DFS_REWRITE).decompose()
    assert len(decomposition.cells) >= len(exact_cells.cells)
    report_artifact(
        f"early_stop_depth={depth}: upper={result.upper:.1f} "
        f"(exact {exact.upper:.1f}), satisfiable cells kept="
        f"{len(decomposition.cells)} (exact {len(exact_cells.cells)}), "
        f"solver_calls={decomposition.statistics.solver_calls} "
        f"(exact {exact_cells.statistics.solver_calls})")
