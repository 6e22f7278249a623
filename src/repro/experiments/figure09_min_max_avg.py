"""Figure 9: MIN, MAX and AVG queries under partitioned constraints.

The PC framework answers MIN/MAX queries with the exact extreme of the
covering cells' value bounds — an optimal bound when the constraints are
annotated with true ranges — and AVG queries with the exact extreme
averages (Dinkelbach's iteration, where §4.2 bisects).  The figure reports the median over-estimation rate (bound / truth)
per aggregate on the Intel Wireless dataset partitioned on device id and
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..relational.aggregates import AggregateFunction
from ..workloads.missing import remove_correlated
from ..workloads.queries import QueryWorkloadSpec, generate_query_workload
from .common import DatasetSetup, intel_setup
from .estimators import PartitionPCEstimator
from .harness import evaluate_estimator
from .reporting import format_mapping_table

__all__ = ["Figure9Config", "Figure9Result", "run_figure9"]


@dataclass
class Figure9Config:
    """Scale knobs for the Figure 9 reproduction."""

    aggregates: tuple[AggregateFunction, ...] = (AggregateFunction.MIN,
                                                 AggregateFunction.MAX,
                                                 AggregateFunction.AVG)
    missing_fraction: float = 0.5
    num_queries: int = 100
    num_rows: int = 20_000
    num_constraints: int = 400
    seed: int = 7


@dataclass
class Figure9Result:
    """Median over-estimation rate per aggregate."""

    rows: list[dict[str, object]] = field(default_factory=list)

    def to_text(self) -> str:
        return ("Figure 9 — MIN/MAX/AVG over-estimation with partition PCs\n"
                + format_mapping_table(self.rows))


def run_figure9(config: Figure9Config | None = None,
                setup: DatasetSetup | None = None) -> Figure9Result:
    """Reproduce Figure 9 on the synthetic Intel Wireless dataset."""
    config = config or Figure9Config()
    setup = setup or intel_setup(num_rows=config.num_rows,
                                 num_constraints=config.num_constraints,
                                 seed=config.seed)
    scenario = remove_correlated(setup.relation, config.missing_fraction,
                                 setup.target, highest=True)
    estimator = PartitionPCEstimator(setup.pc_attributes, config.num_constraints,
                                     target=setup.target)
    estimator.fit(scenario.missing)

    result = Figure9Result()
    for aggregate in config.aggregates:
        workload = QueryWorkloadSpec(aggregate=aggregate, attribute=setup.target,
                                     predicate_attributes=setup.predicate_attributes,
                                     num_queries=config.num_queries)
        queries = generate_query_workload(setup.relation, workload, seed=53)
        metrics = evaluate_estimator(estimator, queries, scenario.missing)
        tightness = _median_tightness(estimator, queries, scenario.missing, aggregate)
        result.rows.append({
            "aggregate": aggregate.value,
            "median_overest": round(tightness, 3) if math.isfinite(tightness)
            else float("inf"),
            "failure_%": round(metrics.failure_percent, 3),
        })
    return result


def _median_tightness(estimator, queries, missing, aggregate) -> float:
    """Aggregate-appropriate tightness: how far the binding endpoint is from truth.

    MAX and AVG are bounded from above, so ``upper / truth`` is the paper's
    over-estimation rate; MIN is bounded from below, so the analogous metric
    is ``truth / lower``.
    """
    ratios: list[float] = []
    for query in queries:
        truth = query.ground_truth(missing)
        if truth is None or truth <= 0:
            continue
        estimate = estimator.estimate(query)
        if aggregate is AggregateFunction.MIN:
            if estimate.lower <= 0 or not math.isfinite(estimate.lower):
                ratios.append(float("inf"))
            else:
                ratios.append(truth / estimate.lower)
        else:
            ratios.append(estimate.over_estimation_rate(truth))
    finite = [ratio for ratio in ratios if math.isfinite(ratio)]
    if not finite:
        return float("inf") if ratios else 1.0
    return float(np.median(finite))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run_figure9().to_text())
