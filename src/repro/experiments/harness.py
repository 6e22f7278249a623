"""Shared experiment harness: fit estimators, run query workloads, score them.

The paper evaluates every technique on two metrics (§6.1):

* **failure rate** — the fraction of queries whose true answer (computed on
  the actually-missing rows) falls outside the returned interval;
* **median over-estimation rate** — the median of ``upper_bound / truth``
  over queries with a non-zero truth (a value of 1 is a perfectly tight
  upper bound).

This module provides those metrics plus the orchestration used by most of
the figure/table experiments: fit a set of estimators on the missing
partition, evaluate a query workload, and collect per-estimator metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..baselines.base import MissingDataEstimator
from ..core.engine import ContingencyQuery
from ..obs.metrics import timed
from ..relational.relation import Relation

__all__ = ["EvaluationMetrics", "evaluate_estimator", "evaluate_estimators"]


@dataclass
class EvaluationMetrics:
    """Scores for one estimator over one query workload."""

    estimator: str
    num_queries: int = 0
    num_failures: int = 0
    num_scored_overestimation: int = 0
    over_estimation_rates: list[float] = field(default_factory=list)
    total_seconds: float = 0.0

    @property
    def failure_rate(self) -> float:
        """Fraction of queries whose truth escaped the interval."""
        if self.num_queries == 0:
            return 0.0
        return self.num_failures / self.num_queries

    @property
    def failure_percent(self) -> float:
        return 100.0 * self.failure_rate

    @property
    def median_over_estimation(self) -> float:
        """Median of upper/truth over queries with positive truth."""
        finite = [rate for rate in self.over_estimation_rates if math.isfinite(rate)]
        if not finite:
            return math.inf if self.over_estimation_rates else 1.0
        return float(np.median(finite))

    @property
    def seconds_per_query(self) -> float:
        if self.num_queries == 0:
            return 0.0
        return self.total_seconds / self.num_queries

    def as_row(self) -> dict[str, float | str]:
        """A flat dict for the text-table reporters."""
        return {
            "estimator": self.estimator,
            "queries": self.num_queries,
            "failures": self.num_failures,
            "failure_%": round(self.failure_percent, 3),
            "median_overest": round(self.median_over_estimation, 3)
            if math.isfinite(self.median_over_estimation) else float("inf"),
            "ms_per_query": round(1000.0 * self.seconds_per_query, 3),
        }


def evaluate_estimator(estimator: MissingDataEstimator,
                       queries: Sequence[ContingencyQuery],
                       missing: Relation) -> EvaluationMetrics:
    """Score a fitted estimator on a workload against the true missing rows."""
    metrics = EvaluationMetrics(estimator=estimator.name)
    for query in queries:
        truth = query.ground_truth(missing)
        with timed("experiments.estimate_seconds") as timer:
            estimate = estimator.estimate(query)
        metrics.total_seconds += timer.seconds
        metrics.num_queries += 1
        if truth is None:
            # The aggregate is undefined on the missing rows (e.g. AVG over a
            # region with no missing rows); every interval trivially covers it.
            continue
        if not estimate.contains(truth):
            metrics.num_failures += 1
        if truth > 0:
            metrics.num_scored_overestimation += 1
            metrics.over_estimation_rates.append(estimate.over_estimation_rate(truth))
    return metrics


def evaluate_estimators(estimators: Mapping[str, MissingDataEstimator],
                        queries: Sequence[ContingencyQuery],
                        missing: Relation,
                        fit: bool = True) -> dict[str, EvaluationMetrics]:
    """Fit (optionally) and score several estimators on the same workload."""
    results: dict[str, EvaluationMetrics] = {}
    for label, estimator in estimators.items():
        if fit:
            estimator.fit(missing)
        metrics = evaluate_estimator(estimator, queries, missing)
        metrics.estimator = label
        results[label] = metrics
    return results
