"""Sampling-based baselines (paper §6.1.1): uniform and stratified samples
with parametric (CLT) or non-parametric confidence intervals.

The experiments assume the user can somehow provide unbiased example rows
from the missing partition (a stronger requirement than writing predicate
constraints, as the paper notes).  The estimator keeps:

* a uniform (or stratified) random sample of ``sample_size`` missing rows,
* the true number of missing rows (all baselines know how much data is
  missing — only its content is unknown).

Confidence intervals follow the two families the paper evaluates:

``parametric``
    Central-Limit-Theorem intervals using the sample standard deviation —
    the standard AQP construction, fragile when the sample misses the tails.
``nonparametric``
    Hoeffding-style intervals whose value range is *estimated from the
    sample min/max* (the population range is unknown) — more conservative,
    but still fallible for exactly the reason the paper highlights: a small
    sample underestimates the spread.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy import stats

from ..core.engine import ContingencyQuery
from ..exceptions import WorkloadError
from ..relational.aggregates import AggregateFunction
from ..relational.relation import Relation
from .base import IntervalEstimate, MissingDataEstimator

__all__ = ["UniformSamplingEstimator", "StratifiedSamplingEstimator"]


def _z_value(confidence: float) -> float:
    """Two-sided normal critical value for the given confidence level."""
    if not 0.0 < confidence < 1.0:
        raise WorkloadError(f"confidence must be in (0, 1), got {confidence}")
    return float(stats.norm.ppf(0.5 + confidence / 2.0))


class UniformSamplingEstimator(MissingDataEstimator):
    """Uniform random sample + CLT or Hoeffding confidence intervals.

    Parameters
    ----------
    sample_size:
        Number of missing rows retained (``n`` or ``10n`` in the paper).
    confidence:
        Nominal confidence level of the interval (e.g. ``0.99``).
    method:
        ``"parametric"`` (CLT) or ``"nonparametric"`` (Hoeffding with a
        sample-estimated value range).
    """

    def __init__(self, sample_size: int, confidence: float = 0.99,
                 method: str = "nonparametric",
                 rng: np.random.Generator | None = None):
        super().__init__()
        if sample_size <= 0:
            raise WorkloadError("sample_size must be positive")
        if method not in ("parametric", "nonparametric"):
            raise WorkloadError(
                f"method must be 'parametric' or 'nonparametric', got {method!r}")
        self.sample_size = sample_size
        self.confidence = confidence
        self.method = method
        self._rng = rng if rng is not None else np.random.default_rng()
        self._sample: Relation | None = None
        self._population_size = 0
        tag = "p" if method == "parametric" else "n"
        self.name = f"US-{tag}"

    # ------------------------------------------------------------------ #
    def fit(self, missing: Relation) -> "UniformSamplingEstimator":
        self._population_size = missing.num_rows
        size = min(self.sample_size, missing.num_rows)
        self._sample = missing.sample(size, rng=self._rng, replace=False)
        self._fitted = True
        return self

    def estimate(self, query: ContingencyQuery) -> IntervalEstimate:
        self._require_fitted()
        assert self._sample is not None
        per_row = self._per_row_values(self._sample, query)
        if query.aggregate in (AggregateFunction.COUNT, AggregateFunction.SUM):
            return self._estimate_total(per_row)
        if query.aggregate is AggregateFunction.AVG:
            return self._estimate_average(per_row)
        return self._estimate_extremum(query)

    # ------------------------------------------------------------------ #
    # Per-aggregate estimation
    # ------------------------------------------------------------------ #
    @staticmethod
    def _per_row_values(sample: Relation, query: ContingencyQuery) -> np.ndarray:
        """The per-sampled-row contribution to the query total."""
        if sample.num_rows == 0:
            return np.zeros(0)
        if query.region is not None:
            mask = query.region.evaluate(sample)
        else:
            mask = np.ones(sample.num_rows, dtype=bool)
        if query.aggregate is AggregateFunction.COUNT:
            return mask.astype(np.float64)
        assert query.attribute is not None
        values = sample.column(query.attribute).astype(np.float64)
        if query.aggregate in (AggregateFunction.SUM,):
            return values * mask
        # AVG / MIN / MAX work on the matching rows' raw values.
        return values[mask]

    def _estimate_total(self, per_row: np.ndarray) -> IntervalEstimate:
        """Scale the sample mean contribution up to the full missing partition."""
        population = self._population_size
        n = per_row.size
        if n == 0 or population == 0:
            return IntervalEstimate(0.0, 0.0, 0.0, self.name)
        mean = float(per_row.mean())
        point = mean * population
        margin = self._mean_margin(per_row) * population
        return IntervalEstimate(point - margin, point + margin, point, self.name)

    def _estimate_average(self, matching_values: np.ndarray) -> IntervalEstimate:
        if matching_values.size == 0:
            return IntervalEstimate(0.0, 0.0, 0.0, self.name)
        mean = float(matching_values.mean())
        margin = self._mean_margin(matching_values)
        return IntervalEstimate(mean - margin, mean + margin, mean, self.name)

    def _estimate_extremum(self, query: ContingencyQuery) -> IntervalEstimate:
        """MIN/MAX estimates: the sample extremum is all a sample can offer."""
        assert self._sample is not None
        per_row = self._per_row_values(self._sample, query)
        if per_row.size == 0:
            return IntervalEstimate(0.0, 0.0, 0.0, self.name)
        observed_min = float(per_row.min())
        observed_max = float(per_row.max())
        spread = observed_max - observed_min
        if query.aggregate is AggregateFunction.MAX:
            return IntervalEstimate(observed_max, observed_max + spread,
                                    observed_max, self.name)
        return IntervalEstimate(observed_min - spread, observed_min,
                                observed_min, self.name)

    # ------------------------------------------------------------------ #
    # Confidence-interval machinery
    # ------------------------------------------------------------------ #
    def _mean_margin(self, values: np.ndarray) -> float:
        """Half-width of the confidence interval for the mean of ``values``."""
        n = values.size
        if n <= 1:
            return 0.0
        if self.method == "parametric":
            std_error = float(values.std(ddof=1)) / math.sqrt(n)
            return _z_value(self.confidence) * std_error
        # Non-parametric: Hoeffding's inequality with the value range
        # estimated from the sample itself (the population range is unknown).
        value_range = float(values.max() - values.min())
        if value_range == 0.0:
            return 0.0
        delta = 1.0 - self.confidence
        return value_range * math.sqrt(math.log(2.0 / delta) / (2.0 * n))


class StratifiedSamplingEstimator(MissingDataEstimator):
    """Stratified sampling over a partitioning of the missing rows.

    Strata are defined by equi-cardinality buckets of the given attributes
    (mirroring the partitions the PC schemes use, §6.1.1).  Rows are sampled
    proportionally per stratum; totals are estimated per stratum and summed,
    with per-stratum margins combined in quadrature for the parametric
    method and additively for the non-parametric one (conservative).
    """

    def __init__(self, sample_size: int, strata_attributes: Sequence[str],
                 num_strata: int = 16, confidence: float = 0.99,
                 method: str = "nonparametric",
                 rng: np.random.Generator | None = None):
        super().__init__()
        if sample_size <= 0:
            raise WorkloadError("sample_size must be positive")
        if not strata_attributes:
            raise WorkloadError("stratified sampling needs at least one attribute")
        self.sample_size = sample_size
        self.strata_attributes = tuple(strata_attributes)
        self.num_strata = max(1, num_strata)
        self.confidence = confidence
        self.method = method
        self._rng = rng if rng is not None else np.random.default_rng()
        self._strata: list[tuple[int, Relation]] = []
        tag = "p" if method == "parametric" else "n"
        self.name = f"ST-{tag}"

    def fit(self, missing: Relation) -> "StratifiedSamplingEstimator":
        self._strata = []
        if missing.num_rows == 0:
            self._fitted = True
            return self
        strata = self._partition(missing)
        total = missing.num_rows
        for stratum in strata:
            if stratum.num_rows == 0:
                continue
            share = stratum.num_rows / total
            allocation = max(1, int(round(self.sample_size * share)))
            allocation = min(allocation, stratum.num_rows)
            sample = stratum.sample(allocation, rng=self._rng, replace=False)
            self._strata.append((stratum.num_rows, sample))
        self._fitted = True
        return self

    def _partition(self, missing: Relation) -> list[Relation]:
        """Equi-cardinality buckets along the first stratification attribute,
        refined by the remaining attributes round-robin."""
        buckets = [missing]
        per_attribute = max(1, int(round(self.num_strata ** (1 / len(self.strata_attributes)))))
        for attribute in self.strata_attributes:
            refined: list[Relation] = []
            for bucket in buckets:
                if bucket.num_rows == 0:
                    continue
                values = bucket.column(attribute).astype(np.float64)
                edges = np.quantile(values, np.linspace(0, 1, per_attribute + 1))
                edges = np.unique(edges)
                if edges.size < 2:
                    refined.append(bucket)
                    continue
                positions = np.digitize(values, edges[1:-1], right=False)
                for index in range(edges.size - 1):
                    mask = positions == index
                    if mask.any():
                        refined.append(bucket.filter(mask))
            buckets = refined
        return buckets

    def estimate(self, query: ContingencyQuery) -> IntervalEstimate:
        self._require_fitted()
        if not self._strata:
            return IntervalEstimate(0.0, 0.0, 0.0, self.name)
        if query.aggregate in (AggregateFunction.COUNT, AggregateFunction.SUM):
            return self._estimate_total(query)
        # For AVG/MIN/MAX fall back to pooling the per-stratum samples.
        pooled = self._strata[0][1]
        for _, sample in self._strata[1:]:
            pooled = pooled.concat(sample)
        helper = UniformSamplingEstimator(max(pooled.num_rows, 1), self.confidence,
                                          self.method, self._rng)
        helper._sample = pooled
        helper._population_size = sum(size for size, _ in self._strata)
        helper._fitted = True
        estimate = helper.estimate(query)
        return IntervalEstimate(estimate.lower, estimate.upper, estimate.point,
                                self.name)

    def _estimate_total(self, query: ContingencyQuery) -> IntervalEstimate:
        point = 0.0
        margins: list[float] = []
        for stratum_size, sample in self._strata:
            per_row = UniformSamplingEstimator._per_row_values(sample, query)
            if per_row.size == 0:
                continue
            mean = float(per_row.mean())
            point += mean * stratum_size
            helper = UniformSamplingEstimator(max(per_row.size, 1), self.confidence,
                                              self.method, self._rng)
            margins.append(helper._mean_margin(per_row) * stratum_size)
        if self.method == "parametric":
            margin = math.sqrt(sum(m * m for m in margins))
        else:
            margin = sum(margins)
        return IntervalEstimate(point - margin, point + margin, point, self.name)
