"""Common interface for the statistical baselines of paper §6.1.

Every baseline summarises the *missing* rows into a bounded amount of state
(comparable to the ``n`` predicate-constraints the PC framework receives) and
then produces an interval estimate for aggregate queries over those missing
rows.  The experiments score each estimator on two metrics:

* **failure rate** — how often the true value falls outside the interval;
* **over-estimation rate** — how loose the interval's upper endpoint is.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

from ..core.engine import ContingencyQuery
from ..relational.relation import Relation

__all__ = ["IntervalEstimate", "MissingDataEstimator"]


@dataclass(frozen=True)
class IntervalEstimate:
    """An interval estimate (possibly probabilistic) for a query result."""

    lower: float
    upper: float
    point: float | None = None
    method: str = ""

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            # Normalise rather than raise: some estimators produce degenerate
            # intervals on tiny samples and we still want to score them.
            object.__setattr__(self, "lower", min(self.lower, self.upper))
            object.__setattr__(self, "upper", max(self.lower, self.upper))

    def contains(self, value: float | None) -> bool:
        if value is None:
            return True
        return self.lower - 1e-9 <= value <= self.upper + 1e-9

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def over_estimation_rate(self, truth: float) -> float:
        """``upper / truth`` — the paper's tightness metric."""
        if truth == 0:
            return math.inf if self.upper > 0 else 1.0
        if math.isinf(self.upper):
            return math.inf
        return self.upper / truth

    def shifted(self, offset: float) -> "IntervalEstimate":
        return IntervalEstimate(self.lower + offset, self.upper + offset,
                                None if self.point is None else self.point + offset,
                                self.method)


class MissingDataEstimator(abc.ABC):
    """Base class: summarise missing rows, then answer interval queries."""

    #: Human-readable identifier used by the experiment reports.
    name: str = "estimator"

    def __init__(self) -> None:
        self._fitted = False

    @abc.abstractmethod
    def fit(self, missing: Relation) -> "MissingDataEstimator":
        """Summarise the missing partition.  Returns ``self`` for chaining."""

    @abc.abstractmethod
    def estimate(self, query: ContingencyQuery) -> IntervalEstimate:
        """Interval estimate of ``query`` over the (unseen) missing partition."""

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(
                f"{type(self).__name__}.estimate() called before fit()"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
