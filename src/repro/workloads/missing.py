"""Missing-data scenario generators (paper §6.2).

The paper removes rows from each dataset *in a correlated way* — e.g. the
rows with the highest ``light`` values go missing — precisely because that
is the regime where extrapolation and sampling-based estimates break down.
This module produces (observed, missing) splits under several missingness
mechanisms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.predicates import Predicate
from ..exceptions import WorkloadError
from ..relational.relation import Relation

__all__ = ["MissingDataScenario", "remove_correlated", "remove_random",
           "remove_region"]


@dataclass(frozen=True)
class MissingDataScenario:
    """An (observed, missing) split of a relation plus its provenance."""

    observed: Relation
    missing: Relation
    mechanism: str
    fraction: float

    @property
    def total_rows(self) -> int:
        return self.observed.num_rows + self.missing.num_rows

    @property
    def actual_fraction(self) -> float:
        total = self.total_rows
        return self.missing.num_rows / total if total else 0.0


def remove_correlated(relation: Relation, fraction: float, attribute: str,
                      highest: bool = True) -> MissingDataScenario:
    """Remove the top (or bottom) ``fraction`` of rows ranked by ``attribute``.

    This is the paper's correlated-missingness mechanism: the missing rows
    systematically carry extreme values of the aggregate, which is what
    makes extrapolation from the observed rows misleading.
    """
    _validate_fraction(fraction)
    if relation.num_rows == 0:
        raise WorkloadError("cannot build a missing-data scenario from an empty relation")
    count_missing = int(round(relation.num_rows * fraction))
    count_missing = min(max(count_missing, 0), relation.num_rows)
    ordered = relation.sort_by(attribute, descending=highest)
    missing = ordered.head(count_missing)
    observed = ordered.take(np.arange(count_missing, ordered.num_rows))
    direction = "highest" if highest else "lowest"
    return MissingDataScenario(observed, missing,
                               mechanism=f"correlated-{direction}-{attribute}",
                               fraction=fraction)


def remove_random(relation: Relation, fraction: float,
                  rng: np.random.Generator | None = None) -> MissingDataScenario:
    """Remove a uniformly random ``fraction`` of rows (the benign mechanism)."""
    _validate_fraction(fraction)
    generator = rng if rng is not None else np.random.default_rng()
    count_missing = int(round(relation.num_rows * fraction))
    permutation = generator.permutation(relation.num_rows)
    missing = relation.take(permutation[:count_missing])
    observed = relation.take(permutation[count_missing:])
    return MissingDataScenario(observed, missing, mechanism="random",
                               fraction=fraction)


def remove_region(relation: Relation, region: Predicate) -> MissingDataScenario:
    """Remove every row inside ``region`` (e.g. "the New York branch outage")."""
    missing, observed = relation.split_by_mask(region)
    fraction = missing.num_rows / relation.num_rows if relation.num_rows else 0.0
    return MissingDataScenario(observed, missing, mechanism="region",
                               fraction=fraction)


def _validate_fraction(fraction: float) -> None:
    if not 0.0 <= fraction <= 1.0:
        raise WorkloadError(f"fraction must lie in [0, 1], got {fraction}")
