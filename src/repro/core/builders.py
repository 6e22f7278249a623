"""Automatic predicate-constraint construction from data (paper §6.1.4).

The experiments use two PC-generation schemes that bracket what a careful /
careless analyst would write by hand:

* **Corr-PC** — equi-cardinality partitions of the attributes most correlated
  with the aggregate of interest, annotated with the exact value ranges and
  row counts observed in the summarised data.  This is "the reasonably best
  performance one could expect out of the PC framework".
* **Rand-PC** — randomly placed, overlapping boxes over the same attributes
  (plus a catch-all constraint so the set stays closed).  This is the
  worst case: valid but poorly targeted constraints.

Both schemes summarise a given relation (in the experiments: the missing
partition) into ``n`` constraints, so every baseline receives a comparable
amount of information.  The module also provides plain partition /
histogram-style builders and helpers to infer attribute domains.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import DatasetError
from ..relational.relation import Relation
from ..relational.schema import ColumnType
from ..solvers.sat import AttributeDomain
from .constraints import FrequencyConstraint, PredicateConstraint, ValueConstraint
from .pcset import PredicateConstraintSet
from .predicates import Predicate

__all__ = [
    "infer_domains",
    "select_correlated_attributes",
    "build_partition_pcs",
    "build_corr_pcs",
    "build_random_pcs",
    "build_random_overlapping_boxes",
    "build_overlapping_pcs",
    "build_histogram_pcs",
]

_INF = float("inf")


# --------------------------------------------------------------------- #
# Domains and attribute selection
# --------------------------------------------------------------------- #
def infer_domains(relation: Relation) -> dict[str, AttributeDomain]:
    """Attribute domains for the SAT solver, inferred from a relation's schema.

    Numeric attributes get the full real (or integer) line; categorical
    attributes get the finite set of values observed in the relation.
    """
    domains: dict[str, AttributeDomain] = {}
    for column in relation.schema:
        if column.ctype is ColumnType.STRING:
            domains[column.name] = AttributeDomain.categorical(
                relation.distinct_values(column.name).tolist())
        elif column.ctype is ColumnType.INT:
            domains[column.name] = AttributeDomain.numeric(integral=True)
        else:
            domains[column.name] = AttributeDomain.numeric()
    return domains


def select_correlated_attributes(relation: Relation, target: str, count: int = 2,
                                 candidates: Sequence[str] | None = None
                                 ) -> list[str]:
    """The ``count`` numeric attributes most correlated with ``target``.

    Correlation is absolute Pearson correlation on the given relation; ties
    are broken by schema order.  This is the attribute-selection step of the
    Corr-PC scheme.
    """
    relation.schema.require_numeric(target)
    names = candidates if candidates is not None else [
        name for name in relation.schema.numeric_names if name != target
    ]
    target_values = relation.column(target).astype(np.float64)
    scored: list[tuple[float, str]] = []
    for name in names:
        if name == target:
            continue
        values = relation.column(name).astype(np.float64)
        correlation = _safe_correlation(values, target_values)
        scored.append((abs(correlation), name))
    scored.sort(key=lambda item: (-item[0], names.index(item[1])))
    return [name for _, name in scored[:count]]


def _safe_correlation(x: np.ndarray, y: np.ndarray) -> float:
    if x.size < 2 or np.allclose(x, x[0]) or np.allclose(y, y[0]):
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


# --------------------------------------------------------------------- #
# Partition-based constraints (Corr-PC and friends)
# --------------------------------------------------------------------- #
def build_partition_pcs(relation: Relation, attributes: Sequence[str],
                        num_constraints: int,
                        value_attributes: Sequence[str] | None = None,
                        exact_counts: bool = False,
                        unbounded_edges: bool = True,
                        name_prefix: str = "part") -> PredicateConstraintSet:
    """Equi-cardinality grid partition of ``attributes`` into ~``num_constraints`` PCs.

    Each non-empty grid bucket becomes one predicate-constraint whose value
    constraint records the observed min/max of every value attribute and
    whose frequency constraint records the observed row count.

    Parameters
    ----------
    exact_counts:
        When True the frequency constraint is ``(count, count)``; otherwise
        ``(0, count)`` (the paper's common setting where bounds from below
        are trivial).
    unbounded_edges:
        When True the outermost buckets extend to infinity so the set is
        closed over the whole numeric domain, not just the observed range.
    """
    if num_constraints <= 0:
        raise DatasetError("num_constraints must be positive")
    if not attributes:
        raise DatasetError("partitioning requires at least one attribute")
    if relation.num_rows == 0:
        raise DatasetError("cannot build partition constraints from an empty relation")
    for attribute in attributes:
        relation.schema.require_numeric(attribute)
    value_names = list(value_attributes) if value_attributes is not None else [
        name for name in relation.schema.numeric_names
    ]

    edges = _allocate_partition_edges(relation, attributes, num_constraints)

    pcset = PredicateConstraintSet(domains=infer_domains(relation))
    buckets = _assign_buckets(relation, attributes, edges)
    for bucket_key, indices in sorted(buckets.items()):
        subset = relation.take(indices)
        predicate = _bucket_predicate(attributes, edges, bucket_key, unbounded_edges)
        bounds = {
            name: (subset.column_min(name), subset.column_max(name))
            for name in value_names
        }
        count = subset.num_rows
        frequency = (FrequencyConstraint.exactly(count) if exact_counts
                     else FrequencyConstraint.at_most(count))
        label = f"{name_prefix}_" + "_".join(str(part) for part in bucket_key)
        pcset.add(PredicateConstraint(predicate, ValueConstraint(bounds),
                                      frequency, name=label))
    pcset.mark_disjoint(True)
    if unbounded_edges:
        pcset.mark_closed(True)
    return pcset


def build_corr_pcs(relation: Relation, target: str, num_constraints: int,
                   num_attributes: int = 2,
                   candidates: Sequence[str] | None = None,
                   exact_counts: bool = False) -> PredicateConstraintSet:
    """The Corr-PC scheme: partition the attributes most correlated with ``target``."""
    attributes = select_correlated_attributes(relation, target, num_attributes,
                                              candidates)
    if not attributes:
        attributes = [target]
    return build_partition_pcs(relation, attributes, num_constraints,
                               value_attributes=[target],
                               exact_counts=exact_counts, name_prefix="corr")


def build_histogram_pcs(relation: Relation, attribute: str,
                        num_buckets: int) -> PredicateConstraintSet:
    """Equi-width 1-D histogram over ``attribute`` expressed as disjoint PCs.

    The paper observes that histograms are the dense, 1-D, non-overlapping
    special case of predicate-constraints; this builder makes that precise.
    """
    relation.schema.require_numeric(attribute)
    if num_buckets <= 0:
        raise DatasetError("num_buckets must be positive")
    if relation.num_rows == 0:
        raise DatasetError("cannot build a histogram over an empty relation")
    values = relation.column(attribute).astype(np.float64)
    low, high = float(values.min()), float(values.max())
    if low == high:
        high = low + 1.0
    edges = np.linspace(low, high, num_buckets + 1)
    pcset = PredicateConstraintSet(domains=infer_domains(relation))
    for index in range(num_buckets):
        bucket_low = -_INF if index == 0 else float(edges[index])
        bucket_high = _INF if index == num_buckets - 1 else float(edges[index + 1])
        if index == num_buckets - 1:
            mask = values >= edges[index]
        else:
            mask = (values >= edges[index]) & (values < edges[index + 1])
        count = int(mask.sum())
        value_low = float(values[mask].min()) if count else float(edges[index])
        value_high = float(values[mask].max()) if count else float(edges[index + 1])
        if index < num_buckets - 1:
            bucket_high = math.nextafter(float(edges[index + 1]), -_INF)
        predicate = Predicate.range(attribute, bucket_low, bucket_high)
        pcset.add(PredicateConstraint(
            predicate,
            ValueConstraint({attribute: (value_low, value_high)}),
            FrequencyConstraint.at_most(count),
            name=f"hist_{index}"))
    pcset.mark_disjoint(True)
    pcset.mark_closed(True)
    return pcset


# --------------------------------------------------------------------- #
# Random and overlapping constraints (Rand-PC, Overlapping-PC)
# --------------------------------------------------------------------- #
def build_random_pcs(relation: Relation, attributes: Sequence[str],
                     num_constraints: int,
                     value_attributes: Sequence[str] | None = None,
                     rng: np.random.Generator | None = None) -> PredicateConstraintSet:
    """The Rand-PC scheme: a partition with randomly placed bucket edges.

    Unlike Corr-PC the bucket boundaries ignore the data distribution and
    the correlation structure, so individual constraints mix sparse and
    dense regions and carry much looser value ranges — the paper's "worst
    performance one could expect" scheme.  Constraints are still *valid*
    (they are annotated with the true statistics of the rows they cover) and
    the partition covers the whole domain, so the set stays closed.
    """
    if num_constraints <= 0:
        raise DatasetError("num_constraints must be positive")
    if relation.num_rows == 0:
        raise DatasetError("cannot build random constraints from an empty relation")
    generator = rng if rng is not None else np.random.default_rng()
    for attribute in attributes:
        relation.schema.require_numeric(attribute)
    value_names = list(value_attributes) if value_attributes is not None else [
        name for name in relation.schema.numeric_names
    ]

    bins_per_attribute = max(1, int(round(num_constraints ** (1.0 / len(attributes)))))
    edges: dict[str, np.ndarray] = {}
    for attribute in attributes:
        low, high = relation.column_range(attribute)
        if high == low:
            high = low + 1.0
        interior = np.sort(generator.uniform(low, high, size=bins_per_attribute - 1))
        edges[attribute] = np.concatenate([[low], interior, [high]])

    pcset = PredicateConstraintSet(domains=infer_domains(relation))
    buckets = _assign_buckets(relation, attributes, edges)
    for bucket_key, indices in sorted(buckets.items()):
        subset = relation.take(indices)
        predicate = _bucket_predicate(attributes, edges, bucket_key,
                                      unbounded_edges=True)
        pcset.add(_summarising_constraint(subset, relation, predicate, value_names,
                                          name="rand_" + "_".join(map(str, bucket_key))))
    pcset.mark_disjoint(True)
    pcset.mark_closed(True)
    return pcset


def build_random_overlapping_boxes(relation: Relation, attributes: Sequence[str],
                                   num_constraints: int,
                                   value_attributes: Sequence[str] | None = None,
                                   rng: np.random.Generator | None = None,
                                   include_catch_all: bool = True
                                   ) -> PredicateConstraintSet:
    """Heavily-overlapping random boxes (the paper's Figure 7 stress workload).

    Each random box is annotated with the true value ranges and row counts
    of the rows it covers, so the constraints are valid — just heavily
    overlapping, which is exactly what stresses cell decomposition.  A
    catch-all constraint keeps the set closed.
    """
    if num_constraints <= 0:
        raise DatasetError("num_constraints must be positive")
    if relation.num_rows == 0:
        raise DatasetError("cannot build random constraints from an empty relation")
    generator = rng if rng is not None else np.random.default_rng()
    for attribute in attributes:
        relation.schema.require_numeric(attribute)
    value_names = list(value_attributes) if value_attributes is not None else [
        name for name in relation.schema.numeric_names
    ]
    pcset = PredicateConstraintSet(domains=infer_domains(relation))
    ranges = {attribute: relation.column_range(attribute) for attribute in attributes}

    box_budget = num_constraints - 1 if include_catch_all else num_constraints
    for index in range(max(box_budget, 0)):
        predicate = Predicate.true()
        for attribute in attributes:
            low, high = ranges[attribute]
            if high == low:
                high = low + 1.0
            span = high - low
            width = span * float(generator.uniform(0.1, 0.6))
            start = low + float(generator.uniform(0.0, max(span - width, 1e-12)))
            predicate = predicate.with_range(attribute, start, start + width)
        subset = relation.filter(predicate)
        pcset.add(_summarising_constraint(subset, relation, predicate, value_names,
                                          name=f"box_{index}"))
    if include_catch_all:
        pcset.add(_summarising_constraint(relation, relation, Predicate.true(),
                                          value_names, name="box_catch_all"))
        pcset.mark_closed(True)
    return pcset


def build_overlapping_pcs(relation: Relation, attributes: Sequence[str],
                          num_constraints: int, overlap_fraction: float = 0.5,
                          value_attributes: Sequence[str] | None = None,
                          exact_counts: bool = False) -> PredicateConstraintSet:
    """Equi-cardinality partitions stretched so neighbouring PCs overlap.

    Used by the robustness experiment (paper §6.3.2): overlapping constraints
    let the framework reject some amount of mis-specification because the
    most restrictive overlapping constraint wins.
    """
    if not 0.0 <= overlap_fraction <= 1.0:
        raise DatasetError("overlap_fraction must lie in [0, 1]")
    base = build_partition_pcs(relation, attributes, num_constraints,
                               value_attributes=value_attributes,
                               exact_counts=exact_counts,
                               unbounded_edges=True, name_prefix="overlap")
    if overlap_fraction == 0.0:
        return base
    stretched = PredicateConstraintSet(domains=base.domains)
    for constraint in base:
        predicate = Predicate.true()
        for attribute, attribute_range in constraint.predicate.ranges.items():
            low, high = attribute_range.low, attribute_range.high
            if math.isfinite(low) and math.isfinite(high):
                stretch = (high - low) * overlap_fraction / 2.0
                low, high = low - stretch, high + stretch
            predicate = predicate.with_range(attribute, low, high)
        for attribute, membership in constraint.predicate.memberships.items():
            predicate = predicate.with_membership(attribute, membership.values)
        # Re-summarise against the relation so the stretched constraint is
        # still valid (it now covers more rows).
        subset = relation.filter(predicate)
        value_names = list(constraint.values.bounds)
        stretched.add(_summarising_constraint(subset, relation, predicate,
                                              value_names, name=constraint.name,
                                              exact_counts=exact_counts))
    return stretched


# --------------------------------------------------------------------- #
# Internal helpers
# --------------------------------------------------------------------- #
def _allocate_partition_edges(relation: Relation, attributes: Sequence[str],
                              num_constraints: int) -> dict[str, np.ndarray]:
    """Pick per-attribute bucket edges whose grid has ~``num_constraints`` cells.

    Quantile edges collapse on skewed or low-cardinality attributes (most of
    the mass sits on a handful of values), which would silently shrink the
    grid far below the requested budget.  When that happens the remaining
    budget is re-invested into the attributes that can still be split.
    """
    bins_request = {
        attribute: max(1, int(round(num_constraints ** (1.0 / len(attributes)))))
        for attribute in attributes
    }
    values = {attribute: relation.column(attribute).astype(np.float64)
              for attribute in attributes}
    distinct_counts = {attribute: np.unique(values[attribute]).size
                       for attribute in attributes}

    edges: dict[str, np.ndarray] = {}
    for _ in range(6):
        edges = {attribute: _quantile_edges(values[attribute], bins_request[attribute])
                 for attribute in attributes}
        effective = {attribute: len(edges[attribute]) - 1 for attribute in attributes}
        grid_size = 1
        for attribute in attributes:
            grid_size *= max(effective[attribute], 1)
        if grid_size >= num_constraints:
            break
        expandable = [attribute for attribute in attributes
                      if effective[attribute] < distinct_counts[attribute]
                      and bins_request[attribute] < distinct_counts[attribute]]
        if not expandable:
            break
        for attribute in expandable:
            bins_request[attribute] = min(bins_request[attribute] * 2,
                                          distinct_counts[attribute])
    return edges


def _quantile_edges(values: np.ndarray, bins: int) -> np.ndarray:
    """Equi-cardinality bucket edges (including both extremes).

    Low-cardinality (e.g. integer identifier) attributes get one bucket per
    distinct value instead of quantile buckets: quantiles of such attributes
    collapse onto duplicated edges, which would merge unrelated identifiers
    into one very loose constraint.
    """
    distinct = np.unique(values)
    if distinct.size <= bins:
        if distinct.size == 1:
            return np.array([float(distinct[0]), float(distinct[0]) + 1.0])
        midpoints = (distinct[:-1] + distinct[1:]) / 2.0
        return np.concatenate([[float(distinct[0])], midpoints,
                               [float(distinct[-1])]])
    quantiles = np.linspace(0.0, 1.0, bins + 1)
    edges = np.quantile(values, quantiles)
    # Collapsing duplicated edges keeps buckets well-defined on skewed data.
    edges = np.unique(edges)
    if edges.size < 2:
        edges = np.array([values.min(), values.max() + 1.0])
    return edges


def _assign_buckets(relation: Relation, attributes: Sequence[str],
                    edges: dict[str, np.ndarray]) -> dict[tuple[int, ...], list[int]]:
    buckets: dict[tuple[int, ...], list[int]] = {}
    digitised: list[np.ndarray] = []
    for attribute in attributes:
        values = relation.column(attribute).astype(np.float64)
        attribute_edges = edges[attribute]
        positions = np.digitize(values, attribute_edges[1:-1], right=False)
        digitised.append(positions)
    for row_index in range(relation.num_rows):
        key = tuple(int(column[row_index]) for column in digitised)
        buckets.setdefault(key, []).append(row_index)
    return buckets


def _bucket_predicate(attributes: Sequence[str], edges: dict[str, np.ndarray],
                      bucket_key: tuple[int, ...], unbounded_edges: bool) -> Predicate:
    predicate = Predicate.true()
    for attribute, position in zip(attributes, bucket_key):
        attribute_edges = edges[attribute]
        last_bucket = len(attribute_edges) - 2
        low = float(attribute_edges[position])
        high = float(attribute_edges[position + 1])
        if position < last_bucket:
            # Buckets are half-open [low, high) so neighbours stay disjoint;
            # closed-interval predicates encode that with the previous float.
            high = math.nextafter(high, -_INF)
        if unbounded_edges and position == 0:
            low = -_INF
        if unbounded_edges and position == last_bucket:
            high = _INF
        predicate = predicate.with_range(attribute, low, high)
    return predicate


def _summarising_constraint(subset: Relation, full: Relation, predicate: Predicate,
                            value_names: Iterable[str], name: str,
                            exact_counts: bool = False) -> PredicateConstraint:
    """A constraint annotated with the true statistics of the covered rows."""
    bounds: dict[str, tuple[float, float]] = {}
    for attribute in value_names:
        if subset.num_rows > 0:
            bounds[attribute] = (subset.column_min(attribute),
                                 subset.column_max(attribute))
        else:
            bounds[attribute] = (0.0, 0.0)
    count = subset.num_rows
    frequency = (FrequencyConstraint.exactly(count) if exact_counts
                 else FrequencyConstraint.at_most(count))
    return PredicateConstraint(predicate, ValueConstraint(bounds), frequency,
                               name=name)
