"""Satisfiability of conjunctions of box predicates and their negations.

The paper uses the Z3 SMT solver to decide whether a *cell* — a conjunction
of predicate-constraint predicates and negated predicates — is satisfiable
(§4.1).  The predicates the framework supports are conjunctions of attribute
ranges and equalities, i.e. axis-aligned *boxes* over a mixed
numeric/categorical domain.  Deciding satisfiability of::

    B1 ∧ ... ∧ Bk ∧ ¬C1 ∧ ... ∧ ¬Cm

for boxes ``Bi``/``Cj`` does not need a general SMT solver: this module
implements an exact decision procedure for that fragment.

Algorithm
---------
1. Intersect the positive boxes into a single box ``P`` (empty ⇒ UNSAT).
2. If there are no negated boxes, ``P`` non-empty ⇒ SAT.
3. Otherwise pick a negated box ``C`` intersecting ``P``.  The region
   ``P ∧ ¬C`` is a finite union of boxes, one per attribute constrained by
   ``C`` (split below / above the interval, or on the complement of the
   categorical set).  Recurse on each piece with the remaining negations.

The procedure is exponential in the worst case (the problem is NP-hard, see
paper §4.3) but the recursion is heavily pruned by empty intersections,
exactly the behaviour the DFS optimisation in the paper exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Interval",
    "CategoricalSet",
    "AttributeDomain",
    "Box",
    "BoxSolver",
    "SolverStatistics",
]


_NEG_INF = float("-inf")
_POS_INF = float("inf")


@dataclass(frozen=True)
class Interval:
    """A (possibly unbounded) closed numeric interval, optionally integral.

    ``integral`` marks attributes whose domain is the integers (e.g. device
    identifiers); an integral interval is empty when it contains no integer.
    """

    low: float = _NEG_INF
    high: float = _POS_INF
    integral: bool = False

    def is_empty(self) -> bool:
        if self.low > self.high:
            return True
        if self.integral:
            low = self.low if math.isinf(self.low) else math.ceil(self.low)
            high = self.high if math.isinf(self.high) else math.floor(self.high)
            if low > high:
                return True
        return False

    def contains(self, value: float) -> bool:
        if self.integral and float(value) != int(value):
            return False
        return self.low <= value <= self.high

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(
            max(self.low, other.low),
            min(self.high, other.high),
            self.integral or other.integral,
        )

    def complement_pieces(self) -> tuple["Interval", ...]:
        """The complement of this interval as up to two intervals.

        For integral intervals the complement steps past the integers the
        interval contains, so fractional endpoints round inward first (e.g.
        the complement of ``[2, 5]`` or of ``[1.5, 5.5]`` is ``(-inf, 1]``
        and ``[6, inf)``).
        """
        pieces: list[Interval] = []
        if self.low > _NEG_INF:
            upper = (float(math.ceil(self.low) - 1) if self.integral
                     else math.nextafter(self.low, _NEG_INF))
            pieces.append(Interval(_NEG_INF, upper, self.integral))
        if self.high < _POS_INF:
            lower = (float(math.floor(self.high) + 1) if self.integral
                     else math.nextafter(self.high, _POS_INF))
            pieces.append(Interval(lower, _POS_INF, self.integral))
        return tuple(pieces)

    def sample_point(self) -> float:
        """A witness value inside the interval (assumes non-empty)."""
        if self.integral:
            low = math.ceil(self.low) if self.low > _NEG_INF else (
                math.floor(self.high) if self.high < _POS_INF else 0
            )
            return float(low)
        if self.low > _NEG_INF and self.high < _POS_INF:
            return (self.low + self.high) / 2.0
        if self.low > _NEG_INF:
            return self.low
        if self.high < _POS_INF:
            return self.high
        return 0.0

    def __repr__(self) -> str:
        kind = "int" if self.integral else "real"
        return f"[{self.low}, {self.high}]({kind})"


@dataclass(frozen=True)
class CategoricalSet:
    """A finite set of admissible categorical values."""

    values: frozenset = frozenset()

    @classmethod
    def of(cls, values: Iterable) -> "CategoricalSet":
        return cls(frozenset(values))

    def is_empty(self) -> bool:
        return not self.values

    def contains(self, value) -> bool:
        return value in self.values

    def intersect(self, other: "CategoricalSet") -> "CategoricalSet":
        return CategoricalSet(self.values & other.values)

    def difference(self, other: "CategoricalSet") -> "CategoricalSet":
        return CategoricalSet(self.values - other.values)

    def sample_point(self):
        """A witness value (assumes non-empty)."""
        return min(self.values, key=repr)

    def __repr__(self) -> str:
        rendered = ", ".join(repr(v) for v in sorted(self.values, key=repr))
        return f"{{{rendered}}}"


@dataclass(frozen=True)
class AttributeDomain:
    """The global domain of one attribute.

    Exactly one of ``interval`` / ``categories`` is set.  Categorical domains
    must be finite so that negations of equality predicates remain decidable.
    """

    interval: Interval | None = None
    categories: CategoricalSet | None = None

    @classmethod
    def numeric(cls, low: float = _NEG_INF, high: float = _POS_INF,
                integral: bool = False) -> "AttributeDomain":
        return cls(interval=Interval(low, high, integral))

    @classmethod
    def categorical(cls, values: Iterable) -> "AttributeDomain":
        return cls(categories=CategoricalSet.of(values))

    @property
    def is_numeric(self) -> bool:
        return self.interval is not None

    def full_constraint(self) -> "Interval | CategoricalSet":
        if self.interval is not None:
            return self.interval
        assert self.categories is not None
        return self.categories


class Box:
    """A conjunction of per-attribute constraints (an axis-aligned box).

    Attributes not mentioned are unconstrained.  Constraints are either
    :class:`Interval` (numeric attributes) or :class:`CategoricalSet`
    (categorical attributes).
    """

    def __init__(self, constraints: Mapping[str, Interval | CategoricalSet] | None = None):
        self._constraints: dict[str, Interval | CategoricalSet] = dict(constraints or {})

    @property
    def constraints(self) -> dict[str, Interval | CategoricalSet]:
        return dict(self._constraints)

    def attributes(self) -> set[str]:
        return set(self._constraints)

    def constraint_for(self, attribute: str) -> Interval | CategoricalSet | None:
        return self._constraints.get(attribute)

    def is_empty(self) -> bool:
        return any(constraint.is_empty() for constraint in self._constraints.values())

    def is_unconstrained(self) -> bool:
        return not self._constraints

    def with_constraint(self, attribute: str,
                        constraint: Interval | CategoricalSet) -> "Box":
        updated = dict(self._constraints)
        updated[attribute] = constraint
        return Box(updated)

    def intersect(self, other: "Box") -> "Box":
        """Conjunction of two boxes (may be empty)."""
        merged = dict(self._constraints)
        for attribute, constraint in other._constraints.items():
            existing = merged.get(attribute)
            if existing is None:
                merged[attribute] = constraint
                continue
            merged[attribute] = _intersect_constraints(existing, constraint)
        return Box(merged)

    def contains_point(self, point: Mapping[str, object]) -> bool:
        """Whether a concrete assignment satisfies every constraint."""
        for attribute, constraint in self._constraints.items():
            if attribute not in point:
                return False
            if not constraint.contains(point[attribute]):
                return False
        return True

    def sample_point(self, domains: Mapping[str, AttributeDomain] | None = None
                     ) -> dict[str, object]:
        """A witness point for a non-empty box (best effort)."""
        point: dict[str, object] = {}
        for attribute, constraint in self._constraints.items():
            point[attribute] = constraint.sample_point()
        if domains:
            for attribute, domain in domains.items():
                if attribute not in point:
                    point[attribute] = domain.full_constraint().sample_point()
        return point

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return self._constraints == other._constraints

    def __hash__(self) -> int:
        return hash(frozenset(self._constraints.items()))

    def __repr__(self) -> str:
        if not self._constraints:
            return "Box(TRUE)"
        parts = ", ".join(f"{k}: {v!r}" for k, v in sorted(self._constraints.items()))
        return f"Box({parts})"


def _intersect_constraints(
    first: Interval | CategoricalSet, second: Interval | CategoricalSet
) -> Interval | CategoricalSet:
    if isinstance(first, Interval) and isinstance(second, Interval):
        return first.intersect(second)
    if isinstance(first, CategoricalSet) and isinstance(second, CategoricalSet):
        return first.intersect(second)
    raise TypeError(
        "cannot intersect a numeric constraint with a categorical constraint "
        f"({type(first).__name__} vs {type(second).__name__})"
    )


@dataclass
class SolverStatistics:
    """Counters exposed for the scalability experiments (paper Figure 7)."""

    satisfiability_checks: int = 0
    recursive_splits: int = 0
    cache_hits: int = 0

    def reset(self) -> None:
        self.satisfiability_checks = 0
        self.recursive_splits = 0
        self.cache_hits = 0


class BoxSolver:
    """Exact satisfiability for conjunctions of boxes and negated boxes.

    Parameters
    ----------
    domains:
        Optional global attribute domains.  Required whenever a negated
        categorical constraint must be complemented (the complement of
        ``branch = 'Chicago'`` is only well-defined given the set of
        possible branches).  Numeric attributes default to the full real
        line.
    max_splits:
        Safety valve on the recursion size; exceeded only by adversarial
        instances far larger than the paper's workloads.
    """

    def __init__(self, domains: Mapping[str, AttributeDomain] | None = None,
                 max_splits: int = 1_000_000):
        self._domains = dict(domains or {})
        self._max_splits = max_splits
        self.statistics = SolverStatistics()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def is_satisfiable(self, positives: Sequence[Box],
                       negatives: Sequence[Box] = ()) -> bool:
        """Decide ``∧ positives ∧ ∧ ¬negatives`` over the configured domain."""
        self.statistics.satisfiability_checks += 1
        region = self._domain_box()
        for box in positives:
            region = region.intersect(box)
        if region.is_empty():
            return False
        relevant = [box for box in negatives
                    if not region.intersect(box).is_empty()]
        return self._search(region, relevant, budget=[self._max_splits])

    def find_witness(self, positives: Sequence[Box],
                     negatives: Sequence[Box] = ()) -> dict[str, object] | None:
        """Return a satisfying assignment, or ``None`` when UNSAT."""
        region = self._domain_box()
        for box in positives:
            region = region.intersect(box)
        if region.is_empty():
            return None
        witness = self._search_witness(region, list(negatives))
        return witness

    # ------------------------------------------------------------------ #
    # Internal recursion
    # ------------------------------------------------------------------ #
    def _domain_box(self) -> Box:
        constraints: dict[str, Interval | CategoricalSet] = {}
        for attribute, domain in self._domains.items():
            constraints[attribute] = domain.full_constraint()
        return Box(constraints)

    def _search(self, region: Box, negatives: list[Box], budget: list[int]) -> bool:
        if region.is_empty():
            return False
        pending = [box for box in negatives
                   if not region.intersect(box).is_empty()]
        if not pending:
            return True
        budget[0] -= 1
        if budget[0] <= 0:
            # Running out of budget means we could not prove UNSAT; treat as
            # satisfiable — this direction is the sound one for cell pruning
            # (an unpruned cell can only loosen a bound, never break it).
            return True
        negation = pending[0]
        remaining = pending[1:]
        # If the negated box does not constrain any attribute inside the
        # region's domain view, the whole region is excluded.
        pieces = self._subtract(region, negation)
        self.statistics.recursive_splits += 1
        for piece in pieces:
            if self._search(piece, remaining, budget):
                return True
        return False

    def _search_witness(self, region: Box, negatives: list[Box]
                        ) -> dict[str, object] | None:
        if region.is_empty():
            return None
        pending = [box for box in negatives
                   if not region.intersect(box).is_empty()]
        if not pending:
            return region.sample_point(self._domains)
        negation = pending[0]
        remaining = pending[1:]
        for piece in self._subtract(region, negation):
            witness = self._search_witness(piece, remaining)
            if witness is not None:
                return witness
        return None

    def _subtract(self, region: Box, negation: Box) -> list[Box]:
        """Decompose ``region ∧ ¬negation`` into a list of *disjoint* boxes.

        The classic guillotine split: process the negation's attributes one
        at a time, peeling off the part of the region outside the negation's
        constraint on that attribute, then clamping the region to the
        constraint before moving to the next attribute.  Disjointness keeps
        the recursion from re-exploring overlapping fragments.
        """
        pieces: list[Box] = []
        current = region
        for attribute, constraint in negation.constraints.items():
            region_constraint = current.constraint_for(attribute)
            if region_constraint is None:
                region_constraint = self._default_constraint(attribute, constraint)
            for piece_constraint in self._complement_within(
                    region_constraint, constraint):
                if piece_constraint.is_empty():
                    continue
                pieces.append(current.with_constraint(attribute, piece_constraint))
            clamped = _intersect_constraints(region_constraint, constraint)
            if clamped.is_empty():
                # The rest of the region lies entirely outside the negation on
                # this attribute, so nothing more needs to be peeled off.
                return pieces
            current = current.with_constraint(attribute, clamped)
        return pieces

    def _default_constraint(self, attribute: str,
                            like: Interval | CategoricalSet
                            ) -> Interval | CategoricalSet:
        domain = self._domains.get(attribute)
        if domain is not None:
            return domain.full_constraint()
        if isinstance(like, Interval):
            return Interval(integral=like.integral)
        raise ValueError(
            f"attribute {attribute!r} has a categorical constraint but no "
            "declared domain; categorical attributes need a finite domain to "
            "negate equality predicates"
        )

    @staticmethod
    def _complement_within(
        region: Interval | CategoricalSet, excluded: Interval | CategoricalSet
    ) -> list[Interval | CategoricalSet]:
        if isinstance(region, Interval) and isinstance(excluded, Interval):
            return [region.intersect(piece) for piece in excluded.complement_pieces()]
        if isinstance(region, CategoricalSet) and isinstance(excluded, CategoricalSet):
            return [region.difference(excluded)]
        raise TypeError(
            "mismatched constraint kinds when subtracting "
            f"{type(excluded).__name__} from {type(region).__name__}"
        )
