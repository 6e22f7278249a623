"""Box predicates: the predicate language of predicate-constraints.

The paper restricts predicates to *conjunctions of ranges and equalities*
(§3.1) so that satisfiability testing during cell decomposition stays
tractable, and it restricts a query's WHERE clause to the same language.  A
:class:`Predicate` is therefore an axis-aligned box over a mixed
numeric/categorical attribute space:

* numeric attributes are constrained to closed intervals
  (``low <= a <= high``), optionally integral;
* categorical attributes are constrained to finite value sets
  (``a = 'Chicago'`` or ``a IN {...}``).

Its per-attribute constraints are the SAT solver's own
:class:`~repro.solvers.sat.Interval` and
:class:`~repro.solvers.sat.CategoricalSet`, so :meth:`Predicate.to_box`
wraps them as they are, and :meth:`Predicate.evaluate` masks the rows of a
relation it matches (ground truth, constraint validation, observed scans).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from ..exceptions import PredicateError
from ..solvers.sat import Box, CategoricalSet, Interval

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..relational.relation import Relation

__all__ = ["Predicate"]

_NEG_INF = float("-inf")
_POS_INF = float("inf")


class Predicate:
    """A conjunction of per-attribute range/membership constraints.

    ``ranges`` maps numeric attributes to :class:`Interval` objects and
    ``memberships`` maps categorical attributes to :class:`CategoricalSet`
    objects.  The empty conjunction is the tautology ``TRUE`` (matches every
    row), mirroring the paper's ``TRUE => ...`` predicate-constraints.

    Instances are immutable; the fluent builders (:meth:`with_range`,
    :meth:`with_equals`, :meth:`with_membership`) return new predicates with
    the additional conjunct merged in (taking the intersection when the
    attribute is already constrained).

    Raises
    ------
    PredicateError
        On an inverted range (``low > high``), an empty membership set, or
        an attribute given both kinds of constraint.
    """

    def __init__(self,
                 ranges: Mapping[str, Interval] | None = None,
                 memberships: Mapping[str, CategoricalSet] | None = None):
        self._ranges: dict[str, Interval] = dict(ranges or {})
        self._memberships: dict[str, CategoricalSet] = dict(memberships or {})
        for attribute, interval in self._ranges.items():
            if interval.low > interval.high:
                raise PredicateError(
                    f"range on {attribute!r} has low {interval.low} > high "
                    f"{interval.high}")
        for attribute, members in self._memberships.items():
            if not members.values:
                raise PredicateError(
                    f"membership constraint on {attribute!r} must list at "
                    "least one value")
        overlap = set(self._ranges) & set(self._memberships)
        if overlap:
            raise PredicateError(
                f"attributes {sorted(overlap)} have both range and membership "
                "constraints; an attribute is either numeric or categorical"
            )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def true(cls) -> "Predicate":
        """The tautology predicate (matches every possible row)."""
        return cls()

    @classmethod
    def range(cls, attribute: str, low: float = _NEG_INF, high: float = _POS_INF,
              integral: bool = False) -> "Predicate":
        """``low <= attribute <= high``."""
        return cls({attribute: Interval(low, high, integral)})

    @classmethod
    def equals(cls, attribute: str, value) -> "Predicate":
        """``attribute = value`` (categorical equality)."""
        return cls.isin(attribute, [value])

    @classmethod
    def isin(cls, attribute: str, values: Iterable) -> "Predicate":
        """``attribute IN (values...)``."""
        return cls(memberships={attribute: CategoricalSet.of(values)})

    @classmethod
    def box(cls, ranges: Mapping[str, tuple[float, float]],
            memberships: Mapping[str, Iterable] | None = None) -> "Predicate":
        """Build a predicate from plain ``{attr: (low, high)}`` mappings."""
        return cls({attribute: Interval(low, high)
                    for attribute, (low, high) in ranges.items()},
                   {attribute: CategoricalSet.of(values)
                    for attribute, values in (memberships or {}).items()})

    # ------------------------------------------------------------------ #
    # Fluent builders
    # ------------------------------------------------------------------ #
    def with_range(self, attribute: str, low: float = _NEG_INF,
                   high: float = _POS_INF, integral: bool = False) -> "Predicate":
        """Return this predicate with an extra range conjunct."""
        interval = Interval(low, high, integral)
        ranges = dict(self._ranges)
        if attribute in ranges:
            interval = ranges[attribute].intersect(interval)
            if interval.low > interval.high:
                raise PredicateError(
                    f"intersection of ranges on {attribute!r} is empty")
        ranges[attribute] = interval
        return Predicate(ranges, self._memberships)

    def with_equals(self, attribute: str, value) -> "Predicate":
        """Return this predicate with an extra equality conjunct."""
        return self.with_membership(attribute, [value])

    def with_membership(self, attribute: str, values: Iterable) -> "Predicate":
        """Return this predicate with an extra membership conjunct."""
        members = CategoricalSet.of(values)
        memberships = dict(self._memberships)
        if attribute in memberships:
            members = memberships[attribute].intersect(members)
            if members.is_empty():
                raise PredicateError(
                    f"intersection of membership sets on {attribute!r} is "
                    "empty")
        memberships[attribute] = members
        return Predicate(self._ranges, memberships)

    def conjoin(self, other: "Predicate") -> "Predicate":
        """The conjunction of two predicates.

        Raises
        ------
        PredicateError
            If the conjunction is syntactically empty (disjoint ranges or
            membership sets on a shared attribute).
        """
        result = self
        for attribute, interval in other._ranges.items():
            result = result.with_range(attribute, interval.low, interval.high,
                                       interval.integral)
        for attribute, members in other._memberships.items():
            result = result.with_membership(attribute, members.values)
        return result

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def ranges(self) -> dict[str, Interval]:
        return dict(self._ranges)

    @property
    def memberships(self) -> dict[str, CategoricalSet]:
        return dict(self._memberships)

    def attributes(self) -> set[str]:
        return set(self._ranges) | set(self._memberships)

    def is_tautology(self) -> bool:
        return not self._ranges and not self._memberships

    def range_for(self, attribute: str) -> Interval | None:
        return self._ranges.get(attribute)

    def membership_for(self, attribute: str) -> CategoricalSet | None:
        return self._memberships.get(attribute)

    def to_box(self) -> Box:
        """The SAT solver's box over this predicate's own constraints."""
        return Box({**self._ranges, **self._memberships})

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, relation: "Relation") -> np.ndarray:
        """The boolean mask of the rows of ``relation`` this box matches.

        A range keeps the rows with ``low <= value <= high`` (integrality is
        not read; NaN matches no range) and a membership the rows whose
        value is in the set (``np.isin``).  Ranges are tested first, then
        memberships, each in attribute order; the mask starts from the first
        conjunct and the rest are skipped once no row is left.  ``TRUE``
        matches every row.
        """
        mask = None
        conjuncts = [*sorted(self._ranges.items()),
                     *sorted(self._memberships.items())]
        for attribute, constraint in conjuncts:
            if mask is not None and not mask.any():
                break
            column = relation.column(attribute)
            if isinstance(constraint, Interval):
                matched = np.asarray((column >= constraint.low)
                                     & (column <= constraint.high), dtype=bool)
            else:
                matched = np.isin(column, list(constraint.values))
            if mask is None:
                mask = matched
            else:
                mask &= matched
        if mask is None:
            return np.ones(relation.num_rows, dtype=bool)
        return mask

    def matches_row(self, row: Mapping[str, object]) -> bool:
        """Whether a concrete row satisfies the predicate."""
        for attribute, constraint in self._ranges.items():
            if attribute not in row or not constraint.contains(row[attribute]):
                return False
        for attribute, constraint in self._memberships.items():
            if attribute not in row or not constraint.contains(row[attribute]):
                return False
        return True

    def overlaps(self, other: "Predicate") -> bool:
        """Syntactic overlap test: whether the two boxes intersect.

        Exact for box predicates (the only kind the framework supports).
        """
        return not self.to_box().intersect(other.to_box()).is_empty()

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        return self._ranges == other._ranges and self._memberships == other._memberships

    def __hash__(self) -> int:
        return hash((frozenset(self._ranges.items()),
                     frozenset(self._memberships.items())))

    def __repr__(self) -> str:
        if self.is_tautology():
            return "Predicate(TRUE)"
        parts: list[str] = []
        for attribute, constraint in sorted(self._ranges.items()):
            parts.append(f"{constraint.low} <= {attribute} <= {constraint.high}")
        for attribute, constraint in sorted(self._memberships.items()):
            rendered = ", ".join(repr(v) for v in sorted(constraint.values, key=repr))
            parts.append(f"{attribute} IN {{{rendered}}}")
        return "Predicate(" + " AND ".join(parts) + ")"
