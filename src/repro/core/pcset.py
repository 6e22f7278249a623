"""Predicate-constraint sets (paper §3.2).

A :class:`PredicateConstraintSet` collects the user's constraints about the
missing partition of a relation together with the attribute domains needed
to reason about them (categorical attributes need a finite domain so that
negated equality predicates stay decidable).

The class offers:

* satisfaction testing of the whole set against observed data
  (:meth:`validate_against`),
* the closure check of Definition 3.2 (:meth:`is_closed`,
  :meth:`closure_counterexample`),
* convenience constructors and simple algebraic helpers used by the
  builders and the noise-injection workloads.
"""

from __future__ import annotations

import copy
from typing import Iterable, Iterator, Mapping, Sequence

from ..exceptions import ClosureError, ConstraintError, QueryError
from ..relational.relation import Relation
from ..solvers.sat import AttributeDomain, BoxSolver
from .constraints import ConstraintViolation, PredicateConstraint
from .predicates import Predicate

__all__ = ["PredicateConstraintSet"]


class PredicateConstraintSet:
    """An ordered collection of predicate-constraints plus attribute domains.

    Parameters
    ----------
    constraints:
        The predicate-constraints, in user order (order is preserved; it
        determines cell numbering but never affects bound values).
    domains:
        Optional mapping from attribute name to
        :class:`~repro.solvers.sat.AttributeDomain`.  Needed for closure
        checks and for negating categorical predicates during cell
        decomposition.  Numeric attributes may be omitted (they default to
        the full real line).

    Box-SAT complements an integral interval over the integers, so each
    numeric attribute is read one way, or :class:`ConstraintError` is
    raised.  A declared integral domain reads real predicates over the
    integers; otherwise all predicates on the attribute share one
    ``integral`` flag, which a declared real domain requires to be false.
    """

    def __init__(self, constraints: Iterable[PredicateConstraint] = (),
                 domains: Mapping[str, AttributeDomain] | None = None):
        self._constraints: list[PredicateConstraint] = []
        self._domains: dict[str, AttributeDomain] = dict(domains or {})
        self._disjoint_hint: bool | None = None
        self._closed_hint: bool | None = None
        #: attribute -> {integral flag: first constraint carrying it}
        self._integrality: dict[str, dict[bool, str]] = {}
        #: The content digest, memoized by
        #: :func:`repro.service.fingerprint.fingerprint_pcset`; adding a
        #: constraint or setting a domain drops it.
        self.fingerprint_memo: str | None = None
        for constraint in constraints:
            self.add(constraint)

    # ------------------------------------------------------------------ #
    # Collection protocol
    # ------------------------------------------------------------------ #
    def add(self, constraint: PredicateConstraint) -> None:
        """Append a predicate-constraint (renaming duplicates for clarity)."""
        if not isinstance(constraint, PredicateConstraint):
            raise ConstraintError(
                f"expected a PredicateConstraint, got {type(constraint).__name__}"
            )
        existing_names = {pc.name for pc in self._constraints}
        if constraint.name in existing_names:
            constraint = constraint.rename(
                f"{constraint.name}_{len(self._constraints)}")
        updates = {}
        for attribute, bounds in constraint.predicate.ranges.items():
            flags = self._integrality.get(attribute, {})
            if bounds.integral not in flags:
                updates[attribute] = {**flags, bounds.integral: constraint.name}
                self._check_integrality(attribute, updates[attribute],
                                        self._domains.get(attribute))
        self._integrality.update(updates)
        self._constraints.append(constraint)
        self._disjoint_hint = None
        self._closed_hint = None
        self.fingerprint_memo = None

    def extend(self, constraints: Iterable[PredicateConstraint]) -> None:
        for constraint in constraints:
            self.add(constraint)

    def copy(self) -> "PredicateConstraintSet":
        """An independent set with this one's constraints, domains,
        integrality flags, hints and memoized digest.

        Nothing is re-checked or re-digested: the constraints passed
        :meth:`add` once already.  Adding to either set afterwards leaves
        the other unchanged.
        """
        duplicate = copy.copy(self)
        duplicate._constraints = list(self._constraints)
        duplicate._domains = dict(self._domains)
        duplicate._integrality = {attribute: dict(flags) for attribute, flags
                                  in self._integrality.items()}
        return duplicate

    def __iter__(self) -> Iterator[PredicateConstraint]:
        return iter(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    def __getitem__(self, index: int) -> PredicateConstraint:
        return self._constraints[index]

    @property
    def constraints(self) -> tuple[PredicateConstraint, ...]:
        return tuple(self._constraints)

    @property
    def domains(self) -> dict[str, AttributeDomain]:
        return dict(self._domains)

    def set_domain(self, attribute: str, domain: AttributeDomain) -> None:
        """Declare (or replace) the global domain of an attribute."""
        self._check_integrality(attribute,
                                self._integrality.get(attribute, {}), domain)
        self._domains[attribute] = domain
        self.fingerprint_memo = None

    @staticmethod
    def _check_integrality(attribute: str, flags: dict[bool, str],
                           domain: AttributeDomain | None) -> None:
        if domain is not None and domain.interval is not None:
            if True in flags and not domain.interval.integral:
                raise ConstraintError(
                    f"constraint {flags[True]!r} reads {attribute!r} as "
                    "integral, but its declared domain is real")
        elif len(flags) == 2:
            raise ConstraintError(
                f"constraints {flags[True]!r} (integral) and "
                f"{flags[False]!r} (real) disagree on {attribute!r}; give "
                "its predicates one flag or declare an integral domain")

    def check_query_region(self, region: Predicate | None) -> None:
        """Raise :class:`QueryError` when ``region`` reads an attribute as
        integral that this set reads as real: the slack and forced-extremum
        checks negate the region, and its integral complement would hide
        the real rows just outside it."""
        for attribute, bounds in ({} if region is None else region.ranges).items():
            domain = self._domains.get(attribute)
            if domain is not None and domain.interval is not None:
                real = not domain.interval.integral
            else:
                real = False in self._integrality.get(attribute, {})
            if bounds.integral and real:
                raise QueryError(
                    f"the query region reads {attribute!r} as integral, "
                    "but the constraint set reads it as real")

    def attributes(self) -> set[str]:
        """All attributes referenced by any predicate or value constraint."""
        referenced: set[str] = set()
        for constraint in self._constraints:
            referenced |= constraint.predicate.attributes()
            referenced |= constraint.values.attributes()
        return referenced

    def predicates(self) -> list[Predicate]:
        return [constraint.predicate for constraint in self._constraints]

    def solver(self) -> BoxSolver:
        """A box SAT solver configured with this set's attribute domains."""
        return BoxSolver(self._domains)

    # ------------------------------------------------------------------ #
    # Structure helpers
    # ------------------------------------------------------------------ #
    def mark_disjoint(self, disjoint: bool = True) -> None:
        """Declare (from construction knowledge) that the predicates are disjoint.

        Builders that produce partitions call this so that large partitioned
        sets skip the quadratic pairwise-overlap scan.  Adding further
        constraints clears the hint.
        """
        self._disjoint_hint = disjoint

    def is_pairwise_disjoint(self) -> bool:
        """Whether no two predicates overlap (the fast partitioned case, §4.2)."""
        if self._disjoint_hint is not None:
            return self._disjoint_hint
        predicates = self.predicates()
        for i, first in enumerate(predicates):
            for second in predicates[i + 1:]:
                if first.overlaps(second):
                    self._disjoint_hint = False
                    return False
        self._disjoint_hint = True
        return True

    def total_max_rows(self) -> int:
        """Sum of the per-constraint maximum frequencies (a crude cardinality cap)."""
        return sum(constraint.max_rows() for constraint in self._constraints)

    def total_min_rows(self) -> int:
        """Sum of the per-constraint minimum frequencies."""
        return sum(constraint.min_rows() for constraint in self._constraints)

    def has_mandatory_rows(self) -> bool:
        """True when some constraint forces rows to exist (``kl > 0``)."""
        return any(constraint.min_rows() > 0 for constraint in self._constraints)

    # ------------------------------------------------------------------ #
    # Satisfaction and closure
    # ------------------------------------------------------------------ #
    def validate_against(self, relation: Relation) -> list[ConstraintViolation]:
        """Check every constraint against observed data; return all violations."""
        violations: list[ConstraintViolation] = []
        for constraint in self._constraints:
            violations.extend(constraint.violations(relation))
        return violations

    def is_satisfied_by(self, relation: Relation) -> bool:
        """``R |= S``: the relation satisfies every constraint in the set."""
        return not self.validate_against(relation)

    def mark_closed(self, closed: bool = True) -> None:
        """Declare (from construction knowledge) closure over the full domain.

        Builders whose constraints cover the whole attribute domain call
        this so that large constraint sets skip the (potentially expensive)
        closure search.  Adding further constraints clears the hint.
        """
        self._closed_hint = closed

    def is_closed(self, region: Predicate | None = None) -> bool:
        """Closure check (Definition 3.2), restricted to ``region`` if given.

        The set is closed over a region when every possible row in the
        region satisfies at least one predicate — equivalently, when
        ``region ∧ ¬ψ1 ∧ ... ∧ ¬ψn`` is unsatisfiable.
        """
        if self._closed_hint:
            # Closure over the full domain implies closure over any region.
            return True
        return self.closure_counterexample(region) is None

    def closure_counterexample(self, region: Predicate | None = None
                               ) -> dict[str, object] | None:
        """A row in the region covered by no predicate, or ``None`` if closed."""
        solver = self.solver()
        positives = [] if region is None else [region.to_box()]
        negatives = [predicate.to_box() for predicate in self.predicates()]
        return solver.find_witness(positives, negatives)

    def require_closed(self, region: Predicate | None = None) -> None:
        """Raise :class:`ClosureError` when the set is not closed over the region."""
        witness = self.closure_counterexample(region)
        if witness is not None:
            raise ClosureError(
                "predicate-constraint set is not closed: the row "
                f"{witness!r} is covered by no predicate, so no finite bound exists"
            )

    # ------------------------------------------------------------------ #
    # Transformation helpers
    # ------------------------------------------------------------------ #
    def restricted_to(self, region: Predicate) -> "PredicateConstraintSet":
        """The subset of constraints whose predicates overlap ``region``.

        Used by the engine's predicate-pushdown optimisation: constraints
        entirely outside the query region cannot affect the objective, so
        they only need to be retained when they force rows to exist.
        """
        kept = [constraint for constraint in self._constraints
                if constraint.predicate.overlaps(region)
                or constraint.min_rows() > 0]
        return PredicateConstraintSet(kept, self._domains)

    def map_constraints(self, transform) -> "PredicateConstraintSet":
        """A new set with ``transform`` applied to every constraint."""
        return PredicateConstraintSet(
            [transform(constraint) for constraint in self._constraints],
            self._domains,
        )

    def __repr__(self) -> str:
        return (f"PredicateConstraintSet(n={len(self._constraints)}, "
                f"attributes={sorted(self.attributes())})")
