"""Stable content fingerprints for the service layer.

The service caches decompositions and reports across requests, sessions and
threads, so cache keys cannot rely on object identity or on Python's
randomised ``hash()``.  This module derives *content hashes*: two objects
that are semantically identical — same predicates, same value/frequency
constraints, same solver options — fingerprint identically in every process,
which is what lets a registry deduplicate re-registered constraint sets and
lets independent analyzers share one decomposition cache.

Fingerprints are hex SHA-256 digests of a canonical token stream.  Constraint
*names* are deliberately excluded: renaming a predicate-constraint changes
reports cosmetically but never changes a bound, so it must not invalidate
caches.  Constraint *order* is preserved: cell decompositions index
constraints positionally, so two sets with the same constraints in different
orders are different cache namespaces.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..core.bounds import BoundOptions
from ..core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from ..core.engine import ContingencyQuery
from ..core.pcset import PredicateConstraintSet
from ..core.predicates import Predicate
from ..relational.relation import Relation
from ..solvers.sat import AttributeDomain

__all__ = [
    "fingerprint_predicate",
    "fingerprint_constraint",
    "fingerprint_pcset",
    "fingerprint_query",
    "fingerprint_bound_options",
    "fingerprint_relation",
    "relation_version",
    "RelationVersion",
    "decomposition_namespace",
    "combine_fingerprints",
]


def _digest(tokens: Iterable[str]) -> str:
    hasher = hashlib.sha256()
    for token in tokens:
        hasher.update(token.encode("utf-8"))
        hasher.update(b"\x1f")  # unit separator: "a"+"bc" != "ab"+"c"
    return hasher.hexdigest()


def _number(value: float) -> str:
    """Canonical rendering of a numeric endpoint (inf-safe, int/float stable)."""
    value = float(value)
    if math.isinf(value):
        return "+inf" if value > 0 else "-inf"
    return repr(value)


def _literal(value: object) -> str:
    """Canonical rendering of a categorical literal."""
    return f"{type(value).__name__}:{value!r}"


def _predicate_tokens(predicate: Predicate) -> list[str]:
    tokens = ["predicate"]
    for attribute, constraint in sorted(predicate.ranges.items()):
        tokens.append(f"range:{attribute}:{_number(constraint.low)}"
                      f":{_number(constraint.high)}:{int(constraint.integral)}")
    for attribute, constraint in sorted(predicate.memberships.items()):
        values = ",".join(sorted(_literal(v) for v in constraint.values))
        tokens.append(f"member:{attribute}:{values}")
    return tokens


def _value_tokens(values: ValueConstraint) -> list[str]:
    tokens = ["values"]
    for attribute, (low, high) in sorted(values.bounds.items()):
        tokens.append(f"bound:{attribute}:{_number(low)}:{_number(high)}")
    return tokens


def _frequency_tokens(frequency: FrequencyConstraint) -> list[str]:
    return ["frequency", str(frequency.lower), str(frequency.upper)]


def _domain_tokens(attribute: str, domain: AttributeDomain) -> list[str]:
    if domain.is_numeric:
        interval = domain.interval
        assert interval is not None
        return [f"domain:{attribute}:numeric:{_number(interval.low)}"
                f":{_number(interval.high)}:{int(interval.integral)}"]
    assert domain.categories is not None
    values = ",".join(sorted(_literal(v) for v in domain.categories.values))
    return [f"domain:{attribute}:categorical:{values}"]


def fingerprint_predicate(predicate: Predicate) -> str:
    """Content hash of a box predicate (conjunct order never matters)."""
    return _digest(_predicate_tokens(predicate))


def fingerprint_constraint(constraint: PredicateConstraint) -> str:
    """Content hash of one predicate-constraint (its name is excluded)."""
    tokens = ["constraint"]
    tokens.extend(_predicate_tokens(constraint.predicate))
    tokens.extend(_value_tokens(constraint.values))
    tokens.extend(_frequency_tokens(constraint.frequency))
    return _digest(tokens)


def fingerprint_pcset(pcset: PredicateConstraintSet) -> str:
    """Content hash of a constraint set (order-sensitive, domain-sensitive).

    Computed once per content: the digest is memoized on the set, which
    drops it when a constraint is added or a domain set.
    """
    if pcset.fingerprint_memo is None:
        tokens = ["pcset", str(len(pcset))]
        for constraint in pcset:
            tokens.append(fingerprint_constraint(constraint))
        for attribute, domain in sorted(pcset.domains.items()):
            tokens.extend(_domain_tokens(attribute, domain))
        pcset.fingerprint_memo = _digest(tokens)
    return pcset.fingerprint_memo


def fingerprint_query(query: ContingencyQuery) -> str:
    """Content hash of a contingency query (aggregate, attribute, region)."""
    tokens = ["query", query.aggregate.value, query.attribute or ""]
    if query.region is not None:
        tokens.extend(_predicate_tokens(query.region))
    return _digest(tokens)


def fingerprint_bound_options(options: BoundOptions) -> str:
    """Content hash of the solver tuning knobs: one token per field but
    the deadline.

    ``solve_workers`` participates because a component-sharded SUM adds up
    its shards' optima where the serial path solves one objective, so the
    two may differ by an ulp or two; the sharded layout follows from the
    plan and the worker count alone, so no other fan-out knob exists to
    hash.  ``verify_backend`` participates because a verified session fails
    differently from an unverified one, and ``degrade`` because a degraded
    answer is a (sound) superset of the exact one — the two must never
    share a report-cache entry.
    ``deadline_seconds`` is excluded — a deadline changes whether a query
    *finishes*, never the range it finishes with.
    """
    tokens = [
        "options",
        str(options.milp_backend),
        str(int(options.check_closure)),
        "" if options.solve_workers is None else str(options.solve_workers),
        "" if options.verify_backend is None else str(options.verify_backend),
        "" if options.degrade is None else str(options.degrade),
    ]
    return _digest(tokens)


def _update_column_hasher(hasher: "hashlib._Hash", is_numeric: bool,
                          values: np.ndarray) -> None:
    """Feed one column's values into ``hasher`` in the canonical encoding.

    The encoding is chosen so that streaming a base column followed by delta
    columns produces *exactly* the digest a cold pass over the concatenated
    column would: numeric arrays hash their raw contiguous bytes (and
    ``concat`` preserves dtype, so bytes concatenate), string columns hash
    per-value renderings with unit separators.
    """
    if is_numeric:
        hasher.update(np.ascontiguousarray(values).tobytes())
    else:
        for value in values:
            hasher.update(_literal(value).encode("utf-8"))
            hasher.update(b"\x1f")


def _column_hashers(relation: Relation) -> dict[str, "hashlib._Hash"]:
    """Per-column running hashers for ``relation``, memoized on the object.

    For a relation built by :meth:`Relation.append` the hashers are built
    incrementally: walk up the append chain (iteratively, so no chain is too
    long) to the nearest version with memoized hashers — or to the chain's
    root, which is hashed cold and memoized — copy those hasher states via
    ``hashlib``'s ``.copy()`` and stream only the deltas appended since.
    A version whose parent was fingerprinted streams exactly its own delta,
    so an append costs its delta's bytes whatever the chain's length, and
    the digests stay byte-identical to a cold full-content pass, preserving
    the "fingerprints equal iff content equal" contract.  Callers must
    ``copy()`` a hasher before finalising if they intend to extend it
    further.
    """
    cached = getattr(relation, "_fingerprint_hashers", None)
    if cached is not None:
        return cached
    deltas = []
    ancestor = relation
    hashers = None
    while hashers is None and (link := ancestor.append_parent) is not None:
        ancestor, delta = link
        deltas.append(delta)
        hashers = getattr(ancestor, "_fingerprint_hashers", None)
    if hashers is None:  # the chain's root, never hashed: one cold pass
        hashers = {}
        for column in ancestor.schema:
            hasher = hashlib.sha256()
            _update_column_hasher(hasher, column.is_numeric,
                                  ancestor.column(column.name))
            hashers[column.name] = hasher
        ancestor._fingerprint_hashers = hashers
    if deltas:
        hashers = {name: hasher.copy() for name, hasher in hashers.items()}
        for delta in reversed(deltas):
            for column in relation.schema:
                _update_column_hasher(hashers[column.name], column.is_numeric,
                                      delta.column(column.name))
        relation._fingerprint_hashers = hashers
    return hashers


def fingerprint_relation(relation: Relation) -> str:
    """Exact content hash of an observed relation.

    Session deduplication and the report cache treat this as *identity*:
    two relations must fingerprint equally iff their schemas and cell values
    match, otherwise a re-registration with changed data would silently keep
    serving reports computed from the old rows.  Numeric columns are
    digested from their raw array bytes (one C-speed pass per column);
    string columns fall back to per-value rendering.  The relation's display
    name is excluded — renaming does not change any query answer.

    The digest is memoized on the relation object (relations and their
    read-only columns are immutable), and relations built via
    :meth:`Relation.append` are hashed incrementally from their parent —
    only the rows appended since the nearest fingerprinted ancestor are
    streamed (for a registered append chain, the version's own delta), yet
    the digest equals the one a cold full-content pass would produce.
    """
    memo = getattr(relation, "_fingerprint_memo", None)
    if memo is not None:
        return memo
    hashers = _column_hashers(relation)
    tokens = ["relation", str(relation.num_rows)]
    for column in relation.schema:
        tokens.append(f"column:{column.name}:{column.ctype.value}")
        tokens.append(hashers[column.name].copy().hexdigest())
    digest = _digest(tokens)
    relation._fingerprint_memo = digest
    return digest


@dataclass(frozen=True)
class RelationVersion:
    """A versioned identity for an observed relation.

    ``base`` is the content fingerprint of the original relation and
    ``deltas`` the ordered content fingerprints of each appended batch.  Two
    relations with the same version are byte-identical *and* share an append
    history, so caches keyed by the base fingerprint can migrate entries
    delta-by-delta instead of rebuilding.  A relation without append lineage
    has an empty delta chain.
    """

    base: str
    deltas: tuple[str, ...] = ()

    @property
    def fingerprint(self) -> str:
        """Combined digest of the whole version chain."""
        return combine_fingerprints("relation-version", self.base, *self.deltas)

    @property
    def delta_count(self) -> int:
        return len(self.deltas)

    def describe(self) -> str:
        if not self.deltas:
            return f"base {self.base[:12]}"
        return f"base {self.base[:12]} +{len(self.deltas)} delta(s)"


def relation_version(relation: Relation) -> RelationVersion:
    """The :class:`RelationVersion` of ``relation`` (lineage-aware)."""
    lineage = relation.append_lineage
    if lineage is None:
        return RelationVersion(fingerprint_relation(relation))
    base, deltas = lineage
    return RelationVersion(
        fingerprint_relation(base),
        tuple(fingerprint_relation(delta) for delta in deltas),
    )


def decomposition_namespace(pcset: PredicateConstraintSet) -> str:
    """The cache namespace for decompositions of ``pcset``.

    Every decomposition is exact, so only the constraint set participates:
    no option changes what gets decomposed, and sessions that differ only
    in their options share cached decompositions.
    """
    return _digest(["decomposition-namespace", fingerprint_pcset(pcset)])


def combine_fingerprints(*fingerprints: str) -> str:
    """Fold several fingerprints into one (used for session identities)."""
    return _digest(["combined", *fingerprints])
