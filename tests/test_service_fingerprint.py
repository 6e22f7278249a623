"""Tests for the content-fingerprinting layer of the service."""

from __future__ import annotations

import pytest

from repro.core.bounds import BoundOptions
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.engine import ContingencyQuery
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema
from repro.service import ContingencyService
from repro.service import fingerprint as fingerprint_module
from repro.service.fingerprint import (
    combine_fingerprints,
    decomposition_namespace,
    fingerprint_bound_options,
    fingerprint_constraint,
    fingerprint_pcset,
    fingerprint_predicate,
    fingerprint_query,
    fingerprint_relation,
)
from repro.solvers.sat import AttributeDomain


def make_constraint(low: float, high: float, max_rows: int = 10,
                    name: str = "pc") -> PredicateConstraint:
    return PredicateConstraint(
        Predicate.range("utc", low, high),
        ValueConstraint({"price": (0.0, 100.0)}),
        FrequencyConstraint(0, max_rows), name=name)


class TestPredicateFingerprints:
    def test_equal_content_equal_fingerprint(self):
        first = Predicate.range("utc", 11, 12).with_equals("branch", "Chicago")
        second = Predicate.equals("branch", "Chicago").with_range("utc", 11, 12)
        assert first == second
        assert fingerprint_predicate(first) == fingerprint_predicate(second)

    def test_different_content_different_fingerprint(self):
        assert (fingerprint_predicate(Predicate.range("utc", 11, 12))
                != fingerprint_predicate(Predicate.range("utc", 11, 13)))
        assert (fingerprint_predicate(Predicate.range("utc", 11, 12))
                != fingerprint_predicate(Predicate.range("price", 11, 12)))

    def test_infinite_endpoints_are_stable(self):
        unbounded = Predicate.range("utc", low=0.0)
        assert fingerprint_predicate(unbounded) == fingerprint_predicate(
            Predicate.range("utc", 0.0, float("inf")))

    def test_membership_order_is_canonical(self):
        first = Predicate.isin("branch", ["Chicago", "Trenton"])
        second = Predicate.isin("branch", ["Trenton", "Chicago"])
        assert fingerprint_predicate(first) == fingerprint_predicate(second)


class TestConstraintAndSetFingerprints:
    def test_name_is_excluded(self):
        assert (fingerprint_constraint(make_constraint(11, 12, name="a"))
                == fingerprint_constraint(make_constraint(11, 12, name="b")))

    def test_frequency_and_values_matter(self):
        base = make_constraint(11, 12, max_rows=10)
        assert (fingerprint_constraint(base)
                != fingerprint_constraint(make_constraint(11, 12, max_rows=11)))
        other = PredicateConstraint(base.predicate,
                                    ValueConstraint({"price": (0.0, 99.0)}),
                                    base.frequency)
        assert fingerprint_constraint(base) != fingerprint_constraint(other)

    def test_pcset_order_sensitive(self):
        first = PredicateConstraintSet([make_constraint(11, 12),
                                        make_constraint(12, 13)])
        second = PredicateConstraintSet([make_constraint(12, 13),
                                         make_constraint(11, 12)])
        assert fingerprint_pcset(first) != fingerprint_pcset(second)

    def test_pcset_domains_matter(self):
        constraints = [make_constraint(11, 12)]
        plain = PredicateConstraintSet(constraints)
        domained = PredicateConstraintSet(
            constraints,
            {"branch": AttributeDomain.categorical(["Chicago", "Trenton"])})
        assert fingerprint_pcset(plain) != fingerprint_pcset(domained)

    def test_pcset_reproducible_across_instances(self):
        assert (fingerprint_pcset(PredicateConstraintSet([make_constraint(1, 2)]))
                == fingerprint_pcset(PredicateConstraintSet([make_constraint(1, 2)])))

    def test_appends_compute_no_constraint_digest(self, monkeypatch):
        """The set's digest is memoized, so an append, which registers a
        new version over the same constraints, never re-hashes them."""
        schema = Schema.from_pairs([("utc", ColumnType.FLOAT),
                                    ("price", ColumnType.FLOAT)])
        service = ContingencyService()
        service.register("sales", PredicateConstraintSet(
            [make_constraint(11, 12), make_constraint(12, 13)]),
            observed=Relation.from_rows(schema, [(10.0, 5.0)], name="sales"),
            options=BoundOptions(check_closure=False))
        service.analyze("sales", ContingencyQuery.sum("price"))
        digested = []
        original = fingerprint_module.fingerprint_constraint
        monkeypatch.setattr(
            fingerprint_module, "fingerprint_constraint",
            lambda constraint: digested.append(constraint)
            or original(constraint))
        for step in range(10):
            service.append_rows("sales", [(11.0 + step / 10, 20.0)])
            service.analyze("sales", ContingencyQuery.sum("price"))
        assert digested == []
        assert service.session("sales").version == 11

    def test_add_or_set_domain_after_registration_changes_fingerprint(self):
        pcset = PredicateConstraintSet([make_constraint(11, 12)])
        service = ContingencyService()
        fingerprints = [service.register("s", pcset).fingerprint]
        pcset.add(make_constraint(12, 13))
        fingerprints.append(service.register("s", pcset).fingerprint)
        pcset.set_domain("utc", AttributeDomain.numeric(0.0, 24.0))
        fingerprints.append(service.register("s", pcset).fingerprint)
        assert len(set(fingerprints)) == 3
        assert fingerprint_pcset(pcset) == fingerprint_pcset(
            PredicateConstraintSet(pcset.constraints, pcset.domains))


class TestQueryAndOptionsFingerprints:
    def test_query_components_matter(self):
        region = Predicate.range("utc", 11, 13)
        base = fingerprint_query(ContingencyQuery.sum("price", region))
        assert base == fingerprint_query(ContingencyQuery.sum("price", region))
        assert base != fingerprint_query(ContingencyQuery.avg("price", region))
        assert base != fingerprint_query(ContingencyQuery.sum("utc", region))
        assert base != fingerprint_query(ContingencyQuery.sum("price"))

    def test_options_fingerprint(self):
        base = fingerprint_bound_options(BoundOptions())
        assert base == fingerprint_bound_options(BoundOptions())
        # Every field but the deadline can change a returned range.
        for changed in (BoundOptions(milp_backend="branch-and-bound"),
                        BoundOptions(check_closure=False),
                        BoundOptions(solve_workers=2),
                        BoundOptions(verify_backend="relaxation"),
                        BoundOptions(degrade="worst-case")):
            assert fingerprint_bound_options(changed) != base, changed
        assert fingerprint_bound_options(
            BoundOptions(deadline_seconds=5.0)) == base

    def test_decomposition_namespace_ignores_post_decomposition_knobs(self):
        """Every knob acts after the (exact) decomposition, so the
        namespace reads only the constraint set: sessions that differ only
        in their options share decompositions."""
        pcset = PredicateConstraintSet([make_constraint(11, 12)])
        base = decomposition_namespace(pcset)
        assert base == decomposition_namespace(
            PredicateConstraintSet([make_constraint(11, 12)]))
        assert base != decomposition_namespace(
            PredicateConstraintSet([make_constraint(11, 13)]))


class TestRelationFingerprint:
    def test_content_changes_fingerprint(self):
        schema = Schema.from_pairs([("utc", ColumnType.FLOAT),
                                    ("price", ColumnType.FLOAT)])
        first = Relation.from_rows(schema, [(1.0, 2.0), (3.0, 4.0)], name="r")
        same = Relation.from_rows(schema, [(1.0, 2.0), (3.0, 4.0)], name="r")
        bigger = Relation.from_rows(schema, [(1.0, 2.0), (3.0, 9.0)], name="r")
        assert fingerprint_relation(first) == fingerprint_relation(same)
        assert fingerprint_relation(first) != fingerprint_relation(bigger)

    def test_fingerprint_is_exact_not_a_summary(self):
        """Relations sharing count/min/max/sum must still fingerprint apart.

        The fingerprint is used as session identity: a collision here would
        make re-registration silently keep serving stale reports.
        """
        schema = Schema.from_pairs([("price", ColumnType.FLOAT)])
        first = Relation.from_rows(schema, [(0.0,), (3.0,), (3.0,), (6.0,)])
        second = Relation.from_rows(schema, [(0.0,), (2.0,), (4.0,), (6.0,)])
        assert fingerprint_relation(first) != fingerprint_relation(second)

    def test_string_columns_participate(self):
        schema = Schema.from_pairs([("branch", ColumnType.STRING)])
        first = Relation.from_rows(schema, [("Chicago",), ("Trenton",)])
        second = Relation.from_rows(schema, [("Chicago",), ("Newark",)])
        assert fingerprint_relation(first) != fingerprint_relation(second)

    def test_name_is_excluded(self):
        schema = Schema.from_pairs([("price", ColumnType.FLOAT)])
        first = Relation.from_rows(schema, [(1.0,)], name="a")
        second = Relation.from_rows(schema, [(1.0,)], name="b")
        assert fingerprint_relation(first) == fingerprint_relation(second)

    def test_combine_is_order_sensitive(self):
        assert combine_fingerprints("a", "b") != combine_fingerprints("b", "a")
        assert combine_fingerprints("a", "b") == combine_fingerprints("a", "b")
