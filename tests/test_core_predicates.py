"""Unit tests for repro.core.predicates."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predicates import Predicate
from repro.exceptions import PredicateError
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema
from repro.solvers.sat import Box, CategoricalSet, Interval


class TestAttributeRange:
    """A range on one attribute, as ``Predicate.range`` and ``with_range``
    build it: the predicate holds the solver's :class:`Interval`."""

    def test_validation(self):
        with pytest.raises(PredicateError):
            Predicate.range("x", 5, 1)
        with pytest.raises(PredicateError):
            Predicate({"x": Interval(5, 1)})
        with pytest.raises(PredicateError):
            Predicate.box({"x": (5, 1)})
        with pytest.raises(PredicateError):
            Predicate.range("y", 0, 1).with_range("x", 5, 1)

    def test_contains_and_interval(self):
        predicate = Predicate.range("x", 1, 5)
        assert predicate.matches_row({"x": 3})
        assert not predicate.matches_row({"x": 6})
        assert predicate.range_for("x") == Interval(1, 5)
        integral = Predicate.range("x", 0, 5, integral=True)
        assert integral.range_for("x") == Interval(0, 5, integral=True)
        assert integral.matches_row({"x": 3})
        assert not integral.matches_row({"x": 3.5})
        for value in (math.nan, math.inf, -math.inf):
            assert not integral.matches_row({"x": value})

    def test_intersect(self):
        merged = Predicate.range("x", 0, 10).with_range("x", 5, 20,
                                                        integral=True)
        assert merged.range_for("x") == Interval(5, 10, integral=True)
        with pytest.raises(PredicateError):
            Predicate.range("x", 0, 1).with_range("x", 2, 3)


class TestAttributeMembership:
    """A membership on one attribute, as ``Predicate.isin``, ``equals`` and
    ``with_membership`` build it: the predicate holds the solver's
    :class:`CategoricalSet`."""

    def test_validation(self):
        with pytest.raises(PredicateError):
            Predicate.isin("tag", [])
        with pytest.raises(PredicateError):
            Predicate(memberships={"tag": CategoricalSet()})
        with pytest.raises(PredicateError):
            Predicate.box({}, {"tag": []})

    def test_intersect(self):
        merged = Predicate.isin("tag", ["a", "b"]).with_membership(
            "tag", ["b", "c"])
        assert merged.membership_for("tag") == CategoricalSet.of(["b"])
        with pytest.raises(PredicateError):
            Predicate.equals("tag", "a").with_equals("tag", "b")


class TestPredicateConstruction:
    def test_true_predicate(self):
        predicate = Predicate.true()
        assert predicate.is_tautology()
        assert predicate.matches_row({"anything": 1})
        assert predicate.to_box() == Box()
        assert "TRUE" in repr(predicate)

    def test_range_and_equality(self):
        predicate = Predicate.range("price", 0, 100).with_equals("branch", "Chicago")
        assert predicate.attributes() == {"price", "branch"}
        assert predicate.matches_row({"price": 50, "branch": "Chicago"})
        assert not predicate.matches_row({"price": 150, "branch": "Chicago"})
        assert not predicate.matches_row({"price": 50, "branch": "Trenton"})
        assert not predicate.matches_row({"price": 50})

    def test_box_constructor(self):
        predicate = Predicate.box({"x": (0, 1), "y": (2, 3)}, {"tag": ["a"]})
        assert predicate.attributes() == {"x", "y", "tag"}

    def test_conflicting_kinds_rejected(self):
        with pytest.raises(PredicateError):
            Predicate({"x": Interval(0, 1)}, {"x": CategoricalSet.of(["a"])})

    def test_with_range_merges_intersection(self):
        predicate = Predicate.range("x", 0, 10).with_range("x", 5, 20)
        assert predicate.range_for("x").low == 5
        assert predicate.range_for("x").high == 10

    def test_with_membership_merges_intersection(self):
        predicate = Predicate.isin("tag", ["a", "b"]).with_membership("tag", ["b", "c"])
        assert predicate.membership_for("tag").values == frozenset({"b"})

    def test_conjoin(self):
        left = Predicate.range("x", 0, 10)
        right = Predicate.range("y", 5, 6).with_equals("tag", "a")
        combined = left.conjoin(right)
        assert combined.attributes() == {"x", "y", "tag"}
        with pytest.raises(PredicateError):
            left.conjoin(Predicate.range("x", 20, 30))


class TestPredicateCompilation:
    def test_evaluate_matches_rows(self):
        schema = Schema.from_pairs([("price", ColumnType.FLOAT),
                                    ("branch", ColumnType.STRING)])
        relation = Relation(schema, {
            "price": [10.0, 60.0, 80.0],
            "branch": ["Chicago", "Chicago", "Trenton"],
        })
        predicate = Predicate.range("price", 50, 100).with_equals("branch", "Chicago")
        mask = predicate.evaluate(relation)
        assert mask.tolist() == [False, True, False]
        assert relation.filter(predicate).column("price").tolist() == [60.0]

    def test_to_box(self):
        predicate = Predicate.range("x", 0, 1).with_equals("tag", "a")
        box = predicate.to_box()
        assert box.contains_point({"x": 0.5, "tag": "a"})
        assert not box.contains_point({"x": 0.5, "tag": "b"})
        assert box.constraint_for("x") is predicate.range_for("x")
        assert box.constraint_for("tag") is predicate.membership_for("tag")

    def test_evaluate_and_row_matching_agree(self):
        schema = Schema.from_pairs([("x", ColumnType.FLOAT), ("tag", ColumnType.STRING)])
        relation = Relation(schema, {"x": [0.0, 1.0, 2.0, 3.0],
                                     "tag": ["a", "b", "a", "b"]})
        predicate = Predicate.range("x", 1, 2.5).with_membership("tag", ["a", "b"])
        mask = predicate.evaluate(relation)
        rows = list(relation.iter_rows())
        assert [predicate.matches_row(row) for row in rows] == mask.tolist()


_SCHEMA = Schema.from_pairs([("x", ColumnType.FLOAT), ("k", ColumnType.INT),
                             ("tag", ColumnType.STRING)])
_FLOATS = [-math.inf, -3.0, -1.5, 0.0, 1.0, 2.0, 2.5, 7.0, math.inf, math.nan]
_BOUNDS = [-math.inf, -2.0, -1.5, 0.0, 1.0, 2.0, 2.5, 7.0, math.inf]


@st.composite
def _relations(draw) -> Relation:
    rows = draw(st.integers(0, 12))
    return Relation(_SCHEMA, {
        name: draw(st.lists(values, min_size=rows, max_size=rows))
        for name, values in (("x", st.sampled_from(_FLOATS)),
                             ("k", st.integers(-4, 4)),
                             ("tag", st.sampled_from("abc")))})


@st.composite
def _predicates(draw) -> Predicate:
    """Infinite, integral and one-point ranges on ``x`` and ``k``, and
    memberships on all three columns (never a NaN member)."""
    predicate = Predicate.true()
    for attribute, members in (("x", st.sampled_from(_BOUNDS[1:-1])),
                               ("k", st.integers(-4, 4)),
                               ("tag", st.sampled_from("abcd"))):
        kind = draw(st.sampled_from(
            ["none", "isin"] if attribute == "tag"
            else ["none", "range", "point", "isin"]))
        if kind == "isin":
            values = draw(st.lists(members, min_size=1, max_size=3))
            predicate = predicate.with_membership(attribute, values)
        elif kind != "none":
            low = draw(st.sampled_from(_BOUNDS))
            high = low if kind == "point" else draw(
                st.sampled_from([b for b in _BOUNDS if b >= low]))
            predicate = predicate.with_range(attribute, low, high,
                                             integral=draw(st.booleans()))
    return predicate


class TestPredicateEvaluate:
    """``Predicate.evaluate`` is the relational layer's only WHERE clause."""

    @given(relation=_relations(), predicate=_predicates())
    @settings(max_examples=200, deadline=None)
    def test_mask_is_the_box_conjunction(self, relation, predicate):
        mask = predicate.evaluate(relation)
        assert mask.dtype == bool and mask.shape == (relation.num_rows,)
        # A plain numpy conjunction: closed ranges, integrality not read.
        expected = np.ones(relation.num_rows, dtype=bool)
        for attribute, interval in predicate.ranges.items():
            column = relation.column(attribute)
            expected &= (column >= interval.low) & (column <= interval.high)
        for attribute, members in predicate.memberships.items():
            expected &= np.isin(relation.column(attribute),
                                list(members.values))
        assert mask.tolist() == expected.tolist()
        integral = [attribute for attribute, interval
                    in predicate.ranges.items() if interval.integral]
        for index, row in enumerate(relation.iter_rows()):
            if "x" in predicate.attributes() and math.isnan(row["x"]):
                assert not mask[index]
            if all(float(row[attribute]).is_integer()
                   for attribute in integral):
                assert predicate.matches_row(row) == mask[index]
        assert Predicate.true().evaluate(relation).tolist() == \
            [True] * relation.num_rows


class TestPredicateOverlap:
    def test_overlapping_ranges(self):
        assert Predicate.range("x", 0, 5).overlaps(Predicate.range("x", 5, 10))
        assert not Predicate.range("x", 0, 4).overlaps(Predicate.range("x", 5, 10))

    def test_overlap_on_different_attributes_is_true(self):
        assert Predicate.range("x", 0, 1).overlaps(Predicate.range("y", 5, 6))

    def test_categorical_overlap(self):
        assert Predicate.equals("tag", "a").overlaps(Predicate.isin("tag", ["a", "b"]))
        assert not Predicate.equals("tag", "a").overlaps(Predicate.equals("tag", "b"))

    def test_tautology_overlaps_everything(self):
        assert Predicate.true().overlaps(Predicate.range("x", 0, 1))


class TestPredicateEquality:
    def test_equality_and_hash(self):
        first = Predicate.range("x", 0, 1).with_equals("tag", "a")
        second = Predicate.equals("tag", "a").with_range("x", 0, 1)
        assert first == second
        assert hash(first) == hash(second)
        assert first != Predicate.range("x", 0, 2)
        assert Predicate.isin("tag", ["a", "b"]) == Predicate.isin("tag", ["b", "a"])
