"""Unit tests for repro.relational.relation."""

from __future__ import annotations

import math
import pickle
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from repro.core.predicates import Predicate
from repro.exceptions import SchemaError, TypeMismatchError
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema


@pytest.fixture
def schema() -> Schema:
    return Schema.from_pairs([("x", ColumnType.FLOAT), ("k", ColumnType.INT),
                              ("tag", ColumnType.STRING)])


@pytest.fixture
def relation(schema: Schema) -> Relation:
    return Relation(schema, {
        "x": [1.0, 2.0, 3.0, 4.0],
        "k": [10, 20, 30, 40],
        "tag": ["a", "b", "a", "c"],
    }, name="t")


class TestConstruction:
    def test_basic_properties(self, relation: Relation):
        assert relation.num_rows == 4
        assert len(relation) == 4
        assert relation.name == "t"
        assert "rows=4" in repr(relation)

    def test_missing_column_rejected(self, schema: Schema):
        with pytest.raises(SchemaError, match="missing columns"):
            Relation(schema, {"x": [1.0], "k": [1]})

    def test_extra_column_rejected(self, schema: Schema):
        with pytest.raises(SchemaError, match="not declared"):
            Relation(schema, {"x": [1.0], "k": [1], "tag": ["a"], "zzz": [0]})

    def test_ragged_columns_rejected(self, schema: Schema):
        with pytest.raises(SchemaError, match="length"):
            Relation(schema, {"x": [1.0, 2.0], "k": [1], "tag": ["a", "b"]})

    def test_from_rows_and_to_rows_roundtrip(self, schema: Schema):
        rows = [(1.5, 3, "u"), (2.5, 4, "v")]
        relation = Relation.from_rows(schema, rows)
        assert relation.to_rows() == [(1.5, 3, "u"), (2.5, 4, "v")]

    def test_from_rows_wrong_width(self, schema: Schema):
        with pytest.raises(SchemaError):
            Relation.from_rows(schema, [(1.0, 2)])

    def test_from_dicts(self, schema: Schema):
        relation = Relation.from_dicts(schema, [{"x": 1.0, "k": 2, "tag": "z"}])
        assert relation.row(0) == {"x": 1.0, "k": 2, "tag": "z"}

    def test_empty(self, schema: Schema):
        empty = Relation.empty(schema)
        assert empty.num_rows == 0


class TestAccessors:
    def test_column(self, relation: Relation):
        assert relation.column("x").tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_row_bounds(self, relation: Relation):
        with pytest.raises(IndexError):
            relation.row(4)

    def test_iter_rows(self, relation: Relation):
        rows = list(relation.iter_rows())
        assert len(rows) == 4
        assert rows[1]["tag"] == "b"

    def test_rename_shares_columns(self, relation: Relation):
        renamed = relation.rename("other")
        assert renamed.name == "other"
        assert renamed.num_rows == relation.num_rows
        assert renamed.column("x") is relation.column("x")


class TestOperations:
    def test_filter_with_mask(self, relation: Relation):
        mask = np.array([True, False, True, False])
        filtered = relation.filter(mask)
        assert filtered.column("k").tolist() == [10, 30]

    def test_filter_with_predicate(self, relation: Relation):
        region = Predicate.range("x", 2.5, float("inf"))
        assert relation.filter(region).column("k").tolist() == [30, 40]
        assert relation.filter(None).num_rows == relation.num_rows
        matching, rest = relation.split_by_mask(Predicate.isin("tag", ["a"]))
        assert matching.column("k").tolist() == [10, 30]
        assert rest.column("k").tolist() == [20, 40]

    def test_filter_bad_mask_shape(self, relation: Relation):
        with pytest.raises(TypeMismatchError):
            relation.filter(np.array([True, False]))

    def test_filter_bad_condition_type(self, relation: Relation):
        with pytest.raises(TypeMismatchError):
            relation.filter("not a condition")

    def test_take_and_head(self, relation: Relation):
        assert relation.take([3, 0]).column("k").tolist() == [40, 10]
        assert relation.head(2).num_rows == 2
        assert relation.head(100).num_rows == 4

    def test_project(self, relation: Relation):
        projected = relation.project(["tag", "x"])
        assert projected.schema.names == ("tag", "x")
        assert projected.num_rows == 4

    def test_with_column_new_and_replace(self, relation: Relation):
        extended = relation.with_column("y", ColumnType.FLOAT, [0.0, 1.0, 2.0, 3.0])
        assert "y" in extended.schema
        replaced = extended.with_column("y", ColumnType.FLOAT, [9.0, 9.0, 9.0, 9.0])
        assert replaced.column("y").tolist() == [9.0] * 4

    def test_concat(self, relation: Relation):
        combined = relation.concat(relation)
        assert combined.num_rows == 8

    def test_concat_schema_mismatch(self, relation: Relation):
        other_schema = Schema.from_pairs([("x", ColumnType.FLOAT)])
        other = Relation(other_schema, {"x": [1.0]})
        with pytest.raises(SchemaError):
            relation.concat(other)

    def test_sample_without_replacement(self, relation: Relation):
        sample = relation.sample(2, rng=np.random.default_rng(0))
        assert sample.num_rows == 2
        oversized = relation.sample(10, rng=np.random.default_rng(0))
        assert oversized.num_rows == 4

    def test_sample_empty_relation(self, schema: Schema):
        empty = Relation.empty(schema)
        assert empty.sample(3).num_rows == 0

    def test_shuffle_preserves_multiset(self, relation: Relation):
        shuffled = relation.shuffle(rng=np.random.default_rng(1))
        assert sorted(shuffled.column("k").tolist()) == [10, 20, 30, 40]

    def test_sort_by(self, relation: Relation):
        descending = relation.sort_by("x", descending=True)
        assert descending.column("x").tolist() == [4.0, 3.0, 2.0, 1.0]

    def test_split_by_mask(self, relation: Relation):
        matching, rest = relation.split_by_mask(np.array([True, True, False, False]))
        assert matching.num_rows == 2
        assert rest.num_rows == 2

    def test_group_by(self, relation: Relation):
        groups = relation.group_by(["tag"])
        assert set(groups) == {("a",), ("b",), ("c",)}
        assert groups[("a",)].num_rows == 2


class TestStatistics:
    def test_min_max_sum_mean(self, relation: Relation):
        assert relation.column_min("x") == 1.0
        assert relation.column_max("x") == 4.0
        assert relation.column_sum("x") == 10.0
        assert relation.column_mean("x") == 2.5
        assert relation.column_range("k") == (10.0, 40.0)

    def test_empty_statistics_raise(self, schema: Schema):
        empty = Relation.empty(schema)
        assert empty.column_sum("x") == 0.0
        with pytest.raises(ValueError):
            empty.column_min("x")
        with pytest.raises(ValueError):
            empty.column_mean("x")

    def test_non_numeric_statistics_rejected(self, relation: Relation):
        with pytest.raises(TypeMismatchError):
            relation.column_min("tag")

    def test_distinct_and_value_counts(self, relation: Relation):
        assert relation.distinct_values("tag").tolist() == ["a", "b", "c"]
        assert relation.value_counts("tag") == {"a": 2, "b": 1, "c": 1}

    def test_describe(self, relation: Relation):
        summary = relation.describe()
        assert summary["x"]["count"] == 4.0
        assert "tag" not in summary

    def test_sums_and_means_are_exact(self):
        """Column sums and means round the exact sum once, as the engine's
        observed SUM does (numpy's pairwise sum of this column is an ulp
        off)."""
        prices = np.round(np.random.default_rng(7).gamma(2.0, 20.0, 100_000)
                          + 0.99, 2)
        relation = Relation(Schema.from_pairs([("price", ColumnType.FLOAT)]),
                            {"price": prices})
        assert relation.column_sum("price") == math.fsum(prices)
        assert relation.column_sum("price") == \
            relation.exact_sum("price").value
        mean = float(sum(map(Fraction, prices.tolist())) / len(prices))
        assert relation.column_mean("price") == mean
        assert relation.describe()["price"]["mean"] == mean


class TestReadOnlyColumns:
    def test_column_writes_raise(self, relation: Relation):
        appended = relation.append([(5.0, 50, "d")])
        for built in (relation, relation.filter(relation.column("k") > 10),
                      appended, pickle.loads(pickle.dumps(appended))):
            with pytest.raises(ValueError):
                built.column("x")[0] = 99.0
        assert relation.column("x").tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_coerce_copies_a_matching_array_once(self):
        cases = [(ColumnType.FLOAT, np.array([1.5, -2.0])),
                 (ColumnType.INT, np.array([3, 4], dtype=np.int64)),
                 (ColumnType.STRING, np.array(["a", "b"], dtype=object))]
        for ctype, values in cases:
            array = ctype.coerce(values)
            assert array.dtype == ctype.numpy_dtype()
            assert array.tolist() == values.tolist()
            assert not np.shares_memory(array, values)
            assert not array.flags.writeable and values.flags.writeable

    def test_coerce_converts_other_arrays_value_by_value(self):
        assert ColumnType.FLOAT.coerce(np.array([1, 2])).tolist() == [1.0, 2.0]
        assert ColumnType.INT.coerce(np.array([1.0, 2.0])).tolist() == [1, 2]
        with pytest.raises(TypeMismatchError):
            ColumnType.INT.coerce(np.array([1.0, np.nan]))


def _random_rows(rng: np.random.Generator, count: int) -> list[tuple]:
    return [(float(rng.normal()), int(rng.integers(-50, 50)),
             f"s{int(rng.integers(10))}") for _ in range(count)]


def _lineage_concat(version: Relation) -> Relation:
    base, deltas = version.append_lineage
    for delta in deltas:
        base = base.concat(delta)
    return base


def _assert_same(relation: Relation, expected: Relation) -> None:
    assert relation.schema == expected.schema
    assert relation.num_rows == expected.num_rows
    for name in expected.schema.names:
        assert relation.column(name).dtype == expected.column(name).dtype
        assert relation.column(name).tolist() == expected.column(name).tolist()


class TestSharedAppendStorage:
    @pytest.mark.parametrize("seed", range(6))
    def test_versions_equal_their_lineage(self, schema: Schema, seed: int):
        """Appends to the newest and to older versions, with empty deltas and
        pickled versions, never change a row another version can see."""
        rng = np.random.default_rng(seed)
        versions = [Relation.from_rows(schema,
                                       _random_rows(rng, int(rng.integers(4))))]
        for _ in range(40):
            if rng.random() < 0.6:
                parent = versions[-1]
            else:
                parent = versions[int(rng.integers(len(versions)))]
            if rng.random() < 0.2:
                restored = pickle.loads(pickle.dumps(parent))
                _assert_same(restored, parent)
                parent = restored
            size = int(rng.choice([0, 1, 3, 8]))
            versions.append(parent.append(_random_rows(rng, size)))
            for version in versions[1:]:
                _assert_same(version, _lineage_concat(version))

    def test_buffers_hold_at_most_twice_the_newest_version(
            self, schema: Schema):
        """Outgrown buffers are freed: every version and every delta views
        one buffer of at most twice the newest version, beside the base's
        own arrays."""
        rng = np.random.default_rng(11)
        base = Relation.from_rows(schema, _random_rows(rng, 5))
        versions = [base]
        for _ in range(150):
            size = int(rng.choice([0, 1, 2, 5, 9]))
            versions.append(versions[-1].append(_random_rows(rng, size)))
        buffers = {}
        for version in versions:
            relations = [version]
            if version.append_parent is not None:
                relations.append(version.append_parent[1])
            for relation in relations:
                for array in relation.columns().values():
                    owner = array if array.base is None else array.base
                    buffers[id(owner)] = owner.nbytes
        newest = sum(a.nbytes for a in versions[-1].columns().values())
        base_bytes = sum(a.nbytes for a in base.columns().values())
        assert sum(buffers.values()) <= 2 * newest + base_bytes
        for version in versions[1:]:
            delta = version.append_parent[1]
            for name in schema.names:
                assert np.shares_memory(delta.column(name),
                                        versions[-1].column(name)) == (
                    delta.num_rows > 0)
        _assert_same(versions[-1], _lineage_concat(versions[-1]))

    def test_concurrent_appends_to_one_version(self, schema: Schema):
        """Racing appends to one version each get their own rows."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                start = Relation.from_rows(schema, [(0.0, 0, "base")]).append(
                    [(1.0, 1, "start")])
                results: dict[int, Relation] = {}

                def append(index: int) -> None:
                    results[index] = start.append(
                        [(float(index), index, f"w{index}")] * (index + 1))

                threads = [threading.Thread(target=append, args=(index,))
                           for index in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10.0)
                assert not any(thread.is_alive() for thread in threads)
                for index, result in results.items():
                    assert result.column("k").tolist()[2:] == [index] * (index + 1)
                    _assert_same(result, _lineage_concat(result))
                assert len(results) == 6
        finally:
            sys.setswitchinterval(previous)
