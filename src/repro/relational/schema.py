"""Relation schemas: typed, named columns.

The relational substrate is a small in-memory column store that the rest of
the library (ground-truth query evaluation, baselines, experiments) builds
on.  A :class:`Schema` is an ordered collection of :class:`Column` objects,
each with a :class:`ColumnType`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..exceptions import SchemaError, TypeMismatchError, UnknownAttributeError

__all__ = ["ColumnType", "Column", "Schema"]


class ColumnType(enum.Enum):
    """Supported column types.

    ``FLOAT`` and ``INT`` are numeric and can be aggregated; ``STRING`` is a
    categorical type used for predicates (equality / membership) only.
    """

    FLOAT = "float"
    INT = "int"
    STRING = "string"

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type can be summed / averaged."""
        return self in (ColumnType.FLOAT, ColumnType.INT)

    def numpy_dtype(self) -> np.dtype:
        """The numpy dtype used to store a column of this type."""
        if self is ColumnType.FLOAT:
            return np.dtype(np.float64)
        if self is ColumnType.INT:
            return np.dtype(np.int64)
        return np.dtype(object)

    def coerce(self, values: Iterable) -> np.ndarray:
        """Coerce ``values`` into a fresh, read-only array of the right dtype.

        A one-dimensional ``ndarray`` that already has this type's dtype is
        copied once; any other input is converted value by value, so
        conversions and their errors do not depend on the container.  The
        result never aliases ``values`` and is marked read-only: relations
        share column arrays between versions and memoize fingerprints over
        them, so a column must not change after construction.

        Raises
        ------
        TypeMismatchError
            If the values cannot be represented in this type.
        """
        dtype = self.numpy_dtype()
        if (type(values) is np.ndarray and values.ndim == 1
                and values.dtype == dtype):
            array = values.copy()
        else:
            try:
                array = np.asarray(list(values), dtype=dtype)
            except (TypeError, ValueError) as exc:
                raise TypeMismatchError(
                    f"cannot coerce values to column type {self.value}: {exc}"
                ) from exc
        array.flags.writeable = False
        return array


@dataclass(frozen=True)
class Column:
    """A named, typed column in a schema."""

    name: str
    ctype: ColumnType

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be a non-empty string")

    @property
    def is_numeric(self) -> bool:
        return self.ctype.is_numeric


class Schema:
    """An ordered set of uniquely-named columns.

    Parameters
    ----------
    columns:
        The columns in declaration order.  Names must be unique.
    """

    def __init__(self, columns: Iterable[Column]):
        self._columns: tuple[Column, ...] = tuple(columns)
        names = [column.name for column in self._columns]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate column names in schema: {names}")
        self._by_name = {column.name: column for column in self._columns}

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, ColumnType]]) -> "Schema":
        """Build a schema from ``(name, type)`` pairs."""
        return cls(Column(name, ctype) for name, ctype in pairs)

    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self._columns)

    @property
    def numeric_names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self._columns if column.is_numeric)

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:
        inner = ", ".join(f"{c.name}:{c.ctype.value}" for c in self._columns)
        return f"Schema({inner})"

    def column(self, name: str) -> Column:
        """Return the column named ``name``.

        Raises
        ------
        UnknownAttributeError
            If no such column exists.
        """
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownAttributeError(name, self.names) from None

    def require(self, name: str) -> Column:
        """Alias of :meth:`column`, kept for call-site readability."""
        return self.column(name)

    def require_numeric(self, name: str) -> Column:
        """Return the column named ``name`` ensuring it is numeric."""
        column = self.column(name)
        if not column.is_numeric:
            raise TypeMismatchError(
                f"attribute {name!r} has type {column.ctype.value}; a numeric "
                "attribute is required"
            )
        return column

    def index_of(self, name: str) -> int:
        """Return the positional index of the column named ``name``."""
        for index, column in enumerate(self._columns):
            if column.name == name:
                return index
        raise UnknownAttributeError(name, self.names)

    def project(self, names: Iterable[str]) -> "Schema":
        """Return a new schema restricted to ``names`` (in the given order)."""
        return Schema(self.column(name) for name in names)

    def merge(self, other: "Schema", *, allow_shared: bool = True) -> "Schema":
        """Concatenate two schemas, keeping the first copy of shared names.

        Used by natural joins where join attributes appear in both inputs.
        """
        columns = list(self._columns)
        for column in other.columns:
            if column.name in self._by_name:
                if not allow_shared:
                    raise SchemaError(f"duplicate column {column.name!r} in merge")
                existing = self._by_name[column.name]
                if existing.ctype is not column.ctype:
                    raise SchemaError(
                        f"column {column.name!r} has conflicting types "
                        f"{existing.ctype.value} and {column.ctype.value}"
                    )
                continue
            columns.append(column)
        return Schema(columns)
