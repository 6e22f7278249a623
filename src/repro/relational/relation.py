"""An in-memory column-store relation.

:class:`Relation` stores each column as a read-only numpy array and provides
the small set of operations the rest of the library needs: filtering by
boolean masks or box predicates, projection, concatenation, appending,
sampling, sorting, grouping, and per-column summary statistics.  It
deliberately has no query optimiser — the experiments operate on datasets of
at most a few hundred thousand rows.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..exceptions import SchemaError, TypeMismatchError
from .aggregates import ExactSum
from .schema import Column, ColumnType, Schema

if TYPE_CHECKING:  # pragma: no cover - repro.core imports this package
    from ..core.predicates import Predicate

__all__ = ["Relation"]


class _AppendBuffer:
    """Column storage shared by the versions of one append chain.

    ``arrays`` holds one array per column with spare capacity at its end;
    each version's columns are read-only views ``array[:n]``, and its
    delta's ``array[parent rows:n]``.  ``rows`` is the number of rows
    written so far: only a version with exactly that many rows may write
    after them, so rows a view can see are never written again (a buffer
    that was outgrown has ``rows`` -1).  ``lock`` serialises those writes.
    """

    __slots__ = ("arrays", "capacity", "rows", "lock")

    def __init__(self, arrays: dict[str, np.ndarray], capacity: int, rows: int):
        self.arrays = arrays
        self.capacity = capacity
        self.rows = rows
        self.lock = threading.Lock()

    def views(self, start: int, stop: int) -> dict[str, np.ndarray]:
        """Read-only views of rows ``start`` to ``stop`` of every column."""
        views = {}
        for name, array in self.arrays.items():
            view = array[start:stop]
            view.flags.writeable = False
            views[name] = view
        return views


class Relation:
    """A named, schema-ed, immutable column-store table.

    Every column is a read-only numpy array: built by
    :meth:`ColumnType.coerce`, or a view of storage that the versions made
    by :meth:`append` share.  Copy a column before mutating it.

    Parameters
    ----------
    schema:
        The relation schema.
    columns:
        Mapping from column name to a numpy array (or any sequence).  All
        columns must have identical length and cover exactly the schema.
    name:
        Optional relation name, used by joins and error messages.
    """

    #: The append buffer this relation's columns are views of, if any.
    _buffer: _AppendBuffer | None = None
    #: The relation :meth:`append` extended to build this one, and the rows
    #: it appended (both None for a relation built any other way).
    _append_parent: "Relation | None" = None
    _append_delta: "Relation | None" = None

    def __init__(
        self,
        schema: Schema,
        columns: Mapping[str, Sequence] | Mapping[str, np.ndarray],
        name: str = "relation",
    ):
        self._schema = schema
        self._name = name
        data: dict[str, np.ndarray] = {}
        length: int | None = None
        missing = [c.name for c in schema if c.name not in columns]
        if missing:
            raise SchemaError(f"missing columns for schema: {missing}")
        extra = [key for key in columns if key not in schema]
        if extra:
            raise SchemaError(f"columns not declared in schema: {extra}")
        for column in schema:
            values = columns[column.name]
            array = column.ctype.coerce(values)
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise SchemaError(
                    f"column {column.name!r} has length {len(array)}, "
                    f"expected {length}"
                )
            data[column.name] = array
        self._columns = data
        self._length = int(length or 0)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Iterable[Sequence],
        name: str = "relation",
    ) -> "Relation":
        """Build a relation from an iterable of row tuples (schema order)."""
        materialised = [tuple(row) for row in rows]
        columns: dict[str, list] = {column.name: [] for column in schema}
        for row in materialised:
            if len(row) != len(schema):
                raise SchemaError(
                    f"row has {len(row)} values, schema has {len(schema)} columns"
                )
            for column, value in zip(schema, row):
                columns[column.name].append(value)
        return cls(schema, columns, name=name)

    @classmethod
    def from_dicts(
        cls,
        schema: Schema,
        records: Iterable[Mapping[str, object]],
        name: str = "relation",
    ) -> "Relation":
        """Build a relation from an iterable of ``{column: value}`` mappings."""
        rows = [[record[column.name] for column in schema] for record in records]
        return cls.from_rows(schema, rows, name=name)

    @classmethod
    def empty(cls, schema: Schema, name: str = "relation") -> "Relation":
        """An empty relation with the given schema."""
        return cls(schema, {column.name: [] for column in schema}, name=name)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def name(self) -> str:
        return self._name

    @property
    def num_rows(self) -> int:
        return self._length

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:
        return f"Relation({self._name!r}, rows={self._length}, schema={self._schema!r})"

    def column(self, name: str) -> np.ndarray:
        """Return the column named ``name`` as a numpy array (no copy).

        The array is read-only, and for an appended version it is a view of
        storage shared with the other versions of its chain: copy it before
        mutating it.
        """
        self._schema.column(name)
        return self._columns[name]

    def columns(self) -> dict[str, np.ndarray]:
        """Return a shallow copy of the column mapping."""
        return dict(self._columns)

    def row(self, index: int) -> dict[str, object]:
        """Return row ``index`` as a ``{column: value}`` dict."""
        if not 0 <= index < self._length:
            raise IndexError(f"row index {index} out of range [0, {self._length})")
        return {name: self._columns[name][index] for name in self._schema.names}

    def iter_rows(self) -> Iterator[dict[str, object]]:
        """Iterate over rows as dicts (slow path, used by tests/oracles)."""
        for index in range(self._length):
            yield self.row(index)

    def to_rows(self) -> list[tuple]:
        """Materialise the relation as a list of row tuples (schema order)."""
        names = self._schema.names
        arrays = [self._columns[name] for name in names]
        return [tuple(array[i] for array in arrays) for i in range(self._length)]

    def rename(self, name: str) -> "Relation":
        """Return the same relation under a new name (columns are shared)."""
        clone = Relation.__new__(Relation)
        clone._schema = self._schema
        clone._columns = self._columns
        clone._length = self._length
        clone._name = name
        return clone

    # ------------------------------------------------------------------ #
    # Core relational operations
    # ------------------------------------------------------------------ #
    def filter(self, condition: "Predicate | np.ndarray | None") -> "Relation":
        """Return the sub-relation of rows matching ``condition``.

        ``condition`` may be a boolean numpy mask, a box
        :class:`~repro.core.predicates.Predicate` (which masks the rows
        itself, :meth:`~repro.core.predicates.Predicate.evaluate`), or
        ``None`` for every row.
        """
        mask = self._as_mask(condition)
        columns = {name: array[mask] for name, array in self._columns.items()}
        return Relation(self._schema, columns, name=self._name)

    def take(self, indices: Sequence[int] | np.ndarray) -> "Relation":
        """Return the rows at ``indices`` (with repetition allowed)."""
        index_array = np.asarray(indices, dtype=np.int64)
        columns = {name: array[index_array] for name, array in self._columns.items()}
        return Relation(self._schema, columns, name=self._name)

    def head(self, count: int) -> "Relation":
        """Return the first ``count`` rows."""
        return self.take(np.arange(min(count, self._length)))

    def project(self, names: Sequence[str]) -> "Relation":
        """Return a relation restricted to the named columns."""
        schema = self._schema.project(names)
        columns = {name: self._columns[name] for name in names}
        return Relation(schema, columns, name=self._name)

    def with_column(
        self, name: str, ctype: ColumnType, values: Sequence | np.ndarray
    ) -> "Relation":
        """Return a new relation with an extra (or replaced) column."""
        columns = dict(self._columns)
        columns[name] = values
        if name in self._schema:
            schema_columns = [
                Column(name, ctype) if column.name == name else column
                for column in self._schema
            ]
        else:
            schema_columns = list(self._schema.columns) + [Column(name, ctype)]
        return Relation(Schema(schema_columns), columns, name=self._name)

    def concat(self, other: "Relation") -> "Relation":
        """Union-all of two relations with identical schemas."""
        if self._schema != other._schema:
            raise SchemaError(
                "cannot concatenate relations with different schemas: "
                f"{self._schema!r} vs {other._schema!r}"
            )
        columns = {
            name: np.concatenate([self._columns[name], other._columns[name]])
            for name in self._schema.names
        }
        return Relation(self._schema, columns, name=self._name)

    def append(self, rows: "Relation | Iterable[Sequence] | Iterable[Mapping[str, object]]") -> "Relation":
        """Union-all that records its lineage for incremental reuse.

        Unlike :meth:`concat`, the result remembers the relation it extends
        and the delta it appended (see :attr:`append_parent`), and nothing
        more, so a version holds O(1) lineage however long its chain.  The
        service layer uses that link for two things: fingerprinting the
        result from its parent's hashers plus the delta bytes, and deciding
        which cached reports an append can provably keep.  Any other
        mutation (``filter``, ``with_column``, ...) produces a relation
        without lineage, which callers must treat as a full rebuild.

        The versions of an append chain share one buffer per column, and
        each version's columns are read-only views of its first rows, so an
        append copies only the delta: it writes the delta after this
        relation's rows when this is the buffer's newest version and the
        rows fit.  Otherwise — a first append, a full buffer, or an append to
        an older version — the rows are copied once into a new buffer of
        twice the new length.  The appended delta is kept as read-only views
        of the buffer rows it was written to, not as ``rows``, so the rows
        are stored once.  A buffer outgrown by its newest version moves
        every version and delta that views it onto the new buffer, at the
        same rows, and its arrays are freed: a chain holds one buffer, at
        most twice its newest version.  A row's value never changes.

        ``rows`` may be another relation with an identical schema, an
        iterable of row tuples in schema order, or an iterable of
        ``{column: value}`` mappings.
        """
        if isinstance(rows, Relation):
            delta = rows
            if delta._schema != self._schema:
                raise SchemaError(
                    "cannot append a relation with a different schema: "
                    f"{self._schema!r} vs {delta._schema!r}"
                )
        else:
            materialised = list(rows)
            if materialised and isinstance(materialised[0], Mapping):
                delta = Relation.from_dicts(self._schema, materialised, name=self._name)
            else:
                delta = Relation.from_rows(self._schema, materialised, name=self._name)
        start = self._length
        length = start + delta._length
        buffer = self._extend_buffer(delta, length)
        result = self._view(buffer, 0, length, self._name)
        result._buffer = buffer
        result._append_parent = self
        result._append_delta = self._view(buffer, start, length, delta._name)
        return result

    def _view(self, buffer: _AppendBuffer, start: int, stop: int,
              name: str) -> "Relation":
        """A relation over rows ``start`` to ``stop`` of ``buffer``."""
        view = Relation.__new__(Relation)
        view._schema = self._schema
        view._name = name
        view._length = stop - start
        view._columns = buffer.views(start, stop)
        return view

    def _extend_buffer(self, delta: "Relation", length: int) -> _AppendBuffer:
        """A buffer holding this relation's rows, then ``delta``'s."""
        start = self._length
        buffer = self._buffer
        if buffer is not None:
            with buffer.lock:
                if buffer.rows == start and length <= buffer.capacity:
                    for name, array in buffer.arrays.items():
                        array[start:length] = delta._columns[name]
                    buffer.rows = length
                    return buffer
                if buffer.rows == start:
                    return self._outgrow(buffer, delta, length)
        return self._copy_into_buffer(delta, length)

    def _outgrow(self, buffer: _AppendBuffer, delta: "Relation",
                 length: int) -> _AppendBuffer:
        """Copy ``buffer``, this relation's full buffer, into a larger one,
        and move every version and delta viewing it there (under its lock).
        """
        grown = self._copy_into_buffer(delta, length)
        # Every version viewing the outgrown buffer is this one or an
        # ancestor (only the newest version writes into a buffer), and the
        # first of them has a parent that views another buffer or none.
        version = self
        while version._buffer is buffer:
            parent = version._append_parent
            version._buffer = grown
            version._columns = grown.views(0, version._length)
            version._append_delta._columns = grown.views(parent._length,
                                                         version._length)
            version = parent
        buffer.rows = -1
        return grown

    def _copy_into_buffer(self, delta: "Relation",
                          length: int) -> _AppendBuffer:
        """A new buffer of twice ``length`` rows: this relation's, then
        ``delta``'s."""
        start = self._length
        capacity = 2 * length
        arrays = {}
        for name, column in self._columns.items():
            array = np.empty(capacity, dtype=column.dtype)
            array[:start] = column
            array[start:length] = delta._columns[name]
            arrays[name] = array
        return _AppendBuffer(arrays, capacity, length)

    @property
    def append_parent(self) -> "tuple[Relation, Relation] | None":
        """``(parent, delta)`` when this relation was built via :meth:`append`.

        ``parent`` is the relation that was extended and ``delta`` the rows
        appended to it; ``None`` for relations built any other way.
        """
        if self._append_parent is None:
            return None
        return self._append_parent, self._append_delta

    @property
    def append_lineage(self) -> "tuple[Relation, tuple[Relation, ...]] | None":
        """``(base, deltas)`` when this relation was built via :meth:`append`.

        ``base`` is the root of the append chain and ``deltas`` the ordered
        appended batches, found by walking the parent links iteratively;
        concatenating ``base`` with every delta reproduces this relation
        exactly.  ``None`` for relations built any other way.
        """
        deltas = []
        relation = self
        while (link := relation.append_parent) is not None:
            relation, delta = link
            deltas.append(delta)
        if not deltas:
            return None
        deltas.reverse()
        return relation, tuple(deltas)

    def __getstate__(self) -> dict:
        """Drop unpicklable and process-local state before pickling.

        The service layer memoizes running ``hashlib`` hashers on relation
        objects (see :mod:`repro.service.fingerprint`); hasher objects do
        not pickle, and a worker process never needs them — the memoized
        digest string travels, and hashers rebuild lazily if asked for.
        The append buffer and the parent link are dropped too, so a pickled
        version carries only its own rows (not its whole chain, one nesting
        level per version) and unpickles without lineage; its next append
        copies the rows into a new buffer.
        """
        state = self.__dict__.copy()
        state.pop("_fingerprint_hashers", None)
        state.pop("_buffer", None)
        state.pop("_append_parent", None)
        state.pop("_append_delta", None)
        return state

    def __setstate__(self, state: dict) -> None:
        """Restore a pickled relation; unpickled columns are read-only too."""
        self.__dict__.update(state)
        for array in self._columns.values():
            array.flags.writeable = False

    def sample(
        self, count: int, rng: np.random.Generator | None = None, replace: bool = False
    ) -> "Relation":
        """Uniform random sample of ``count`` rows."""
        generator = rng if rng is not None else np.random.default_rng()
        if not replace:
            count = min(count, self._length)
        if self._length == 0:
            return Relation.empty(self._schema, name=self._name)
        indices = generator.choice(self._length, size=count, replace=replace)
        return self.take(indices)

    def shuffle(self, rng: np.random.Generator | None = None) -> "Relation":
        """Return the relation with rows in a random order."""
        generator = rng if rng is not None else np.random.default_rng()
        permutation = generator.permutation(self._length)
        return self.take(permutation)

    def sort_by(self, name: str, descending: bool = False) -> "Relation":
        """Return the relation sorted by a single column."""
        column = self.column(name)
        order = np.argsort(column, kind="stable")
        if descending:
            order = order[::-1]
        return self.take(order)

    def split_by_mask(self, condition: "Predicate | np.ndarray | None"
                      ) -> tuple["Relation", "Relation"]:
        """Split into (matching, non-matching) sub-relations; ``condition``
        is read as by :meth:`filter`."""
        mask = self._as_mask(condition)
        return self.filter(mask), self.filter(~mask)

    def group_by(self, names: Sequence[str]) -> dict[tuple, "Relation"]:
        """Group rows by the values of the named columns.

        Returns a mapping from the group key tuple to the sub-relation of
        rows with that key.
        """
        for name in names:
            self._schema.column(name)
        groups: dict[tuple, list[int]] = {}
        key_columns = [self._columns[name] for name in names]
        for index in range(self._length):
            key = tuple(column[index] for column in key_columns)
            groups.setdefault(key, []).append(index)
        return {key: self.take(indices) for key, indices in groups.items()}

    # ------------------------------------------------------------------ #
    # Statistics helpers
    # ------------------------------------------------------------------ #
    def column_min(self, name: str) -> float:
        """Minimum of a numeric column (raises on empty relations)."""
        values = self._numeric_values(name)
        if values.size == 0:
            raise ValueError(f"column {name!r} is empty; no minimum exists")
        return float(values.min())

    def column_max(self, name: str) -> float:
        """Maximum of a numeric column (raises on empty relations)."""
        values = self._numeric_values(name)
        if values.size == 0:
            raise ValueError(f"column {name!r} is empty; no maximum exists")
        return float(values.max())

    def column_sum(self, name: str) -> float:
        """Sum of a numeric column, correctly rounded (0.0 on empty
        relations): the value of :meth:`exact_sum`, as the engine's
        observed SUM."""
        return self.exact_sum(name).value

    def exact_sum(self, name: str) -> ExactSum:
        """The :class:`~repro.relational.aggregates.ExactSum` of a numeric
        column, memoized on the relation (its columns never change)."""
        sums = self.__dict__.setdefault("_exact_sums", {})
        if name not in sums:
            sums[name] = ExactSum.of(self._numeric_values(name))
        return sums[name]

    def column_mean(self, name: str) -> float:
        """Mean of a numeric column (raises on empty relations): its
        :meth:`exact_sum` over the row count, correctly rounded."""
        total = self.exact_sum(name)  # rejects a non-numeric column first
        if self._length == 0:
            raise ValueError(f"column {name!r} is empty; no mean exists")
        return total.mean(self._length)

    def column_range(self, name: str) -> tuple[float, float]:
        """(min, max) of a numeric column."""
        return self.column_min(name), self.column_max(name)

    def distinct_values(self, name: str) -> np.ndarray:
        """Sorted distinct values of a column."""
        return np.unique(self.column(name))

    def value_counts(self, name: str) -> dict[object, int]:
        """Histogram of a column's values."""
        values, counts = np.unique(self.column(name), return_counts=True)
        return {value: int(count) for value, count in zip(values, counts)}

    def describe(self) -> dict[str, dict[str, float]]:
        """Per-numeric-column summary (count/min/max/mean/std); the mean is
        :meth:`column_mean`'s."""
        summary: dict[str, dict[str, float]] = {}
        for column in self._schema:
            if not column.is_numeric:
                continue
            values = self._columns[column.name].astype(np.float64)
            if values.size == 0:
                summary[column.name] = {"count": 0.0}
                continue
            summary[column.name] = {
                "count": float(values.size),
                "min": float(values.min()),
                "max": float(values.max()),
                "mean": self.column_mean(column.name),
                "std": float(values.std()),
            }
        return summary

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _numeric_values(self, name: str) -> np.ndarray:
        self._schema.require_numeric(name)
        return self._columns[name].astype(np.float64)

    def _as_mask(self, condition: "Predicate | np.ndarray | None"
                 ) -> np.ndarray:
        """The boolean mask of ``condition``: a mask as given, a predicate's
        :meth:`~repro.core.predicates.Predicate.evaluate` (read by duck
        typing: this package cannot import :mod:`repro.core`), or every row
        for ``None``."""
        if condition is None:
            mask = np.ones(self._length, dtype=bool)
        elif isinstance(condition, np.ndarray):
            mask = condition
        elif hasattr(condition, "evaluate"):
            mask = condition.evaluate(self)
        else:
            raise TypeMismatchError(
                "filter condition must be a boolean mask, a Predicate or "
                f"None, got {type(condition).__name__}"
            )
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._length,):
            raise TypeMismatchError(
                f"boolean mask has shape {mask.shape}, expected ({self._length},)"
            )
        return mask
