"""EXPLAIN ANALYZE-style query profiles rendered from span trees.

A :class:`QueryProfile` is the user-facing form of one query's trace: the
span tree with wall-times, attribute tallies (solver calls, cache verdicts,
per-shard counts) and derived aggregates — total solver calls, the max/mean
*shard-time* and *shard-cell* skew ratios across a sharded query's shards,
and the fault-tolerance trail — tasks that survived a worker crash
(``retried_tasks``) and shards answered from their worst-case fallback
(``degraded_shards``).

Profiles are plain data: ``render()`` gives the indented terminal tree
(``bound --profile``), ``to_dict``/``export_json`` give the machine-readable
form in the same idiom as ``benchmarks/BENCH_PR*.json`` (a ``schema`` tag +
flat records), and ``from_dict``/``from_json`` round-trip it.
"""

from __future__ import annotations

import json
import statistics as _statistics
from dataclasses import dataclass, field
from typing import Any

from .trace import Span, Trace

__all__ = ["ProfileNode", "QueryProfile"]

PROFILE_SCHEMA = "repro-query-profile/1"


@dataclass
class ProfileNode:
    """One span in the rendered tree, children ordered by start time."""

    name: str
    span_id: str
    start: float
    duration: float
    attributes: dict[str, Any] = field(default_factory=dict)
    children: list["ProfileNode"] = field(default_factory=list)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "ProfileNode | None":
        """First node named ``name`` in pre-order, None when absent."""
        for node in self.walk():
            if node.name == name:
                return node
        return None

    def find_all(self, name: str) -> list["ProfileNode"]:
        return [node for node in self.walk() if node.name == name]

    def total(self, key: str) -> float:
        """Sum a numeric attribute over this subtree."""
        total = 0.0
        for node in self.walk():
            value = node.attributes.get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total += value
        return total

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "start": self.start,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ProfileNode":
        return cls(
            name=data["name"],
            span_id=data["span_id"],
            start=float(data["start"]),
            duration=float(data["duration"]),
            attributes=dict(data.get("attributes") or {}),
            children=[cls.from_dict(child)
                      for child in data.get("children") or []],
        )


def _build_tree(spans: list[Span]) -> ProfileNode | None:
    """Assemble parent/child links; orphans hang under the root.

    Orphans happen when a worker died mid-task and its spans never came
    back, leaving an adopted child whose parent span was re-run elsewhere —
    the profile must degrade gracefully, never corrupt.
    """
    if not spans:
        return None
    nodes: dict[str, ProfileNode] = {}
    for span in spans:
        end = span.end if span.end is not None else span.start
        nodes[span.span_id] = ProfileNode(
            name=span.name, span_id=span.span_id, start=span.start,
            duration=end - span.start, attributes=dict(span.attributes))
    root: ProfileNode | None = None
    orphans: list[tuple[Span, ProfileNode]] = []
    for span in spans:
        node = nodes[span.span_id]
        if span.parent_id is None:
            if root is None:
                root = node
            else:
                orphans.append((span, node))
        elif span.parent_id in nodes:
            nodes[span.parent_id].children.append(node)
        else:
            orphans.append((span, node))
    if root is None:
        # Every span claims a missing parent (shouldn't happen; be safe).
        span, root = orphans.pop(0)
    for span, node in orphans:
        node.attributes.setdefault("orphaned", True)
        root.children.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda child: child.start)
    return root


def _format_attributes(attributes: dict[str, Any]) -> str:
    parts = []
    for key, value in sorted(attributes.items()):
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


@dataclass
class QueryProfile:
    """The profile attached to a report when ``profile=True`` was asked."""

    root: ProfileNode
    trace_id: str

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_trace(cls, trace: Trace) -> "QueryProfile | None":
        root = _build_tree(list(trace))
        if root is None:
            return None
        return cls(root=root, trace_id=trace.trace_id)

    # ------------------------------------------------------------------ #
    # Derived aggregates
    # ------------------------------------------------------------------ #
    @property
    def wall_seconds(self) -> float:
        return self.root.duration

    @property
    def solver_calls(self) -> float:
        """Total MILP/SAT solver invocations across every span."""
        return self.root.total("solver_calls")

    def _shard_totals(self) -> dict[Any, list[float]]:
        """Per-shard ``[wall seconds, cells solved]``, summed over every
        span tagged with that shard id.

        Aggregating by shard *id* — not per span — is what keeps the skew
        signal stable across batching: a shard that used to emit ten
        one-cell task spans now emits one ten-cell batch span, and both
        shapes must report the same per-shard totals.  Spans without a
        ``cells`` tally count as one cell (the inline ``pool.solve`` spans
        solve exactly one parameterisation each).
        """
        totals: dict[Any, list[float]] = {}
        for node in self.root.walk():
            shard = node.attributes.get("shard")
            if shard is None:
                continue
            entry = totals.setdefault(shard, [0.0, 0.0])
            entry[0] += node.duration
            cells = node.attributes.get("cells")
            if isinstance(cells, (int, float)) and not isinstance(cells, bool):
                entry[1] += cells
            else:
                entry[1] += 1
        return totals

    def shard_times(self) -> list[float]:
        """Total wall seconds per distinct shard (summed across its spans)."""
        return [entry[0] for entry in self._shard_totals().values()]

    def shard_cells(self) -> list[float]:
        """Cells solved per distinct shard — the load counter that stays
        comparable before and after batching, where per-shard *task* counts
        collapse by the batch factor and would mask hot shards."""
        return [entry[1] for entry in self._shard_totals().values()]

    def shard_skew(self) -> float | None:
        """max/mean per-shard wall-time ratio (>= 1.0), None without shards.

        This is the straggler signal: 1.0 means perfectly balanced shards,
        2.0 means the slowest shard ran twice the mean and the fan-out's
        critical path is dominated by one straggler.  Times aggregate per
        shard id first, so one shard's many task spans (or one batch span)
        contribute a single total.
        """
        times = self.shard_times()
        if not times:
            return None
        mean = _statistics.fmean(times)
        if mean <= 0:
            return 1.0
        return max(times) / mean

    def shard_cell_skew(self) -> float | None:
        """max/mean per-shard cells-solved ratio (>= 1.0), the load-balance
        twin of :meth:`shard_skew` in work units instead of wall time."""
        cells = self.shard_cells()
        if not cells:
            return None
        mean = _statistics.fmean(cells)
        if mean <= 0:
            return 1.0
        return max(cells) / mean

    def shard_cell_loads(self) -> dict[Any, float]:
        """Cells solved per shard id — the raw per-shard load map behind
        :meth:`shard_cell_skew`, for tooling that wants to see *which*
        shard ran hot rather than just how unbalanced the run was."""
        return {shard: entry[1]
                for shard, entry in self._shard_totals().items()}

    def retried_tasks(self) -> int:
        """How many pool task spans came from a re-dispatched task.

        The pool tags a task's root span with ``attempts=N`` (N > 1) when
        the span that finally returned was not the first dispatch — the
        crash-recovery trail EXPLAIN ANALYZE surfaces after a worker died
        mid-round and its work was retried elsewhere."""
        return sum(1 for node in self.root.walk()
                   if isinstance(node.attributes.get("attempts"), int)
                   and node.attributes["attempts"] > 1)

    def degraded_shards(self) -> list[Any]:
        """Shard positions answered from their worst-case fallback range.

        The sharded bound path annotates its span with
        ``degraded_shards=(...)`` under ``degrade="worst-case"``; an empty
        list means every shard was solved exactly."""
        degraded: list[Any] = []
        for node in self.root.walk():
            value = node.attributes.get("degraded_shards")
            if isinstance(value, (list, tuple)):
                degraded.extend(value)
        return degraded

    def batch_counts(self) -> dict[str, float]:
        """How much pool traffic ran batched: ``batched_tasks`` pool entries
        carrying ``batched_cells`` solves — the amortization EXPLAIN
        ANALYZE surfaces (cells per task is the per-task-floor divisor)."""
        tasks = 0
        cells = 0.0
        for node in self.root.walk():
            if node.name in ("pool.solve_batch", "pool.probe_batch",
                             "pool.decompose_batch", "pool.analyze_batch"):
                tasks += 1
                value = node.attributes.get("cells")
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    cells += value
                else:
                    cells += 1
        return {"batched_tasks": float(tasks), "batched_cells": cells}

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def render(self) -> str:
        """The indented terminal tree, EXPLAIN ANALYZE-style."""
        lines: list[str] = []
        total = self.root.duration or 1e-12

        def emit(node: ProfileNode, depth: int) -> None:
            pct = 100.0 * node.duration / total
            attrs = _format_attributes(node.attributes)
            line = (f"{'  ' * depth}{node.name:<{max(28 - 2 * depth, 8)}s} "
                    f"{node.duration * 1000:9.3f} ms {pct:5.1f}%")
            if attrs:
                line += f"  [{attrs}]"
            lines.append(line)
            for child in node.children:
                emit(child, depth + 1)

        emit(self.root, 0)
        skew = self.shard_skew()
        summary = (f"total {self.wall_seconds * 1000:.3f} ms, "
                   f"solver calls {self.solver_calls:.0f}")
        if skew is not None:
            times = self.shard_times()
            summary += (f", shards {len(times)}, "
                        f"shard-time skew {skew:.2f}x (max/mean)")
        batches = self.batch_counts()
        if batches["batched_tasks"]:
            summary += (f", batched {batches['batched_cells']:.0f} cell(s) "
                        f"in {batches['batched_tasks']:.0f} task(s)")
        retried = self.retried_tasks()
        if retried:
            summary += f", retried {retried} task(s)"
        degraded = self.degraded_shards()
        if degraded:
            summary += f", degraded {len(degraded)} shard(s)"
        lines.append(summary)
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # JSON round-trip (BENCH_PR*.json idiom: schema tag + plain records)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        batches = self.batch_counts()
        return {
            "schema": PROFILE_SCHEMA,
            "trace_id": self.trace_id,
            "wall_seconds": self.wall_seconds,
            "solver_calls": self.solver_calls,
            "shard_skew": self.shard_skew(),
            "shard_cell_skew": self.shard_cell_skew(),
            "shard_count": len(self.shard_times()),
            "shard_cells": sum(self.shard_cells()),
            "batched_tasks": batches["batched_tasks"],
            "batched_cells": batches["batched_cells"],
            "retried_tasks": self.retried_tasks(),
            "degraded_shards": len(self.degraded_shards()),
            "tree": self.root.to_dict(),
        }

    def export_json(self, path=None, indent: int = 2) -> str:
        """Serialise; when ``path`` is given, also write the file."""
        payload = json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
        return payload

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QueryProfile":
        schema = data.get("schema")
        if schema != PROFILE_SCHEMA:
            raise ValueError(f"unsupported profile schema: {schema!r}")
        return cls(root=ProfileNode.from_dict(data["tree"]),
                   trace_id=data["trace_id"])

    @classmethod
    def from_json(cls, payload: str) -> "QueryProfile":
        return cls.from_dict(json.loads(payload))
