"""Backend-equivalence matrix: every registry backend against the oracle.

The cross-backend verification mode is only as trustworthy as the claim that
independent backends agree.  This matrix pins that claim down for every
backend registered in :mod:`repro.solvers.registry`, using the registered
capability flags instead of a hard-coded name list, so an extension backend
is automatically drafted into the oracle the moment it registers:

* **exact** backends must return ranges *equal* to the scipy reference on
  the soundness scenario;
* **inexact** backends (the LP relaxation) must return ranges that
  *contain* the reference — sound but possibly looser;
* the disjoint scenario compiles to pure box programs, which the compiled
  greedy step answers on every backend, and the coupled one reaches the
  backend itself;
* unknown/unavailable backends skip rather than fail, keeping the matrix
  usable on trimmed-down installs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.builders import (
    build_partition_pcs,
    build_random_overlapping_boxes,
)
from repro.core.predicates import Predicate
from repro.relational.aggregates import AggregateFunction
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema
from repro.solvers.registry import (
    available_backends,
    backend_capabilities,
    has_backend,
)

REFERENCE = "scipy"

AGGREGATES = [
    (AggregateFunction.COUNT, None),
    (AggregateFunction.SUM, "v"),
    (AggregateFunction.AVG, "v"),
    (AggregateFunction.MIN, "v"),
    (AggregateFunction.MAX, "v"),
]


def _scenario_relation() -> Relation:
    rng = np.random.default_rng(77)
    schema = Schema.from_pairs([("t", ColumnType.FLOAT), ("v", ColumnType.FLOAT)])
    t = rng.uniform(0.0, 50.0, 300)
    v = np.round(rng.normal(20.0, 8.0, 300), 3)
    return Relation.from_rows(schema, list(zip(t.tolist(), v.tolist())),
                              name="matrix")


@pytest.fixture(scope="module")
def scenarios():
    relation = _scenario_relation()
    disjoint = build_partition_pcs(relation, ["t"], 6)
    coupled = build_random_overlapping_boxes(
        relation, ["t"], 5, rng=np.random.default_rng(5))
    regions = [None, Predicate.range("t", 10.0, 35.0)]
    return {"disjoint": (disjoint, regions), "coupled": (coupled, regions)}


def _ranges(pcset, regions, backend: str):
    solver = PCBoundSolver(pcset, BoundOptions(milp_backend=backend,
                                               check_closure=False))
    results = []
    for region in regions:
        for aggregate, attribute in AGGREGATES:
            results.append((aggregate, region,
                            solver.bound(aggregate, attribute, region,
                                         known_sum=100.0, known_count=5.0)))
    return results


def _backend_matrix() -> list[str]:
    # Materialised at collection time; has_backend re-checks at run time so
    # a backend deregistered between collection and execution skips cleanly.
    return sorted(available_backends())


@pytest.mark.parametrize("backend", _backend_matrix())
@pytest.mark.parametrize("kind", ["disjoint", "coupled"])
def test_backend_matches_reference_on_soundness_scenario(scenarios, backend,
                                                         kind):
    if not has_backend(backend):
        pytest.skip(f"backend {backend!r} is not available in this install")
    capabilities = backend_capabilities(backend)
    pcset, regions = scenarios[kind]
    reference = _ranges(pcset, regions, REFERENCE)
    candidate = _ranges(pcset, regions, backend)
    for (aggregate, region, expected), (_, _, actual) in zip(reference,
                                                             candidate):
        label = (backend, kind, aggregate.value, repr(region))
        if capabilities.exact:
            _assert_equal_range(expected, actual, label)
        else:
            _assert_contains_range(actual, expected, label)


def _assert_equal_range(expected, actual, label) -> None:
    for first, second in ((expected.lower, actual.lower),
                          (expected.upper, actual.upper)):
        if first is None or second is None:
            assert first == second, (label, str(expected), str(actual))
        else:
            assert second == pytest.approx(first, rel=1e-6, abs=1e-6), \
                (label, str(expected), str(actual))


def _assert_contains_range(outer, inner, label) -> None:
    """``outer`` (the inexact backend) must contain ``inner`` (exact)."""
    if inner.lower is not None and outer.lower is not None:
        assert outer.lower <= inner.lower + 1e-6, \
            (label, str(outer), str(inner))
    if inner.upper is not None and outer.upper is not None:
        assert outer.upper >= inner.upper - 1e-6, \
            (label, str(outer), str(inner))


def test_every_backend_declares_capabilities():
    """The matrix premise: capability flags exist for all registered names."""
    for backend in available_backends():
        capabilities = backend_capabilities(backend)
        assert isinstance(capabilities.exact, bool)
