"""The benchmark's ledger and metric code read names that exist.

``perfbench/ledger.py`` wraps each layer's entry points by name
(``WRAPPED``), so renaming one breaks every traced benchmark run with a
``KeyError``, and ``perfbench/run.py``'s ``per_layer_metrics`` reads fields
of ``ServiceStatistics``, so dropping one breaks it with an
``AttributeError``.  Both files are loaded by path, without importing
``perfbench`` as a package or writing anything under it; every wrapped name
is resolved the way its ``Tracing`` context resolves it, and the metrics
are computed from a live service's statistics.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

from repro.core.bounds import BoundOptions
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.engine import ContingencyQuery
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.service import ContingencyService

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str) -> types.ModuleType:
    """``perfbench/<name>.py`` as a module (registered, as its dataclasses
    need), compiled in memory so no bytecode lands under ``perfbench``."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_wrapped_entry_point_exists():
    ledger = load("ledger")
    assert ledger.WRAPPED
    missing = [(owner, attribute)
               for _layer, owner, attribute, _hook in ledger.WRAPPED
               if attribute not in ledger._resolve(owner).__dict__]
    assert missing == []


def test_per_layer_metrics_read_live_service_statistics():
    run = load("run")
    service = ContingencyService(max_workers=1)
    service.register("outage", PredicateConstraintSet([PredicateConstraint(
        Predicate.range("t", 0.0, 1.0), ValueConstraint({"v": (0.0, 5.0)}),
        FrequencyConstraint(0, 3), name="a")]),
        options=BoundOptions(check_closure=False))
    service.analyze("outage", ContingencyQuery.sum("v"))
    passes = run.PassResult(wall_s=1.0, query_ms=[1.0], attempted=1)
    metrics = run.per_layer_metrics(load("ledger").Ledger(), passes, passes,
                                    service.statistics(), serial_calls=0)
    service.shutdown()
    assert set(metrics) == set(run.PER_LAYER)
