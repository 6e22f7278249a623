"""Outside-in per-layer self-time ledger.

The traced run wraps the public entry points of each layer *from here*,
without touching the package under test.  Every wrapper pushes a frame on
a thread-local stack, so a call's self time is its duration minus the time
spent in wrapped calls below it.  The self times of all frames add up to
the durations of the root calls (the client's service calls), which is the
integrity check the benchmark runs on every traced pass.

Process-pool workers inherit the wrappers when they are forked, but their
ledgers stay in the workers: the ``parallel`` layer is measured from the
parent, as the time the client blocks in ``WorkerPool`` entry points.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict


def _scan_hook(ledger: Ledger, args, result) -> None:
    ledger.counts["relational.rows_examined"] += args[0].num_rows


def _decompose_hook(ledger: Ledger, args, result) -> None:
    statistics = result.statistics
    ledger.counts["cells.cells_evaluated"] += statistics.cells_evaluated
    ledger.counts["cells.solver_calls"] += statistics.solver_calls
    ledger.counts["cells.rewrites_saved"] += statistics.rewrites_saved


def _milp_hook(ledger: Ledger, args, result) -> None:
    if ledger.aggregate == "AVG":
        ledger.counts["milp.avg_calls"] += 1


def _shards_hook(ledger: Ledger, args, result) -> None:
    ledger.counts["pool.shard_solver_calls"] += sum(
        decomposition.statistics.solver_calls for decomposition in result)
    ledger.region_sharded.add(ledger.session)


#: (layer, owner, attribute, hook).  ``owner`` is ``module:Class`` for a
#: method or ``module:`` for a module-level name rebound at its point of use.
#: A hook reads counts from the call's arguments and result.
WRAPPED = (
    ("service", "repro.service.service:ContingencyService", "analyze", None),
    ("service", "repro.service.service:ContingencyService", "append_rows", None),
    ("service", "repro.service.service:ContingencyService", "register", None),
    ("service.fingerprint", "repro.service.service:", "fingerprint_query", None),
    ("service.fingerprint", "repro.service.registry:", "fingerprint_pcset", None),
    ("service.fingerprint", "repro.service.registry:", "fingerprint_relation", None),
    ("service.fingerprint", "repro.service.registry:", "fingerprint_bound_options", None),
    ("service.fingerprint", "repro.service.registry:", "decomposition_namespace", None),
    ("service.fingerprint", "repro.service.registry:", "relation_version", None),
    ("store.read", "repro.service.store:PersistentStore", "read", None),
    ("store.write", "repro.service.store:PersistentStore", "write", None),
    ("relational", "repro.relational.query:AggregateQuery", "execute", None),
    ("relational", "repro.relational.relation:Relation", "filter", _scan_hook),
    ("plan", "repro.core.bounds:PCBoundSolver", "plan", None),
    ("plan.compile", "repro.core.bounds:", "compile_plan", None),
    ("cells", "repro.core.cells:CellDecomposer", "decompose", _decompose_hook),
    ("sat", "repro.solvers.sat:BoxSolver", "is_satisfiable", None),
    ("solve", "repro.plan.program:BoundProgram", "bound_batch", None),
    ("milp", "repro.solvers.milp:CompiledMILP", "solve_objective", _milp_hook),
    ("milp", "repro.solvers.milp:CompiledMILP", "solve_objectives", _milp_hook),
    ("pool", "repro.parallel.pool:WorkerPool", "solve_programs", None),
    ("pool", "repro.parallel.pool:WorkerPool", "solve_programs_resilient", None),
    ("pool", "repro.parallel.pool:WorkerPool", "avg_probes", None),
    ("pool", "repro.parallel.pool:WorkerPool", "decompose_shards", _shards_hook),
    ("pool", "repro.parallel.pool:WorkerPool", "analyze", None),
    ("pool", "repro.parallel.pool:WorkerPool", "warm", None),
)

#: The query root: its session and aggregate are noted while it runs.
QUERY_ROOT = ("repro.service.service:ContingencyService", "analyze")


class Ledger:
    """Self time, call counts and result-derived counts per layer."""

    def __init__(self) -> None:
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        #: Calls per wrapped entry point, keyed ``layer.function``.
        self.entry_calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: Inclusive time of outermost frames per layer (e.g. pool wait).
        self.outer_ns: defaultdict[str, int] = defaultdict(int)
        self.root_ns = 0
        #: The session and aggregate of the analyze call in flight.
        self.session: str | None = None
        self.aggregate: str | None = None
        #: Sessions whose enumeration fanned out as region shards.
        self.region_sharded: set[str] = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, function, hook=None):
        ledger = self
        entry = f"{layer}.{function.__name__}"

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = ledger._stack()
            frame = [0, layer]
            outermost = all(other[1] != layer for other in stack)
            stack.append(frame)
            started = time.perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                else:
                    ledger.root_ns += elapsed
                ledger.self_ns[layer] += elapsed - frame[0]
                ledger.calls[layer] += 1
                ledger.entry_calls[entry] += 1
                if outermost:
                    ledger.outer_ns[layer] += elapsed
            if hook is not None:
                hook(ledger, args, result)
            return result

        return wrapper


def _resolve(owner: str):
    import importlib

    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracing:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Ledger:
        for layer, owner, attribute, hook in WRAPPED:
            target = _resolve(owner)
            original = target.__dict__[attribute]
            self._saved.append((target, attribute, original))
            wrapped = self.ledger.wrap(layer, original, hook)
            if (owner, attribute) == QUERY_ROOT:
                wrapped = self._note_query(wrapped)
            setattr(target, attribute, wrapped)
        return self.ledger

    def _note_query(self, wrapped):
        ledger = self.ledger

        @functools.wraps(wrapped)
        def analyze(service, name, query, *args, **kwargs):
            ledger.session, ledger.aggregate = name, query.aggregate.name
            ledger.counts[f"queries.{ledger.aggregate}"] += 1
            try:
                return wrapped(service, name, query, *args, **kwargs)
            finally:
                ledger.session = ledger.aggregate = None

        return analyze

    def __exit__(self, *_exc) -> None:
        for target, attribute, original in reversed(self._saved):
            setattr(target, attribute, original)
        self._saved.clear()
