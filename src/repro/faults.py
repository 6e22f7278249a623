"""Deterministic fault injection and query deadlines.

Fault tolerance code is the least exercised code in any service: worker
crashes, delayed replies and poison payloads are rare in production and
nearly impossible to reproduce on demand.  This module makes every failure
mode the pool handles *scriptable*, so the chaos tests (and CI) drive the
exact same recovery paths a production incident would.

A fault plan is a semicolon-separated list of clauses::

    REPRO_FAULTS="kill:worker=1,task=7;delay:shard=2,ms=500;drop_reply:nth=3"

Each clause is ``action:key=value,...`` where *action* is one of

``kill``
    The worker process exits hard (``os._exit``) before running the task —
    the crash-recovery path: respawn, re-dispatch, retry budget.
``delay``
    The worker sleeps ``ms`` milliseconds before running the task — the
    straggler path: deadlines and degradation.
``drop_reply``
    The worker runs the task but never sends the reply — the lost-message
    path: the coordinator sees a silent worker, not a dead one.
``fail``
    The worker raises an injected :class:`~repro.exceptions.SolverError`
    instead of running the task — the application-error path.

and the keys select *which* dispatch the fault fires on:

``worker=N``   only tasks dispatched to worker index ``N``
``kind=NAME``  only tasks of that kind (``solve_batch``, ``decompose_batch``,
               ...); a pool rejects a plan whose kind it never dispatches
``task=N``     only the ``N``-th dispatch overall (1-based, deterministic
               because dispatch order is deterministic)
``shard=N``    only tasks whose payload position (shard index) is ``N``
``nth=N``      the ``N``-th dispatch matching the other keys
``ms=N``       (``delay`` only) sleep duration in milliseconds
``count=N``    fire up to ``N`` times (default 1)
``message=S``  (``fail`` only) text carried by the injected error

Matching happens on the *coordinator* side at dispatch time — the
coordinator knows the worker index, task kind, shard position and the
global dispatch ordinal, and rounds serialise under the pool's round lock,
so a plan fires on exactly the same dispatch every run.  The matched
directive ships to the worker inside the task payload's control slot; the
worker only ever executes what the coordinator already decided.

The module also owns the ambient **query deadline**: a
:class:`Deadline` installed with :func:`deadline_scope` is visible to every
layer underneath (pool rounds, inline fan-outs) via
:func:`current_deadline`, without threading a parameter through each
signature.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from .exceptions import ReproError, SolverError

__all__ = [
    "FAULTS_ENV",
    "FaultDirective",
    "FaultPlan",
    "parse_faults",
    "resolve_faults",
    "faults_enabled",
    "apply_worker_fault",
    "Deadline",
    "deadline_scope",
    "query_deadline_scope",
    "current_deadline",
]

#: Environment variable holding the fault plan.  The environment wins over
#: any configured value, so CI legs and ad-hoc shells can inject faults
#: without touching code.
FAULTS_ENV = "REPRO_FAULTS"

_ACTIONS = ("kill", "delay", "drop_reply", "fail")

_INT_KEYS = ("worker", "task", "shard", "nth", "count")


@dataclass
class FaultDirective:
    """One parsed clause of a fault plan, with its firing state.

    ``_seen`` counts dispatches that matched the selector keys (for
    ``nth``); ``_fired`` counts times the fault actually fired (for
    ``count``).  Both reset with :meth:`FaultPlan.reset`.
    """

    action: str
    worker: int | None = None
    kind: str | None = None
    task: int | None = None
    shard: int | None = None
    nth: int | None = None
    ms: float = 0.0
    count: int = 1
    message: str = "injected fault"
    _seen: int = 0
    _fired: int = 0

    def matches(self, worker: int, kind: str, position: int,
                dispatch: int) -> bool:
        if self._fired >= self.count:
            return False
        if self.worker is not None and worker != self.worker:
            return False
        if self.kind is not None and kind != self.kind:
            return False
        if self.task is not None and dispatch != self.task:
            return False
        if self.shard is not None and position != self.shard:
            return False
        self._seen += 1
        if self.nth is not None and self._seen != self.nth:
            return False
        self._fired += 1
        return True

    def wire(self) -> tuple:
        """The picklable directive shipped in the task payload."""
        if self.action == "delay":
            return ("delay", self.ms)
        if self.action == "fail":
            return ("fail", self.message)
        return (self.action,)


class FaultPlan:
    """A parsed fault plan: an ordered list of directives plus firing state.

    Thread-safe; at most one directive fires per dispatch (first match in
    clause order wins, like firewall rules).
    """

    def __init__(self, directives: list[FaultDirective], spec: str = ""):
        self._directives = list(directives)
        self._spec = spec
        self._lock = threading.Lock()
        self._dispatches = 0

    def __bool__(self) -> bool:
        return bool(self._directives)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self._spec!r})"

    @property
    def spec(self) -> str:
        return self._spec

    def on_dispatch(self, worker: int, kind: str, position: int) -> tuple | None:
        """Consult the plan for one dispatch; returns a wire directive or
        ``None``.  Increments the global dispatch ordinal either way."""
        with self._lock:
            self._dispatches += 1
            for directive in self._directives:
                if directive.matches(worker, kind, position, self._dispatches):
                    return directive.wire()
        return None

    def check_kinds(self, kinds) -> None:
        """Raise :class:`~repro.exceptions.ReproError` when a ``kind=``
        selector names none of ``kinds`` — such a directive could never
        fire, and a chaos plan that silently injects nothing is a typo."""
        for directive in self._directives:
            if directive.kind is not None and directive.kind not in kinds:
                raise ReproError(
                    f"unknown fault kind {directive.kind!r} in "
                    f"{self._spec!r} (expected one of "
                    f"{', '.join(sorted(kinds))})")

    def fired(self) -> int:
        """Total times any directive has fired since the last reset."""
        with self._lock:
            return sum(d._fired for d in self._directives)

    def reset(self) -> None:
        """Re-arm every directive and restart the dispatch ordinal."""
        with self._lock:
            self._dispatches = 0
            for directive in self._directives:
                directive._seen = 0
                directive._fired = 0


def parse_faults(spec: str) -> FaultPlan:
    """Parse a fault-plan string into a :class:`FaultPlan`.

    Raises :class:`~repro.exceptions.ReproError` on unknown actions or
    malformed keys — a typo in a chaos-test plan must fail loudly, not
    silently inject nothing.
    """
    directives: list[FaultDirective] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        action, _, rest = clause.partition(":")
        action = action.strip()
        if action not in _ACTIONS:
            raise ReproError(
                f"unknown fault action {action!r} in {clause!r} "
                f"(expected one of {', '.join(_ACTIONS)})")
        directive = FaultDirective(action=action)
        for pair in rest.split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, sep, value = pair.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not value:
                raise ReproError(
                    f"malformed fault selector {pair!r} in {clause!r} "
                    f"(expected key=value)")
            if key in _INT_KEYS:
                try:
                    setattr(directive, key, int(value))
                except ValueError:
                    raise ReproError(
                        f"fault selector {key!r} needs an integer, "
                        f"got {value!r}") from None
            elif key == "ms":
                try:
                    directive.ms = float(value)
                except ValueError:
                    raise ReproError(
                        f"fault selector 'ms' needs a number, "
                        f"got {value!r}") from None
            elif key == "kind":
                directive.kind = value
            elif key == "message":
                directive.message = value
            else:
                raise ReproError(
                    f"unknown fault selector {key!r} in {clause!r}")
        if directive.count < 1:
            raise ReproError("fault selector 'count' must be >= 1")
        directives.append(directive)
    return FaultPlan(directives, spec=spec)


def faults_enabled() -> bool:
    """Whether the environment carries a non-empty fault plan."""
    raw = os.environ.get(FAULTS_ENV)
    return raw is not None and raw.strip() != ""


def resolve_faults(configured: FaultPlan | str | None = None) -> FaultPlan | None:
    """The effective fault plan: the environment wins over ``configured``.

    An explicit ``REPRO_FAULTS`` beats whatever the caller wired up, so
    chaos CI legs apply to unmodified code.  Returns ``None`` when no
    faults are active (the common case: zero overhead on the dispatch
    path).
    """
    raw = os.environ.get(FAULTS_ENV)
    if raw is not None and raw.strip() != "":
        return parse_faults(raw)
    if configured is None:
        return None
    if isinstance(configured, str):
        return parse_faults(configured)
    return configured


def apply_worker_fault(directive: tuple | None) -> bool:
    """Execute a wire directive inside a worker, before running the task.

    Returns ``True`` when the reply for this task must be *dropped*
    (computed but never sent); the caller skips the send.  ``kill`` never
    returns; ``fail`` raises; ``delay`` sleeps and returns normally.
    """
    if not directive:
        return False
    action = directive[0]
    if action == "kill":
        # Hard exit: no atexit handlers, no flushing — indistinguishable
        # from the kernel OOM-killing the worker, which is the point.
        os._exit(1)
    if action == "delay":
        time.sleep(float(directive[1]) / 1000.0)
        return False
    if action == "fail":
        raise SolverError(f"injected failure: {directive[1]}")
    if action == "drop_reply":
        return True
    return False


# --------------------------------------------------------------------- #
# Query deadlines
# --------------------------------------------------------------------- #
class Deadline:
    """A wall-clock budget anchored at construction time.

    Monotonic-clock based, so NTP steps cannot fire (or un-fire) it.
    """

    __slots__ = ("seconds", "_expires_at", "_started_at")

    def __init__(self, seconds: float):
        if seconds <= 0:
            raise ReproError(f"deadline must be positive, got {seconds!r}")
        self.seconds = float(seconds)
        self._started_at = time.monotonic()
        self._expires_at = self._started_at + self.seconds

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self._expires_at - time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self._started_at

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Deadline({self.seconds:.3f}s, "
                f"remaining={self.remaining():.3f}s)")


_AMBIENT = threading.local()


def current_deadline() -> Deadline | None:
    """The innermost deadline installed on this thread, if any."""
    stack = getattr(_AMBIENT, "stack", None)
    return stack[-1] if stack else None


@contextmanager
def deadline_scope(deadline: Deadline | None):
    """Install ``deadline`` as the ambient deadline for the dynamic extent.

    ``None`` is accepted and is a no-op, so call sites need no branching:
    ``with deadline_scope(make_deadline(options)): ...``.  Scopes nest;
    the innermost wins (a sub-operation may run under a tighter budget).
    """
    if deadline is None:
        yield None
        return
    stack = getattr(_AMBIENT, "stack", None)
    if stack is None:
        stack = _AMBIENT.stack = []
    stack.append(deadline)
    try:
        yield deadline
    finally:
        stack.pop()


def query_deadline_scope(deadline_seconds: float | None):
    """The deadline scope one query configured with ``deadline_seconds``
    runs under.

    An ambient deadline wins: a fresh :class:`Deadline` is created only when
    none is installed yet.  The service opens its scope before it prices
    a query (and a batch may install its own budget), so restarting the
    clock inside would hand the query back the time already spent.
    """
    if deadline_seconds is None or current_deadline() is not None:
        return deadline_scope(None)
    return deadline_scope(Deadline(deadline_seconds))
