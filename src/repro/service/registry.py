"""Named, versioned registration of constraint sets and observed relations.

A production deployment does not ship a constraint file with every query:
an analyst registers "the outage constraints for the sales table" once, the
service assigns it a version, and subsequent queries reference it by name.
The registry is the session layer that makes this possible:

* registering the *same content* under the same name is idempotent — the
  content fingerprint (see :mod:`repro.service.fingerprint`) deduplicates,
  so retries and redundant client registrations never fork versions;
* registering *changed content* bumps the version, and old versions stay
  queryable (reports are reproducible even after constraints evolve);
* every session lazily owns one :class:`~repro.core.engine.PCAnalyzer`
  wired to the registry's shared decomposition cache, so all sessions over
  equal constraint sets share decomposition work.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..core.bounds import BoundOptions
from ..core.engine import ContingencyQuery, ContingencyReport, PCAnalyzer
from ..core.pcset import PredicateConstraintSet
from ..exceptions import ReproError
from ..relational.relation import Relation
from .fingerprint import (
    RelationVersion,
    combine_fingerprints,
    decomposition_namespace,
    fingerprint_bound_options,
    fingerprint_pcset,
    fingerprint_relation,
    relation_version,
)

__all__ = ["RegisteredSession", "SessionRegistry", "session_fingerprint"]


@dataclass
class RegisteredSession:
    """One (name, version) binding of constraints + observed data + options."""

    name: str
    version: int
    pcset: PredicateConstraintSet
    observed: Relation | None
    options: BoundOptions
    fingerprint: str
    registered_at: float
    _decomposition_cache: object = field(default=None, repr=False)
    _program_cache: object = field(default=None, repr=False)
    _worker_pool: object = field(default=None, repr=False)
    _range_cache: object = field(default=None, repr=False)
    _analyzer: PCAnalyzer | None = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def analyzer(self) -> PCAnalyzer:
        """The session's analyzer, created on first use and then reused."""
        with self._lock:
            if self._analyzer is None:
                self._analyzer = PCAnalyzer(
                    self.pcset, observed=self.observed, options=self.options,
                    decomposition_cache=self._decomposition_cache,
                    cache_namespace=decomposition_namespace(self.pcset),
                    program_cache=self._program_cache,
                    worker_pool=self._worker_pool,
                    range_cache=self._range_cache)
            return self._analyzer

    def analyze(self, query: ContingencyQuery) -> ContingencyReport:
        return self.analyzer.analyze(query)

    def solver_counters(self) -> tuple[int, int, int]:
        """(decompositions computed, satisfiability calls, programs compiled)
        so far; all zero when the session has never answered a query
        (analyzer not built)."""
        with self._lock:
            if self._analyzer is None:
                return (0, 0, 0)
            solver = self._analyzer.solver
            return (solver.decompositions_computed,
                    solver.decomposition_solver_calls,
                    solver.programs_compiled)

    @property
    def relation_version(self) -> RelationVersion | None:
        """The observed relation's versioned identity (None when data-less).

        Lineage-aware: a session registered from an appended relation
        reports its base fingerprint plus the ordered delta digests, which
        is what lets the service tell "version N+1 is version N plus these
        rows" apart from "version N+1 is different data".
        """
        if self.observed is None:
            return None
        return relation_version(self.observed)

    def describe(self) -> dict[str, object]:
        version = self.relation_version
        return {
            "name": self.name,
            "version": self.version,
            "fingerprint": self.fingerprint,
            "constraints": len(self.pcset),
            "total_max_rows": self.pcset.total_max_rows(),
            "observed_rows": 0 if self.observed is None else self.observed.num_rows,
            "relation_version": None if version is None else version.describe(),
            "deadline_seconds": self.options.deadline_seconds,
            "degrade": self.options.degrade,
            "registered_at": self.registered_at,
        }


def session_fingerprint(pcset: PredicateConstraintSet,
                        observed: Relation | None,
                        options: BoundOptions) -> str:
    """A session's identity: its constraints, options and observed data.

    Batch execution addresses a session's worker-side state by the same
    key, whether the service passes it or the batch derives it.
    """
    parts = [fingerprint_pcset(pcset), fingerprint_bound_options(options)]
    if observed is not None:
        parts.append(fingerprint_relation(observed))
    return combine_fingerprints(*parts)


class SessionRegistry:
    """Thread-safe store of :class:`RegisteredSession` objects.

    Parameters
    ----------
    decomposition_cache:
        Shared cache handed to every session's analyzer (usually the
        owning :class:`~repro.service.service.ContingencyService`'s cache).
        ``None`` gives each analyzer its private per-instance cache.
    program_cache:
        Shared cache of compiled bound programs, handed to every session's
        analyzer alongside the decomposition cache.
    worker_pool:
        The owning service's persistent worker pool, handed to every
        session's analyzer so sharded fan-out borrows it instead of
        spinning per-call executors.
    range_cache:
        Shared cache of missing-row ranges keyed by compiled program, handed
        to every session's analyzer: sessions that differ only in observed
        data (every version of an append chain) share their COUNT, SUM, MIN
        and MAX ranges, and their AVG ranges over regions whose observed sum
        and count agree.  ``None`` memoizes nothing.
    """

    def __init__(self, decomposition_cache=None, program_cache=None,
                 worker_pool=None, range_cache=None):
        self._decomposition_cache = decomposition_cache
        self._program_cache = program_cache
        self._worker_pool = worker_pool
        self._range_cache = range_cache
        self._sessions: dict[str, list[RegisteredSession]] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, pcset: PredicateConstraintSet,
                 observed: Relation | None = None,
                 options: BoundOptions | None = None) -> RegisteredSession:
        """Bind constraints (and optional observed data) to ``name``.

        Returns the existing latest session when its content fingerprint
        matches (idempotent re-registration); otherwise creates version
        ``latest + 1``.
        """
        if not name:
            raise ReproError("session name must be non-empty")
        options = options or BoundOptions()
        fingerprint = session_fingerprint(pcset, observed, options)
        with self._lock:
            versions = self._sessions.setdefault(name, [])
            if versions and versions[-1].fingerprint == fingerprint:
                return versions[-1]
            session = RegisteredSession(
                name=name,
                version=len(versions) + 1,
                pcset=pcset.copy(),
                observed=observed,
                options=options,
                fingerprint=fingerprint,
                registered_at=time.time(),
                _decomposition_cache=self._decomposition_cache,
                _program_cache=self._program_cache,
                _worker_pool=self._worker_pool,
                _range_cache=self._range_cache,
            )
            versions.append(session)
            return session

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def get(self, name: str, version: int | None = None) -> RegisteredSession:
        """The session registered under ``name`` (latest version by default)."""
        with self._lock:
            versions = self._sessions.get(name)
            if not versions:
                raise ReproError(f"no session registered under {name!r}")
            if version is None:
                return versions[-1]
            for session in versions:
                if session.version == version:
                    return session
            raise ReproError(
                f"session {name!r} has no version {version} "
                f"(latest is {versions[-1].version})")

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._sessions)

    def versions(self, name: str) -> list[RegisteredSession]:
        with self._lock:
            return list(self._sessions.get(name, []))

    def sessions(self) -> list[RegisteredSession]:
        """Every registered session, ordered by (name, version)."""
        with self._lock:
            return [session
                    for name in sorted(self._sessions)
                    for session in self._sessions[name]]

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._sessions

    def __len__(self) -> int:
        """Number of registered sessions across all names and versions."""
        with self._lock:
            return sum(len(versions) for versions in self._sessions.values())
