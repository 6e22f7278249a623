"""Uniform registration and resolution of MILP backends.

Backend names are resolved in several places (compiled programs at solve
time, CLI validation, service fingerprints), so the mapping lives in one
registry:

* built-in backends (``scipy``, ``branch-and-bound``, ``relaxation``)
  register themselves when :mod:`repro.solvers.milp` is imported;
* extensions (tests, future native solvers) call :func:`register_backend`
  and immediately become addressable from :class:`~repro.core.bounds.
  BoundOptions.milp_backend`, the CLI ``--backend`` flag and the service
  layer, with no dispatch code to touch.

A backend is a callable ``(milp, c, sense) -> LPSolution``: it optimises the
objective vector ``c`` over a coupled :class:`~repro.solvers.milp.
CompiledMILP` in direction ``sense`` and returns the status, the optimum
and the allocation ``x``.  Pure box programs never reach a backend: the
compiled program's greedy step answers them.

Backends additionally carry :class:`BackendCapabilities`, declared at
registration time, which the parallel/verification layers consult instead of
matching on names:

``exact``
    The backend returns the true integer optimum.  The cross-backend
    equivalence oracle asserts range *equality* only between exact backends;
    inexact ones (the LP ``relaxation``) promise containment, not equality.
``process_safe``
    The backend's solves can run in a worker *process*: it holds no native
    handles, so compiled programs pickle across the boundary.  A future
    backend wrapping a persistent native solver handle registers with
    ``process_safe=False`` and its work runs inline instead of fanning out
    to processes (:func:`repro.parallel.pool.pool_for_backend`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Protocol

from ..exceptions import SolverError

__all__ = ["BackendFn", "BackendCapabilities", "register_backend",
           "resolve_backend", "available_backends", "has_backend",
           "backend_capabilities"]


class BackendFn(Protocol):
    """The callable signature every registered backend satisfies."""

    def __call__(self, milp, c, sense): ...


@dataclass(frozen=True)
class BackendCapabilities:
    """What a registered backend promises (see the module docstring)."""

    exact: bool = True
    process_safe: bool = True


_DEFAULT_CAPABILITIES = BackendCapabilities()

_lock = threading.Lock()
_backends: dict[str, Callable] = {}
_capabilities: dict[str, BackendCapabilities] = {}


def register_backend(name: str, solver: Callable, *, replace: bool = False,
                     capabilities: BackendCapabilities | None = None) -> None:
    """Make ``solver`` addressable as backend ``name`` everywhere.

    Raises :class:`SolverError` on a duplicate name unless ``replace`` is
    set — silently shadowing a built-in would make bound results depend on
    import order.  ``capabilities`` defaults to the conservative
    all-features profile (exact, process-safe).
    """
    if not name:
        raise SolverError("backend name must be non-empty")
    with _lock:
        if name in _backends and not replace:
            raise SolverError(
                f"MILP backend {name!r} is already registered; "
                "pass replace=True to override it")
        _backends[name] = solver
        _capabilities[name] = capabilities or _DEFAULT_CAPABILITIES


def resolve_backend(name: str) -> Callable:
    """The solver registered under ``name`` (raises with the known names)."""
    with _lock:
        solver = _backends.get(name)
    if solver is None:
        raise SolverError(
            f"unknown MILP backend {name!r}; expected one of "
            f"{available_backends()}")
    return solver


def backend_capabilities(name: str) -> BackendCapabilities:
    """The capability flags registered for backend ``name``."""
    with _lock:
        capabilities = _capabilities.get(name)
    if capabilities is None:
        raise SolverError(
            f"unknown MILP backend {name!r}; expected one of "
            f"{available_backends()}")
    return capabilities


def has_backend(name: str) -> bool:
    with _lock:
        return name in _backends


def available_backends() -> tuple[str, ...]:
    """Registered backend names, built-ins first, extensions in add order."""
    with _lock:
        return tuple(_backends)
