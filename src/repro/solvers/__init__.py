"""Optimisation and satisfiability substrates.

The paper relies on three external solvers: Z3 (cell satisfiability), a MILP
solver (the bounding program of §4.2), and an LP solver (the fractional edge
cover of §5.2).  None are available offline, so this subpackage provides
from-scratch replacements with equivalent behaviour for the fragments the
framework actually uses.
"""

from .fec import (
    FractionalEdgeCover,
    Hyperedge,
    JoinHypergraph,
    fractional_edge_cover_number,
    solve_fractional_edge_cover,
)
from .lp import LinearProgram, LPSolution, Sense, SolutionStatus
from .milp import CompiledMILP, MILPBackend
from .registry import (
    BackendCapabilities,
    available_backends,
    backend_capabilities,
    register_backend,
    resolve_backend,
)
from .sat import AttributeDomain, Box, BoxSolver, CategoricalSet, Interval, SolverStatistics

__all__ = [
    "FractionalEdgeCover",
    "Hyperedge",
    "JoinHypergraph",
    "fractional_edge_cover_number",
    "solve_fractional_edge_cover",
    "LinearProgram",
    "LPSolution",
    "Sense",
    "SolutionStatus",
    "CompiledMILP",
    "MILPBackend",
    "BackendCapabilities",
    "available_backends",
    "backend_capabilities",
    "register_backend",
    "resolve_backend",
    "AttributeDomain",
    "Box",
    "BoxSolver",
    "CategoricalSet",
    "Interval",
    "SolverStatistics",
]
