"""Tests of the package's public API surface and top-level invariants."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro.baselines.base import MissingDataEstimator
from repro.experiments.estimators import CorrPCEstimator, PCFrameworkEstimator
from repro.exceptions import (
    ClosureError,
    ConstraintError,
    InfeasibleProblemError,
    PredicateError,
    QueryError,
    ReproError,
    SchemaError,
    SolverError,
    WorkloadError,
)


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_subpackages_importable(self):
        for module_name in ("repro.core", "repro.relational", "repro.solvers",
                            "repro.baselines", "repro.datasets", "repro.workloads",
                            "repro.experiments", "repro.cli"):
            module = importlib.import_module(module_name)
            assert module is not None

    def test_subpackage_all_lists_resolve(self):
        """Every name in every ``__all__`` under ``repro`` resolves."""
        modules = [repro] + [
            importlib.import_module(info.name) for info in
            pkgutil.walk_packages(repro.__path__, prefix="repro.")]
        for module in modules:
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestExceptionHierarchy:
    @pytest.mark.parametrize("exception_type", [
        SchemaError, QueryError, PredicateError, ConstraintError, ClosureError,
        SolverError, WorkloadError, InfeasibleProblemError,
    ])
    def test_all_derive_from_repro_error(self, exception_type):
        assert issubclass(exception_type, ReproError)

    def test_infeasible_is_a_solver_error(self):
        assert issubclass(InfeasibleProblemError, SolverError)


class TestEstimatorContract:
    def test_pc_estimators_implement_the_baseline_interface(self):
        assert issubclass(PCFrameworkEstimator, MissingDataEstimator)
        assert issubclass(CorrPCEstimator, PCFrameworkEstimator)

    def test_estimator_requires_fit_before_estimate(self):
        from repro.core.engine import ContingencyQuery

        estimator = CorrPCEstimator("light", 4)
        with pytest.raises(Exception):
            estimator.estimate(ContingencyQuery.count())

    def test_unfitted_pcset_access_raises(self):
        from repro.exceptions import WorkloadError as WError

        estimator = CorrPCEstimator("light", 4)
        with pytest.raises(WError):
            _ = estimator.pcset


class TestDocumentationPresence:
    """Every public module and class carries a docstring (release hygiene)."""

    @pytest.mark.parametrize("module_name", [
        "repro", "repro.core.predicates", "repro.core.constraints",
        "repro.core.pcset", "repro.core.cells", "repro.core.bounds",
        "repro.core.engine", "repro.core.joins", "repro.core.builders",
        "repro.core.io", "repro.solvers.sat", "repro.solvers.lp",
        "repro.solvers.milp", "repro.solvers.fec", "repro.relational.relation",
        "repro.relational.query", "repro.baselines.sampling",
        "repro.baselines.histogram", "repro.baselines.gmm",
        "repro.experiments.harness", "repro.cli",
    ])
    def test_module_docstrings(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20

    def test_public_classes_have_docstrings(self):
        from repro import (ContingencyQuery, PCAnalyzer, Predicate,
                           PredicateConstraint, PredicateConstraintSet, ResultRange)

        for cls in (ContingencyQuery, PCAnalyzer, Predicate, PredicateConstraint,
                    PredicateConstraintSet, ResultRange):
            assert cls.__doc__ and len(cls.__doc__.strip()) > 10
