"""Tests for the command-line interface and the GROUP BY analyzer support."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.core.bounds import BoundOptions
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.engine import ContingencyQuery, PCAnalyzer
from repro.core.io import save_pcset
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.exceptions import QueryError
from repro.relational.csvio import write_csv
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema
from repro.solvers.sat import AttributeDomain


@pytest.fixture
def constraint_text_file(tmp_path):
    path = tmp_path / "constraints.txt"
    path.write_text(
        "# outage window\n"
        "11 <= utc <= 12 => 0.99 <= price <= 129.99, (50, 100)\n"
        "12 <= utc <= 13 => 0.99 <= price <= 149.99, (50, 100)\n")
    return path


@pytest.fixture
def constraint_json_file(tmp_path):
    pcset = PredicateConstraintSet([
        PredicateConstraint(Predicate.range("utc", 11, 13),
                            ValueConstraint({"price": (0.0, 100.0)}),
                            FrequencyConstraint(0, 10), name="window"),
    ])
    return save_pcset(pcset, tmp_path / "constraints.json")


class TestCliParsing:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure3" in output and "table2" in output

    def test_run_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            main(["run", "figure99"])


class TestCliRun:
    def test_run_figure1_with_overrides(self, capsys):
        assert main(["run", "figure1", "--num-rows", "1500"]) == 0
        output = capsys.readouterr().out
        assert "Figure 1" in output
        assert "relative_error" in output

    def test_run_figure7_ignores_inapplicable_flag(self, capsys):
        assert main(["run", "figure7", "--num-rows", "800",
                     "--num-constraints", "6", "--num-queries", "5"]) == 0
        captured = capsys.readouterr()
        assert "Figure 7" in captured.out
        assert "does not take" in captured.err


class TestCliBound:
    def test_bound_with_text_constraints(self, capsys, constraint_text_file):
        code = main(["bound", "--constraints", str(constraint_text_file),
                     "--aggregate", "sum", "--attribute", "price",
                     "--no-closure-check"])
        assert code == 0
        output = capsys.readouterr().out
        assert "result range" in output
        assert "27998.0" in output

    def test_bound_with_json_constraints_and_where(self, capsys, constraint_json_file):
        code = main(["bound", "--constraints", str(constraint_json_file),
                     "--aggregate", "count", "--where", "11 <= utc <= 12",
                     "--no-closure-check"])
        assert code == 0
        assert "COUNT(*)" in capsys.readouterr().out

    def test_bound_with_observed_csv(self, capsys, tmp_path, constraint_text_file):
        schema = Schema.from_pairs([("utc", ColumnType.FLOAT),
                                    ("price", ColumnType.FLOAT)])
        observed = Relation(schema, {"utc": [10.0, 10.5], "price": [5.0, 6.0]})
        observed_path = write_csv(observed, tmp_path / "observed.csv")
        code = main(["bound", "--constraints", str(constraint_text_file),
                     "--aggregate", "sum", "--attribute", "price",
                     "--observed", str(observed_path), "--no-closure-check"])
        assert code == 0
        output = capsys.readouterr().out
        assert "observed rows   : 2" in output

    def test_bound_missing_constraint_file(self, capsys):
        code = main(["bound", "--constraints", "/nonexistent/file.json",
                     "--aggregate", "count"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.fixture
    def disjoint_constraint_file(self, tmp_path):
        path = tmp_path / "disjoint.txt"
        path.write_text(
            "0 <= utc <= 1 => 1.0 <= price <= 10.0, (2, 5)\n"
            "2 <= utc <= 3 => 1.0 <= price <= 20.0, (2, 5)\n"
            "4 <= utc <= 5 => 1.0 <= price <= 30.0, (2, 5)\n"
            "6 <= utc <= 7 => 1.0 <= price <= 40.0, (2, 5)\n")
        return path

    def test_bound_workers_reports_shared_pool(self, capsys,
                                               disjoint_constraint_file):
        code = main(["bound", "--constraints", str(disjoint_constraint_file),
                     "--aggregate", "sum", "--attribute", "price",
                     "--workers", "2", "--no-closure-check"])
        assert code == 0
        output = capsys.readouterr().out
        # The line names the pool the solve borrowed (the shared one, or the
        # service's when a cache directory routes through a service); either
        # way --workers 2 means process workers.
        assert re.search(r"shard\(s\) over 2 worker\(s\) on the \S+ "
                         r"process pool", output)
        assert "merged shard solves" in output

    def test_bound_reads_cache_dir_from_environment(self, capsys, tmp_path,
                                                    monkeypatch,
                                                    constraint_text_file):
        cache_dir = tmp_path / "env-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        code = main(["bound", "--constraints", str(constraint_text_file),
                     "--aggregate", "sum", "--attribute", "price",
                     "--no-closure-check"])
        assert code == 0
        output = capsys.readouterr().out
        writes = re.search(r"persistent store: .* / (\d+) write\(s\) in (.+)",
                           output)
        assert writes is not None
        assert int(writes.group(1)) > 0 and writes.group(2) == str(cache_dir)
        assert any(cache_dir.iterdir())

    def test_bound_warm_run_reads_only_the_report(self, capsys, tmp_path,
                                                  constraint_text_file):
        """A warm run answers from the stored report and prints the plan
        without compiling a program: one store read, one hit, no write."""
        arguments = ["bound", "--constraints", str(constraint_text_file),
                     "--aggregate", "sum", "--attribute", "price",
                     "--no-closure-check",
                     "--cache-dir", str(tmp_path / "cache")]
        assert main(arguments) == 0
        cold = capsys.readouterr().out
        assert main(arguments) == 0
        warm = capsys.readouterr().out
        assert "persistent store: 1 read(s) / 1 hit(s) / 0 write(s)" in warm

        def plan_lines(output):
            return [line for line in output.splitlines()
                    if line.startswith(("plan", "result range"))]

        assert plan_lines(warm) == plan_lines(cold)

    def test_bound_workers_avg_uses_cross_shard_search(self, capsys,
                                                       disjoint_constraint_file):
        code = main(["bound", "--constraints", str(disjoint_constraint_file),
                     "--aggregate", "avg", "--attribute", "price",
                     "--workers", "2", "--no-closure-check"])
        assert code == 0
        output = capsys.readouterr().out
        assert "cross-shard binary search" in output
        assert "result range" in output

    def test_bound_workers_match_serial_ranges(self, capsys,
                                               disjoint_constraint_file):
        for aggregate in ("sum", "avg"):
            assert main(["bound", "--constraints",
                         str(disjoint_constraint_file),
                         "--aggregate", aggregate, "--attribute", "price",
                         "--no-closure-check"]) == 0
            serial_output = capsys.readouterr().out
            assert main(["bound", "--constraints",
                         str(disjoint_constraint_file),
                         "--aggregate", aggregate, "--attribute", "price",
                         "--workers", "3", "--no-closure-check"]) == 0
            parallel_output = capsys.readouterr().out
            serial_range = [line for line in serial_output.splitlines()
                            if line.startswith("result range")]
            parallel_range = [line for line in parallel_output.splitlines()
                              if line.startswith("result range")]
            assert serial_range == parallel_range


class TestGroupByAnalysis:
    def build_analyzer(self) -> PCAnalyzer:
        chicago = PredicateConstraint(
            Predicate.equals("branch", "Chicago"),
            ValueConstraint({"price": (0.0, 150.0)}),
            FrequencyConstraint(0, 5), name="chicago")
        new_york = PredicateConstraint(
            Predicate.equals("branch", "New York"),
            ValueConstraint({"price": (0.0, 100.0)}),
            FrequencyConstraint(0, 10), name="new-york")
        pcset = PredicateConstraintSet(
            [chicago, new_york],
            domains={"branch": AttributeDomain.categorical(["Chicago", "New York"])})
        return PCAnalyzer(pcset, options=BoundOptions(check_closure=False))

    def test_group_values_from_domain(self):
        analyzer = self.build_analyzer()
        reports = analyzer.analyze_group_by(ContingencyQuery.sum("price"), "branch")
        assert set(reports) == {"Chicago", "New York"}
        assert reports["Chicago"].upper == pytest.approx(5 * 150.0)
        assert reports["New York"].upper == pytest.approx(10 * 100.0)

    def test_explicit_groups(self):
        analyzer = self.build_analyzer()
        reports = analyzer.analyze_group_by(ContingencyQuery.count(), "branch",
                                            groups=["Chicago"])
        assert list(reports) == ["Chicago"]
        assert reports["Chicago"].upper == pytest.approx(5.0)

    def test_group_by_without_domain_or_observed_raises(self):
        pcset = PredicateConstraintSet([
            PredicateConstraint(Predicate.range("x", 0, 1), ValueConstraint(),
                                FrequencyConstraint(0, 1), name="a")])
        analyzer = PCAnalyzer(pcset, options=BoundOptions(check_closure=False))
        with pytest.raises(QueryError):
            analyzer.analyze_group_by(ContingencyQuery.count(), "x")

    def test_group_by_numeric_groups_from_observed(self):
        schema = Schema.from_pairs([("device", ColumnType.INT),
                                    ("value", ColumnType.FLOAT)])
        observed = Relation(schema, {"device": [1, 1, 2], "value": [5.0, 6.0, 7.0]})
        pcset = PredicateConstraintSet([
            PredicateConstraint(Predicate.range("device", 1, 2),
                                ValueConstraint({"value": (0.0, 10.0)}),
                                FrequencyConstraint(0, 4), name="missing-devices")])
        analyzer = PCAnalyzer(pcset, observed=observed,
                              options=BoundOptions(check_closure=False))
        reports = analyzer.analyze_group_by(ContingencyQuery.sum("value"), "device")
        assert set(reports) == {1, 2}
        assert reports[1].observed_value == pytest.approx(11.0)
        assert reports[1].upper == pytest.approx(11.0 + 4 * 10.0)


@pytest.fixture
def query_file(tmp_path):
    path = tmp_path / "queries.txt"
    path.write_text(
        "# dashboard batch\n"
        "count\n"
        "sum price\n"
        "sum price WHERE 11 <= utc <= 13\n"
        "max price WHERE 11 <= utc <= 13\n"
        "count WHERE 11 <= utc <= 12\n")
    return path


class TestCliSolverOptions:
    def test_bound_with_solver_flags(self, capsys, constraint_text_file):
        code = main(["bound", "--constraints", str(constraint_text_file),
                     "--aggregate", "sum", "--attribute", "price",
                     "--no-closure-check", "--backend", "branch-and-bound",
                     "--strategy", "dfs", "--early-stop-depth", "1"])
        assert code == 0
        output = capsys.readouterr().out
        assert "strategy dfs" in output and "branch-and-bound" in output

    def test_bound_accepts_registered_custom_backend(self, capsys,
                                                     constraint_text_file):
        from repro.solvers.registry import register_backend, resolve_backend

        register_backend("cli-test-backend",
                         lambda model, time_limit=None:
                         resolve_backend("scipy")(model, time_limit),
                         replace=True)
        code = main(["bound", "--constraints", str(constraint_text_file),
                     "--aggregate", "count", "--no-closure-check",
                     "--backend", "cli-test-backend"])
        assert code == 0
        assert "cli-test-backend" in capsys.readouterr().out

    def test_bound_rejects_unknown_backend_listing_names(self, capsys,
                                                         constraint_text_file):
        code = main(["bound", "--constraints", str(constraint_text_file),
                     "--aggregate", "count", "--no-closure-check",
                     "--backend", "simplex-of-doom"])
        assert code == 2
        err = capsys.readouterr().err
        assert "simplex-of-doom" in err and "scipy" in err

    def test_serve_batch_with_cell_budget(self, capsys, constraint_text_file,
                                          query_file):
        code = main(["serve-batch", "--constraints", str(constraint_text_file),
                     "--queries", str(query_file), "--no-closure-check",
                     "--cell-budget", "64"])
        assert code == 0
        assert "batch round 1" in capsys.readouterr().out

    def test_bound_rejects_bad_depth(self, capsys, constraint_text_file):
        code = main(["bound", "--constraints", str(constraint_text_file),
                     "--aggregate", "count", "--no-closure-check",
                     "--early-stop-depth", "0"])
        assert code == 2


class TestCliServeBatch:
    def test_serve_batch_executes_and_reports(self, capsys, constraint_text_file,
                                              query_file):
        code = main(["serve-batch", "--constraints", str(constraint_text_file),
                     "--queries", str(query_file), "--no-closure-check",
                     "--workers", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "session         : constraints v1" in output
        assert "batch round 1" in output
        assert "SUM(price)" in output
        assert "decomposition cache" in output

    def test_serve_batch_repeat_hits_report_cache(self, capsys,
                                                  constraint_text_file,
                                                  query_file):
        code = main(["serve-batch", "--constraints", str(constraint_text_file),
                     "--queries", str(query_file), "--no-closure-check",
                     "--repeat", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "batch round 2" in output
        # Round two answers every query from the report cache: no region
        # groups are executed at all.
        assert "5 queries in 0 region group(s)" in output

    def test_serve_batch_missing_query_file(self, capsys, constraint_text_file):
        code = main(["serve-batch", "--constraints", str(constraint_text_file),
                     "--queries", "/nonexistent/queries.txt"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_batch_rejects_bad_query_line(self, capsys,
                                                constraint_text_file, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("sum price extra tokens\n")
        code = main(["serve-batch", "--constraints", str(constraint_text_file),
                     "--queries", str(bad)])
        assert code == 2
        assert "cannot parse query line" in capsys.readouterr().err

    def test_serve_batch_rejects_zero_repeat(self, capsys, constraint_text_file,
                                             query_file):
        code = main(["serve-batch", "--constraints", str(constraint_text_file),
                     "--queries", str(query_file), "--repeat", "0"])
        assert code == 2


class TestCliSessions:
    def test_sessions_lists_registrations(self, capsys, constraint_text_file,
                                          constraint_json_file):
        code = main(["sessions", str(constraint_text_file),
                     str(constraint_json_file)])
        assert code == 0
        output = capsys.readouterr().out
        assert "fingerprint" in output
        assert "constraints" in output  # the .txt file's stem
        # Both files registered, one line each plus the header.
        assert len(output.strip().splitlines()) == 3

    def test_sessions_same_file_twice_is_one_version(self, capsys,
                                                     constraint_text_file):
        code = main(["sessions", str(constraint_text_file),
                     str(constraint_text_file)])
        assert code == 0
        output = capsys.readouterr().out
        assert len(output.strip().splitlines()) == 2  # header + one session


class TestCliShardingAndAdmission:
    @pytest.fixture
    def chained_constraint_file(self, tmp_path):
        """Overlapping windows — one overlap component (unshardable by
        constraint components), the region splitter's target regime."""
        path = tmp_path / "chained.txt"
        path.write_text(
            "0 <= utc <= 2 => 1.0 <= price <= 10.0, (0, 5)\n"
            "1 <= utc <= 3 => 1.0 <= price <= 20.0, (0, 5)\n"
            "2 <= utc <= 4 => 1.0 <= price <= 30.0, (0, 5)\n"
            "3 <= utc <= 5 => 1.0 <= price <= 40.0, (0, 5)\n"
            "4 <= utc <= 6 => 1.0 <= price <= 50.0, (0, 5)\n")
        return path

    @pytest.fixture
    def short_chain_file(self, tmp_path, chained_constraint_file):
        """The first four windows: 15 worst-case cells, under the gate."""
        path = tmp_path / "short-chain.txt"
        path.write_text("".join(
            chained_constraint_file.read_text().splitlines(keepends=True)[:4]))
        return path

    def test_bound_region_strategy_shards_one_component_set(
            self, capsys, chained_constraint_file):
        code = main(["bound", "--constraints", str(chained_constraint_file),
                     "--aggregate", "sum", "--attribute", "price",
                     "--workers", "2", "--no-closure-check"])
        assert code == 0
        output = capsys.readouterr().out
        assert "region strategy" in output
        assert "region-split cell enumeration" in output

    def test_bound_region_matches_serial_range(self, capsys,
                                               chained_constraint_file):
        def range_line(arguments):
            assert main(arguments) == 0
            return [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("result range")]

        serial = range_line(["bound", "--constraints",
                             str(chained_constraint_file),
                             "--aggregate", "sum", "--attribute", "price",
                             "--no-closure-check"])
        region = range_line(["bound", "--constraints",
                             str(chained_constraint_file),
                             "--aggregate", "sum", "--attribute", "price",
                             "--workers", "2", "--no-closure-check"])
        assert serial == region

    def test_bound_component_strategy_reports_unsplittable(
            self, capsys, short_chain_file):
        code = main(["bound", "--constraints", str(short_chain_file),
                     "--aggregate", "count",
                     "--workers", "2", "--no-closure-check"])
        assert code == 0
        output = capsys.readouterr().out
        assert "component strategy, 1 shard(s)" in output
        assert "unsplittable; solved serially" in output

    def test_bound_workers_with_cache_dir_runs_on_a_process_pool(
            self, capsys, tmp_path, chained_constraint_file):
        code = main(["bound", "--constraints", str(chained_constraint_file),
                     "--aggregate", "sum", "--attribute", "price",
                     "--workers", "2", "--no-closure-check",
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        output = capsys.readouterr().out
        assert "over 2 worker(s) on the service process pool" in output
        assert "region-split cell enumeration" in output

    def test_serve_batch_max_cost_rejects_before_solving(
            self, capsys, chained_constraint_file, query_file):
        code = main(["serve-batch", "--constraints",
                     str(chained_constraint_file),
                     "--queries", str(query_file), "--no-closure-check",
                     "--max-cost", "0.5"])
        assert code == 2
        captured = capsys.readouterr()
        assert "admission       : per-query budget 0.5" in captured.out
        assert "rejected" in captured.err and "budget" in captured.err

    def test_serve_batch_max_cost_admits_affordable_batches(
            self, capsys, chained_constraint_file, query_file):
        code = main(["serve-batch", "--constraints",
                     str(chained_constraint_file),
                     "--queries", str(query_file), "--no-closure-check",
                     "--max-cost", "1000000"])
        assert code == 0
        output = capsys.readouterr().out
        assert "batch round 1" in output
        assert "admission control" in output

    def test_serve_batch_rejects_non_positive_max_cost(
            self, capsys, chained_constraint_file, query_file):
        code = main(["serve-batch", "--constraints",
                     str(chained_constraint_file),
                     "--queries", str(query_file), "--no-closure-check",
                     "--max-cost", "0"])
        assert code == 2
        assert "--max-cost" in capsys.readouterr().err


class TestCliObservability:
    def test_stats_empty_registry_renders_cleanly(self, capsys):
        from repro.obs.metrics import MetricsRegistry, set_registry

        previous = set_registry(MetricsRegistry())
        try:
            assert main(["stats"]) == 0
            assert "(no metrics recorded)" in capsys.readouterr().out
        finally:
            set_registry(previous)

    def test_stats_json_snapshot(self, capsys):
        import json as _json

        from repro.obs.metrics import MetricsRegistry, set_registry

        registry = MetricsRegistry()
        registry.counter("demo.events").inc(4)
        previous = set_registry(registry)
        try:
            assert main(["stats", "--json"]) == 0
            payload = _json.loads(capsys.readouterr().out)
            assert payload["counters"]["demo.events"] == 4.0
        finally:
            set_registry(previous)

    def test_bound_profile_prints_span_tree(self, capsys, constraint_text_file):
        code = main(["bound", "--constraints", str(constraint_text_file),
                     "--aggregate", "sum", "--attribute", "price",
                     "--no-closure-check", "--profile"])
        assert code == 0
        output = capsys.readouterr().out
        assert "profile (EXPLAIN ANALYZE):" in output
        assert "solve.serial" in output
        assert "solver calls" in output

    def test_bound_profile_json_export(self, capsys, tmp_path,
                                       constraint_text_file):
        import json as _json

        target = tmp_path / "profile.json"
        code = main(["bound", "--constraints", str(constraint_text_file),
                     "--aggregate", "count", "--no-closure-check",
                     "--profile-json", str(target)])
        assert code == 0
        payload = _json.loads(target.read_text())
        assert payload["schema"] == "repro-query-profile/1"
        assert payload["tree"]["name"] == "query"
        # --profile-json alone exports without printing the tree.
        assert "EXPLAIN ANALYZE" not in capsys.readouterr().out

    def test_serve_batch_profile_covers_final_round(self, capsys,
                                                    constraint_text_file,
                                                    query_file):
        code = main(["serve-batch", "--constraints",
                     str(constraint_text_file),
                     "--queries", str(query_file), "--no-closure-check",
                     "--repeat", "2", "--profile"])
        assert code == 0
        output = capsys.readouterr().out
        assert "batch round 2" in output
        assert "profile (EXPLAIN ANALYZE):" in output

    def test_bench_report_merges_trajectory_files(self, capsys, tmp_path,
                                                  monkeypatch):
        import json as _json

        (tmp_path / "BENCH_PR1.json").write_text(_json.dumps({
            "schema": "repro-bench-trajectory/1",
            "recorded_at": "2026-01-01T00:00:00+0000",
            "machine": {"cpu_count": 4},
            "records": [{"benchmark": "test_bench_demo",
                         "warm_seconds": 0.5, "speedup": 2.0}],
        }))
        code = main(["bench-report", "--directory", str(tmp_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "PR1" in output
        assert "test_bench_demo" in output
        assert "speedup=2" in output

    def test_bench_report_empty_directory(self, capsys, tmp_path):
        code = main(["bench-report", "--directory", str(tmp_path)])
        assert code == 0
        assert "no BENCH_PR*.json" in capsys.readouterr().out
