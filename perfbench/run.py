"""The repo benchmark: one closed-loop client driving ``ContingencyService``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-chain --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
runs a fixed number of operations twice from the same starting state, once
untraced and once with the outside-in ledger installed (see ``ledger.py``),
and reports the per-layer metrics plus the tracing overhead.  Every run
re-answers a fixed sample of queries with a fresh serial analyzer and
requires bit-identical bounds.  The last line of standard output is one
JSON object; everything above it is a human-readable report.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Environment knobs that change the program being measured.
REFUSED_ENV = ("REPRO_TRACE", "REPRO_FAULTS", "REPRO_POOL",
               "REPRO_SHARD_STRATEGY", "REPRO_STEAL", "REPRO_CACHE_DIR")
REFUSED_PREFIXES = ("REPRO_SOLVE_BATCH",)

END_TO_END = {
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "throughput_qps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "query_samples": "count",
    "append_p50_ms": "ms",
    "failed_frac": "frac",
    "service.self_ms": "ms",
    "service.fingerprint_ms": "ms",
    "service.report_cache.hit_rate": "frac",
    "service.decomposition_cache.hit_rate": "frac",
    "service.program_cache.hit_rate": "frac",
    "service.cache.evictions": "count",
    "service.append.migrated": "count",
    "service.append.invalidated": "count",
    "store.reads": "count",
    "store.hits": "count",
    "store.writes": "count",
    "store.errors": "count",
    "store.read_ms": "ms",
    "store.write_ms": "ms",
    "relational.scan_calls": "count",
    "relational.scan_ms": "ms",
    "relational.rows_examined_per_query": "rows",
    "plan.calls": "count",
    "plan.self_ms": "ms",
    "plan.compile_calls": "count",
    "plan.compile_self_ms": "ms",
    "cells.decompose_calls": "count",
    "cells.self_ms": "ms",
    "cells.cells_evaluated": "count",
    "cells.solver_calls": "count",
    "cells.rewrites_saved": "count",
    "sat.calls": "count",
    "sat.self_ms": "ms",
    "sat.us_per_call": "us",
    "solve.calls": "count",
    "solve.self_ms": "ms",
    "milp.calls": "count",
    "milp.self_ms": "ms",
    "milp.calls_per_avg_query": "count",
    "pool.rounds": "count",
    "pool.tasks_dispatched": "count",
    "pool.cells_per_task": "count",
    "pool.warm_hit_rate": "frac",
    "pool.tasks_retried": "count",
    "pool.worker_restarts": "count",
    "pool.wait_ms": "ms",
    "pool.self_ms": "ms",
    "pool.component_calls": "count",
    "pool.region_calls": "count",
    "pool.sat_redundancy": "ratio",
    "ledger.wall_ms": "ms",
    "ledger.unattributed_ms": "ms",
    "trace.overhead_frac": "frac",
}

#: Set-up repeats per run (at least the first, at most the second, and no
#: more once a second has been spent); the median is ``setup_s``.
SETUP_REPEATS = (5, 21)
SETUP_BUDGET_S = 1.0


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources or refused env)."""


def check_environment() -> None:
    refused = [name for name in os.environ
               if name in REFUSED_ENV or name.startswith(REFUSED_PREFIXES)]
    if refused:
        raise BenchmarkError(
            f"refusing to run with {', '.join(sorted(refused))} set: each "
            f"changes the program being measured")
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no package sources under {source}")
    sys.path.insert(0, str(source))


def environment_stamp(seed: int) -> dict[str, object]:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": sha}


# --------------------------------------------------------------------- #
# One pass of the closed loop
# --------------------------------------------------------------------- #
@dataclass
class PassResult:
    wall_s: float = 0.0
    query_ms: list = field(default_factory=list)
    append_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    #: (session snapshot, query, report) for every checked query.
    checks: list = field(default_factory=list)


def run_pass(service, operations, busy_limit_s: float | None = None
             ) -> PassResult:
    """Send ``operations`` one at a time, each after the previous answer.

    The clock runs only while the client waits on the service, so drawing
    the next input never counts.  With ``busy_limit_s`` the pass stops once
    that much service time has been spent.
    """
    from workloads import Append, Query, Register

    result = PassResult()
    clock = time.perf_counter
    for operation in operations:
        if busy_limit_s is not None and result.wall_s >= busy_limit_s:
            break
        result.attempted += 1
        begin = clock()
        try:
            if isinstance(operation, Query):
                report = service.analyze(operation.session, operation.query)
                elapsed = clock() - begin
                result.query_ms.append(elapsed * 1000.0)
                if operation.checked:
                    session = service.session(operation.session)
                    snapshot = Register(session.name, session.pcset,
                                        session.observed, session.options)
                    result.checks.append((snapshot, operation.query, report))
            elif isinstance(operation, Append):
                service.append_rows(operation.session, operation.rows)
                elapsed = clock() - begin
                result.append_ms.append(elapsed * 1000.0)
            else:
                service.register(operation.session, operation.pcset,
                                 operation.observed, operation.options)
                elapsed = clock() - begin
        except Exception as error:  # the loop must keep serving
            elapsed = clock() - begin
            result.failed += 1
            result.errors.append(f"{type(error).__name__}: {error}")
        result.wall_s += elapsed
    return result


def check_answers(result: PassResult) -> int:
    """Re-answer every checked query serially; returns the mismatch count."""
    from workloads import serial_answer

    mismatches = 0
    for snapshot, query, report in result.checks:
        expected = serial_answer(snapshot, query)
        if (_endpoints(report) != _endpoints(expected)):
            mismatches += 1
            result.errors.append(
                f"answer mismatch for {query.describe()}: "
                f"{_endpoints(report)} != {_endpoints(expected)}")
    return mismatches


def _endpoints(report) -> tuple:
    return (report.result_range.lower, report.result_range.upper,
            report.missing_range.lower, report.missing_range.upper,
            report.observed_value)


# --------------------------------------------------------------------- #
# Set-up: store warm-up, service construction
# --------------------------------------------------------------------- #
class Harness:
    """Builds services for one workload over one private store directory."""

    def __init__(self, workload, work_dir: Path):
        self.workload = workload
        self.store_dir = work_dir / "store"
        self.snapshot_dir = work_dir / "snapshot"
        self.worker_pids: set[int] = set()

    def warm_store(self) -> None:
        """Run the workload's warm-up on a first instance, then snapshot
        the store so every timed pass starts from the same bytes."""
        if not self.workload.uses_store:
            return
        service = self.build()
        try:
            run_pass(service, self.workload.warmup())
        finally:
            service.shutdown()
        shutil.copytree(self.store_dir, self.snapshot_dir)

    def restore_store(self) -> None:
        if self.workload.uses_store:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            shutil.copytree(self.snapshot_dir, self.store_dir)

    def build(self, sessions=None):
        """Construct the service, register standing sessions, start the pool."""
        if sessions is None:
            sessions = self.workload.standing_sessions()
        service = self.workload.make_service(str(self.store_dir))
        for register in sessions:
            service.register(register.session, register.pcset,
                             register.observed, register.options)
        if self.workload.pool_mode == "process":
            service.worker_pool.start()
            self.worker_pids.update(service.worker_pool.worker_pids())
        return service

    def timed_setups(self):
        """Build services repeatedly, returning (seconds list, last one)."""
        least, most = SETUP_REPEATS
        seconds = []
        service = None
        while len(seconds) < most and (len(seconds) < least
                                       or sum(seconds) < SETUP_BUDGET_S):
            if service is not None:
                service.shutdown()
            sessions = self.workload.standing_sessions()
            begin = time.perf_counter()
            service = self.build(sessions)
            seconds.append(time.perf_counter() - begin)
        return seconds, service


def live_workers(pids) -> list[int]:
    alive = []
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        except PermissionError:
            pass
        alive.append(pid)
    return alive


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def end_to_end_metrics(result: PassResult, setup_seconds) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "query_p50_ms": percentile(result.query_ms, 50),
        "query_p90_ms": percentile(result.query_ms, 90),
        "throughput_qps": len(result.query_ms) / result.wall_s,
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer_metrics(ledger, traced: PassResult,
                      untraced: PassResult, service_stats,
                      serial_calls: int) -> dict:
    ms = 1e-6
    self_ns = ledger.self_ns
    calls = ledger.calls
    counts = ledger.counts
    queries = max(1, len(traced.query_ms))
    caches = (service_stats.report_cache, service_stats.decomposition_cache,
              service_stats.program_cache)
    store = service_stats.store or {}
    pool = service_stats.worker_pool or {}
    avg_queries = counts["queries.AVG"]
    return {
        "query_samples": len(untraced.query_ms),
        "append_p50_ms": percentile(untraced.append_ms, 50),
        "failed_frac": untraced.failed / max(1, untraced.attempted),
        "service.self_ms": self_ns["service"] * ms,
        "service.fingerprint_ms": self_ns["service.fingerprint"] * ms,
        "service.report_cache.hit_rate": service_stats.report_cache.hit_rate,
        "service.decomposition_cache.hit_rate":
            service_stats.decomposition_cache.hit_rate,
        "service.program_cache.hit_rate": service_stats.program_cache.hit_rate,
        "service.cache.evictions": sum(cache.evictions for cache in caches),
        "service.append.migrated": service_stats.delta_migrations,
        "service.append.invalidated": service_stats.delta_invalidations,
        "store.reads": store.get("reads", 0),
        "store.hits": store.get("hits", 0),
        "store.writes": store.get("writes", 0),
        "store.errors": store.get("errors", 0),
        "store.read_ms": self_ns["store.read"] * ms,
        "store.write_ms": self_ns["store.write"] * ms,
        "relational.scan_calls": calls["relational"],
        "relational.scan_ms": self_ns["relational"] * ms,
        "relational.rows_examined_per_query":
            counts["relational.rows_examined"] / queries,
        "plan.calls": calls["plan"],
        "plan.self_ms": self_ns["plan"] * ms,
        "plan.compile_calls": calls["plan.compile"],
        "plan.compile_self_ms": self_ns["plan.compile"] * ms,
        "cells.decompose_calls": calls["cells"],
        "cells.self_ms": self_ns["cells"] * ms,
        "cells.cells_evaluated": counts["cells.cells_evaluated"],
        "cells.solver_calls": counts["cells.solver_calls"],
        "cells.rewrites_saved": counts["cells.rewrites_saved"],
        "sat.calls": calls["sat"],
        "sat.self_ms": self_ns["sat"] * ms,
        "sat.us_per_call": (self_ns["sat"] / 1000.0 / calls["sat"]
                            if calls["sat"] else 0.0),
        "solve.calls": calls["solve"],
        "solve.self_ms": self_ns["solve"] * ms,
        "milp.calls": calls["milp"],
        "milp.self_ms": self_ns["milp"] * ms,
        "milp.calls_per_avg_query": (counts["milp.avg_calls"] / avg_queries
                                     if avg_queries else 0.0),
        "pool.rounds": int(pool.get("rounds", 0)),
        "pool.tasks_dispatched": int(pool.get("tasks_dispatched", 0)),
        "pool.cells_per_task": float(pool.get("cells_per_task", 0.0)),
        "pool.warm_hit_rate": float(pool.get("warm_hit_rate", 0.0)),
        "pool.tasks_retried": int(pool.get("tasks_retried", 0)),
        "pool.worker_restarts": int(pool.get("worker_restarts", 0)),
        "pool.wait_ms": ledger.outer_ns["pool"] * ms,
        "pool.self_ms": self_ns["pool"] * ms,
        "pool.component_calls": (ledger.entry_calls["pool.solve_programs"]
                                 + ledger.entry_calls["pool.avg_probes"]),
        "pool.region_calls": ledger.entry_calls["pool.decompose_shards"],
        "pool.sat_redundancy": (counts["pool.shard_solver_calls"]
                                / serial_calls if serial_calls else 0.0),
        "ledger.wall_ms": traced.wall_s * 1000.0,
        "ledger.unattributed_ms": traced.wall_s * 1000.0 - ledger.root_ns * ms,
        "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1.0,
    }


def serial_solver_calls(region_sessions) -> int:
    """SAT calls a serial enumeration makes for the region-sharded sessions
    (the denominator of ``pool.sat_redundancy``)."""
    from dataclasses import replace

    from repro.core.bounds import PCBoundSolver

    total = 0
    for register, region in region_sessions:
        solver = PCBoundSolver(register.pcset,
                               replace(register.options, solve_workers=None))
        total += solver.decompose(region).statistics.solver_calls
    return total


# --------------------------------------------------------------------- #
# The two kinds of run
# --------------------------------------------------------------------- #
def untraced_run(harness: Harness, seconds: float) -> dict:
    workload = harness.workload
    problems = workload.validate()
    harness.warm_store()
    setup_seconds, service = harness.timed_setups()
    try:
        result = run_pass(service, workload.operations(),
                          busy_limit_s=seconds)
    finally:
        service.shutdown()
    mismatches = check_answers(result)
    return {"result": result, "mismatches": mismatches, "problems": problems,
            "metrics": end_to_end_metrics(result, setup_seconds)}


def traced_run(harness: Harness, seconds: float) -> dict:
    from ledger import Ledger, Tracing

    workload = harness.workload
    operations = list(itertools.islice(workload.operations(),
                                       workload.trace_ops(seconds)))
    problems = workload.validate()
    harness.warm_store()

    # A throwaway pass over the first tenth pays the process's first-call
    # costs, so neither measured pass carries them.
    untraced = None
    for prefix in (operations[:max(1, len(operations) // 10)], operations):
        harness.restore_store()
        service = harness.build()
        try:
            untraced = run_pass(service, prefix)
        finally:
            service.shutdown()

    harness.restore_store()
    ledger = Ledger()
    with Tracing(ledger):
        service = harness.build()
        try:
            ledger.reset()
            traced = run_pass(service, operations)
            stats = service.statistics()
        finally:
            service.shutdown()
    mismatches = check_answers(traced)
    region_sessions = list(region_sharded_sessions(operations,
                                                   ledger.region_sharded))
    metrics = per_layer_metrics(ledger, traced, untraced, stats,
                                serial_solver_calls(region_sessions))
    if sum(ledger.self_ns.values()) != ledger.root_ns:
        problems.append("layer self times do not sum to root durations")
    if metrics["ledger.unattributed_ms"] < 0:
        problems.append("root durations exceed the timed wall")
    return {"result": traced, "mismatches": mismatches, "metrics": metrics,
            "problems": problems}


def region_sharded_sessions(operations, names):
    """(register, region) of the sessions in ``names``, first query each."""
    from workloads import Query, Register

    registers = {operation.session: operation for operation in operations
                 if isinstance(operation, Register)}
    seen = set()
    for operation in operations:
        if (isinstance(operation, Query) and operation.session in names
                and operation.session not in seen):
            seen.add(operation.session)
            yield registers[operation.session], operation.query.region


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-chain", "dashboard-100k",
                                 "fanout-2proc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (smoke tests use < 1)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        check_environment()
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import make_workload

    stamp = environment_stamp(args.seed)
    workload = make_workload(args.workload, args.seed, args.scale)
    work_dir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    harness = Harness(workload, work_dir)
    try:
        if args.trace:
            outcome = traced_run(harness, args.seconds)
            units = PER_LAYER
        else:
            outcome = untraced_run(harness, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    leftover = live_workers(harness.worker_pids)
    leftover += [child.pid for child in multiprocessing.active_children()]

    result: PassResult = outcome["result"]
    failed = result.failed + outcome["mismatches"]
    problems = list(result.errors) + outcome["problems"]
    if leftover:
        problems.append(f"pool workers still alive: {sorted(set(leftover))}")
    checked = len(result.checks)
    if not checked:
        problems.append("the answer check compared no queries")
    correct = failed == 0 and not problems

    print(f"workload {args.workload} ({'traced' if args.trace else 'untraced'}"
          f", {args.seconds:g} s)")
    print("environment " + " ".join(f"{key}={value}"
                                    for key, value in stamp.items()))
    print(f"pool workers started {len(harness.worker_pids)}, "
          f"alive after the run {len(set(leftover))}")
    print(f"operations {result.attempted} attempted, {failed} failed; "
          f"{len(result.query_ms)} queries timed; answer check compared "
          f"{checked} queries, {outcome['mismatches']} mismatched")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    metrics = outcome["metrics"]
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
