"""Command-line interface.

Two groups of commands:

* ``repro run <artifact>`` — regenerate one of the paper's tables/figures
  (``figure1`` … ``figure12``, ``table1``, ``table2``) at a configurable
  scale and print its text table.
* ``repro bound`` — load a predicate-constraint file (JSON produced by
  :func:`repro.core.io.save_pcset` or the one-line text syntax) and bound an
  aggregate query, optionally against an observed CSV relation.
* ``repro serve-batch`` — register a constraint file as a service session
  and execute a whole query file concurrently through the caching
  :class:`~repro.service.ContingencyService` (repeat the batch to watch the
  caches warm up).
* ``repro sessions`` — register one or more constraint files and print the
  resulting session registry (names, versions, content fingerprints).
* ``repro stats`` — print the process-wide metrics registry snapshot
  (works on a fresh process: an idle registry renders as empty, nothing is
  started as a side effect).
* ``repro bench-report`` — merge the per-PR ``benchmarks/BENCH_PR*.json``
  trajectory files into one cross-PR report.

``bound`` and ``serve-batch`` take ``--profile`` (and ``--profile-json
PATH``) to print an EXPLAIN ANALYZE span-tree profile of the query or the
final batch round.

Run ``python -m repro --help`` for the full option listing.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Callable, Sequence

from . import experiments
from .core.engine import ContingencyQuery, PCAnalyzer
from .core.io import load_pcset, parse_constraints
from .core.predicates import Predicate
from .exceptions import ReproError
from .relational.aggregates import AggregateFunction
from .relational.csvio import read_csv

__all__ = ["main", "build_parser"]


_ARTIFACTS: dict[str, tuple[Callable, Callable]] = {
    "figure1": (experiments.Figure1Config, experiments.run_figure1),
    "figure3": (experiments.Figure3Config, experiments.run_figure3),
    "figure4": (experiments.Figure4Config, experiments.run_figure4),
    "figure5": (experiments.Figure5Config, experiments.run_figure5),
    "figure6": (experiments.Figure6Config, experiments.run_figure6),
    "figure7": (experiments.Figure7Config, experiments.run_figure7),
    "figure8": (experiments.Figure8Config, experiments.run_figure8),
    "figure9": (experiments.Figure9Config, experiments.run_figure9),
    "figure10": (experiments.Figure10Config, experiments.run_figure10),
    "figure11": (experiments.Figure11Config, experiments.run_figure11),
    "figure12": (experiments.Figure12Config, experiments.run_figure12),
    "table1": (experiments.Table1Config, experiments.run_table1),
    "table2": (experiments.Table2Config, experiments.run_table2),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Predicate-constraint contingency analysis (SIGMOD 2020 reproduction)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list the reproducible paper artifacts")
    list_parser.set_defaults(handler=_command_list)

    run_parser = subparsers.add_parser(
        "run", help="regenerate one paper table/figure and print it")
    run_parser.add_argument("artifact", choices=sorted(_ARTIFACTS))
    run_parser.add_argument("--num-rows", type=int, default=None,
                            help="dataset size (experiment-specific default)")
    run_parser.add_argument("--num-constraints", type=int, default=None,
                            help="predicate-constraint budget")
    run_parser.add_argument("--num-queries", type=int, default=None,
                            help="random query workload size")
    run_parser.set_defaults(handler=_command_run)

    bound_parser = subparsers.add_parser(
        "bound", help="bound an aggregate query under a constraint file")
    bound_parser.add_argument("--constraints", required=True,
                              help="path to a .json or .txt constraint file")
    bound_parser.add_argument("--aggregate", required=True,
                              choices=["count", "sum", "avg", "min", "max"])
    bound_parser.add_argument("--attribute", default=None,
                              help="aggregated attribute (not used for count)")
    bound_parser.add_argument("--where", default=None,
                              help="optional box predicate, e.g. \"0 <= utc <= 24 AND "
                                   "branch = 'Chicago'\"")
    bound_parser.add_argument("--observed", default=None,
                              help="optional CSV file with the observed partition "
                                   "(written by repro.relational.write_csv)")
    bound_parser.add_argument("--no-closure-check", action="store_true",
                              help="skip the closed-world check (assume closure)")
    bound_parser.add_argument("--workers", type=int, default=None,
                              help="fan the solve out over this many worker "
                                   "processes when the plan shards: by "
                                   "independent constraint components, or by "
                                   "query region for a one-component set big "
                                   "enough to pay for it (default: serial); "
                                   "the process pool is a persistent shared "
                                   "one, or the service's own under a cache "
                                   "directory")
    bound_parser.add_argument("--cache-dir", default=None, metavar="DIR",
                              help="persistent cache directory: route the "
                                   "query through a service whose "
                                   "decomposition/range caches write "
                                   "through to a sqlite store in DIR, so a "
                                   "repeated invocation is served warm "
                                   "(default: the REPRO_CACHE_DIR "
                                   "environment toggle)")
    _add_profile_arguments(bound_parser)
    _add_solver_arguments(bound_parser)
    bound_parser.set_defaults(handler=_command_bound)

    serve_parser = subparsers.add_parser(
        "serve-batch",
        help="execute a query file against a cached service session")
    serve_parser.add_argument("--constraints", required=True,
                              help="path to a .json or .txt constraint file")
    serve_parser.add_argument("--queries", required=True,
                              help="query file: one '<agg> [attr] [WHERE ...]' "
                                   "per line, e.g. 'sum price WHERE 11 <= utc <= 13'")
    serve_parser.add_argument("--observed", default=None,
                              help="optional CSV file with the observed partition")
    serve_parser.add_argument("--workers", type=int, default=None,
                              help="run batches on this many worker "
                                   "processes (default: inline)")
    serve_parser.add_argument("--repeat", type=int, default=1,
                              help="run the batch this many times (>1 shows "
                                   "the effect of warm caches)")
    serve_parser.add_argument("--max-cost", type=float, default=None,
                              metavar="UNITS",
                              help="program-aware admission budget: queries "
                                   "priced above UNITS (from their plan: "
                                   "constraints, estimated cells, shard "
                                   "layout, program warmth) are rejected "
                                   "before any solve is dispatched")
    serve_parser.add_argument("--no-closure-check", action="store_true",
                              help="skip the closed-world check (assume closure)")
    serve_parser.add_argument("--cache-dir", default=None, metavar="DIR",
                              help="persistent cache directory (sqlite "
                                   "write-through tier for decompositions "
                                   "and missing-row ranges; default: the "
                                   "REPRO_CACHE_DIR environment toggle)")
    _add_profile_arguments(serve_parser)
    _add_solver_arguments(serve_parser)
    serve_parser.set_defaults(handler=_command_serve_batch)

    sessions_parser = subparsers.add_parser(
        "sessions",
        help="register constraint files and print the session registry")
    sessions_parser.add_argument("constraints", nargs="+",
                                 help="one or more .json/.txt constraint files")
    sessions_parser.add_argument("--observed", default=None,
                                 help="optional CSV observed partition shared "
                                      "by every session")
    sessions_parser.set_defaults(handler=_command_sessions)

    stats_parser = subparsers.add_parser(
        "stats",
        help="print the process-wide metrics registry snapshot")
    stats_parser.add_argument("--json", action="store_true",
                              help="emit the snapshot as JSON instead of text")
    stats_parser.set_defaults(handler=_command_stats)

    bench_parser = subparsers.add_parser(
        "bench-report",
        help="merge benchmarks/BENCH_PR*.json into one cross-PR report")
    bench_parser.add_argument("--directory", default="benchmarks",
                              help="directory holding the BENCH_PR*.json "
                                   "trajectory files (default: benchmarks)")
    bench_parser.add_argument("--json", action="store_true",
                              help="emit the merged report as JSON")
    bench_parser.set_defaults(handler=_command_bench_report)

    return parser


def _add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    """The EXPLAIN ANALYZE flags shared by ``bound`` and ``serve-batch``."""
    group = parser.add_argument_group("profiling")
    group.add_argument("--profile", action="store_true",
                       help="record and print the query's span tree "
                            "(EXPLAIN ANALYZE); forces tracing for this "
                            "run even without REPRO_TRACE=1")
    group.add_argument("--profile-json", default=None, metavar="PATH",
                       help="also export the profile as JSON "
                            "(schema repro-query-profile/1)")


def _add_solver_arguments(parser: argparse.ArgumentParser) -> None:
    """The plan-pipeline knobs shared by ``bound`` and ``serve-batch``."""
    group = parser.add_argument_group("solver options")
    group.add_argument("--backend", default=None, metavar="NAME",
                       help="MILP backend for the bound programs: scipy "
                            "(HiGHS, the default), branch-and-bound, "
                            "relaxation, or any name added via "
                            "repro.solvers.register_backend")
    group.add_argument("--verify-backend", default=None, metavar="NAME",
                       help="cross-check every range on this second MILP "
                            "backend and fail loudly when the two backends "
                            "return disjoint ranges")
    group.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget per query; an expired query "
                            "raises QueryDeadlineError instead of running "
                            "to completion (default: no deadline)")
    group.add_argument("--degrade", default=None, choices=["worst-case"],
                       help="on shard timeout or repeated shard failure, "
                            "fall back to the shard's precomputed "
                            "worst-case range (sound superset) instead of "
                            "failing the query; degraded shards are stamped "
                            "on the result statistics")


def _solver_options(args: argparse.Namespace):
    """Build :class:`BoundOptions` from the shared solver flags."""
    from .core.bounds import BoundOptions

    options = BoundOptions(check_closure=not args.no_closure_check)
    if args.backend is not None:
        options.milp_backend = _validated_backend(args.backend)
    if args.verify_backend is not None:
        options.verify_backend = _validated_backend(args.verify_backend)
    if args.deadline is not None:
        if args.deadline <= 0:
            raise ReproError("--deadline must be positive")
        options.deadline_seconds = args.deadline
    if args.degrade is not None:
        options.degrade = args.degrade
    return options


def _pool_mode(workers: int | None) -> str | None:
    """The service pool mode for ``--workers``: process workers above one,
    otherwise the service default (inline unless ``REPRO_POOL=1``)."""
    return "process" if workers is not None and workers > 1 else None


def _validated_backend(name: str) -> str:
    """Check ``name`` against the live backend registry and return it."""
    # Importing the package (not just .registry) guarantees the built-in
    # backends have registered themselves; validating against the registry
    # (not a hard-coded list) keeps extension backends addressable.
    from .solvers import available_backends
    from .solvers.registry import has_backend

    if not has_backend(name):
        raise ReproError(
            f"unknown MILP backend {name!r}; available: "
            + ", ".join(available_backends()))
    return name


# --------------------------------------------------------------------- #
# Command handlers
# --------------------------------------------------------------------- #
def _command_list(_args: argparse.Namespace) -> int:
    print("Reproducible paper artifacts:")
    for name in sorted(_ARTIFACTS):
        print(f"  {name}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    config_type, runner = _ARTIFACTS[args.artifact]
    overrides = {}
    for field_name, value in (("num_rows", args.num_rows),
                              ("num_constraints", args.num_constraints),
                              ("num_queries", args.num_queries)):
        if value is None:
            continue
        if field_name in config_type.__dataclass_fields__:
            overrides[field_name] = value
        else:
            print(f"note: {args.artifact} does not take --{field_name.replace('_', '-')}; "
                  "ignoring", file=sys.stderr)
    config = config_type(**overrides)
    result = runner(config)
    print(result.to_text())
    return 0


def _load_constraints(path_text: str):
    path = Path(path_text)
    if not path.exists():
        raise ReproError(f"constraint file {path} does not exist")
    if path.suffix.lower() == ".json":
        return load_pcset(path)
    return parse_constraints(path.read_text().splitlines())


def _command_bound(args: argparse.Namespace) -> int:
    pcset = _load_constraints(args.constraints)
    observed = read_csv(args.observed) if args.observed else None

    aggregate = AggregateFunction.parse(args.aggregate)
    region: Predicate | None = None
    if args.where:
        from .core.io import _parse_predicate  # shared with the text syntax

        region = _parse_predicate(args.where)
    query = ContingencyQuery(aggregate,
                             None if aggregate is AggregateFunction.COUNT
                             else args.attribute,
                             region)

    options = _solver_options(args)
    if args.workers is not None:
        if args.workers < 1:
            raise ReproError("--workers must be at least 1")
        options.solve_workers = args.workers
    from .service import ContingencyService, default_cache_dir

    service = None
    cache_dir = args.cache_dir or default_cache_dir()
    if cache_dir:
        # Route through a service so the persistent tier backs the caches:
        # a repeated invocation with the same cache directory answers from
        # the store without recomputing (warm restart).
        service = ContingencyService(max_workers=args.workers,
                                     pool_mode=_pool_mode(args.workers),
                                     cache_dir=cache_dir)
        session_name = Path(args.constraints).stem
        service.register(session_name, pcset, observed=observed,
                         options=options)
        analyzer = service.session(session_name).analyzer
        report, profile = _maybe_profiled(
            args, "query", lambda: service.analyze(session_name, query))
    else:
        analyzer = PCAnalyzer(pcset, observed=observed, options=options)
        report, profile = _maybe_profiled(args, "query",
                                          lambda: analyzer.analyze(query))
    # A cached answer compiles nothing, so build the plan (without
    # compiling it) just to print it.
    plan = analyzer.plan_for(query)
    print(f"query           : {query.describe()}")
    print(f"constraints     : {len(pcset)} from {args.constraints}")
    print(f"plan            : {plan.num_constraints} constraint(s), "
          f"backend {plan.milp_backend}")
    for note in plan.trace:
        print(f"                  - {note}")
    if options.solve_workers is not None and options.solve_workers > 1:
        # Every aggregate parallelises now: COUNT/SUM/MIN/MAX merge shard
        # ranges, AVG runs the cross-shard Dinkelbach search — and region
        # sharding fans the cell enumeration out for one-component sets.
        sharded = analyzer.solver.sharded_plan(query.region)
        if sharded.strategy == "region":
            flavour = "region-split cell enumeration"
        elif query.aggregate is AggregateFunction.AVG:
            flavour = "cross-shard Dinkelbach search"
        else:
            flavour = "merged shard solves"
        # Report the pool the solve actually borrowed: the service's or
        # the shared one.
        pool = analyzer.solver.borrow_pool(options.solve_workers)
        print(f"sharding        : {sharded.strategy} strategy, "
              f"{len(sharded)} shard(s) over "
              f"{options.solve_workers} worker(s) on the {pool.name} "
              f"{pool.mode} pool"
              + (f" ({flavour})" if sharded.is_sharded
                 else " (unsplittable; solved serially)"))
    if options.verify_backend is not None:
        print(f"verification    : cross-backend against "
              f"{options.verify_backend}")
    if observed is not None:
        print(f"observed rows   : {observed.num_rows} "
              f"(value {report.observed_value})")
    print(f"result range    : [{report.lower}, {report.upper}]")
    print(f"missing-only    : [{report.missing_range.lower}, "
          f"{report.missing_range.upper}]")
    print(f"closed world    : {report.missing_range.closed}")
    print(f"solve time      : {report.elapsed_seconds * 1000:.1f} ms")
    if service is not None:
        store = service.statistics().store or {}
        print(f"persistent store: {int(store.get('reads', 0))} read(s) / "
              f"{int(store.get('hits', 0))} hit(s) / "
              f"{int(store.get('writes', 0))} write(s) in {cache_dir}")
        service.shutdown()
    _print_profile(args, profile)
    return 0


def _parse_query_line(text: str) -> ContingencyQuery:
    """Parse one ``<aggregate> [attribute] [WHERE <predicate>]`` line."""
    from .core.io import _parse_predicate  # shared with the constraint syntax

    parts = re.split(r"\bWHERE\b", text, maxsplit=1, flags=re.IGNORECASE)
    region = _parse_predicate(parts[1]) if len(parts) > 1 else None
    tokens = parts[0].split()
    if not tokens or len(tokens) > 2:
        raise ReproError(
            f"cannot parse query line {text!r}: expected "
            "'<aggregate> [attribute] [WHERE <predicate>]'")
    aggregate = AggregateFunction.parse(tokens[0])
    attribute = tokens[1] if len(tokens) > 1 else None
    return ContingencyQuery(aggregate, attribute, region)


def _load_queries(path_text: str) -> list[ContingencyQuery]:
    path = Path(path_text)
    if not path.exists():
        raise ReproError(f"query file {path} does not exist")
    queries = []
    for line in path.read_text().splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        queries.append(_parse_query_line(stripped))
    if not queries:
        raise ReproError(f"query file {path} contains no queries")
    return queries


def _command_serve_batch(args: argparse.Namespace) -> int:
    from .service import ContingencyService

    if args.repeat < 1:
        raise ReproError("--repeat must be at least 1")
    if args.workers is not None and args.workers < 1:
        raise ReproError("--workers must be at least 1")
    if args.max_cost is not None and args.max_cost <= 0:
        raise ReproError("--max-cost must be positive")
    pcset = _load_constraints(args.constraints)
    queries = _load_queries(args.queries)
    observed = read_csv(args.observed) if args.observed else None
    options = _solver_options(args)

    service = ContingencyService(max_workers=args.workers,
                                 pool_mode=_pool_mode(args.workers),
                                 max_query_cost=args.max_cost,
                                 cache_dir=args.cache_dir)
    session_name = Path(args.constraints).stem
    session = service.register(session_name, pcset, observed=observed,
                               options=options)
    print(f"session         : {session.name} v{session.version} "
          f"({session.fingerprint[:12]}, {len(pcset)} constraints)")
    if args.max_cost is not None:
        print(f"admission       : per-query budget {args.max_cost:.1f} "
              f"unit(s); over-budget queries are rejected at the plan stage")
    profile = None
    for round_number in range(1, args.repeat + 1):
        if round_number == args.repeat:
            # Profile the final round: with --repeat > 1 that is the warm
            # round, the one worth explaining.
            result, profile = _maybe_profiled(
                args, "batch",
                lambda: service.execute_batch(session_name, queries))
        else:
            result = service.execute_batch(session_name, queries)
        print(f"batch round {round_number}   : {result.statistics.summary()}")
    from .experiments.reporting import format_result_range_table

    print(format_result_range_table(
        [(query.describe(), report.result_range)
         for query, report in zip(queries, result.reports)]))
    print(service.statistics().summary())
    _print_profile(args, profile)
    return 0


def _maybe_profiled(args: argparse.Namespace, name: str, run: Callable):
    """Run ``run()``, recording a span-tree profile when the flags ask."""
    if not (args.profile or args.profile_json):
        return run(), None
    from .obs import QueryProfile, Trace, get_tracer

    with get_tracer().trace(name, force=True) as handle:
        result = run()
    profile = (QueryProfile.from_trace(handle)
               if isinstance(handle, Trace) else None)
    return result, profile


def _print_profile(args: argparse.Namespace, profile) -> None:
    if profile is None:
        return
    if args.profile:
        print("\nprofile (EXPLAIN ANALYZE):")
        print(profile.render())
    if args.profile_json:
        profile.export_json(args.profile_json)
        print(f"profile JSON    : {args.profile_json}")


def _command_stats(args: argparse.Namespace) -> int:
    from .obs import get_registry

    registry = get_registry()
    if args.json:
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
    else:
        print(registry.render())
    return 0


def _command_bench_report(args: argparse.Namespace) -> int:
    from .obs.bench import bench_report

    try:
        print(bench_report(args.directory, as_json=args.json))
    except ValueError as error:
        raise ReproError(str(error))
    return 0


def _command_sessions(args: argparse.Namespace) -> int:
    from .service import ContingencyService

    observed = read_csv(args.observed) if args.observed else None
    service = ContingencyService()
    for path_text in args.constraints:
        pcset = _load_constraints(path_text)
        service.register(Path(path_text).stem, pcset, observed=observed)
    print(f"{'name':<24s} {'version':>7s} {'constraints':>11s} "
          f"{'max rows':>9s} {'observed':>8s}  fingerprint")
    for session in service.sessions():
        info = session.describe()
        print(f"{info['name']:<24.24s} {info['version']:>7d} "
              f"{info['constraints']:>11d} {info['total_max_rows']:>9d} "
              f"{info['observed_rows']:>8d}  {session.fingerprint[:16]}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
