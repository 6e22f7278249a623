"""Check that two checkouts answer the perfbench workloads bit for bit alike.

Answers the first ``--ops`` operations of every workload in
``perfbench/workloads.py`` (seed ``--seed``) on this checkout and on the
checkout at ``--parent``, each in its own interpreter with that checkout's
``src`` and ``perfbench`` on the path, and compares every report's
endpoints (result range, missing range, observed value) by their exact
float representation::

    git archive <commit> | tar -x -C /tmp/parent
    python benchmarks/compare_endpoints.py --parent /tmp/parent --ops 60

Exits 1 when any endpoint or error differs.  ``--dump ROOT`` prints one
checkout's answers instead (the form each side is run in).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("cold-chain", "dashboard-100k", "fanout-2proc")
ROOT = Path(__file__).resolve().parent.parent


def dump(root: Path, ops: int, seed: int) -> None:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from workloads import Append, Query, Register, make_workload

    for name in WORKLOADS:
        workload = make_workload(name, seed)
        with tempfile.TemporaryDirectory() as store_dir:
            service = workload.make_service(store_dir)
            try:
                for register in workload.standing_sessions():
                    service.register(register.session, register.pcset,
                                     register.observed, register.options)
                operations = iter(workload.operations())
                for index in range(ops):
                    operation = next(operations)
                    try:
                        if isinstance(operation, Query):
                            report = service.analyze(operation.session,
                                                     operation.query)
                            answer = repr((
                                report.result_range.lower,
                                report.result_range.upper,
                                report.missing_range.lower,
                                report.missing_range.upper,
                                report.observed_value))
                        elif isinstance(operation, Append):
                            answer = repr(service.append_rows(
                                operation.session, operation.rows).version)
                        else:
                            assert isinstance(operation, Register)
                            answer = service.register(
                                operation.session, operation.pcset,
                                operation.observed,
                                operation.options).fingerprint
                    except Exception as error:  # compared like an answer
                        answer = f"{type(error).__name__}: {error}"
                    print(f"{name} {index} {type(operation).__name__} "
                          f"{answer}", flush=True)
            finally:
                service.shutdown()


def answers(root: Path, ops: int, seed: int) -> list[str]:
    return subprocess.run(
        [sys.executable, __file__, "--dump", str(root), "--ops", str(ops),
         "--seed", str(seed)],
        check=True, capture_output=True, text=True).stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--dump", type=Path)
    parser.add_argument("--ops", type=int, default=60)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.dump is not None:
        dump(args.dump.resolve(), args.ops, args.seed)
        return 0
    if args.parent is None:
        parser.error("--parent or --dump is required")
    before = answers(args.parent.resolve(), args.ops, args.seed)
    after = answers(ROOT, args.ops, args.seed)
    differing = [(old, new) for old, new in zip(before, after) if old != new]
    for old, new in differing:
        print(f"- {old}\n+ {new}")
    print(f"{len(after)} operations on {len(WORKLOADS)} workloads, "
          f"{len(differing)} differ"
          + ("" if len(before) == len(after) else
             f"; {len(before)} answers before, {len(after)} after"))
    return 1 if differing or len(before) != len(after) else 0


if __name__ == "__main__":
    sys.exit(main())
