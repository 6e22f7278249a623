"""Check that two checkouts answer the perfbench workloads bit for bit alike.

Answers the first ``--ops`` operations of every workload in
``perfbench/workloads.py`` (seed ``--seed``) on this checkout and on the
checkout at ``--parent``, each in its own interpreter with that checkout's
``src`` and ``perfbench`` on the path, and compares every report's
endpoints (result range, missing range, observed value) by their exact
float representation::

    git archive <commit> | tar -x -C /tmp/parent
    python benchmarks/compare_endpoints.py --parent /tmp/parent --ops 60

``--workloads`` picks some of the workloads.  Under each differing query
answer it prints every endpoint's move in ulps (units in the last place,
counted along the doubles between the two values) and whether the new
result range contains the old one.  Exits 1 when any endpoint or error
differs.  ``--dump ROOT`` prints one checkout's answers instead (the form
each side is run in).
"""

from __future__ import annotations

import argparse
import math
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("cold-chain", "dashboard-100k", "fanout-2proc")
ROOT = Path(__file__).resolve().parent.parent
#: The endpoints of one query answer, in the order ``dump`` prints them.
ENDPOINTS = ("result lower", "result upper", "missing lower",
             "missing upper", "observed")


def dump(root: Path, ops: int, seed: int, workloads) -> None:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from workloads import Append, Query, Register, make_workload

    for name in workloads:
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


def answers(root: Path, ops: int, seed: int, workloads) -> list[str]:
    return subprocess.run(
        [sys.executable, __file__, "--dump", str(root), "--ops", str(ops),
         "--seed", str(seed), "--workloads", *workloads],
        check=True, capture_output=True, text=True).stdout.splitlines()


def endpoints(line: str) -> list | None:
    """A query answer's endpoints (None when ``line`` is no query answer)."""
    _, _, kind, answer = line.split(" ", 3)
    if kind != "Query" or not answer.startswith("("):
        return None
    values = []
    for token in answer.strip("()").split(", "):
        try:
            values.append(None if token == "None" else float(token))
        except ValueError:
            return None
    return values if len(values) == len(ENDPOINTS) else None


def _ordinal(value: float) -> int:
    """The double's position on the number line, one per ulp step."""
    bits = struct.unpack("<q", struct.pack("<d", value))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def ulp_move(old: float | None, new: float | None) -> int | None:
    """Signed ulps from ``old`` to ``new``; None unless both are finite."""
    if old is None or new is None or not (math.isfinite(old)
                                          and math.isfinite(new)):
        return None
    return _ordinal(new) - _ordinal(old)


def contains(new: list, old: list) -> bool:
    """Whether the new result range holds the old one (an undefined end
    holds only an undefined end)."""
    (old_lower, old_upper), (new_lower, new_upper) = old[:2], new[:2]
    if None in (old_lower, new_lower):
        lower_ok = old_lower is new_lower
    else:
        lower_ok = new_lower <= old_lower
    if None in (old_upper, new_upper):
        upper_ok = old_upper is new_upper
    else:
        upper_ok = new_upper >= old_upper
    return lower_ok and upper_ok


def describe_move(old_line: str, new_line: str) -> tuple[str, int] | None:
    """One line naming each endpoint's ulp move, and the largest move."""
    old, new = endpoints(old_line), endpoints(new_line)
    if old is None or new is None:
        return None
    moves = []
    largest = 0
    for name, before, after in zip(ENDPOINTS, old, new):
        move = ulp_move(before, after)
        if move is None:
            same = repr(before) == repr(after)
            moves.append(f"{name} {'same' if same else 'moved'}")
        else:
            moves.append(f"{name} {move:+d}")
            largest = max(largest, abs(move))
    verdict = "contains" if contains(new, old) else "does not contain"
    return (f"  ulps: {', '.join(moves)}; the new range {verdict} the old",
            largest)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--dump", type=Path)
    parser.add_argument("--ops", type=int, default=60)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    args = parser.parse_args(argv)
    if args.dump is not None:
        dump(args.dump.resolve(), args.ops, args.seed, args.workloads)
        return 0
    if args.parent is None:
        parser.error("--parent or --dump is required")
    before = answers(args.parent.resolve(), args.ops, args.seed,
                     args.workloads)
    after = answers(ROOT, args.ops, args.seed, args.workloads)
    differing = [(old, new) for old, new in zip(before, after) if old != new]
    largest = 0
    for old, new in differing:
        print(f"- {old}\n+ {new}")
        move = describe_move(old, new)
        if move is not None:
            print(move[0])
            largest = max(largest, move[1])
    print(f"{len(after)} operations on {len(args.workloads)} workloads, "
          f"{len(differing)} differ"
          + (f"; largest endpoint move {largest} ulp(s)" if largest else "")
          + ("" if len(before) == len(after) else
             f"; {len(before)} answers before, {len(after)} after"))
    return 1 if differing or len(before) != len(after) else 0


if __name__ == "__main__":
    sys.exit(main())
