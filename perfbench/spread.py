"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload cold-chain --seeds 1-10 [--trace 0]

For every metric it prints the median of the runs and the distance between
the first and third quartiles as a share of that median, next to the bound
``BENCHMARK.json`` allows.  Runs are sequential: concurrent runs would
measure each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {metric["name"]: metric.get("bound")
              for metric in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        command = [*spec["command"], "--workload", args.workload,
                   "--seed", str(seed), "--seconds", f"{seconds:g}",
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}\n"
                  f"{completed.stdout[-2000:]}{completed.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.6g}"
            for name, metric in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':40s} {'median':>12s} {'iqr/median':>10s} {'bound':>6s}")
    for name, series in values.items():
        median = statistics.median(series)
        quartiles = statistics.quantiles(series, n=4)
        spread = (quartiles[2] - quartiles[0]) / median if median else 0.0
        bound = bounds.get(name)
        print(f"{name:40s} {median:12.6g} {spread:10.4f} "
              f"{'' if bound is None else format(bound, '6.3f')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
