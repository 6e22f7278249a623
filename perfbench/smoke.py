"""Smoke test of the benchmark itself, at tiny scale (about two minutes).

Usage (from the repository root)::

    python3 perfbench/smoke.py

It checks that every workload runs untraced and traced, prints every metric
``BENCHMARK.json`` names with its unit, runs the answer check, leaves no
pool worker alive, repeats its counts exactly for a fixed seed, refuses the
environment knobs that change the program, and fails without printing a
result where the package sources are missing.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: (workload, scale, untraced seconds, traced seconds)
CASES = (("cold-chain", 0.25, 2, 4),
         ("dashboard-100k", 0.1, 2, 24),
         ("fanout-2proc", 0.3, 2, 20))

#: Per-layer counts that must repeat exactly for a fixed seed.
REPEATING = ("sat.calls", "cells.solver_calls", "pool.tasks_dispatched",
             "store.reads", "store.hits", "store.writes", "store.errors",
             "service.append.migrated", "service.append.invalidated")


def run(args, cwd=ROOT, env=None):
    command = [sys.executable, "perfbench/run.py", *map(str, args)]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600, check=False)


def result_of(completed, expected):
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, lines[-1]
    assert result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in expected}, (
        "printed metrics differ from BENCHMARK.json")
    checked = re.search(r"answer check compared (\d+) queries", completed.stdout)
    assert checked and int(checked.group(1)) >= 1, "answer check compared none"
    assert "alive after the run 0" in completed.stdout, completed.stdout
    return result


def main() -> int:
    for workload, scale, seconds, traced_seconds in CASES:
        common = ["--workload", workload, "--seed", 7, "--scale", scale]
        result_of(run([*common, "--seconds", seconds, "--trace", 0]),
                  SPEC["end_to_end"])
        first, second = (
            result_of(run([*common, "--seconds", traced_seconds,
                           "--trace", 1]), SPEC["per_layer"])
            for _ in range(2))
        for name in REPEATING:
            assert (first["metrics"][name]["value"]
                    == second["metrics"][name]["value"]), (workload, name)
        counted = first["metrics"]
        if workload == "dashboard-100k":
            assert counted["service.append.migrated"]["value"] > 0
        if workload == "fanout-2proc":
            assert counted["pool.component_calls"]["value"] > 0
            assert counted["pool.region_calls"]["value"] > 0
        print(f"ok {workload}", flush=True)

    env = dict(os.environ, REPRO_POOL="1")
    refused = run(["--workload", "cold-chain", "--seed", 1, "--seconds", 1],
                  env=env)
    assert refused.returncode != 0 and not refused.stdout.strip()
    print("ok refused environment")

    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        missing = run(["--workload", "cold-chain", "--seed", 1,
                       "--seconds", 1], cwd=bare)
        assert missing.returncode != 0 and not missing.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok missing sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
