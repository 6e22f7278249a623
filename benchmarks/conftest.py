"""Shared configuration for the benchmark suite.

Each benchmark regenerates one of the paper's tables or figures through the
``repro.experiments`` entry points and prints the resulting text table so
the numbers can be compared against the publication (see EXPERIMENTS.md).
Scales are chosen so the whole suite finishes in a few minutes on a laptop;
pass larger configs to the underlying ``run_*`` functions to approach the
paper's exact sizes.

Benchmarks that measure *this repository's* performance (rather than
regenerate paper artifacts) additionally record their wall times and
speedups through the ``bench_record`` fixture; the session writes them to
``benchmarks/BENCH_PR10.json`` so the perf trajectory is machine-readable
from PR 4 on — merge the per-PR files with ``repro bench-report`` (or
``python benchmarks/trajectory.py``) instead of scraping pytest logs.

Every record is stamped with the environment it ran under — git SHA,
timestamp, CPU count, and the ``REPRO_POOL`` / ``REPRO_TRACE`` /
``REPRO_CACHE_DIR`` toggles — because a trajectory comparison across PRs is
meaningless without knowing whether the runs were comparable.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "paper_artifact(name): the paper table/figure a benchmark regenerates")


_BENCH_DIR = Path(__file__).parent
_TRAJECTORY_FILE = _BENCH_DIR / "BENCH_PR10.json"
_RECORDS: list[dict] = []

#: Environment toggles that change what the benchmarks measure; their
#: values ride along on every record so cross-PR diffs can rule out
#: configuration drift.
_ENV_TOGGLES = ("REPRO_POOL", "REPRO_TRACE", "REPRO_CACHE_DIR")


def _git_sha() -> str | None:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=_BENCH_DIR,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def _environment_stamp() -> dict:
    return {name: os.environ[name] for name in _ENV_TOGGLES
            if name in os.environ}


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ as ``bench``.

    pytest.ini deselects ``bench`` by default, so the benchmark suite only
    runs when explicitly requested (``pytest -m bench benchmarks``).
    """
    for item in items:
        if _BENCH_DIR in Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.bench)


@pytest.fixture
def report_artifact(capsys):
    """Print an experiment's text table so it appears in the benchmark log."""

    def _report(text: str) -> None:
        with capsys.disabled():
            print("\n" + text + "\n")

    return _report


@pytest.fixture
def bench_record(request):
    """Record one benchmark's timings into ``BENCH_PR10.json``.

    Call with keyword fields; ``seconds``-suffixed fields are wall times,
    ``speedup`` fields are ratios.  The benchmark name defaults to the
    test's node name so records stay greppable across PRs.  Each record is
    stamped with its recording time and any active ``REPRO_*`` toggles.
    """

    def _record(name: str | None = None, **fields) -> None:
        record = {"benchmark": name or request.node.name, **fields}
        record["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        environment = _environment_stamp()
        if environment:
            record["environment"] = environment
        _RECORDS.append(record)

    return _record


def pytest_sessionfinish(session, exitstatus):
    if not _RECORDS:
        return
    payload = {
        "schema": "repro-bench-trajectory/1",
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "git_sha": _git_sha(),
            "environment": _environment_stamp(),
        },
        "records": _RECORDS,
    }
    _TRAJECTORY_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True)
                                + "\n")
