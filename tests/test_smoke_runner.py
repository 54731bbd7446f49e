"""End-to-end smoke: a warm stream cache makes the second run phase-2-only.

Runs the actual CLI (``python -m repro experiment all``) twice against
one cache directory — the acceptance check that a repeat ``run_all``
performs **zero** ``collect_misses`` calls and produces byte-identical
tables.  Marked slow: the CI fast lane (``-m "not slow"``) skips it.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

#: The stable one-line cache report printed by the runner.
CACHE_LINE = re.compile(
    r"\[stream cache: hits=(\d+) computed=(\d+) stored=(\d+) errors=(\d+)"
)


def run_runner(cache_dir, jobs: int = 2) -> str:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable, "-m", "repro", "experiment", "all",
        "--fast", "--jobs", str(jobs),
        "--only", "table1,fig11a,fig11d,multiprog",
        "--workloads", "mp3d,compress",
        "--cache-dir", str(cache_dir),
    ]
    proc = subprocess.run(
        command, capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def tables_only(output: str) -> str:
    """The experiment tables, without the run-dependent metrics footer."""
    return output.split("Run metrics")[0]


def test_second_run_hits_cache_and_computes_nothing(tmp_path):
    cache_dir = tmp_path / "streams"
    first = run_runner(cache_dir)
    second = run_runner(cache_dir)

    hits1, computed1, stored1, errors1 = map(
        int, CACHE_LINE.search(first).groups()
    )
    hits2, computed2, stored2, errors2 = map(
        int, CACHE_LINE.search(second).groups()
    )
    assert computed1 > 0 and stored1 == computed1 and errors1 == 0
    assert computed2 == 0, "warm cache must skip every collect_misses call"
    assert hits2 > 0 and stored2 == 0 and errors2 == 0
    assert tables_only(first) == tables_only(second)
