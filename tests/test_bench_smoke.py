"""The benchmark in ``bench/`` and the microbenchmarks must keep running
against the package."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, "bench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_microbenchmarks_run_untimed():
    # Each microbenchmark runs once with timing off; the cost model, which
    # times its own loop for seconds, is left to runs with -m bench.
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-m", "bench",
            "--benchmark-disable", "-k", "not cost_model", "tests/test_microbench.py",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
