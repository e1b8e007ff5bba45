"""Smoke test of the benchmark itself, on tiny inputs.

    python3 bench/smoke.py

For every workload in BENCHMARK.json and both values of ``--trace``, it runs
``bench/run.py --smoke`` and checks that the last line of output is the result
object, that no operation failed, and that every metric BENCHMARK.json names
for that mode is printed with its unit. It then copies only BENCHMARK.json and
the benchmark's directories into an empty directory and checks that the
benchmark fails there without printing a result. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    proc = _run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted={result.get('attempted')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None:
            errors.append(f"{where}: metric {metric['name']} missing")
        elif got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{where}: metric {metric['name']} printed as {got}")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        errors.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return errors


def check_without_package(spec: dict) -> list[str]:
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without the package: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = check_without_package(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            errors += check_workload(spec, workload["name"], trace)
    for line in errors:
        print(f"FAIL {line}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
