"""Benchmark of the marline package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory. With ``--trace 0`` the workload runs whole rounds until
``--seconds`` have passed and the end-to-end metrics are printed. With
``--trace 1`` a fixed number of rounds run twice each, untraced and then
traced, and the per-layer metrics are printed, with the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
starting with ``info``, holds raw times, the reference-kernel figures and the
sha256 of every command's output files. ``--smoke`` shrinks every workload
for a quick check of the output format.
"""

from __future__ import annotations

import os

# One BLAS thread: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from refclock import RefClock  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# Rounds of the traced run; each runs once untraced and once traced.
TRACE_ROUNDS = 2


def _load_package():
    src = ROOT / "src"
    if not (src / "marline" / "__init__.py").is_file():
        raise FileNotFoundError(f"no package source at {src / 'marline'}")
    sys.path.insert(0, str(src))
    import marline
    import marline.cli

    if Path(marline.__file__).resolve().parent != (src / "marline").resolve():
        raise FileNotFoundError(f"imported marline from {marline.__file__}, not {src}")
    return marline


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, clock, tally, seconds: float) -> tuple[dict, dict]:
    clock.start()
    try:
        workload.prepare(tally)
        begin = RefClock.now()
        index = 0
        while True:
            end = workload.round(tally, index)
            index += 1
            if end - begin >= seconds:
                break
    finally:
        clock.stop()

    rounds = tally.rounds
    setups = [clock.span(*r.setup) for r in rounds]
    scoring = [clock.span(*r.scoring) for r in rounds]
    steps = sum(r.target_steps for r in rounds)
    norm_scoring = sum(n for _, n in scoring)
    raw_scoring = sum(raw for raw, _ in scoring)
    metrics = {
        "target_steps_per_s": (steps / norm_scoring if rounds else 0.0, "steps/s"),
        "setup_s": (statistics.median(n for _, n in setups) if rounds else 0.0, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "accuracy": (statistics.fmean(r.accuracy for r in rounds) if rounds else 0.0,
                     "fraction"),
    }
    info = {
        "rounds": len(rounds),
        "target_steps": steps,
        "raw_target_steps_per_s": steps / raw_scoring if rounds else 0.0,
        "raw_setup_s": statistics.median(raw for raw, _ in setups) if rounds else 0.0,
        "round_setup_s": [round(n, 5) for _, n in setups],
        "round_steps_per_s": [round(r.target_steps / n, 2) for r, (_, n) in zip(rounds, scoring)],
        "round_accuracy": [round(r.accuracy, 6) for r in rounds],
    }
    return metrics, info


def trace(workload, clock, tally, rounds: int, spans_path: Path) -> tuple[dict, dict]:
    tracer = Tracer()
    pairs = []
    steps = 0
    outputs_match = True
    clock.start()
    try:
        workload.prepare(tally)
        for index in range(rounds):
            a = RefClock.now()
            workload.round(tally, index)
            b = RefClock.now()
            untraced_hashes = dict(tally.hashes)
            n_rounds = len(tally.rounds)
            tracer.install()
            try:
                c = RefClock.now()
                workload.round(tally, index)
                d = RefClock.now()
                workload.after_traced_round(tracer)
            finally:
                tracer.uninstall()
            outputs_match &= tally.hashes == untraced_hashes
            if len(tally.rounds) > n_rounds:
                steps += tally.rounds[-1].target_steps
            pairs.append(((a, b), (c, d)))
    finally:
        clock.stop()
    untraced = [clock.span(*u) for u, _ in pairs]
    traced = [clock.span(*t) for _, t in pairs]
    norm_traced = sum(n for _, n in traced)
    factor = norm_traced / sum(raw for raw, _ in traced)
    metrics, absent = layer_metrics(tracer, clock.kernel_intervals_ns(), max(steps, 1), rounds,
                                    factor)
    metrics["trace.wall_us_per_step"] = (norm_traced * 1e6 / max(steps, 1), "us")
    metrics["trace.overhead_pct"] = (
        100.0 * (norm_traced / sum(n for _, n in untraced) - 1.0), "%")
    spans_path.parent.mkdir(exist_ok=True)
    tracer.save(str(spans_path))
    info = {
        "rounds": rounds,
        "traced_target_steps": steps,
        "spans": len(tracer.end_ns),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "traced_outputs_match_untraced": outputs_match,
        "absent": absent,
    }
    return metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, format check only")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        marline = _load_package()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot load the package: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT)
    clock = RefClock()
    tally = Tally()
    workload = WORKLOADS[args.workload](marline, workdir, args.seed, args.smoke)
    try:
        if args.trace:
            metrics, info = trace(workload, clock, tally, TRACE_ROUNDS,
                                  OUT / f"spans-{tag}.npz")
        else:
            metrics, info = measure(workload, clock, tally, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "kernel": clock.kernel_stats(),
        "problems": (tally.violations + tally.problems)[:20],
        "hashes": tally.hashes,
    })
    for name, reason in info.get("absent", {}).items():
        print(f"absent {name}: {reason}")
    print("info " + json.dumps(info, sort_keys=True))
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "metrics": metrics}, fh, indent=1, sort_keys=True)
    result = {
        "correct": not tally.violations and tally.failed == 0 and bool(tally.rounds),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
