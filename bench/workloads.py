"""The three benchmark workloads and the checks on their outputs.

Every workload reaches the package only through ``marline.cli.main(argv)``
and the library names the README documents. Each is split into rounds: one
online stream for ``online_abrupt``, one CLI command for the others. A round
records its set-up interval (inputs built, before the first prediction) and
its scoring interval as raw ``perf_counter`` stamps; the clock turns them into
speed-normalised durations afterwards.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import re
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace

import numpy as np

_now = time.perf_counter


@dataclass
class Round:
    setup: tuple[float, float]
    scoring: tuple[float, float]
    target_steps: int
    accuracy: float


@dataclass
class Tally:
    """Everything one benchmark run counts and checks."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    rounds: list[Round] = field(default_factory=list)
    hashes: dict[str, dict[str, str]] = field(default_factory=dict)

    def operation(self, errors: list[str], label: str) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.problems.append(f"{label}: {errors[0]}")

    def require(self, ok: bool, message: str) -> None:
        """A check on a whole round rather than on one operation."""
        if not ok:
            self.violations.append(message)


def file_hashes(directory: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@dataclass
class CliCall:
    code: object
    stdout: str
    stderr: str
    start: float
    first_predict: float | None
    end: float


def call_cli(marline, argv: list[str]) -> CliCall:
    """Run ``marline.cli.main(argv)`` in this process. The first call of
    ``MarlineModel.predict`` is stamped by a one-shot hook that puts the
    method back as soon as it fires, so the scoring phase runs unwrapped."""
    model_cls = marline.MarlineModel
    original = model_cls.__dict__["predict"]
    stamp: list[float] = []

    def first_predict(self, *args, **kwargs):
        stamp.append(_now())
        model_cls.predict = original
        return original(self, *args, **kwargs)

    out, err = io.StringIO(), io.StringIO()
    model_cls.predict = first_predict
    start = _now()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = marline.cli.main(argv)
    except (Exception, SystemExit) as exc:
        code = f"raised {type(exc).__name__}: {exc}"
    finally:
        end = _now()
        model_cls.predict = original
    return CliCall(code, out.getvalue(), err.getvalue(), start,
                   stamp[0] if stamp else None, end)


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


class Workload:
    name = ""

    def __init__(self, marline, workdir: str, seed: int, smoke: bool) -> None:
        self.m = marline
        self.workdir = workdir
        self.seed = seed
        self.smoke = smoke

    def prepare(self, tally: Tally) -> None:
        """Untimed, once per run: write inputs and compute expectations."""

    def round(self, tally: Tally, index: int) -> float:
        """Run round ``index``; return the raw end stamp of the round."""
        raise NotImplementedError

    def after_traced_round(self, tracer) -> None:
        """Untimed work on the traced round's objects."""


# ----------------------------------------------------------------------
# online_abrupt: library loop, predict then observe, periodic snapshots
# ----------------------------------------------------------------------

_PROBES = ((2.0, 3.0), (7.0, 8.0), (2.0, 9.0), (5.0, 4.0), (-2.0, -3.0))


class OnlineAbrupt(Workload):
    name = "online_abrupt"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Scenario S1 of the ROADMAP's baseline profile. At the 50 of
        # configs/abrupt_non_similar.ini, 100 steps after the drift are often
        # too few for HDDM_A to raise it (bench/README.md).
        self.class_size = 200 if self.smoke else 1000
        self.snapshot_every = 100 if self.smoke else 500
        self.snapshot_path = os.path.join(self.workdir, "snapshot.bin")
        self.probes = [np.array(p) for p in _PROBES]

    def round(self, tally: Tally, index: int) -> float:
        m = self.m
        seeds = np.random.SeedSequence([self.seed, index]).spawn(3)
        target_seed, source_seed = (int(s.generate_state(1)[0]) for s in seeds[:2])

        a = _now()
        dataset = m.benchmark_dataset("abrupt_non_similar", self.class_size)
        target = m.generate_synthetic(replace(dataset.target, seed=target_seed))
        source = m.generate_synthetic(replace(dataset.sources[0], seed=source_seed))
        schedule = m.interleave(
            m.StreamData("T", target.examples, target.drift_marks),
            (m.StreamData("S1", source.examples, source.drift_marks),),
        )
        entries = schedule.entries
        last = max(i for i, (sid, _) in enumerate(entries) if sid == "T")
        model = m.MarlineModel(m.MarlineConfig(n_features=2, ensemble_size=10), target_id="T")
        rng = np.random.default_rng(seeds[2])
        b = _now()

        steps = correct = 0
        drift_steps: list[int] = []
        pending: list[str] = []
        for stream_id, example in entries[: last + 1]:
            if stream_id != "T":
                try:
                    model.observe(stream_id, example, rng)
                except Exception as exc:
                    pending.append(f"source observe raised {type(exc).__name__}")
                continue
            errors, pending = pending, []
            step = steps
            steps += 1
            try:
                prediction = model.predict(example.features)
                scores = prediction.scores
                if not (scores[0] >= 0.0 and scores[1] >= 0.0
                        and abs(scores[0] + scores[1] - 1.0) <= 1e-9):
                    errors.append(f"scores {scores!r} are not a distribution")
                correct += prediction.label == example.label
                if model.observe("T", example, rng):
                    drift_steps.append(step)
                ratio = model.source_weight_ratio()
                if not 0.0 <= ratio <= 1.0:
                    errors.append(f"source weight ratio {ratio!r} outside [0, 1]")
                if steps % self.snapshot_every == 0:
                    errors.extend(self._snapshot_check(model, example.features))
            except Exception as exc:
                errors.append(f"raised {type(exc).__name__}: {exc}")
            tally.operation(errors, f"{self.name} round {index} step {step}")
        c = _now()

        accuracy = correct / steps
        mark = target.drift_marks[0]
        tally.require(accuracy >= 0.75,
                      f"round {index}: accuracy {accuracy:.3f} is near chance")
        tally.require(any(s >= mark for s in drift_steps),
                      f"round {index}: no target drift detected after the mark at step "
                      f"{mark} (alarms at {drift_steps})")
        tally.rounds.append(Round((a, b), (b, c), steps, accuracy))
        return c

    def _snapshot_check(self, model, features) -> list[str]:
        model.save(self.snapshot_path)
        loaded = self.m.MarlineModel.load(self.snapshot_path)
        for x in (*self.probes, features):
            live, restored = model.predict(x), loaded.predict(x)
            if live.label != restored.label or not np.array_equal(live.scores, restored.scores):
                return [f"loaded snapshot predicts {restored.scores!r}, live model {live.scores!r}"]
        return []

    def after_traced_round(self, tracer) -> None:
        tracer.snapshot_bytes.append(os.path.getsize(self.snapshot_path))


# ----------------------------------------------------------------------
# CLI workloads
# ----------------------------------------------------------------------


class CliWorkload(Workload):
    runs = 2

    def _config_path(self) -> str:
        return os.path.join(self.workdir, f"{self.name}.ini")

    def _write_config(self, text: str) -> None:
        with open(self._config_path(), "w", encoding="utf-8") as fh:
            fh.write(text)

    def _command(self, index: int, verb: str, seed: int):
        out_dir = os.path.join(self.workdir, f"out{index}")
        shutil.rmtree(out_dir, ignore_errors=True)
        call = call_cli(self.m, [
            verb, "--config", self._config_path(), "--out", out_dir,
            "--seed", str(seed), "--parallelism", "1",
        ])
        errors = []
        if call.code != 0:
            errors.append(f"exit {call.code!r}: {call.stderr.strip()[:200]}")
        elif call.first_predict is None and verb != "generate":
            errors.append("no prediction was made")
        return call, out_dir, errors

    def after_traced_round(self, tracer) -> None:
        """Snapshot the last model of the traced command, so that snapshot
        cost is measured on this workload's model state too."""
        if not tracer.models:
            return
        path = os.path.join(self.workdir, "snapshot.bin")
        tracer.models[-1].save(path)
        self.m.MarlineModel.load(path)
        tracer.snapshot_bytes.append(os.path.getsize(path))


class RunIncrementalSixSources(CliWorkload):
    name = "run_incremental_six_sources"

    def prepare(self, tally: Tally) -> None:
        class_size = 10 if self.smoke else 50
        self._write_config(
            "[experiment]\n"
            "config_version = 1\n"
            "approach = marline_with_source\n"
            f"runs = {self.runs}\n"
            "seed = 0\n"
            "evaluation = prequential_reset\n"
            "window_fraction = 0.1\n"
            "interleave = round_robin\n"
            "[model]\n"
            "base_ensemble = bagging\n"
            "detector = hddm_a\n"
            "ensemble_size = 10\n"
            "forgetting_factor = 0.9\n"
            "performance_index = 0.4\n"
            "[dataset]\n"
            "kind = synthetic\n"
            "family = incremental_similar\n"
            f"class_size = {class_size}\n"
        )
        spec = self.m.benchmark_dataset("incremental_similar", class_size)
        truth = self.m.generate_synthetic(spec.target)
        self.n_steps = len(truth.examples)
        self.marks = tuple(truth.drift_marks)
        self.window = max(1, math.ceil(0.1 * self.n_steps))

    def round(self, tally: Tally, index: int) -> float:
        seed = 1000 * self.seed + 10 * index
        call, out_dir, errors = self._command(index, "run", seed)
        accuracy = math.nan
        if not errors:
            try:
                accuracy = self._check(out_dir, call.stdout, errors)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                errors.append(f"unreadable outputs: {type(exc).__name__}: {exc}")
        if not errors:
            tally.hashes[f"seed{seed}"] = file_hashes(out_dir)
            tally.rounds.append(Round((call.start, call.first_predict),
                                      (call.first_predict, call.end),
                                      self.runs * self.n_steps, accuracy))
        tally.operation(errors, f"{self.name} command {index}")
        return call.end

    def _check(self, out_dir: str, stdout: str, errors: list[str]) -> float:
        """Reconstruct each step's correctness from the running accuracies
        and check every output file against it; return the paper's figure,
        the mean final per-segment accuracy."""
        header, rows = _read_csv(os.path.join(out_dir, "results.csv"))
        if header != ["run", "t", "segment", "accuracy_running",
                      "accuracy_window", "source_weight_ratio"]:
            errors.append(f"results.csv header {header}")
            return math.nan
        n = self.n_steps
        if len(rows) != self.runs * n:
            errors.append(f"results.csv has {len(rows)} rows, expected {self.runs} x {n}")
            return math.nan
        expected_segment = [sum(1 for mk in self.marks if mk <= j) for j in range(n)]
        n_segments = len(self.marks) + 1
        running = np.zeros((self.runs, n))
        windowed = np.zeros((self.runs, n))
        ratios = np.zeros((self.runs, n))
        segment_final = np.zeros((self.runs, n_segments))
        for r in range(self.runs):
            bits: list[int] = []
            count = seen = 0
            for j in range(n):
                run, t, segment, acc, win, ratio = rows[r * n + j]
                if (int(run), int(t), int(segment)) != (r, j + 1, expected_segment[j]):
                    errors.append(f"results.csv row {(run, t, segment)} out of place")
                    return math.nan
                if j > 0 and expected_segment[j] != expected_segment[j - 1]:
                    count = seen = 0
                seen += 1
                new_count = round(float(acc) * seen)
                if new_count - count not in (0, 1) or f"{new_count / seen:.6f}" != acc:
                    errors.append(f"run {r} step {j + 1}: running accuracy {acc} is not "
                                  f"a count of correct steps over {seen}")
                    return math.nan
                bits.append(new_count - count)
                count = new_count
                running[r, j] = count / seen
                segment_final[r, expected_segment[j]] = count / seen
                recent = bits[-self.window:]
                if f"{sum(recent) / len(recent):.6f}" != win:
                    errors.append(f"run {r} step {j + 1}: windowed accuracy {win} does not "
                                  f"match the last {len(recent)} steps")
                    return math.nan
                windowed[r, j] = float(win)
                ratios[r, j] = float(ratio)
                if not 0.0 <= ratios[r, j] <= 1.0:
                    errors.append(f"run {r} step {j + 1}: source weight ratio {ratio}")
                    return math.nan

        header, summary = _read_csv(os.path.join(out_dir, "summary.csv"))
        if len(summary) != n:
            errors.append(f"summary.csv has {len(summary)} rows, expected {n}")
            return math.nan
        for j, row in enumerate(summary):
            t, run_mean, _, win_mean, _, ratio_mean = row
            if (int(t) != j + 1
                    or not _close(float(run_mean), running[:, j].mean(), 1e-6)
                    or not _close(float(win_mean), windowed[:, j].mean(), 1.1e-6)
                    or not _close(float(ratio_mean), ratios[:, j].mean(), 1.1e-6)):
                errors.append(f"summary.csv step {j + 1} is not the across-run mean")
                return math.nan

        header, segments = _read_csv(os.path.join(out_dir, "segments.csv"))
        if len(segments) != n_segments:
            errors.append(f"segments.csv has {len(segments)} rows, expected {n_segments}")
            return math.nan
        for s, row in enumerate(segments):
            if int(row[0]) != s or not _close(float(row[1]), segment_final[:, s].mean(), 1e-6):
                errors.append(f"segments.csv segment {s} is not the across-run mean")
                return math.nan

        objective = float(segment_final.mean(axis=1).mean())
        printed = re.search(r"objective=([0-9.]+)", stdout)
        if printed is None or not _close(float(printed.group(1)), objective, 1e-6):
            errors.append(f"printed objective {printed and printed.group(1)} != "
                          f"recomputed {objective:.6f}")
        return objective


_GRID_AXES = {"ensemble_size": (5, 10), "forgetting_factor": (0.9,),
              "performance_index": (0.4,)}


class GridCsvBoosting(CliWorkload):
    name = "grid_csv_boosting"
    runs = 1

    def _write_inputs(self, index: int) -> None:
        """Fresh CSV files for round ``index``, so that a run averages over
        several data sets rather than one."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, index, 7]))
        self.n_target_steps = _write_target_csv(self.target_path, self.days, rng)
        _write_source_csv(self.source_path, self.days, rng)

    def prepare(self, tally: Tally) -> None:
        # The published files span 731 days; an eighth of that keeps their
        # shape and a command short enough for many rounds (bench/README.md).
        self.days = 28 if self.smoke else 91
        self.target_path = target_path = os.path.join(self.workdir, "london_like.csv")
        self.source_path = source_path = os.path.join(self.workdir, "washington_like.csv")
        self._write_inputs(0)
        self._write_config(
            "[experiment]\n"
            "config_version = 1\n"
            "approach = marline_with_source\n"
            f"runs = {self.runs}\n"
            "seed = 0\n"
            "evaluation = sliding_window\n"
            "window_fraction = 0.1\n"
            "interleave = round_robin\n"
            "[model]\n"
            "base_ensemble = boosting\n"
            "detector = ddm\n"
            "ensemble_size = 10\n"
            "forgetting_factor = 0.9\n"
            "performance_index = 0.4\n"
            "leaf_prediction = majority\n"
            "[dataset]\n"
            "kind = csv\n"
            "[target]\n"
            f"path = {target_path}\n"
            "features = t1, t2, hum, wind_speed\n"
            "target_column = cnt\n"
            "filter = is_weekend == 1\n"
            "[source:dc_weekday]\n"
            f"path = {source_path}\n"
            "features = temp, atemp, hum, windspeed\n"
            "target_column = cnt\n"
            "filter = workingday == 1\n"
            "[grid]\n"
            "ensemble_size = 5,10\n"
        )
        self.points = [(e, f, p) for e in _GRID_AXES["ensemble_size"]
                       for f in _GRID_AXES["forgetting_factor"]
                       for p in _GRID_AXES["performance_index"]]
        self.rows_in_file = {target_path: 24 * self.days, source_path: self.days}

        # One untimed `generate` per run checks that the program scores
        # exactly the filtered rows of the benchmark's own target file.
        call, out_dir, errors = self._command(-1, "generate", 1000 * self.seed)
        if not errors:
            _, rows = _read_csv(os.path.join(out_dir, "dataset.csv"))
            n = sum(1 for row in rows if row[1] == "T")
            if n != self.n_target_steps:
                errors.append(f"generate wrote {n} target rows, the filter keeps "
                              f"{self.n_target_steps}")
        tally.operation(errors, f"{self.name} generate")

    def round(self, tally: Tally, index: int) -> float:
        self._write_inputs(index)
        seed = 1000 * self.seed + 10 * index
        call, out_dir, errors = self._command(index, "grid", seed)
        accuracy = math.nan
        if not errors:
            try:
                accuracy = self._check(out_dir, call.stdout, errors)
            except (OSError, ValueError, IndexError) as exc:
                errors.append(f"unreadable outputs: {type(exc).__name__}: {exc}")
        if not errors:
            tally.hashes[f"seed{seed}"] = file_hashes(out_dir)
            steps = len(self.points) * self.runs * self.n_target_steps
            tally.rounds.append(Round((call.start, call.first_predict),
                                      (call.first_predict, call.end), steps, accuracy))
        tally.operation(errors, f"{self.name} command {index}")
        return call.end

    def _check(self, out_dir: str, stdout: str, errors: list[str]) -> float:
        header, rows = _read_csv(os.path.join(out_dir, "grid_results.csv"))
        if header != ["ensemble_size", "forgetting_factor", "performance_index", "objective"]:
            errors.append(f"grid_results.csv header {header}")
            return math.nan
        if len(rows) != len(self.points):
            errors.append(f"grid_results.csv has {len(rows)} rows, expected {len(self.points)}")
            return math.nan
        objectives = []
        for (e, f, p), row in zip(self.points, rows):
            if (int(row[0]), float(row[1]), float(row[2])) != (e, f, p):
                errors.append(f"grid row {row[:3]} where {(e, f, p)} belongs")
                return math.nan
            objective = float(row[3])
            if not 0.0 < objective <= 1.0:
                errors.append(f"grid objective {row[3]} outside (0, 1]")
                return math.nan
            objectives.append(objective)
        # Highest objective; ties go to the smaller ensemble size, then the
        # smaller forgetting factor, then the smaller index: the first of the
        # tied rows in the documented order. Rows print six decimals, so rows
        # that tie there may still differ in the program's exact values; the
        # printed best must then be one of them.
        top = max(objectives)
        tied = [i for i, objective in enumerate(objectives) if objective == top]
        printed = re.search(r"best: ensemble_size=(\S+) forgetting_factor=(\S+) "
                            r"performance_index=(\S+) objective=(\S+)", stdout)
        point = printed and (int(printed.group(1)), float(printed.group(2)),
                             float(printed.group(3)))
        if (printed is None or point not in [self.points[i] for i in tied]
                or printed.group(4) != rows[tied[0]][3]):
            errors.append(f"printed {printed and printed.group(0)!r}, the rows give "
                          f"{self.points[tied[0]]} objective={rows[tied[0]][3]}")
        return top

    def after_traced_round(self, tracer) -> None:
        super().after_traced_round(tracer)
        tracer.rows_read += sum(self.rows_in_file.get(p, 0) for p in tracer.ingest_paths)
        tracer.ingest_paths.clear()


def _weather(day: np.ndarray, hour: np.ndarray, rng):
    """Temperature, feels-like temperature, humidity and wind speed with a
    yearly and a daily cycle."""
    n = len(day)
    season = np.sin(2.0 * np.pi * day / 365.0)
    diurnal = np.sin(2.0 * np.pi * (hour - 9) / 24.0)
    temp = 13.0 + 8.0 * season + 4.0 * diurnal + rng.normal(0.0, 2.5, n)
    feels = temp - 1.5 + rng.normal(0.0, 1.5, n)
    hum = np.clip(70.0 - 10.0 * season - 12.0 * diurnal + rng.normal(0.0, 10.0, n), 15.0, 100.0)
    wind = np.abs(rng.normal(15.0, 7.0, n))
    return temp, feels, hum, wind


def _write_target_csv(path: str, days: int, rng) -> int:
    """London-like hourly rows, 24 a day, in the columns of
    ``london_merged.csv``; returns how many the target filter keeps."""
    i = np.arange(24 * days)
    day, hour = i // 24, i % 24
    temp, feels, hum, wind = _weather(day, hour, rng)
    weekend = (day % 7 >= 5).astype(int)
    commute = np.exp(-0.5 * ((hour - 8) / 1.2) ** 2) + np.exp(-0.5 * ((hour - 17.5) / 1.5) ** 2)
    leisure = np.exp(-0.5 * ((hour - 14) / 3.5) ** 2)
    demand = np.where(weekend == 1, 1800.0 * leisure, 2600.0 * commute + 500.0 * leisure)
    cnt = np.maximum(0, np.round(
        (120.0 + demand) * (1.0 + 0.04 * (temp - 13.0)) - 8.0 * (hum - 70.0) - 6.0 * wind
        + rng.normal(0.0, 150.0, len(i))))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "cnt", "t1", "t2", "hum", "wind_speed", "is_weekend"])
        for j in range(len(i)):
            writer.writerow([f"d{day[j]}h{hour[j]:02d}", int(cnt[j]), f"{temp[j]:.1f}",
                             f"{feels[j]:.1f}", f"{hum[j]:.1f}", f"{wind[j]:.1f}", weekend[j]])
    return int(weekend.sum())


def _write_source_csv(path: str, days: int, rng) -> None:
    """Washington-like daily rows with normalised weather columns, in the
    columns of the UCI ``day.csv`` that the config reads."""
    day = np.arange(days)
    temp, feels, hum, wind = _weather(day, np.full(days, 15), rng)
    holiday = (rng.random(days) < 0.03).astype(int)
    workingday = ((day % 7 < 5) & (holiday == 0)).astype(int)
    cnt = np.maximum(0, np.round(
        2500 + 150 * temp - 25 * hum - 30 * wind + 600 * workingday
        + rng.normal(0, 400, days)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instant", "holiday", "workingday", "temp", "atemp",
                         "hum", "windspeed", "cnt"])
        for i in range(days):
            writer.writerow([i + 1, holiday[i], workingday[i], f"{temp[i] / 41.0:.6f}",
                             f"{feels[i] / 50.0:.6f}", f"{hum[i] / 100.0:.4f}",
                             f"{wind[i] / 67.0:.6f}", int(cnt[i])])


WORKLOADS = {w.name: w for w in (OnlineAbrupt, RunIncrementalSixSources, GridCsvBoosting)}
