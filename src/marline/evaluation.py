"""Evaluation protocols and the experiment runner: strict test-then-train
prequential accuracy with ground-truth drift resets, sliding-window accuracy,
seeded multi-run averaging over the compared approaches, and grid search.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import product
from typing import Sequence

import numpy as np

from .core import ConfigurationError, Example, argmax_label, check_dims
from .drift import DriftStatus, make_detector
from .learners import make_ensemble, mean_pair
from .model import MarlineConfig, MarlineModel
from .streams import (
    CsvDataset,
    StreamData,
    StreamSchedule,
    SyntheticDataset,
    generate_synthetic,
    ingest_csv,
    interleave,
    reseed_dataset,
)

EVALUATIONS = ("prequential_reset", "sliding_window")

# Hyperparameter search ranges used when a grid is not given explicitly.
DEFAULT_ENSEMBLE_SIZE_GRID = tuple(range(1, 31))
DEFAULT_FORGETTING_FACTOR_GRID = tuple(round(0.9 + 0.01 * i, 2) for i in range(11))
DEFAULT_PERFORMANCE_INDEX_GRID = tuple(round(0.1 * (i + 1), 1) for i in range(10))


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment."""

    approach: str
    config: MarlineConfig
    dataset: SyntheticDataset | CsvDataset
    runs: int = 30
    seed_base: int = 0
    evaluation: str = "prequential_reset"
    window_fraction: float = 0.1
    interleave_policy: str = "round_robin"
    warmup_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.approach not in APPROACHES:
            raise ConfigurationError(f"unknown approach {self.approach!r}")
        if self.evaluation not in EVALUATIONS:
            raise ConfigurationError(f"unknown evaluation {self.evaluation!r}")
        if self.runs < 1:
            raise ConfigurationError("runs must be >= 1")
        if self.seed_base < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed_base}")
        if not 0.0 < self.window_fraction <= 1.0:
            raise ConfigurationError("window_fraction must be in (0, 1]")


@dataclass
class RunTrace:
    """All per-target-step series collected in a single pass."""

    correct: list[int]
    running: list[float]
    windowed: list[float]
    segment_ids: list[int]
    reset_points: list[int]
    final_per_segment_accuracy: list[float]
    weight_ratio: list[float]


# ----------------------------------------------------------------------
# Approaches
# ----------------------------------------------------------------------


class MarlineApproach:
    """Adapter running a MARLINE model inside the evaluation loop."""

    def __init__(
        self,
        config: MarlineConfig,
        target_id: str,
        use_sources: bool,
        rng: np.random.Generator,
    ) -> None:
        self.model = MarlineModel(config, target_id=target_id)
        self.target_id = target_id
        self.use_sources = use_sources
        self.rng = rng

    def predict(self, features: np.ndarray) -> int:
        return self.model.predict(features).label

    def observe(self, stream_id: str, example: Example) -> None:
        if not self.use_sources and stream_id != self.target_id:
            return
        self.model.observe(stream_id, example, self.rng)

    def source_weight_ratio(self) -> float:
        return self.model.source_weight_ratio()


class BaselineApproach:
    """A single online ensemble trained on the target stream only, optionally
    reset to fresh whenever its drift detector alarms."""

    def __init__(
        self,
        config: MarlineConfig,
        target_id: str,
        reset_on_drift: bool,
        rng: np.random.Generator,
    ) -> None:
        self.config = config
        self.target_id = target_id
        self.reset_on_drift = reset_on_drift
        self.rng = rng
        self.ensemble = self._fresh_ensemble()
        self.detector = (
            make_detector(config.detector, **dict(config.detector_params))
            if reset_on_drift
            else None
        )

    def _fresh_ensemble(self):
        return make_ensemble(
            self.config.base_ensemble,
            self.config.n_features,
            self.config.ensemble_size,
            self.config.tree,
        )

    def predict(self, features: np.ndarray) -> int:
        return argmax_label(self.ensemble.predict(features))

    def observe(self, stream_id: str, example: Example) -> None:
        if stream_id != self.target_id:
            return
        check_dims(example.features, self.config.n_features, "BaselineApproach.observe")
        values = example.features.tolist()
        pairs = None
        if self.detector is not None:
            pairs = self.ensemble.memo_pairs(values)
            correct = argmax_label(mean_pair(pairs)) == example.label
            if self.detector.update(correct) is DriftStatus.DRIFT:
                self.ensemble = self._fresh_ensemble()
                self.detector.reset()
                pairs = None
        self.ensemble.learn(values, example.label, self.rng, pairs)

    def source_weight_ratio(self) -> float | None:
        return None


# Each compared approach: its class and the flag that class takes
# (``use_sources`` or ``reset_on_drift``).
APPROACHES = {
    "marline_with_source": (MarlineApproach, True),
    "marline_no_source": (MarlineApproach, False),
    "base_plain": (BaselineApproach, False),
    "base_detector_reset": (BaselineApproach, True),
}


def build_approach(spec: ExperimentSpec, target_id: str, model_seed) -> object:
    approach, flag = APPROACHES[spec.approach]
    return approach(spec.config, target_id, flag, np.random.default_rng(model_seed))


# ----------------------------------------------------------------------
# Protocols
# ----------------------------------------------------------------------


def run_schedule(
    approach,
    schedule: StreamSchedule,
    reset_at_drifts: bool,
    window_fraction: float,
) -> RunTrace:
    """Single pass over a schedule: score each target example before the
    approach sees it, then hand every example over for training.

    Running accuracy restarts at each ground-truth target drift mark when
    ``reset_at_drifts`` is set; windowed accuracy is the mean correctness over
    the trailing ``max(1, ceil(window_fraction * n_target))`` target steps.
    """
    n_target = sum(1 for sid, _ in schedule.entries if sid == schedule.target_id)
    if n_target == 0:
        raise ConfigurationError("schedule contains no target examples")
    window = max(1, math.ceil(window_fraction * n_target))
    reset_indices = set(schedule.target_drift_indices()) if reset_at_drifts else set()
    ratio_fn = getattr(approach, "source_weight_ratio", lambda: None)

    trace = RunTrace([], [], [], [], [], [], [])
    seg_correct = 0
    seg_total = 0
    segment = 0
    recent: deque[int] = deque(maxlen=window)
    for index, (stream_id, example) in enumerate(schedule.entries):
        if stream_id == schedule.target_id:
            if index in reset_indices and seg_total > 0:
                trace.final_per_segment_accuracy.append(seg_correct / seg_total)
                trace.reset_points.append(len(trace.running))
                seg_correct = 0
                seg_total = 0
                segment += 1
            predicted = approach.predict(example.features)
            correct = 1 if predicted == example.label else 0
            seg_correct += correct
            seg_total += 1
            recent.append(correct)
            trace.correct.append(correct)
            trace.running.append(seg_correct / seg_total)
            trace.windowed.append(sum(recent) / len(recent))
            trace.segment_ids.append(segment)
            approach.observe(stream_id, example)
            ratio = ratio_fn()
            trace.weight_ratio.append(math.nan if ratio is None else float(ratio))
        else:
            approach.observe(stream_id, example)
    if seg_total > 0:
        trace.final_per_segment_accuracy.append(seg_correct / seg_total)
    return trace


# ----------------------------------------------------------------------
# Experiments
# ----------------------------------------------------------------------


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    traces: list[RunTrace]
    mean_running: np.ndarray
    std_running: np.ndarray
    mean_windowed: np.ndarray
    std_windowed: np.ndarray
    mean_weight_ratio: np.ndarray
    segment_means: np.ndarray
    segment_stds: np.ndarray

    @property
    def objective(self) -> float:
        """Grid-search objective: equal-weight mean of per-segment accuracy
        under the prequential protocol, mean windowed accuracy otherwise."""
        if self.spec.evaluation == "prequential_reset":
            return float(np.mean([np.mean(t.final_per_segment_accuracy) for t in self.traces]))
        return float(np.mean([np.mean(t.windowed) for t in self.traces]))


def build_schedule(spec: ExperimentSpec, run_index: int) -> StreamSchedule:
    """Materialise the run's schedule; synthetic data is resampled per run
    from seeds derived independently of the model's randomness."""
    dataset = spec.dataset
    if isinstance(dataset, SyntheticDataset):
        data_seed = np.random.SeedSequence([spec.seed_base + run_index, 0])
        dataset = reseed_dataset(dataset, data_seed)
        target_gen = generate_synthetic(dataset.target)
        target = StreamData("T", target_gen.examples, target_gen.drift_marks)
        sources = []
        for i, source_spec in enumerate(dataset.sources):
            gen = generate_synthetic(source_spec)
            sources.append(StreamData(f"S{i + 1}", gen.examples, gen.drift_marks))
    else:
        target = StreamData("T", tuple(ingest_csv(dataset.target)))
        sources = [
            StreamData(f"S{i + 1}", tuple(ingest_csv(src)))
            for i, src in enumerate(dataset.sources)
        ]
    return interleave(
        target, tuple(sources), spec.interleave_policy, spec.warmup_fraction
    )


def _model_seed(spec: ExperimentSpec, run_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([spec.seed_base + run_index, 1])


def _execute_run(spec: ExperimentSpec, run_index: int) -> RunTrace:
    schedule = build_schedule(spec, run_index)
    approach = build_approach(spec, schedule.target_id, _model_seed(spec, run_index))
    reset = spec.evaluation == "prequential_reset"
    return run_schedule(approach, schedule, reset, spec.window_fraction)


def run_experiment(spec: ExperimentSpec, parallelism: int = 1) -> ExperimentResult:
    """Execute ``spec.runs`` independent seeded runs and aggregate them.

    Run r uses seed ``seed_base + r``; runs are independent tasks, so the
    aggregate is identical however they are scheduled across workers.
    """
    if parallelism < 1:
        raise ConfigurationError("parallelism must be >= 1")
    indices = list(range(spec.runs))
    if parallelism == 1 or spec.runs == 1:
        traces = [_execute_run(spec, r) for r in indices]
    else:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            traces = list(pool.map(_execute_run, [spec] * spec.runs, indices))

    running = np.array([t.running for t in traces])
    windowed = np.array([t.windowed for t in traces])
    ratios = np.array([t.weight_ratio for t in traces])
    n_segments = max(len(t.final_per_segment_accuracy) for t in traces)
    segments = np.full((len(traces), n_segments), np.nan)
    for i, t in enumerate(traces):
        segments[i, : len(t.final_per_segment_accuracy)] = t.final_per_segment_accuracy
    return ExperimentResult(
        spec=spec,
        traces=traces,
        mean_running=running.mean(axis=0),
        std_running=running.std(axis=0),
        mean_windowed=windowed.mean(axis=0),
        std_windowed=windowed.std(axis=0),
        mean_weight_ratio=ratios.mean(axis=0),
        segment_means=np.nanmean(segments, axis=0),
        segment_stds=np.nanstd(segments, axis=0),
    )


# ----------------------------------------------------------------------
# Grid search
# ----------------------------------------------------------------------

# The grid axes, with the values searched when no grid is given.
DEFAULT_GRIDS = {
    "ensemble_size": DEFAULT_ENSEMBLE_SIZE_GRID,
    "forgetting_factor": DEFAULT_FORGETTING_FACTOR_GRID,
    "performance_index": DEFAULT_PERFORMANCE_INDEX_GRID,
}


@dataclass
class GridSearchResult:
    best_spec: ExperimentSpec
    best_objective: float
    rows: list[dict]


def grid_search(
    template: ExperimentSpec,
    grids: dict[str, Sequence] | None = None,
    parallelism: int = 1,
) -> GridSearchResult:
    """Evaluate every grid point with :func:`run_experiment` and pick the
    configuration with the highest objective; ties go to the smaller
    ensemble size, then smaller forgetting factor, then smaller index."""
    grids = dict(grids or DEFAULT_GRIDS)
    unknown = set(grids) - set(DEFAULT_GRIDS)
    if unknown:
        raise ConfigurationError(f"unknown grid fields: {sorted(unknown)}")
    if any(len(values) == 0 for values in grids.values()):
        raise ConfigurationError("grids must be nonempty")
    axes = [sorted(grids.get(name, [getattr(template.config, name)])) for name in DEFAULT_GRIDS]
    # Each axis takes the type of its default values.
    kinds = [type(values[0]) for values in DEFAULT_GRIDS.values()]

    best_spec: ExperimentSpec | None = None
    best_objective = -math.inf
    rows: list[dict] = []
    for values in product(*axes):
        point = {
            name: kind(value) for name, kind, value in zip(DEFAULT_GRIDS, kinds, values)
        }
        spec = replace(template, config=replace(template.config, **point))
        result = run_experiment(spec, parallelism=parallelism)
        rows.append({**point, "objective": result.objective})
        if result.objective > best_objective:
            best_objective = result.objective
            best_spec = spec
    assert best_spec is not None
    return GridSearchResult(best_spec, best_objective, rows)


# ----------------------------------------------------------------------
# CSV output
# ----------------------------------------------------------------------


def _fmt(value: float) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return f"{value:.6f}"


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_results_csv(result: ExperimentResult, path: str) -> None:
    """Per-run, per-target-step series: run, t, segment, accuracies, ratio."""
    header = ["run", "t", "segment", "accuracy_running", "accuracy_window", "source_weight_ratio"]
    rows = (
        [run, t, segment, _fmt(running), _fmt(windowed), _fmt(ratio)]
        for run, trace in enumerate(result.traces)
        for t, (segment, running, windowed, ratio) in enumerate(
            zip(trace.segment_ids, trace.running, trace.windowed, trace.weight_ratio), start=1
        )
    )
    _write_csv(path, header, rows)


def write_summary_csv(result: ExperimentResult, path: str) -> None:
    """Across-run mean and standard deviation at each target step."""
    columns = {
        "accuracy_running_mean": result.mean_running,
        "accuracy_running_std": result.std_running,
        "accuracy_window_mean": result.mean_windowed,
        "accuracy_window_std": result.std_windowed,
        "source_weight_ratio_mean": result.mean_weight_ratio,
    }
    rows = ([t, *map(_fmt, values)] for t, values in enumerate(zip(*columns.values()), start=1))
    _write_csv(path, ["t", *columns], rows)


def write_segments_csv(result: ExperimentResult, path: str) -> None:
    """Across-run mean and standard deviation of each segment's accuracy."""
    rows = (
        [s, _fmt(mean), _fmt(std)]
        for s, (mean, std) in enumerate(zip(result.segment_means, result.segment_stds))
    )
    _write_csv(path, ["segment", "accuracy_mean", "accuracy_std"], rows)


def write_grid_csv(result: GridSearchResult, path: str) -> None:
    """One row per evaluated grid point."""
    rows = (
        [*(row[axis] for axis in DEFAULT_GRIDS), _fmt(row["objective"])] for row in result.rows
    )
    _write_csv(path, [*DEFAULT_GRIDS, "objective"], rows)
