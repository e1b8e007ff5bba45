"""Tests for the evaluation protocols, experiment runner, and grid search."""

from __future__ import annotations

import os
from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest

from marline import evaluation
from marline.core import NEG, ConfigurationError, Example
from marline.evaluation import (
    DEFAULT_ENSEMBLE_SIZE_GRID,
    DEFAULT_FORGETTING_FACTOR_GRID,
    DEFAULT_PERFORMANCE_INDEX_GRID,
    ExperimentSpec,
    build_approach,
    build_schedule,
    grid_search,
    run_experiment,
    run_schedule,
)
from marline.model import MarlineConfig, MarlineModel
from marline.streams import (
    CsvDataset,
    CsvStreamSpec,
    StreamData,
    StreamSchedule,
    benchmark_dataset,
    interleave,
)


def ex(label, uid=0.0):
    return Example(np.array([float(label), float(uid)]), label)


def target_schedule(labels, marks=()):
    target = StreamData(
        "T", tuple(ex(l, i) for i, l in enumerate(labels)), drift_marks=tuple(marks)
    )
    return interleave(target, ())


class FeatureEchoStub:
    """Predicts the label encoded in the first feature: always correct."""

    def predict(self, features):
        return int(features[0])

    def observe(self, stream_id, example):
        pass


class AlwaysWrongStub:
    def predict(self, features):
        return 1 - int(features[0])

    def observe(self, stream_id, example):
        pass


class ScriptedStub:
    """Correct or wrong per scored example, following a bit script."""

    def __init__(self, bits):
        self.bits = list(bits)
        self.cursor = 0

    def predict(self, features):
        truth = int(features[0])
        bit = self.bits[self.cursor]
        self.cursor += 1
        return truth if bit else 1 - truth

    def observe(self, stream_id, example):
        pass


class SpyStub:
    """Records the order of scoring and training calls per example id."""

    def __init__(self):
        self.log = []

    def predict(self, features):
        self.log.append(("predict", float(features[1])))
        return NEG

    def observe(self, stream_id, example):
        self.log.append(("observe", float(example.features[1])))


# ----------------------------------------------------------------------
# Prequential protocol
# ----------------------------------------------------------------------


def test_perfect_predictor_scores_one_everywhere():
    schedule = target_schedule([0, 1, 0, 1, 1, 0])
    trace = run_schedule(FeatureEchoStub(), schedule, True, 1.0)
    assert trace.running == [1.0] * 6
    assert trace.final_per_segment_accuracy == [1.0]
    assert trace.reset_points == []


def test_always_wrong_with_reset_zeroes_both_segments():
    schedule = target_schedule([0, 1, 0, 1], marks=[2])
    trace = run_schedule(AlwaysWrongStub(), schedule, True, 1.0)
    assert trace.running == [0.0, 0.0, 0.0, 0.0]
    assert trace.final_per_segment_accuracy == [0.0, 0.0]
    assert trace.reset_points == [2]


def test_counters_zero_exactly_at_the_reset_point():
    # Wrong, wrong before the mark; correct, correct after: the running
    # accuracy must restart from the mark rather than average across it.
    schedule = target_schedule([0, 1, 0, 1], marks=[2])
    trace = run_schedule(ScriptedStub([0, 0, 1, 1]), schedule, True, 1.0)
    assert trace.running == [0.0, 0.0, 1.0, 1.0]
    assert trace.final_per_segment_accuracy == [0.0, 1.0]


def test_running_accuracy_is_the_hand_computed_mean():
    schedule = target_schedule([0, 1, 0, 1])
    trace = run_schedule(ScriptedStub([1, 0, 1, 0]), schedule, True, 1.0)
    assert trace.running == pytest.approx([1.0, 0.5, 2 / 3, 0.5])


def test_resets_ignored_when_disabled():
    schedule = target_schedule([0, 1, 0, 1], marks=[2])
    trace = run_schedule(AlwaysWrongStub(), schedule, False, 1.0)
    assert trace.final_per_segment_accuracy == [0.0]
    assert trace.reset_points == []


def test_source_examples_are_never_scored():
    target = StreamData("T", (ex(0, 0), ex(1, 1)))
    source = StreamData("S1", (ex(0, 10), ex(1, 11), ex(0, 12)))
    schedule = interleave(target, (source,))
    trace = run_schedule(FeatureEchoStub(), schedule, True, 1.0)
    assert len(trace.running) == 2


def test_empty_target_schedule_is_rejected():
    schedule = StreamSchedule(entries=(("S1", ex(0)),), drift_marks=(), target_id="T")
    with pytest.raises(ConfigurationError):
        run_schedule(FeatureEchoStub(), schedule, True, 1.0)


def test_strict_test_then_train_ordering():
    schedule = target_schedule([0, 1, 0, 1, 0])
    spy = SpyStub()
    run_schedule(spy, schedule, True, 1.0)
    seen_observe = set()
    scored = set()
    for kind, uid in spy.log:
        if kind == "predict":
            assert uid not in seen_observe, "trained before scoring"
            scored.add(uid)
        else:
            assert uid in scored, "observed an example that was never scored first"
            seen_observe.add(uid)
    assert len(scored) == 5


def test_segment_accuracy_depends_only_on_its_own_segment():
    # Perturb the pre-reset examples; the post-reset segment value must not
    # move (stub decisions depend only on each example's own features).
    base = target_schedule([0, 1, 0, 1, 0, 1], marks=[3])
    flipped = target_schedule([1, 0, 1, 1, 0, 1], marks=[3])
    stub_bits = [0, 1, 0, 1, 1, 0]
    t1 = run_schedule(ScriptedStub(stub_bits), base, True, 1.0)
    t2 = run_schedule(ScriptedStub(stub_bits), flipped, True, 1.0)
    assert t1.final_per_segment_accuracy[1] == t2.final_per_segment_accuracy[1]


# ----------------------------------------------------------------------
# Sliding window
# ----------------------------------------------------------------------


def test_window_of_one_replays_the_correctness_bits():
    bits = [1, 0, 1, 1, 0]
    schedule = target_schedule([0, 1, 0, 1, 0])
    series = run_schedule(ScriptedStub(bits), schedule, False, 1e-9).windowed
    assert series == [float(b) for b in bits]


def test_sliding_window_matches_brute_force_oracle():
    bits = [1, 1, 0, 1, 0, 0, 1, 1, 1, 0]
    schedule = target_schedule([i % 2 for i in range(10)])
    series = run_schedule(ScriptedStub(bits), schedule, False, 0.3).windowed
    window = 3
    expected = [
        float(np.mean(bits[max(0, t - window + 1) : t + 1])) for t in range(len(bits))
    ]
    assert series == pytest.approx(expected)


def test_windowed_accuracy_reads_no_window_per_step(monkeypatch):
    # The window's sum is kept as steps enter and leave, so no step sums
    # the window again; the values equal a sum taken on every step.
    import marline.evaluation as evaluation

    reads = []

    class CountedDeque(evaluation.deque):
        def __iter__(self):
            reads.append(len(self))
            return super().__iter__()

    bits = [1, 1, 0, 1, 0, 0, 1, 1, 1, 0] * 20
    schedule = target_schedule([i % 2 for i in range(len(bits))])
    monkeypatch.setattr(evaluation, "deque", CountedDeque)
    series = run_schedule(ScriptedStub(bits), schedule, False, 0.05).windowed
    assert reads == []
    window = 10
    assert series == [
        sum(bits[max(0, t - window + 1) : t + 1]) / min(t + 1, window) for t in range(len(bits))
    ]


def test_constant_predictor_converges_to_half_on_balanced_stream():
    n = 400
    schedule = target_schedule([i % 2 for i in range(n)])

    class AlwaysNeg:
        def predict(self, features):
            return NEG

        def observe(self, stream_id, example):
            pass

    series = run_schedule(AlwaysNeg(), schedule, False, 0.1).windowed
    window = 40
    assert abs(series[-1] - 0.5) <= 1.0 / window


# ----------------------------------------------------------------------
# Experiment runner
# ----------------------------------------------------------------------


def tiny_spec(**overrides):
    defaults = dict(
        approach="base_plain",
        config=MarlineConfig(n_features=2, ensemble_size=2),
        dataset=benchmark_dataset("abrupt_similar", 10),
        runs=2,
        seed_base=5,
        evaluation="prequential_reset",
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def test_single_run_mean_equals_the_trace():
    result = run_experiment(tiny_spec(runs=1))
    assert np.array_equal(result.mean_running, np.array(result.traces[0].running))
    assert np.all(result.std_running == 0.0)


def test_identical_seeds_are_deterministic_with_zero_spread():
    a = run_experiment(tiny_spec(runs=1, seed_base=9))
    b = run_experiment(tiny_spec(runs=1, seed_base=9))
    assert a.traces[0].running == b.traces[0].running
    assert a.traces[0].windowed == b.traces[0].windowed
    stacked = np.array([a.traces[0].running, b.traces[0].running])
    assert np.all(stacked.std(axis=0) == 0.0)


def test_parallel_and_serial_execution_agree_exactly():
    spec = tiny_spec(runs=4, approach="marline_with_source")
    serial = run_experiment(spec, parallelism=1)
    parallel = run_experiment(spec, parallelism=2)
    assert np.array_equal(serial.mean_running, parallel.mean_running)
    assert np.array_equal(serial.mean_windowed, parallel.mean_windowed)
    for a, b in zip(serial.traces, parallel.traces):
        assert a.running == b.running
        assert a.weight_ratio == b.weight_ratio


@pytest.mark.parametrize(
    "parallelism, runs, cpus, workers",
    [
        (100_000, 2, 64, [2]),
        (4, 5, 3, [3]),
        (3, 5, 64, [3]),
        (100_000, 1, 64, []),
        (2, 4, None, []),
        (1, 4, 64, []),
    ],
)
def test_the_pool_has_no_more_workers_than_tasks_or_cpus(
    monkeypatch, recording_pool, parallelism, runs, cpus, workers
):
    # A run or a grid's run is one task. One worker runs in this process.
    spec = tiny_spec(runs=runs)
    grids = {"ensemble_size": [1, 2]}
    serial, serial_grid = run_experiment(spec), grid_search(spec, grids)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    result = run_experiment(spec, parallelism=parallelism)
    assert recording_pool == workers
    assert [t.running for t in result.traces] == [t.running for t in serial.traces]
    recording_pool.clear()
    assert grid_search(spec, grids, parallelism=parallelism).rows == serial_grid.rows
    assert recording_pool == workers


def test_parallelism_below_one_is_refused():
    for run in (
        lambda: run_experiment(tiny_spec(), parallelism=0),
        lambda: grid_search(tiny_spec(), {"ensemble_size": [1]}, parallelism=0),
    ):
        with pytest.raises(ConfigurationError, match="parallelism must be >= 1"):
            run()


def csv_spec(tmp_path, **overrides):
    """A two-feature CSV target and source, in the shape of ``tiny_spec``."""
    paths = []
    for name, n in (("target", 60), ("source", 80)):
        path = tmp_path / f"{name}.csv"
        rows = ["a,b,cnt"] + [
            f"{(i * 7) % 23},{(i * 13) % 17},{(3 * ((i * 7) % 23) + (i * 37) % 11) % 40}"
            for i in range(n)
        ]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        paths.append(CsvStreamSpec(str(path), ("a", "b"), "cnt"))
    dataset = CsvDataset(paths[0], (paths[1],))
    return tiny_spec(dataset=dataset, **overrides)


@pytest.mark.parametrize("data", ["synthetic", "csv"])
@pytest.mark.parametrize("approach", ["marline_with_source", "base_detector_reset"])
def test_a_run_leaves_its_schedule_as_it_was(tmp_path, data, approach):
    # Grid points share a run's schedule, so a run must not change one
    # example of it: every feature and label equals a copy taken before,
    # and a second run on it equals a run on a schedule built afresh.
    spec = tiny_spec(approach=approach) if data == "synthetic" else csv_spec(
        tmp_path, approach=approach
    )
    schedule = build_schedule(spec, 1)
    before = [(sid, ex.features.copy(), ex.label) for sid, ex in schedule.entries]

    def run(on):
        approach = build_approach(spec, on.target_id, evaluation._model_seed(spec, 1))
        return run_schedule(approach, on, True, spec.window_fraction)

    first = run(schedule)
    assert len(schedule.entries) == len(before)
    for (sid, ex), (sid_before, features, label) in zip(schedule.entries, before):
        assert sid == sid_before and ex.label == label
        assert ex.features.tobytes() == features.tobytes()
    assert run(schedule) == first == run(build_schedule(spec, 1))


@pytest.mark.parametrize("data", ["synthetic", "csv"])
@pytest.mark.parametrize("protocol", ["prequential_reset", "sliding_window"])
def test_grid_rows_equal_the_objectives_of_independent_experiments(tmp_path, data, protocol):
    overrides = dict(approach="marline_with_source", evaluation=protocol)
    spec = tiny_spec(**overrides) if data == "synthetic" else csv_spec(tmp_path, **overrides)
    result = grid_search(spec, {"forgetting_factor": [0.9, 1.0]})
    assert [row["forgetting_factor"] for row in result.rows] == [0.9, 1.0]
    for row in result.rows:
        config = replace(spec.config, forgetting_factor=row["forgetting_factor"])
        alone = run_experiment(replace(spec, config=config))
        assert row["objective"].hex() == alone.objective.hex()


def test_grid_scoring_computes_no_source_weight_share(monkeypatch):
    # No grid objective reads the share, so the grid's runs never ask for
    # it; run_experiment asks each run's model once per target step.
    calls = []
    ratio = MarlineModel.source_weight_ratio

    def spied(model):
        calls.append(model)
        return ratio(model)

    monkeypatch.setattr(MarlineModel, "source_weight_ratio", spied)
    spec = tiny_spec(approach="marline_with_source")
    assert len(grid_search(spec, {"forgetting_factor": [0.9, 1.0]}).rows) == 2
    assert calls == []
    result = run_experiment(spec)
    steps = [
        sum(1 for sid, _ in build_schedule(spec, r).entries if sid == "T")
        for r in range(spec.runs)
    ]
    # The models stay alive in ``calls``, so no two runs share an id.
    assert [len(list(group)) for _, group in groupby(calls, key=id)] == steps
    assert [len(t.weight_ratio) for t in result.traces] == steps


@pytest.mark.parametrize("approach", ["marline_with_source", "base_plain"])
def test_a_run_without_the_share_differs_only_in_its_empty_ratio_series(approach):
    spec = tiny_spec(approach=approach)
    schedule = build_schedule(spec, 0)
    full = evaluation._run_on(spec, schedule, 0)
    bare = evaluation._run_on(spec, schedule, 0, weight_ratio=False)
    assert bare.weight_ratio == [] and len(full.weight_ratio) == len(full.running)
    assert replace(bare, weight_ratio=full.weight_ratio) == full


def test_runs_with_different_seeds_differ():
    result = run_experiment(tiny_spec(runs=2, approach="marline_with_source"))
    assert result.traces[0].running != result.traces[1].running


def test_marline_with_source_beats_plain_bagging_on_no_drift():
    # Directional reproduction at desk scale: mean accuracy over 30 seeded
    # runs on the small no-drift dataset with a similar source.
    dataset = benchmark_dataset("no_drift_similar", 50)
    config = MarlineConfig(n_features=2, ensemble_size=10)
    with_source = run_experiment(
        ExperimentSpec("marline_with_source", config, dataset, runs=30, seed_base=7)
    )
    plain = run_experiment(
        ExperimentSpec("base_plain", config, dataset, runs=30, seed_base=7)
    )
    assert with_source.objective > plain.objective


def test_weight_ratio_column_is_nan_for_baselines():
    result = run_experiment(tiny_spec(runs=1))
    assert np.isnan(result.traces[0].weight_ratio).all()
    marline = run_experiment(tiny_spec(runs=1, approach="marline_with_source"))
    assert np.isfinite(marline.traces[0].weight_ratio).all()


def test_segment_counts_follow_the_drift_marks():
    result = run_experiment(tiny_spec(runs=1))
    # abrupt dataset: one drift mark, two segments
    assert len(result.traces[0].final_per_segment_accuracy) == 2


# ----------------------------------------------------------------------
# Grid search
# ----------------------------------------------------------------------


def test_default_grids_match_the_published_ranges():
    assert len(DEFAULT_ENSEMBLE_SIZE_GRID) == 30
    assert DEFAULT_ENSEMBLE_SIZE_GRID[0] == 1 and DEFAULT_ENSEMBLE_SIZE_GRID[-1] == 30
    assert len(DEFAULT_FORGETTING_FACTOR_GRID) == 11
    assert DEFAULT_FORGETTING_FACTOR_GRID[0] == 0.9
    assert DEFAULT_FORGETTING_FACTOR_GRID[-1] == 1.0
    assert len(DEFAULT_PERFORMANCE_INDEX_GRID) == 10
    assert DEFAULT_PERFORMANCE_INDEX_GRID[0] == 0.1
    assert DEFAULT_PERFORMANCE_INDEX_GRID[-1] == 1.0


def test_single_point_grid_returns_that_point():
    spec = tiny_spec(runs=1)
    result = grid_search(
        spec,
        {
            "ensemble_size": [3],
            "forgetting_factor": [0.95],
            "performance_index": [0.2],
        },
    )
    assert result.best_spec.config.ensemble_size == 3
    assert result.best_spec.config.forgetting_factor == 0.95
    assert result.best_spec.config.performance_index == 0.2
    assert len(result.rows) == 1


def test_grid_ties_break_towards_smaller_ensemble():
    # An untrained-at-scoring-time baseline scores identically for every
    # ensemble size on this tiny dataset, so the tie must go to the smallest.
    spec = tiny_spec(runs=1, dataset=benchmark_dataset("no_drift_similar", 1))
    result = grid_search(spec, {"ensemble_size": [3, 1, 2]})
    objectives = {row["ensemble_size"]: row["objective"] for row in result.rows}
    assert len(set(objectives.values())) == 1
    assert result.best_spec.config.ensemble_size == 1


def test_grid_values_take_the_type_of_their_axis():
    spec = tiny_spec(runs=1)
    result = grid_search(spec, {"forgetting_factor": [1], "ensemble_size": [2.0]})
    (row,) = result.rows
    assert type(row["forgetting_factor"]) is float and row["forgetting_factor"] == 1.0
    assert type(row["ensemble_size"]) is int and row["ensemble_size"] == 2
    assert type(row["performance_index"]) is float
    config = result.best_spec.config
    assert type(config.forgetting_factor) is float and config.forgetting_factor == 1.0
    assert type(config.ensemble_size) is int


def test_grid_rejects_unknown_fields_and_empty_axes():
    spec = tiny_spec(runs=1)
    with pytest.raises(ConfigurationError):
        grid_search(spec, {"learning_rate": [0.1]})
    with pytest.raises(ConfigurationError):
        grid_search(spec, {"ensemble_size": []})


def test_every_public_name_resolves():
    import marline

    for name in marline.__all__:
        assert hasattr(marline, name), name
