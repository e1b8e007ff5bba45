"""Microbenchmarks of the per-step projection, centroid update and frame,
member prediction, tree learning, bagging and boosting training, split
candidates, test-then-train pair, performance update, voting weights, drift
detector update, source observe, weighting step (also over frozen concepts
of single majority leaves), a target step of the grid_csv_boosting shape, a
schedule build of the online_abrupt shape, and the cost model of acceptance
7.

They carry the ``bench`` marker, which the default options deselect. Run
them with ``python -m pytest -m bench tests/test_microbench.py``;
``tests/test_bench_smoke.py`` runs them all but the cost model once each,
untimed.
"""

from __future__ import annotations

import itertools
import pickle
import time

import numpy as np
import pytest

from marline.core import Example
from marline.drift import DriftStatus, HddmA
from marline.learners import HoeffdingTree, HoeffdingTreeParams, make_ensemble, mean_pair
from marline.mapping import CentroidTracker, ConceptFrame, Reflections
from marline.model import (
    EPS_CLAMP,
    MarlineConfig,
    MarlineModel,
    sub_classifier_weights,
    update_performance_stats,
)
from marline.streams import StreamData, benchmark_dataset, generate_synthetic, interleave

pytestmark = pytest.mark.bench


def frames(d: int):
    """A source frame, a target frame and a point, all of dimension ``d``."""
    rng = np.random.default_rng(d)
    source = ConceptFrame(rng.standard_normal(d).tolist(), rng.standard_normal(d).tolist())
    target = ConceptFrame(rng.standard_normal(d).tolist(), rng.standard_normal(d).tolist())
    return source, target, rng.standard_normal(d).tolist()


@pytest.mark.parametrize("d", [2, 4])
def test_frame_projection(benchmark, d):
    # The reflections are built on every call, as a concept's projection
    # is on every pass.
    source, target, values = frames(d)
    image = benchmark(lambda: Reflections(source, target).apply(values))
    assert len(image) == d


def gaussian_example(rng, t, d=2):
    """Example ``t`` of two alternating Gaussian classes on ``d`` features."""
    mean = np.full(d, 3.0) if t % 2 else np.zeros(d)
    return Example(mean + rng.standard_normal(d), t % 2)


def test_tracker_update_and_frame(benchmark):
    # A target step moves one centroid, and the next query rebuilds the frame.
    rng = np.random.default_rng(5)
    tracker = CentroidTracker(2, 0.9)
    examples = [gaussian_example(rng, t) for t in range(1000)]
    for example in examples[:2]:
        tracker.update(example)
    next_example = itertools.cycle(examples).__next__

    def step():
        tracker.update(next_example())
        return tracker.frame()

    frame = benchmark(step)
    assert frame is tracker.frame()


def warmed_ensemble(kind, rng, leaf_prediction="nb_adaptive"):
    """The members of acceptance 7's models: ten naive-Bayes-adaptive trees
    (or majority-leaf ones) on two features, trained on 300 examples of two
    Gaussian classes."""
    params = HoeffdingTreeParams(leaf_prediction=leaf_prediction)
    ensemble = make_ensemble(kind, 2, 10, params)
    for t in range(300):
        example = gaussian_example(rng, t)
        ensemble.learn(example.features.tolist(), example.label, rng)
    return ensemble


@pytest.mark.parametrize("leaf_prediction", ["nb_adaptive", "majority"])
@pytest.mark.parametrize("kind", ["bagging", "boosting"])
def test_member_pairs(benchmark, kind, leaf_prediction):
    ensemble = warmed_ensemble(kind, np.random.default_rng(7), leaf_prediction)
    values = [1.2, 1.7]
    pairs = benchmark(ensemble.member_pairs, values)
    assert len(pairs) == 10


def test_bagging_train(benchmark):
    rng = np.random.default_rng(7)
    ensemble = warmed_ensemble("bagging", rng)
    examples = [gaussian_example(rng, t) for t in range(1000)]
    next_pair = itertools.cycle([(ex.features.tolist(), ex.label) for ex in examples]).__next__
    benchmark(lambda: ensemble.learn(*next_pair(), rng))
    assert ensemble.trained_count > 300


@pytest.mark.parametrize("leaf_prediction", ["nb_adaptive", "majority"])
def test_tree_learn(benchmark, leaf_prediction):
    # One weighted example into a tree warmed on 300 examples, whose leaves
    # keep their naive-Bayes terms current.
    rng = np.random.default_rng(7)
    tree = HoeffdingTree(2, HoeffdingTreeParams(leaf_prediction=leaf_prediction))
    examples = [gaussian_example(rng, t) for t in range(1000)]
    for example in examples[:300]:
        tree.learn(example.features.tolist(), example.label, 1.0)
        tree.predict_pair(example.features.tolist())
    next_pair = itertools.cycle([(ex.features.tolist(), ex.label) for ex in examples]).__next__

    def step():
        values, label = next_pair()
        tree.learn(values, label, 1.0)

    assert tree._root.total_weight == 300.0
    warmed = pickle.dumps(tree)
    benchmark(step)
    assert pickle.dumps(tree) != warmed


@pytest.mark.parametrize("leaf_prediction", ["nb_adaptive", "majority"])
def test_boosting_learn(benchmark, leaf_prediction):
    # Majority leaves are the grid_csv_boosting workload's.
    rng = np.random.default_rng(7)
    ensemble = warmed_ensemble("boosting", rng, leaf_prediction)
    examples = [gaussian_example(rng, t) for t in range(1000)]
    next_pair = itertools.cycle([(ex.features.tolist(), ex.label) for ex in examples]).__next__
    benchmark(lambda: ensemble.learn(*next_pair(), rng))
    assert ensemble.trained_count > 300


def test_best_split_per_attribute(benchmark):
    # The split candidates of a leaf that has seen 200 examples of two
    # overlapping classes on two features.
    rng = np.random.default_rng(7)
    tree = HoeffdingTree(2, HoeffdingTreeParams(grace_period=10_000))
    for t in range(200):
        example = gaussian_example(rng, t)
        tree.learn(example.features.tolist(), example.label, 1.0)
    candidates = benchmark(tree._root.best_split_per_attribute)
    assert len(candidates) == 2 and candidates[0][0] > 0.0


def test_vote_learn_pair(benchmark):
    # One online step of a stream's newest concept on lists: the drift
    # check's vote, then training on the same example.
    rng = np.random.default_rng(7)
    ensemble = warmed_ensemble("bagging", rng)
    examples = [gaussian_example(rng, t) for t in range(1000)]
    next_pair = itertools.cycle([(ex.features.tolist(), ex.label) for ex in examples]).__next__

    def step():
        values, label = next_pair()
        mean_pair(ensemble.member_pairs(values))
        ensemble.learn(values, label, rng)

    benchmark(step)
    assert ensemble.trained_count > 300


@pytest.mark.parametrize("n", [30, 110])
def test_update_performance_stats(benchmark, n):
    rng = np.random.default_rng(n)
    lambda_correct, lambda_wrong = rng.random(n), rng.random(n)
    performance = lambda_correct / (lambda_correct + lambda_wrong)
    stats = benchmark(
        update_performance_stats,
        lambda_correct,
        lambda_wrong,
        performance,
        rng.random(n),
        0.9,
        EPS_CLAMP,
    )
    assert stats[2].shape == (n,)


@pytest.mark.parametrize("n", [30, 110])
def test_sub_classifier_weights(benchmark, n):
    # About a third of the performances fall below the index.
    performances = np.random.default_rng(n).random(n)
    weights = benchmark(sub_classifier_weights, performances, 0.3)
    assert abs(float(weights.sum()) - 1.0) <= 1e-12


def test_hddm_a_update(benchmark):
    # A stable error rate of about 20 %; a rare alarm restarts the detector
    # as the model does.
    detector = HddmA()
    next_bit = itertools.cycle((np.random.default_rng(3).random(1000) < 0.8).tolist()).__next__

    def step():
        if detector.update(next_bit()) is DriftStatus.DRIFT:
            detector.reset()

    benchmark(step)
    assert detector.observed_count > 0


def acceptance_7_model(n_sources):
    """A model built as acceptance 7 builds it: ten trees per concept, and
    each of ``n_sources`` sources and the target observing the same 300
    examples; with the generator that goes on to draw its examples."""
    rng = np.random.default_rng(7)
    model = MarlineModel(MarlineConfig(n_features=2, ensemble_size=10))
    for t in range(300):
        example = gaussian_example(rng, t)
        for s in range(n_sources):
            model.observe(f"S{s}", example, rng)
        model.observe("T", example, rng)
    return model, rng


def test_source_observe(benchmark):
    # One source example through a warmed model of a target and one source.
    model, rng = acceptance_7_model(1)
    next_example = itertools.cycle([gaussian_example(rng, t) for t in range(1000)]).__next__
    benchmark(lambda: model.observe("S0", next_example(), rng))
    assert model.pools["S0"].current.ensemble.trained_count > 300


def test_weighting_step_eight_concepts(benchmark):
    # One predict + update_weights step on a target and seven sources.
    model, rng = acceptance_7_model(7)
    next_example = itertools.cycle([gaussian_example(rng, t) for t in range(1000)]).__next__

    def step():
        example = next_example()
        model.predict(example.features)
        model.update_weights(example)

    benchmark(step)
    assert len(model.concepts) == 8


@pytest.mark.parametrize("n_frozen", [7, 8])
def test_weighting_step_frozen_single_leaf_concepts(benchmark, n_frozen):
    # One predict + update_weights step on a d = 4 boosting model over
    # majority leaves: a target and a source warmed on 300 examples, and
    # ``n_frozen`` frozen source concepts of single leaves cut after 10
    # examples each, as DDM cuts short-lived concepts. Eight give the eleven
    # concepts of the grid_csv_boosting workload.
    rng = np.random.default_rng(9)
    config = MarlineConfig(
        n_features=4,
        ensemble_size=10,
        base_ensemble="boosting",
        tree=HoeffdingTreeParams(leaf_prediction="majority"),
    )
    model = MarlineModel(config)
    for t in range(300):
        example = gaussian_example(rng, t, 4)
        model.observe("S0", example, rng)
        model.observe("T", example, rng)
        if t < 10 * n_frozen:
            model.observe("S1", example, rng)
            if t % 10 == 9:
                model._new_concept("S1")
    frozen = model.pools["S1"].concepts[:-1]
    assert len(frozen) == n_frozen
    assert all(c.ensemble.fixed_pairs() is not None for c in frozen)
    next_example = itertools.cycle([gaussian_example(rng, t, 4) for t in range(1000)]).__next__

    def step():
        example = next_example()
        model.predict(example.features)
        model.update_weights(example)

    benchmark(step)
    assert len(model.concepts) == n_frozen + 3


def test_grid_shaped_target_step(benchmark):
    # One predict + target observe on the shape of the grid_csv_boosting
    # workload: boosting over majority leaves with DDM, d = 4, k = 10, and
    # eleven concepts, a target and a source warmed on 300 examples and
    # nine single-leaf source concepts, eight of them frozen.
    rng = np.random.default_rng(9)
    config = MarlineConfig(
        n_features=4,
        ensemble_size=10,
        base_ensemble="boosting",
        detector="ddm",
        tree=HoeffdingTreeParams(leaf_prediction="majority"),
    )
    model = MarlineModel(config)
    for t in range(300):
        example = gaussian_example(rng, t, 4)
        model.observe("S0", example, rng)
        model.observe("T", example, rng)
        if t < 80:
            model.observe("S1", example, rng)
            if t % 10 == 9:
                model._new_concept("S1")
    assert len(model.concepts) == 11
    assert sum(c.ensemble.fixed_pairs() is not None for c in model.concepts) >= 9
    next_example = itertools.cycle([gaussian_example(rng, t, 4) for t in range(1000)]).__next__

    def step():
        example = next_example()
        model.predict(example.features)
        model.observe("T", example, rng)

    benchmark(step)
    assert len(model.concepts) >= 11


def test_schedule_build(benchmark):
    # A run's set-up on the online_abrupt shape: draw the abrupt target (2 x
    # 2 x 1000 examples) and its one non-similar source, and merge them.
    dataset = benchmark_dataset("abrupt_non_similar", 1000)

    def build():
        target = generate_synthetic(dataset.target)
        source = generate_synthetic(dataset.sources[0])
        return interleave(
            StreamData("T", target.examples, target.drift_marks),
            (StreamData("S1", source.examples, source.drift_marks),),
        )

    schedule = benchmark(build)
    assert len(schedule.entries) == 8000
    assert schedule.target_drift_indices() == (4001,)


def test_acceptance_7_cost_model(capsys):
    # One predict + update_weights step costs (F + t) + n * s with n source
    # concepts: F fixed, t the current target concept's and s each source
    # concept's. Five models with 0-4 sources take turns in blocks of 50
    # steps, so that a change in host speed falls on all alike. Acceptance
    # 7's lower bound of 1.5 on the 4-vs-2 ratio holds at steady state only
    # while F + t <= 2s.
    steps, block = 10_000, 50
    models = [acceptance_7_model(n) for n in range(5)]
    runs = []
    for model, rng in models:
        for t in range(500):  # warm-up
            example = gaussian_example(rng, t)
            model.predict(example.features)
            model.update_weights(example)
        runs.append((model, [gaussian_example(rng, t) for t in range(steps)]))
    seconds = [0.0] * len(runs)
    for start in range(0, steps, block):
        for i, (model, examples) in enumerate(runs):
            begin = time.perf_counter()
            for example in examples[start : start + block]:
                model.predict(example.features)
                model.update_weights(example)
            seconds[i] += time.perf_counter() - begin
    us_per_step = [1e6 * total / steps for total in seconds]
    s, fixed = np.polyfit(range(len(runs)), us_per_step, 1)
    ratio = seconds[4] / seconds[2]
    with capsys.disabled():
        print(
            f"\n  acceptance 7 cost model: us per step {[round(u, 1) for u in us_per_step]}; "
            f"F + t = {fixed:.1f} us, s = {s:.1f} us, 2s = {2 * s:.1f} us; "
            f"4-vs-2 ratio {ratio:.3f}"
        )
    assert [len(model.concepts) for model, _ in models] == [1, 2, 3, 4, 5]
