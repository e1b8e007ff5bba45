"""Microbenchmarks of the per-step projection, member prediction, test-then-
train pair, performance update and drift detector update.

They carry the ``bench`` marker, which the default options deselect. Run
them with ``python -m pytest -m bench tests/test_microbench.py``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from marline.core import Example
from marline.drift import DriftStatus, HddmA
from marline.learners import make_ensemble
from marline.mapping import ConceptFrame
from marline.model import EPS_CLAMP, update_performance_stats

pytestmark = pytest.mark.bench


def frames(d: int):
    """A source frame, two equal target frames that are distinct objects,
    and a point, all of dimension ``d``."""
    rng = np.random.default_rng(d)
    source = ConceptFrame(rng.standard_normal(d), rng.standard_normal(d))
    v_tgt, c_tgt = rng.standard_normal(d), rng.standard_normal(d)
    targets = [ConceptFrame(v_tgt, c_tgt), ConceptFrame(v_tgt, c_tgt)]
    return source, targets, rng.standard_normal(d).tolist()


@pytest.mark.parametrize("d", [2, 4])
def test_frame_projection_memo_miss(benchmark, d):
    # Alternating between two target objects misses the memo on every call,
    # as when the target centroids move on every target step.
    source, targets, values = frames(d)
    next_target = itertools.cycle(targets).__next__
    image = benchmark(lambda: source.project(values, next_target()))
    assert image == source.project(values, targets[0])


@pytest.mark.parametrize("d", [2, 4])
def test_frame_projection_memo_hit(benchmark, d):
    source, targets, values = frames(d)
    image = benchmark(source.project, values, targets[0])
    assert len(image) == d


def gaussian_example(rng, t):
    """Example ``t`` of two alternating Gaussian classes on two features."""
    mean = np.array([3.0, 3.0]) if t % 2 else np.zeros(2)
    return Example(mean + rng.standard_normal(2), t % 2)


def warmed_ensemble(kind, rng):
    """The members of acceptance 7's models: ten naive-Bayes-adaptive trees
    on two features, trained on 300 examples of two Gaussian classes."""
    ensemble = make_ensemble(kind, 2, 10)
    for t in range(300):
        ensemble.train(gaussian_example(rng, t), rng)
    return ensemble


@pytest.mark.parametrize("kind", ["bagging", "boosting"])
def test_member_distributions(benchmark, kind):
    ensemble = warmed_ensemble(kind, np.random.default_rng(7))
    values = [1.2, 1.7]
    distributions = benchmark(ensemble.member_distributions, values)
    assert distributions.shape == (10, 2)


def test_test_then_train_pair(benchmark):
    # One online step of a stream's newest concept: the drift check's
    # prediction, then training on the same example.
    rng = np.random.default_rng(7)
    ensemble = warmed_ensemble("bagging", rng)
    next_example = itertools.cycle([gaussian_example(rng, t) for t in range(1000)]).__next__

    def step():
        example = next_example()
        ensemble.predict(example.features)
        ensemble.train(example, rng)

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


def test_hddm_a_update(benchmark):
    # A stable error rate of about 20 %; a rare alarm restarts the detector
    # as the model does.
    detector = HddmA()
    next_bit = itertools.cycle((np.random.default_rng(3).random(1000) < 0.8).tolist()).__next__

    def step():
        if detector.update(next_bit()) is DriftStatus.DRIFT:
            detector.reset()

    benchmark(step)
    assert detector.total_n > 0
