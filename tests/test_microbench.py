"""Microbenchmarks of the per-step projection and member prediction.

They carry the ``bench`` marker, which the default options deselect. Run
them with ``python -m pytest -m bench tests/test_microbench.py``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from marline.core import Example
from marline.learners import make_ensemble
from marline.mapping import ConceptFrame

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


@pytest.mark.parametrize("kind", ["bagging", "boosting"])
def test_member_distributions(benchmark, kind):
    # The members of acceptance 7's models: ten naive-Bayes-adaptive trees on
    # two features, trained on 300 examples of two Gaussian classes.
    rng = np.random.default_rng(7)
    ensemble = make_ensemble(kind, 2, 10)
    for t in range(300):
        mean = np.array([3.0, 3.0]) if t % 2 else np.zeros(2)
        ensemble.train(Example(mean + rng.standard_normal(2), t % 2), rng)
    values = [1.2, 1.7]
    distributions = benchmark(ensemble.member_distributions, values)
    assert distributions.shape == (10, 2)
