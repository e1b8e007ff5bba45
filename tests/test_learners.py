"""Tests for the Hoeffding tree and the online bagging/boosting ensembles."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from marline.core import (
    NEG,
    POS,
    ConfigurationError,
    DimensionMismatchError,
    Example,
    argmax_label,
)
from marline.learners import (
    HoeffdingTree,
    HoeffdingTreeParams,
    OnlineBagging,
    OnlineBoosting,
    hoeffding_bound,
    make_ensemble,
)


class StubTree:
    """Fixed-prediction sub-classifier that records training calls."""

    def __init__(self, distribution):
        self.distribution = np.asarray(distribution, dtype=float)
        self.train_calls = []

    def train(self, example, weight=1.0):
        self.train_calls.append((example, weight))

    def predict_pair(self, values):
        return tuple(self.distribution.tolist())


class StubRng:
    """Deterministic stand-in for a Generator: records Poisson means."""

    def __init__(self, value=1):
        self.value = value
        self.means = []

    def poisson(self, lam):
        self.means.append(lam)
        return self.value


def gaussian_stream(rng, n, mean_neg, mean_pos, std=1.0):
    examples = []
    for t in range(n):
        label = t % 2
        mean = mean_pos if label == POS else mean_neg
        examples.append(Example(mean + rng.standard_normal(len(mean)) * std, label))
    return examples


# ----------------------------------------------------------------------
# hoeffding_bound
# ----------------------------------------------------------------------


def test_hoeffding_bound_zero_when_delta_one():
    assert hoeffding_bound(1.0, 1.0, 10) == 0.0


def test_hoeffding_bound_closed_form_value():
    # sqrt(ln(1e7) / 400), computed independently
    assert hoeffding_bound(1.0, 1e-7, 200) == pytest.approx(0.20073674085078647, abs=1e-12)


def test_hoeffding_bound_decreases_with_n():
    values = [hoeffding_bound(1.0, 0.05, n) for n in (1, 10, 100, 10_000, 10_000_000)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-3


def test_hoeffding_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        hoeffding_bound(1.0, 0.5, 0)
    with pytest.raises(ValueError):
        hoeffding_bound(1.0, 0.0, 5)


# ----------------------------------------------------------------------
# Hoeffding tree
# ----------------------------------------------------------------------


def test_untrained_tree_predicts_uniform():
    tree = HoeffdingTree(n_features=3)
    dist = tree.predict(np.zeros(3))
    assert dist == pytest.approx([0.5, 0.5])


def test_tree_trained_on_single_class_prefers_it():
    tree = HoeffdingTree(n_features=2)
    rng = np.random.default_rng(1)
    for _ in range(50):
        tree.train(Example(rng.standard_normal(2), POS))
    assert tree.predict(np.zeros(2))[POS] > 0.5


def test_pure_class_stream_yields_confident_distribution():
    tree = HoeffdingTree(n_features=2)
    rng = np.random.default_rng(2)
    for _ in range(1000):
        tree.train(Example(rng.standard_normal(2), NEG))
    dist = tree.predict(np.zeros(2))
    assert dist[NEG] >= 0.99


def test_separated_gaussians_reach_high_holdout_accuracy():
    rng = np.random.default_rng(3)
    tree = HoeffdingTree(n_features=1)
    for ex in gaussian_stream(rng, 5000, np.array([0.0]), np.array([4.0])):
        tree.train(ex)
    holdout = gaussian_stream(rng, 1000, np.array([0.0]), np.array([4.0]))
    accuracy = np.mean([argmax_label(tree.predict(ex.features)) == ex.label for ex in holdout])
    assert accuracy >= 0.95


def test_zero_weight_training_changes_nothing():
    rng = np.random.default_rng(4)
    trained = HoeffdingTree(n_features=2)
    for ex in gaussian_stream(rng, 300, np.array([0.0, 0.0]), np.array([3.0, 3.0])):
        trained.train(ex)
    probes = [np.array([x, y]) for x in (-1.0, 1.5, 4.0) for y in (-1.0, 1.5, 4.0)]
    before = [trained.predict(p).copy() for p in probes]
    trained.train(Example(np.array([100.0, 100.0]), POS), weight=0.0)
    after = [trained.predict(p) for p in probes]
    for b, a in zip(before, after):
        assert np.array_equal(b, a)


def test_tree_is_deterministic_given_sequence():
    stream = gaussian_stream(
        np.random.default_rng(5), 2000, np.array([0.0, 0.0]), np.array([2.0, 2.0])
    )
    trees = [HoeffdingTree(n_features=2), HoeffdingTree(n_features=2)]
    for tree in trees:
        for ex in stream:
            tree.train(ex)
    probes = np.random.default_rng(6).standard_normal((50, 2)) * 3
    for p in probes:
        assert np.array_equal(trees[0].predict(p), trees[1].predict(p))


def test_tree_rejects_dimension_mismatch():
    tree = HoeffdingTree(n_features=2)
    with pytest.raises(DimensionMismatchError):
        tree.train(Example(np.zeros(3), NEG))
    with pytest.raises(DimensionMismatchError):
        tree.predict(np.zeros(5))


def test_tree_actually_splits_on_informative_data():
    tree = HoeffdingTree(n_features=2)
    for ex in gaussian_stream(
        np.random.default_rng(7), 5000, np.array([0.0, 0.0]), np.array([6.0, 6.0]), std=0.5
    ):
        tree.train(ex)
    assert tree.n_splits >= 1


@pytest.mark.parametrize("leaf_prediction", ["majority", "nb_adaptive"])
def test_distributions_are_valid_probabilities(leaf_prediction):
    params = HoeffdingTreeParams(leaf_prediction=leaf_prediction)
    rng = np.random.default_rng(8)
    tree = HoeffdingTree(n_features=3, params=params)
    for t in range(2000):
        features = rng.standard_normal(3) * 5
        tree.train(Example(features, int(features[0] > 0)))
        if t % 50 == 0:
            dist = tree.predict(rng.standard_normal(3) * 5)
            assert dist.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(dist >= 0.0) and np.all(dist <= 1.0)
            assert np.all(np.isfinite(dist))


# ----------------------------------------------------------------------
# Online bagging
# ----------------------------------------------------------------------


def test_bagging_poisson_zero_frequency_matches_pmf():
    # P(Poisson(1) = 0) = exp(-1); count skipped trainings through the
    # ensemble's own sampling path.
    stub = StubTree([0.5, 0.5])
    bag = OnlineBagging(n_features=1, ensemble_size=1, sub_classifiers=[stub])
    rng = np.random.default_rng(9)
    n = 100_000
    ex = Example(np.zeros(1), NEG)
    for _ in range(n):
        bag.train(ex, rng)
    zero_fraction = 1.0 - len(stub.train_calls) / n
    assert zero_fraction == pytest.approx(math.exp(-1.0), abs=0.01)


def test_single_member_bagging_with_unit_weights_matches_plain_tree():
    stream = gaussian_stream(
        np.random.default_rng(10), 1500, np.array([0.0, 0.0]), np.array([3.0, 3.0])
    )
    bag = OnlineBagging(n_features=2, ensemble_size=1)
    plain = HoeffdingTree(n_features=2)
    rng = StubRng(value=1)
    for ex in stream:
        bag.train(ex, rng)
        plain.train(ex, 1.0)
    probes = np.random.default_rng(11).standard_normal((100, 2)) * 3
    for p in probes:
        assert np.array_equal(bag.sub_classifiers[0].predict(p), plain.predict(p))


def test_bagging_members_diverge_across_30_seeds():
    # Independent Poisson weights must produce at least one disagreeing
    # prediction between members after 1000 examples of an overlapping stream.
    probes = np.random.default_rng(12).standard_normal((200, 2)) * 2 + 0.75
    for seed in range(30):
        rng = np.random.default_rng(100 + seed)
        bag = OnlineBagging(n_features=2, ensemble_size=5)
        for ex in gaussian_stream(rng, 1000, np.array([0.0, 0.0]), np.array([1.5, 1.5])):
            bag.train(ex, rng)
        labels = np.array(
            [[t.predict(p).argmax() for p in probes] for t in bag.sub_classifiers]
        )
        assert (labels != labels[0]).any(), f"seed {seed}: members identical"


def test_ensemble_size_is_fixed_after_construction():
    bag = OnlineBagging(n_features=2, ensemble_size=4)
    rng = np.random.default_rng(13)
    for ex in gaussian_stream(rng, 500, np.array([0.0, 0.0]), np.array([2.0, 2.0])):
        bag.train(ex, rng)
    assert bag.ensemble_size == 4
    assert bag.trained_count == 500


# ----------------------------------------------------------------------
# Ensemble prediction
# ----------------------------------------------------------------------


def test_untrained_ensemble_predicts_uniform():
    ens = OnlineBagging(n_features=2, ensemble_size=3)
    assert ens.predict(np.zeros(2)) == pytest.approx([0.5, 0.5])


def test_identical_members_match_single_tree_prediction():
    tree = HoeffdingTree(n_features=2)
    for ex in gaussian_stream(
        np.random.default_rng(14), 500, np.array([0.0, 0.0]), np.array([3.0, 3.0])
    ):
        tree.train(ex)
    ens = OnlineBagging(n_features=2, ensemble_size=3, sub_classifiers=[tree, tree, tree])
    probe = np.array([1.0, 2.0])
    assert ens.predict(probe) == pytest.approx(tree.predict(probe), abs=1e-12)


def test_ensemble_prediction_is_arithmetic_mean():
    ens = OnlineBagging(
        n_features=2,
        ensemble_size=2,
        sub_classifiers=[StubTree([0.8, 0.2]), StubTree([0.4, 0.6])],
    )
    assert ens.predict(np.zeros(2)) == pytest.approx([0.6, 0.4])


def test_ensemble_distributions_sum_to_one():
    rng = np.random.default_rng(15)
    ens = OnlineBoosting(n_features=2, ensemble_size=4)
    for ex in gaussian_stream(rng, 800, np.array([0.0, 0.0]), np.array([2.0, 2.0])):
        ens.train(ex, rng)
        dist = ens.predict(ex.features)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)


def reference_leaf_distribution(tree, x):
    """The distribution at the leaf ``x`` reaches, recomputed from the leaf's
    statistics with no cached terms, in the same order of float operations."""
    node = tree._root
    while hasattr(node, "threshold"):
        node = node.left if x[node.attribute] <= node.threshold else node.right
    weights = node.class_weights
    total = weights[NEG] + weights[POS]
    nb_leaf = tree.params.leaf_prediction == "nb_adaptive"
    if not nb_leaf or node.mc_correct_weight > node.nb_correct_weight:
        return np.array([weights[NEG] / total, weights[POS] / total] if total > 0 else [0.5, 0.5])
    logits = [-math.inf, -math.inf]
    for label in (NEG, POS):
        if weights[label] <= 0.0:
            continue
        logit = math.log(weights[label] / total)
        for j, value in enumerate(x):
            est = node.estimators[j][label]
            var = max(est.variance, 1e-12)
            diff = float(value) - est.mean
            logit += -0.5 * math.log(2.0 * math.pi * var) - diff * diff / (2.0 * var)
        logits[label] = logit
    top = max(logits)
    if top == -math.inf:
        return np.array([0.5, 0.5])
    raw = np.array([math.exp(l - top) for l in logits])
    return raw / raw.sum()


@pytest.mark.parametrize("kind", ["bagging", "boosting"])
@pytest.mark.parametrize("leaf_prediction", ["nb_adaptive", "majority"])
def test_member_distributions_equal_per_tree_predictions(kind, leaf_prediction):
    params = HoeffdingTreeParams(grace_period=50, leaf_prediction=leaf_prediction)
    ens = make_ensemble(kind, 2, 4, params)
    rng = np.random.default_rng(20)
    stream = gaussian_stream(rng, 1200, np.array([0.0, 0.0]), np.array([3.0, 3.0]))
    probes = np.random.default_rng(21).standard_normal((40, 2)) * 2 + 1.0

    def check(ensemble):
        trees = ensemble.sub_classifiers
        for p in probes:
            expected = np.array([t.predict(p) for t in trees])
            assert np.array_equal(ensemble.member_distributions(p.tolist()), expected)
            for tree, row in zip(trees, expected):
                assert np.array_equal(row, reference_leaf_distribution(tree, p))
            total = np.zeros(2)
            for row in expected:
                total += row
            assert np.array_equal(ensemble.predict(p), total / len(trees))

    for ex in stream[:400]:
        ens.train(ex, rng)
    check(ens)
    # More training must drop the cached terms of every leaf it reaches.
    for ex in stream[400:]:
        ens.train(ex, rng)
    check(ens)
    assert any(t.n_splits for t in ens.sub_classifiers)
    # A snapshot pickles the ensemble, cached terms included.
    check(pickle.loads(pickle.dumps(ens)))


# ----------------------------------------------------------------------
# Online boosting
# ----------------------------------------------------------------------


def test_boosting_weight_grows_after_a_misclassifying_member():
    # Member 1 misclassifies but has history error below 1/2, so the weight
    # it hands to member 2 must exceed the weight it received.
    members = [StubTree([0.0, 1.0]), StubTree([1.0, 0.0]), StubTree([0.0, 1.0])]
    boost = OnlineBoosting(n_features=1, ensemble_size=3, sub_classifiers=members)
    boost.lambda_correct[:] = [10.0, 3.0, 0.0]
    boost.lambda_wrong[:] = [0.0, 1.0, 0.0]
    rng = StubRng(value=1)
    boost.train(Example(np.zeros(1), POS), rng)
    assert rng.means[0] == 1.0
    assert rng.means[1] < rng.means[0]  # member 0 was correct
    assert rng.means[2] > rng.means[1]  # member 1 was wrong with error < 1/2
    # The lambda accumulators absorbed the weights each member received.
    assert boost.lambda_correct[0] == pytest.approx(11.0)
    assert boost.lambda_wrong[1] == pytest.approx(1.0 + rng.means[1])


def test_boosting_accumulators_stay_nonnegative_and_learn():
    rng = np.random.default_rng(16)
    boost = OnlineBoosting(n_features=2, ensemble_size=5)
    stream = gaussian_stream(rng, 3000, np.array([0.0, 0.0]), np.array([3.0, 3.0]))
    for ex in stream:
        boost.train(ex, rng)
    assert np.all(boost.lambda_correct >= 0.0)
    assert np.all(boost.lambda_wrong >= 0.0)
    holdout = gaussian_stream(rng, 500, np.array([0.0, 0.0]), np.array([3.0, 3.0]))
    accuracy = np.mean([argmax_label(boost.predict(ex.features)) == ex.label for ex in holdout])
    assert accuracy >= 0.9


def test_make_ensemble_dispatches_kinds():
    assert isinstance(make_ensemble("bagging", 2, 3), OnlineBagging)
    assert isinstance(make_ensemble("boosting", 2, 3), OnlineBoosting)
    with pytest.raises(
        ConfigurationError,
        match=r"unknown ensemble kind 'stacking'; choose from \('bagging', 'boosting'\)",
    ):
        make_ensemble("stacking", 2, 3)


def test_seeded_ensembles_are_bit_reproducible():
    def build():
        rng = np.random.default_rng(17)
        ens = OnlineBagging(n_features=2, ensemble_size=3)
        for ex in gaussian_stream(
            np.random.default_rng(18), 600, np.array([0.0, 0.0]), np.array([2.0, 2.0])
        ):
            ens.train(ex, rng)
        return ens

    a, b = build(), build()
    probes = np.random.default_rng(19).standard_normal((50, 2)) * 2
    for p in probes:
        assert np.array_equal(a.predict(p), b.predict(p))
