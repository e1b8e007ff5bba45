"""Tests for the Hoeffding tree and the online bagging/boosting ensembles."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _class_terms,
    _LeafNode,
    hoeffding_bound,
    make_ensemble,
)


class StubTree:
    """Fixed-prediction sub-classifier that records training calls."""

    n_learned = 0

    def __init__(self, distribution):
        self.distribution = np.asarray(distribution, dtype=float)
        self.train_calls = []

    def learn(self, values, label, weight, pair=None):
        self.train_calls.append((values, label, weight))

    def predict_pair(self, values):
        return tuple(self.distribution.tolist())


class StubRng:
    """Deterministic stand-in for a Generator: records Poisson means."""

    def __init__(self, value=1):
        self.value = value
        self.means = []

    def poisson(self, lam, size=None):
        self.means.append(lam)
        return self.value if size is None else np.full(size, self.value)


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


def test_learning_a_list_grows_the_tree_training_an_example_grows():
    # learn is the seam the ensembles train through; train converts and
    # checks the example, then learns it.
    rng = np.random.default_rng(25)
    stream = gaussian_stream(rng, 1500, np.array([0.0, 0.0]), np.array([2.5, 2.5]))
    weights = rng.integers(1, 4, len(stream)).astype(float).tolist()
    params = HoeffdingTreeParams(grace_period=50)
    learnt, trained = HoeffdingTree(2, params), HoeffdingTree(2, params)
    for ex, weight in zip(stream, weights):
        learnt.learn(ex.features.tolist(), ex.label, weight)
        trained.train(ex, weight)
    assert trained.n_splits > 0
    assert trained.n_learned == len(stream)
    assert pickle.dumps(learnt) == pickle.dumps(trained)


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bagging_draws_the_weights_of_scalar_draws_in_member_order(seed):
    # The ensemble draws its k Poisson(1) weights in one batch. Trees trained
    # with k scalar draws in member order must come out the same, and the
    # generator must be left in the same state.
    params = HoeffdingTreeParams(grace_period=50)
    bag = OnlineBagging(n_features=2, ensemble_size=5, tree_params=params)
    trees = [HoeffdingTree(2, params) for _ in range(5)]
    rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    stream = gaussian_stream(
        np.random.default_rng(26), 600, np.array([0.0, 0.0]), np.array([3.0, 0.0])
    )
    for ex in stream:
        bag.train(ex, rng)
        for tree in trees:
            k = float(scalar_rng.poisson(1.0))
            if k > 0.0:
                tree.train(ex, k)
    assert rng.random() == scalar_rng.random()
    assert all(tree.n_splits for tree in trees)
    assert [pickle.dumps(tree) for tree in bag.sub_classifiers] == [
        pickle.dumps(tree) for tree in trees
    ]


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


def leaf_of(tree, x):
    """The leaf of ``tree`` that ``x`` routes to."""
    node = tree._root
    while hasattr(node, "threshold"):
        node = node.left if x[node.attribute] <= node.threshold else node.right
    return node


def reference_leaf_distribution(tree, x):
    """The distribution at the leaf ``x`` reaches, recomputed from the leaf's
    statistics with no cached terms, in the same order of float operations."""
    node = leaf_of(tree, x)
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


def two_exp_pair(neg, pos):
    """The naive-Bayes pair of two class logits as first written: an exp on
    each side of the larger logit."""
    top = max(neg, pos)
    if top == -math.inf:
        return (0.5, 0.5)
    r0 = math.exp(neg - top)
    r1 = math.exp(pos - top)
    return (r0 / (r0 + r1), r1 / (r0 + r1))


def leaf_pair(neg, pos):
    """The pair a leaf gives when its class logits are ``neg`` and ``pos``:
    with no attributes, the logits are the log priors."""
    leaf = _LeafNode(0)
    leaf._nb_terms = [(neg, []), (pos, [])]
    return leaf.naive_bayes_distribution([])


def exact(obj):
    """``obj`` with every float as its hex string, so that equality is
    bit-for-bit: the sign of a zero counts, and NaN equals NaN."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (list, tuple)):
        return [exact(x) for x in obj]
    return obj


# A class logit is a log prior (at most 0, or -inf for a class without
# weight) plus, per attribute, a finite log normaliser and a square term of
# at most 0, so it is never +inf.
logits = st.one_of(st.floats(-1e6, 50.0), st.just(-math.inf))


@st.composite
def logit_pairs(draw):
    """Two class logits, in either order: any two, two equal ones, two
    within 40 of each other, where both sides of the pair carry digits, or
    two more than 745 apart, where the smaller side's exp underflows to 0."""
    kind = draw(st.sampled_from(["any", "equal", "close", "wide"]))
    a = draw(logits)
    if kind == "any":
        b = draw(logits)
    elif kind == "equal":
        b = a
    elif kind == "close":
        b = a - draw(st.floats(0.0, 40.0))
    else:
        b = a - draw(st.floats(745.0, 1e4))
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=500, deadline=None)
@given(logit_pairs())
def test_one_exp_naive_bayes_pair_equals_the_two_exp_form(case):
    assert exact(leaf_pair(*case)) == exact(two_exp_pair(*case))


@pytest.mark.parametrize(
    "neg, pos",
    [
        (-3.0, -3.0),
        (0.0, 0.0),
        (-math.inf, -math.inf),
        (-math.inf, -2.5),
        (-2.5, -math.inf),
        (0.0, -746.0),
        (-746.0, 0.0),
        (-1e5, 12.0),
        (math.nan, 1.0),
        (1.0, math.nan),
        (math.nan, math.nan),
        (math.nan, -math.inf),
        (-math.inf, math.nan),
    ],
)
def test_one_exp_naive_bayes_pair_on_ties_infinities_underflow_and_nan(neg, pos):
    assert exact(leaf_pair(neg, pos)) == exact(two_exp_pair(neg, pos))


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
    # More training must keep the terms of every leaf it reaches current.
    for ex in stream[400:]:
        ens.train(ex, rng)
    check(ens)
    assert any(t.n_splits for t in ens.sub_classifiers)
    # A snapshot pickles the ensemble without its caches, which the restored
    # leaves rebuild on first use.
    check(pickle.loads(pickle.dumps(ens)))


@st.composite
def learning_sequences(draw):
    """Weighted examples of dimension 1 to 4. The first ``switch`` examples
    all carry ``first``; the other class is first seen after them, mid
    sequence, or never when ``switch`` covers the whole sequence."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 40))
    first = draw(st.sampled_from([NEG, POS]))
    switch = draw(st.integers(0, n))
    value = st.floats(-10.0, 10.0, allow_nan=False)
    weight = st.one_of(st.integers(1, 3).map(float), st.floats(0.01, 3.0))
    examples = []
    for i in range(n):
        label = first if i < switch else draw(st.sampled_from([NEG, POS]))
        values = draw(st.lists(value, min_size=d, max_size=d))
        examples.append((values, label, draw(weight), draw(st.booleans())))
    return d, examples


@settings(max_examples=200, deadline=None)
@given(learning_sequences())
def test_leaf_terms_kept_in_place_equal_a_rebuild(case):
    d, examples = case
    params = HoeffdingTreeParams(grace_period=3, tie_threshold=0.9)
    tree, plain = HoeffdingTree(d, params), HoeffdingTree(d, params)
    for values, label, weight, probe in examples:
        if probe:
            tree.predict_pair(values)
        leaf = leaf_of(tree, values)
        example = Example(np.array(values), label)
        tree.train(example, weight)
        plain.train(example, weight)
        assert leaf._nb_terms == leaf._naive_bayes_terms()
        assert leaf._majority is None
    # Probing before training, which builds the leaves' caches, leaves the
    # learner exactly as training alone does.
    assert (tree.n_splits, tree.n_learned) == (plain.n_splits, plain.n_learned)
    for values, _, _, _ in examples:
        a, b = leaf_of(tree, values), leaf_of(plain, values)
        assert a.class_weights == b.class_weights
        assert a.weight_at_last_attempt == b.weight_at_last_attempt
        assert (a.mc_correct_weight, a.nb_correct_weight) == (
            b.mc_correct_weight,
            b.nb_correct_weight,
        )
        assert tree.predict_pair(values) == plain.predict_pair(values)


def leaf_statistics(leaf):
    """The class weights, every estimator's fields and the naive-Bayes terms
    of ``leaf``."""
    estimators = [
        [(e.weight_sum, e.mean, e._m2, e.min_value, e.max_value) for e in per_class]
        for per_class in leaf.estimators
    ]
    return exact([leaf.class_weights, estimators, leaf._nb_terms])


def reference_add(est, value, weight):
    """A weighted value into one estimator, as ``GaussianEstimator.add`` did
    before leaves updated their estimators inline."""
    if value < est.min_value:
        est.min_value = value
    if value > est.max_value:
        est.max_value = value
    est.weight_sum += weight
    delta = value - est.mean
    est.mean += weight * delta / est.weight_sum
    est._m2 += weight * delta * (value - est.mean)


def reference_leaf_learn(leaf, values, label, weight):
    """The statistics and terms update of ``_LeafNode.learn`` as it was: one
    ``reference_add`` per attribute, then the label's terms rebuilt by
    ``_class_terms`` and the other class's prior recomputed."""
    weights = leaf.class_weights
    weights[label] += weight
    for value, per_class in zip(values, leaf.estimators):
        reference_add(per_class[label], value, weight)
    terms = leaf._nb_terms
    if terms is not None:
        total = weights[NEG] + weights[POS]
        other = POS if label == NEG else NEG
        terms[label] = _class_terms(leaf, label, total)
        prior = weights[other]
        terms[other] = (math.log(prior / total) if prior > 0.0 else -math.inf, terms[other][1])


@settings(max_examples=200, deadline=None)
@given(learning_sequences())
def test_leaf_learn_equals_estimator_adds_and_a_term_rebuild(case):
    d, examples = case
    leaf, reference = _LeafNode(d), _LeafNode(d)
    for values, label, weight, probe in examples:
        if probe:
            # Builds the terms, which from then on learn keeps current.
            leaf.naive_bayes_distribution(values)
            reference.naive_bayes_distribution(values)
        leaf.learn(values, label, weight, False)
        reference_leaf_learn(reference, values, label, weight)
        assert leaf_statistics(leaf) == leaf_statistics(reference)


def reference_cdf(est, value):
    """``GaussianEstimator.cdf`` as it was: the variance and its square root
    recomputed for every threshold."""
    var = est.variance
    if var <= 0.0:
        return 1.0 if est.mean <= value else 0.0
    return 0.5 * (1.0 + math.erf((value - est.mean) / math.sqrt(2.0 * var)))


def reference_entropy(weights):
    total = sum(weights)
    if total <= 0.0:
        return 0.0
    h = 0.0
    for w in weights:
        if w > 0.0:
            p = w / total
            h -= p * math.log2(p)
    return h


def reference_best_split(leaf):
    """``best_split_per_attribute`` as it was, through ``reference_cdf``."""
    pre_entropy = reference_entropy(leaf.class_weights)
    total = leaf.total_weight
    results = []
    for per_class in leaf.estimators:
        lo = min(est.min_value for est in per_class if est.weight_sum > 0.0)
        hi = max(est.max_value for est in per_class if est.weight_sum > 0.0)
        best_gain, best_threshold = 0.0, math.nan
        if hi > lo:
            step = (hi - lo) / 11
            for i in range(1, 11):
                threshold = lo + i * step
                left = [0.0, 0.0]
                for label in (NEG, POS):
                    est = per_class[label]
                    if est.weight_sum > 0.0:
                        left[label] = est.weight_sum * reference_cdf(est, threshold)
                right = [leaf.class_weights[NEG] - left[NEG], leaf.class_weights[POS] - left[POS]]
                w_left, w_right = sum(left), sum(right)
                gain = pre_entropy - (
                    w_left / total * reference_entropy(left)
                    + w_right / total * reference_entropy(right)
                )
                if gain > best_gain:
                    best_gain, best_threshold = gain, threshold
        results.append((best_gain, best_threshold))
    return results


@st.composite
def split_leaves(draw):
    """Leaves as a split attempt reads them. Each class has a weight, none
    for some; each attribute and class with weight a value range, the same
    single value for both classes on some attributes, a mean in it or on a
    candidate threshold, and an m2 that leaves the variance at 0 on some. A
    weight of at most 1 has no variance either."""
    d = draw(st.integers(1, 3))
    leaf = _LeafNode(d)
    weight = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.01, 1.0), st.floats(1.0, 500.0))
    weights = [draw(weight), draw(weight)]
    if weights == [0.0, 0.0]:
        weights[draw(st.sampled_from([NEG, POS]))] = 1.5
    leaf.class_weights = weights
    value = st.floats(-100.0, 100.0)
    m2 = st.one_of(st.just(0.0), st.floats(-1.0, 0.0), st.floats(0.0, 1e4))
    for per_class in leaf.estimators:
        single = draw(st.one_of(st.none(), value))
        for label, est in enumerate(per_class):
            if weights[label] == 0.0:
                continue
            if single is None:
                lo, hi = sorted([draw(value), draw(value)])
            else:
                lo = hi = single
            est.weight_sum = weights[label]
            est.min_value, est.max_value = lo, hi
            # A range of +0.0 and -0.0 holds no float that hypothesis draws.
            est.mean = draw(st.floats(lo, hi)) if lo < hi else lo
            est._m2 = draw(m2)
        seen = [est for est in per_class if est.weight_sum > 0.0]
        lo = min(est.min_value for est in seen)
        step = (max(est.max_value for est in seen) - lo) / 11
        for est in seen:
            if draw(st.booleans()):
                est.mean = lo + draw(st.integers(1, 10)) * step
    return leaf


@settings(max_examples=500, deadline=None)
@given(split_leaves())
def test_split_candidates_equal_the_cdf_form(leaf):
    assert exact(leaf.best_split_per_attribute()) == exact(reference_best_split(leaf))


@settings(max_examples=100, deadline=None)
@given(learning_sequences())
def test_split_candidates_of_learnt_leaves_equal_the_cdf_form(case):
    d, examples = case
    leaf = _LeafNode(d)
    for values, label, weight, _ in examples:
        leaf.learn(values, label, weight, False)
        assert exact(leaf.best_split_per_attribute()) == exact(reference_best_split(leaf))


@pytest.mark.parametrize("kind", ["bagging", "boosting"])
def test_ensemble_prediction_after_training_is_recomputed(kind):
    rng = np.random.default_rng(22)
    ens = make_ensemble(kind, 2, 4)
    for ex in gaussian_stream(rng, 40, np.array([0.0, 0.0]), np.array([2.0, 2.0])):
        ens.train(ex, rng)
    x = np.array([1.1, 0.9])
    before = ens.predict(x)
    for _ in range(5):
        ens.train(Example(x, POS), rng)
    fresh = np.zeros(2)
    for tree in ens.sub_classifiers:
        fresh += tree.predict_pair(x.tolist())
    after = ens.predict(x)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, fresh / len(ens.sub_classifiers))


@pytest.mark.parametrize("kind", ["bagging", "boosting"])
def test_vote_is_the_mean_predict_returns(kind):
    rng = np.random.default_rng(28)
    ens = make_ensemble(kind, 2, 4)
    for ex in gaussian_stream(rng, 300, np.array([0.0, 0.0]), np.array([2.0, 2.0])):
        ens.train(ex, rng)
    a, b = [0.3, 1.9], [1.1, 0.4]
    vote_a = ens.vote(a)  # a fresh pass
    assert vote_a == tuple(ens.predict(np.array(a)))  # the memo's
    predicted_b = tuple(ens.predict(np.array(b)))  # a fresh pass
    assert ens.vote(b) == predicted_b  # the memo's
    assert ens.vote(a) == vote_a  # a fresh pass again


@pytest.mark.parametrize("kind", ["bagging", "boosting"])
def test_learning_a_list_trains_the_ensemble_as_its_example_does(kind):
    params = HoeffdingTreeParams(grace_period=50)
    learnt, trained = make_ensemble(kind, 2, 5, params), make_ensemble(kind, 2, 5, params)
    rng, train_rng = np.random.default_rng(29), np.random.default_rng(29)
    stream = gaussian_stream(
        np.random.default_rng(30), 600, np.array([0.0, 0.0]), np.array([3.0, 0.0])
    )
    for ex in stream:
        learnt.learn(ex.features.tolist(), ex.label, rng)
        trained.train(ex, train_rng)
    assert rng.random() == train_rng.random()
    assert any(tree.n_splits for tree in learnt.sub_classifiers)
    assert pickle.dumps(learnt) == pickle.dumps(trained)


def train_member_directly(ens, x):
    ens.sub_classifiers[0].train(Example(x, POS), 50.0)


def replace_members(ens, x):
    ens.sub_classifiers = [HoeffdingTree(2) for _ in ens.sub_classifiers]


def replace_one_member(ens, x):
    ens.sub_classifiers[1] = HoeffdingTree(2)


@pytest.mark.parametrize("kind", ["bagging", "boosting"])
@pytest.mark.parametrize("change", [train_member_directly, replace_members, replace_one_member])
def test_ensemble_prediction_follows_members_changed_outside_train(kind, change):
    # A member trained or replaced other than through the ensemble's train
    # must not leave the ensemble predicting the mean of the old pass.
    rng = np.random.default_rng(27)
    ens = make_ensemble(kind, 2, 3)
    for ex in gaussian_stream(rng, 60, np.array([0.0, 0.0]), np.array([2.0, 2.0])):
        ens.train(ex, rng)
    x = np.array([0.2, 0.1])
    before = ens.predict(x)
    change(ens, x)
    fresh = np.zeros(2)
    for tree in ens.sub_classifiers:
        fresh += tree.predict_pair(x.tolist())
    after = ens.predict(x)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, fresh / len(ens.sub_classifiers))


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


def reference_boosting_learn(ens, values, label, rng):
    """``OnlineBoosting.learn`` as it was, on the numpy scalars of the
    lambda arrays, updated in place."""
    ens.trained_count += 1
    lam = 1.0
    for m, tree in enumerate(ens.sub_classifiers):
        k = float(rng.poisson(lam))
        if k > 0.0:
            tree.learn(values, label, k)
        correct = argmax_label(tree.predict_pair(values)) == label
        if correct:
            ens.lambda_correct[m] += lam
        else:
            ens.lambda_wrong[m] += lam
        total = ens.lambda_correct[m] + ens.lambda_wrong[m]
        error = ens.lambda_wrong[m] / total if total > 0.0 else 0.0
        error = min(max(error, ens._EPS), 1.0 - ens._EPS)
        lam = lam / (2.0 * (1.0 - error)) if correct else lam / (2.0 * error)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 6),
    leaf_prediction=st.sampled_from(["nb_adaptive", "majority"]),
    separation=st.floats(0.0, 4.0),
)
def test_boosting_in_floats_equals_the_numpy_scalar_loop(seed, size, leaf_prediction, separation):
    params = HoeffdingTreeParams(grace_period=20, tie_threshold=0.5, leaf_prediction=leaf_prediction)
    ens, reference = (OnlineBoosting(2, size, params) for _ in range(2))
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    stream = gaussian_stream(
        np.random.default_rng(seed + 1), 120, np.zeros(2), np.full(2, separation)
    )
    for ex in stream:
        values = ex.features.tolist()
        ens.learn(values, ex.label, rng)
        reference_boosting_learn(reference, values, ex.label, reference_rng)
        for got, want in ((ens.lambda_correct, reference.lambda_correct),
                          (ens.lambda_wrong, reference.lambda_wrong)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert exact(ens.member_pairs(values)) == exact(reference.member_pairs(values))
    assert ens.trained_count == reference.trained_count
    assert [t.n_splits for t in ens.sub_classifiers] == [
        t.n_splits for t in reference.sub_classifiers
    ]


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


# ----------------------------------------------------------------------
# The drift check's pairs handed to learn, and the cached majority pair
# ----------------------------------------------------------------------


def tree_leaves(tree):
    found, nodes = [], [tree._root]
    while nodes:
        node = nodes.pop()
        if isinstance(node, _LeafNode):
            found.append(node)
        else:
            nodes += [node.left, node.right]
    return found


def fresh_majority(leaf):
    """The majority pair of ``leaf``, computed from its class weights."""
    neg, pos = leaf.class_weights
    total = neg + pos
    if total <= 0.0:
        return (0.5, 0.5)
    return (neg / total, pos / total)


@st.composite
def ensemble_streams(draw):
    """An ensemble kind, a leaf predictor, a dimension, a seed and a stream
    of labelled lists of floats, each flagged if the drift check's pass is
    to reuse a vote made just before it. Values are few, so that equal
    values, zeros of both signs, nb-adaptive leaves on either side of their
    check, and splits all occur."""
    kind = draw(st.sampled_from(["bagging", "boosting"]))
    leaf_prediction = draw(st.sampled_from(["nb_adaptive", "majority"]))
    d = draw(st.integers(1, 3))
    value = st.one_of(
        st.integers(-3, 3).map(float), st.just(-0.0), st.floats(-4.0, 4.0, allow_nan=False)
    )
    examples = [
        (
            draw(st.lists(value, min_size=d, max_size=d)),
            draw(st.sampled_from([NEG, POS])),
            draw(st.booleans()),
        )
        for _ in range(draw(st.integers(1, 80)))
    ]
    return kind, leaf_prediction, d, draw(st.integers(0, 2**32 - 1)), examples


def learner_pair(kind, leaf_prediction, d):
    params = HoeffdingTreeParams(grace_period=5, tie_threshold=0.9, leaf_prediction=leaf_prediction)
    return make_ensemble(kind, d, 3, params), make_ensemble(kind, d, 3, params)


@settings(max_examples=80, deadline=None)
@given(ensemble_streams())
def test_learning_with_the_drift_check_pairs_equals_learning_without(case):
    kind, leaf_prediction, d, seed, examples = case
    handed, plain = learner_pair(kind, leaf_prediction, d)
    rng, plain_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for values, label, voted in examples:
        if voted:
            # A vote at equal values, -0.0 made +0.0, leaves the pass that
            # the drift check then reuses.
            handed.vote([x + 0.0 for x in values])
        pairs = handed.memo_pairs(values)
        assert exact(pairs) == exact(plain.member_pairs(values))
        handed.learn(values, label, rng, pairs)
        plain.learn(values, label, plain_rng)
        assert pickle.dumps(handed) == pickle.dumps(plain)
        assert rng.bit_generator.state == plain_rng.bit_generator.state
    for a, b in zip(handed.sub_classifiers, plain.sub_classifiers):
        for values, _, _ in examples:
            assert exact(a.predict_pair(values)) == exact(b.predict_pair(values))


@settings(max_examples=80, deadline=None)
@given(ensemble_streams())
def test_cached_majority_pairs_equal_a_fresh_computation(case):
    kind, leaf_prediction, d, seed, examples = case
    ensemble, _ = learner_pair(kind, leaf_prediction, d)
    rng = np.random.default_rng(seed)
    for values, label, probe in examples:
        pairs = ensemble.memo_pairs(values) if probe else None
        ensemble.learn(values, label, rng, pairs)
        for tree in ensemble.sub_classifiers:
            for leaf in tree_leaves(tree):
                if leaf._majority is not None:
                    assert exact(leaf._majority) == exact(fresh_majority(leaf))
                assert exact(leaf.majority_distribution()) == exact(fresh_majority(leaf))


def test_a_handed_naive_bayes_pair_spares_the_leaf_an_evaluation(monkeypatch):
    rng = np.random.default_rng(31)
    tree = HoeffdingTree(2, HoeffdingTreeParams(grace_period=10_000))
    for ex in gaussian_stream(rng, 40, np.array([0.0, 0.0]), np.array([3.0, 3.0])):
        tree.train(ex, 1.0)
    leaf = tree._root
    evaluations = []
    evaluate = _LeafNode.naive_bayes_distribution

    def counted(self, values):
        evaluations.append(values)
        return evaluate(self, values)

    monkeypatch.setattr(_LeafNode, "naive_bayes_distribution", counted)
    x = [1.0, 2.0]
    leaf.mc_correct_weight, leaf.nb_correct_weight = 1.0, 2.0  # predicts naive Bayes
    tree.learn(x, POS, 1.0, tree.predict_pair(x))
    assert len(evaluations) == 1  # the prediction's
    leaf.mc_correct_weight, leaf.nb_correct_weight = 2.0, 1.0  # predicts its majority
    tree.learn(x, POS, 1.0, tree.predict_pair(x))
    assert len(evaluations) == 2  # the nb-adaptive check's
    tree.learn(x, POS, 1.0)
    assert len(evaluations) == 3
