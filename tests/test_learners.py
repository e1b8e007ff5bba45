"""Tests for the Hoeffding tree and the online bagging/boosting ensembles."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marline import learners
from marline.core import (
    NEG,
    POS,
    ConfigurationError,
    argmax_label,
)
from marline.learners import (
    HoeffdingTree,
    HoeffdingTreeParams,
    OnlineBagging,
    OnlineBoosting,
    _LeafNode,
    _SplitNode,
    hoeffding_bound,
    make_ensemble,
    mean_pair,
)
from reference import fresh_majority, per_tree_pair, reference_terms


class StubLeaf:
    """Leaf answering a fixed distribution as its naive Bayes, so that every
    member pass evaluates it."""

    _answer = False  # answers by naive Bayes

    def __init__(self, distribution):
        self.distribution = distribution

    def naive_bayes_distribution(self, values):
        return tuple(self.distribution.tolist())


class StubTree(HoeffdingTree):
    """Fixed-prediction sub-classifier that records training calls."""

    def __init__(self, distribution, n_features):
        super().__init__(n_features)
        self.distribution = np.asarray(distribution, dtype=float)
        self._root = StubLeaf(self.distribution)
        self.train_calls = []

    def learn(self, values, label, weight, pair=None):
        self.train_calls.append((values, label, weight))


class StubRng:
    """Deterministic stand-in for a Generator: records Poisson means."""

    def __init__(self, value=1):
        self.value = value
        self.means = []

    def poisson(self, lam, size=None):
        self.means.append(lam)
        return self.value if size is None else np.full(size, self.value)


def gaussian_stream(rng, n, mean_neg, mean_pos, std=1.0):
    """``n`` labelled lists of floats, alternating between two Gaussian classes."""
    examples = []
    for t in range(n):
        label = t % 2
        mean = mean_pos if label == POS else mean_neg
        examples.append(((mean + rng.standard_normal(len(mean)) * std).tolist(), label))
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
    assert tree.predict_pair([0.0, 0.0, 0.0]) == (0.5, 0.5)


def test_tree_trained_on_single_class_prefers_it():
    tree = HoeffdingTree(n_features=2)
    rng = np.random.default_rng(1)
    for _ in range(50):
        tree.learn(rng.standard_normal(2).tolist(), POS, 1.0)
    assert tree.predict_pair([0.0, 0.0])[POS] > 0.5


def test_pure_class_stream_yields_confident_distribution():
    tree = HoeffdingTree(n_features=2)
    rng = np.random.default_rng(2)
    for _ in range(1000):
        tree.learn(rng.standard_normal(2).tolist(), NEG, 1.0)
    assert tree.predict_pair([0.0, 0.0])[NEG] >= 0.99


def test_separated_gaussians_reach_high_holdout_accuracy():
    rng = np.random.default_rng(3)
    tree = HoeffdingTree(n_features=1)
    for values, label in gaussian_stream(rng, 5000, np.array([0.0]), np.array([4.0])):
        tree.learn(values, label, 1.0)
    holdout = gaussian_stream(rng, 1000, np.array([0.0]), np.array([4.0]))
    accuracy = np.mean([argmax_label(tree.predict_pair(v)) == label for v, label in holdout])
    assert accuracy >= 0.95


def test_zero_weight_training_changes_nothing():
    # A member that draws weight 0 does not learn the example.
    rng = np.random.default_rng(4)
    bag = OnlineBagging(n_features=2, ensemble_size=3)
    for values, label in gaussian_stream(rng, 300, np.array([0.0, 0.0]), np.array([3.0, 3.0])):
        bag.learn(values, label, rng)
    before = pickle.dumps(bag.sub_classifiers)
    bag.learn([100.0, 100.0], POS, StubRng(value=0))
    assert pickle.dumps(bag.sub_classifiers) == before


def test_tree_is_deterministic_given_sequence():
    stream = gaussian_stream(
        np.random.default_rng(5), 2000, np.array([0.0, 0.0]), np.array([2.0, 2.0])
    )
    trees = [HoeffdingTree(n_features=2), HoeffdingTree(n_features=2)]
    for tree in trees:
        for values, label in stream:
            tree.learn(values, label, 1.0)
    probes = np.random.default_rng(6).standard_normal((50, 2)) * 3
    for p in probes.tolist():
        assert trees[0].predict_pair(p) == trees[1].predict_pair(p)


def test_learning_a_list_grows_the_tree_training_an_example_grows():
    # Weighted learning splits the tree, and every example reaches a leaf
    # with its weight.
    rng = np.random.default_rng(25)
    stream = gaussian_stream(rng, 1500, np.array([0.0, 0.0]), np.array([2.5, 2.5]))
    weights = rng.integers(1, 4, len(stream)).astype(float).tolist()
    learnt = HoeffdingTree(2, HoeffdingTreeParams(grace_period=50))
    unsplit = HoeffdingTree(2, HoeffdingTreeParams(grace_period=10_000))
    expected = [0.0, 0.0]
    for (values, label), weight in zip(stream, weights):
        learnt.learn(values, label, weight)
        unsplit.learn(values, label, weight)
        expected[label] += weight
    assert learnt.n_splits > 0
    assert unsplit._root.class_weights == expected


def test_tree_actually_splits_on_informative_data():
    tree = HoeffdingTree(n_features=2)
    for values, label in gaussian_stream(
        np.random.default_rng(7), 5000, np.array([0.0, 0.0]), np.array([6.0, 6.0]), std=0.5
    ):
        tree.learn(values, label, 1.0)
    assert tree.n_splits >= 1


@pytest.mark.parametrize("leaf_prediction", ["majority", "nb_adaptive"])
def test_distributions_are_valid_probabilities(leaf_prediction):
    params = HoeffdingTreeParams(leaf_prediction=leaf_prediction)
    rng = np.random.default_rng(8)
    tree = HoeffdingTree(n_features=3, params=params)
    for t in range(2000):
        features = rng.standard_normal(3) * 5
        tree.learn(features.tolist(), int(features[0] > 0), 1.0)
        if t % 50 == 0:
            dist = np.array(tree.predict_pair((rng.standard_normal(3) * 5).tolist()))
            assert dist.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(dist >= 0.0) and np.all(dist <= 1.0)
            assert np.all(np.isfinite(dist))


# ----------------------------------------------------------------------
# Online bagging
# ----------------------------------------------------------------------


def test_bagging_poisson_zero_frequency_matches_pmf():
    # P(Poisson(1) = 0) = exp(-1); count skipped trainings through the
    # ensemble's own sampling path.
    stub = StubTree([0.5, 0.5], 1)
    bag = OnlineBagging(n_features=1, ensemble_size=1)
    bag.sub_classifiers = [stub]
    rng = np.random.default_rng(9)
    n = 100_000
    for _ in range(n):
        bag.learn([0.0], NEG, rng)
    zero_fraction = 1.0 - len(stub.train_calls) / n
    assert zero_fraction == pytest.approx(math.exp(-1.0), abs=0.01)


def test_single_member_bagging_with_unit_weights_matches_plain_tree():
    stream = gaussian_stream(
        np.random.default_rng(10), 1500, np.array([0.0, 0.0]), np.array([3.0, 3.0])
    )
    bag = OnlineBagging(n_features=2, ensemble_size=1)
    plain = HoeffdingTree(n_features=2)
    rng = StubRng(value=1)
    for values, label in stream:
        bag.learn(values, label, rng)
        plain.learn(values, label, 1.0)
    probes = np.random.default_rng(11).standard_normal((100, 2)) * 3
    for p in probes.tolist():
        assert bag.sub_classifiers[0].predict_pair(p) == plain.predict_pair(p)


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
    for values, label in stream:
        bag.learn(values, label, rng)
        for tree in trees:
            k = float(scalar_rng.poisson(1.0))
            if k > 0.0:
                tree.learn(values, label, k)
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
        for values, label in gaussian_stream(rng, 1000, np.array([0.0, 0.0]), np.array([1.5, 1.5])):
            bag.learn(values, label, rng)
        labels = np.array(
            [[argmax_label(t.predict_pair(p)) for p in probes.tolist()] for t in bag.sub_classifiers]
        )
        assert (labels != labels[0]).any(), f"seed {seed}: members identical"


def test_ensemble_size_is_fixed_after_construction():
    bag = OnlineBagging(n_features=2, ensemble_size=4)
    rng = np.random.default_rng(13)
    for values, label in gaussian_stream(rng, 500, np.array([0.0, 0.0]), np.array([2.0, 2.0])):
        bag.learn(values, label, rng)
    assert bag.ensemble_size == 4
    assert bag.trained_count == 500


# ----------------------------------------------------------------------
# Ensemble prediction
# ----------------------------------------------------------------------


def test_untrained_ensemble_predicts_uniform():
    ens = OnlineBagging(n_features=2, ensemble_size=3)
    assert mean_pair(ens.member_pairs([0.0, 0.0])) == (0.5, 0.5)


def test_identical_members_match_single_tree_prediction():
    tree = HoeffdingTree(n_features=2)
    for values, label in gaussian_stream(
        np.random.default_rng(14), 500, np.array([0.0, 0.0]), np.array([3.0, 3.0])
    ):
        tree.learn(values, label, 1.0)
    ens = OnlineBagging(n_features=2, ensemble_size=3)
    ens.sub_classifiers = [tree, tree, tree]
    probe = [1.0, 2.0]
    assert mean_pair(ens.member_pairs(probe)) == pytest.approx(tree.predict_pair(probe), abs=1e-12)


def test_ensemble_prediction_is_arithmetic_mean():
    ens = OnlineBagging(n_features=2, ensemble_size=2)
    ens.sub_classifiers = [StubTree([0.8, 0.2], 2), StubTree([0.4, 0.6], 2)]
    assert mean_pair(ens.member_pairs([0.0, 0.0])) == pytest.approx([0.6, 0.4])


def test_ensemble_distributions_sum_to_one():
    rng = np.random.default_rng(15)
    ens = OnlineBoosting(n_features=2, ensemble_size=4)
    for values, label in gaussian_stream(rng, 800, np.array([0.0, 0.0]), np.array([2.0, 2.0])):
        ens.learn(values, label, rng)
        assert sum(mean_pair(ens.member_pairs(values))) == pytest.approx(1.0, abs=1e-9)


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
    leaf = _LeafNode(0, True)
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
    probes = (np.random.default_rng(21).standard_normal((40, 2)) * 2 + 1.0).tolist()

    def check(ensemble):
        trees = ensemble.sub_classifiers
        for p in probes:
            expected = np.array([t.predict_pair(p) for t in trees])
            assert np.array_equal(np.array(ensemble.member_pairs(p)), expected)
            for tree, row in zip(trees, expected):
                assert np.array_equal(row, reference_leaf_distribution(tree, p))
            total = np.zeros(2)
            for row in expected:
                total += row
            assert np.array_equal(mean_pair(ensemble.member_pairs(p)), total / len(trees))

    for values, label in stream[:400]:
        ens.learn(values, label, rng)
    check(ens)
    # More training must keep the terms of every leaf it reaches current.
    for values, label in stream[400:]:
        ens.learn(values, label, rng)
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


def leaf_statistics(leaf):
    """The class weights and every estimator's fields of ``leaf``."""
    estimators = [
        [(e.weight_sum, e.mean, e._m2, e.min_value, e.max_value) for e in per_class]
        for per_class in leaf.estimators
    ]
    return exact([leaf.class_weights, estimators])


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
    """The statistics update of ``_LeafNode.learn`` as it was: one
    ``reference_add`` per attribute."""
    leaf.class_weights[label] += weight
    for value, per_class in zip(values, leaf.estimators):
        reference_add(per_class[label], value, weight)


@settings(max_examples=200, deadline=None)
@given(learning_sequences(), st.sampled_from(["nb_adaptive", "majority"]))
def test_leaf_learn_equals_estimator_adds_and_a_term_rebuild(case, leaf_prediction):
    # At every step, and after a pickle round trip where one is drawn, a
    # leaf's statistics equal the estimator adds, and an nb-adaptive leaf's
    # terms equal a rebuild from its estimators. A majority-rule leaf holds
    # no terms and writes none. The same examples go into a tree that
    # splits, whose leaves, the ones a split makes included, do the same.
    d, examples = case
    nb_adaptive = leaf_prediction == "nb_adaptive"
    leaf, reference = _LeafNode(d, nb_adaptive), _LeafNode(d, False)
    params = HoeffdingTreeParams(grace_period=2, tie_threshold=0.95, leaf_prediction=leaf_prediction)
    tree = HoeffdingTree(d, params)

    def terms_of(node):
        return exact(reference_terms(node)) if nb_adaptive else None

    for values, label, weight, round_trip in examples:
        if round_trip:
            leaf, tree = pickle.loads(pickle.dumps((leaf, tree)))
        leaf.learn(values, label, weight, nb_adaptive)
        reference_leaf_learn(reference, values, label, weight)
        assert leaf_statistics(leaf) == leaf_statistics(reference)
        assert exact(leaf._nb_terms) == terms_of(leaf)
        tree.learn(values, label, weight)
        assert all(exact(node._nb_terms) == terms_of(node) for node in tree_leaves(tree))


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
    leaf = _LeafNode(d, False)
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
    leaf = _LeafNode(d, False)
    for values, label, weight, _ in examples:
        leaf.learn(values, label, weight, False)
        assert exact(leaf.best_split_per_attribute()) == exact(reference_best_split(leaf))


@pytest.mark.parametrize("kind", ["bagging", "boosting"])
def test_ensemble_prediction_after_training_is_recomputed(kind):
    rng = np.random.default_rng(22)
    ens = make_ensemble(kind, 2, 4)
    for values, label in gaussian_stream(rng, 40, np.array([0.0, 0.0]), np.array([2.0, 2.0])):
        ens.learn(values, label, rng)
    x = [1.1, 0.9]
    before = mean_pair(ens.member_pairs(x))
    for _ in range(5):
        ens.learn(x, POS, rng)
    fresh = np.zeros(2)
    for tree in ens.sub_classifiers:
        fresh += tree.predict_pair(x)
    after = mean_pair(ens.member_pairs(x))
    assert after != before
    assert np.array_equal(after, fresh / len(ens.sub_classifiers))


@pytest.mark.parametrize("kind", ["bagging", "boosting"])
def test_vote_is_the_mean_predict_returns(kind):
    # The vote, the mean of a member pass, is the mean of the members'
    # predict_pair at any values, in any order of queries.
    rng = np.random.default_rng(28)
    ens = make_ensemble(kind, 2, 4)
    for values, label in gaussian_stream(rng, 300, np.array([0.0, 0.0]), np.array([2.0, 2.0])):
        ens.learn(values, label, rng)
    for values in ([0.3, 1.9], [1.1, 0.4], [0.3, 1.9]):
        total = np.zeros(2)
        for tree in ens.sub_classifiers:
            total += tree.predict_pair(values)
        assert np.array_equal(mean_pair(ens.member_pairs(values)), total / 4)


def train_member_directly(ens, x):
    ens.sub_classifiers[0].learn(x, POS, 50.0)


def replace_members(ens, x):
    ens.sub_classifiers = [HoeffdingTree(2) for _ in ens.sub_classifiers]


def replace_one_member(ens, x):
    ens.sub_classifiers[1] = HoeffdingTree(2)


@pytest.mark.parametrize("kind", ["bagging", "boosting"])
@pytest.mark.parametrize("change", [train_member_directly, replace_members, replace_one_member])
def test_ensemble_prediction_follows_members_changed_outside_train(kind, change):
    # A member trained or replaced other than through the ensemble's learn
    # must not leave the member pass stale.
    rng = np.random.default_rng(27)
    ens = make_ensemble(kind, 2, 3)
    for values, label in gaussian_stream(rng, 60, np.array([0.0, 0.0]), np.array([2.0, 2.0])):
        ens.learn(values, label, rng)
    x = [0.2, 0.1]
    before = mean_pair(ens.member_pairs(x))
    change(ens, x)
    fresh = np.zeros(2)
    for tree in ens.sub_classifiers:
        fresh += tree.predict_pair(x)
    after = mean_pair(ens.member_pairs(x))
    assert after != before
    assert np.array_equal(after, fresh / len(ens.sub_classifiers))


@pytest.mark.parametrize("kind", ["bagging", "boosting"])
def test_learning_drops_the_kept_pass(kind):
    # A pass kept at x serves equal values until the ensemble learns; after
    # learning x, the pass at x is a fresh one.
    rng = np.random.default_rng(32)
    ens = make_ensemble(kind, 2, 3)
    for values, label in gaussian_stream(rng, 60, np.array([0.0, 0.0]), np.array([2.0, 2.0])):
        ens.learn(values, label, rng)
    x = [0.2, 0.1]
    kept = ens.memo_pairs(x)
    assert ens.memo_pairs([0.2, 0.1]) is kept
    ens.learn(x, POS, rng, kept)
    fresh = ens.member_pairs(x)
    assert fresh != kept
    assert ens.memo_pairs(x) == fresh


@settings(max_examples=200, deadline=None)
@given(
    learning_sequences(),
    st.sampled_from(["majority", "mc above nb", "mc equal to nb", "mc below nb", "split"]),
    st.floats(0.0, 50.0),
    st.data(),
)
def test_a_fixed_pair_is_the_pair_at_any_values(case, shape, tally, data):
    # A one-leaf tree that answers by majority, as a majority leaf does and
    # an nb-adaptive leaf does while its majority tally is above its
    # naive-Bayes tally, has a fixed pair: predict_pair at any values. An
    # nb-adaptive leaf on the other side of its tally, and a tree with a
    # split, have none.
    d, examples = case
    leaf_prediction = "majority" if shape == "majority" else "nb_adaptive"
    tree = HoeffdingTree(d, HoeffdingTreeParams(grace_period=10**6, leaf_prediction=leaf_prediction))
    if shape == "split":
        tree._root = _SplitNode(0, 0.0, d, leaf_prediction == "nb_adaptive")
    for values, label, weight, _ in examples:
        tree.learn(values, label, weight)
    if shape.startswith("mc"):
        tree._root.nb_correct_weight = tally
        tree._root.mc_correct_weight = tally + {"above": 1.0, "equal": 0.0, "below": -1.0}[
            shape.split()[1]
        ]
        # Set by hand, the tallies take the answer that learn would write.
        tree._root._answer = reference_answer(tree._root, True)
    fixed = tree.fixed_pair()
    assert (fixed is None) == (shape not in ("majority", "mc above nb"))
    value = st.floats(-20.0, 20.0, allow_nan=False)
    probes = data.draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=5))
    for values in probes + [values for values, _, _, _ in examples]:
        if fixed is not None:
            assert exact(tree.predict_pair(values)) == exact(fixed)


@pytest.mark.parametrize("kind", ["bagging", "boosting"])
def test_learning_drops_the_kept_fixed_pass(kind):
    # Single majority leaves ignore their input: the ensemble keeps their
    # pairs as its fixed pass, the (k, 2) array of the pass, until it
    # learns, and then builds it afresh.
    rng = np.random.default_rng(33)
    params = HoeffdingTreeParams(grace_period=10_000, leaf_prediction="majority")
    ens = make_ensemble(kind, 2, 3, params)
    kept = ens.fixed_pairs()
    assert ens.member_pairs([4.0, -4.0]) == [(0.5, 0.5)] * 3
    assert kept.tolist() == [[0.5, 0.5]] * 3
    assert ens.fixed_pairs() is kept
    for _ in range(3):
        ens.learn([1.0, 2.0], POS, rng)
    fresh = ens.member_pairs([4.0, -4.0])
    assert fresh != [(0.5, 0.5)] * 3
    assert ens.fixed_pairs() is not kept
    assert ens.fixed_pairs().tolist() == [list(pair) for pair in fresh]
    # A member that splits reads its input from then on.
    ens.sub_classifiers[1]._root = _SplitNode(0, 0.0, 2, False)
    assert ens.fixed_pairs().tolist() == [list(pair) for pair in fresh]
    ens.learn([1.0, 2.0], NEG, rng)
    assert ens.fixed_pairs() is None


# ----------------------------------------------------------------------
# Online boosting
# ----------------------------------------------------------------------


def test_boosting_weight_grows_after_a_misclassifying_member():
    # Member 1 misclassifies but has history error below 1/2, so the weight
    # it hands to member 2 must exceed the weight it received.
    members = [StubTree([0.0, 1.0], 1), StubTree([1.0, 0.0], 1), StubTree([0.0, 1.0], 1)]
    boost = OnlineBoosting(n_features=1, ensemble_size=3)
    boost.sub_classifiers = members
    boost.lambda_correct[:] = [10.0, 3.0, 0.0]
    boost.lambda_wrong[:] = [0.0, 1.0, 0.0]
    rng = StubRng(value=1)
    boost.learn([0.0], POS, rng)
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
    for values, label in stream:
        boost.learn(values, label, rng)
    assert np.all(boost.lambda_correct >= 0.0)
    assert np.all(boost.lambda_wrong >= 0.0)
    holdout = gaussian_stream(rng, 500, np.array([0.0, 0.0]), np.array([3.0, 3.0]))
    accuracy = np.mean(
        [argmax_label(mean_pair(boost.member_pairs(v))) == label for v, label in holdout]
    )
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
    for values, label in stream:
        ens.learn(values, label, rng)
        reference_boosting_learn(reference, values, label, reference_rng)
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
        for values, label in gaussian_stream(
            np.random.default_rng(18), 600, np.array([0.0, 0.0]), np.array([2.0, 2.0])
        ):
            ens.learn(values, label, rng)
        return ens

    a, b = build(), build()
    probes = np.random.default_rng(19).standard_normal((50, 2)) * 2
    for p in probes.tolist():
        assert a.member_pairs(p) == b.member_pairs(p)


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


def reference_answer(leaf, nb_adaptive):
    """The answer of ``leaf`` by the adaptive leaf rule: its fresh majority
    pair where it answers by majority, False where it answers by naive
    Bayes. A leaf that has not learned answers (0.5, 0.5), as its majority
    and its naive Bayes both do."""
    if leaf.total_weight <= 0.0:
        return (0.5, 0.5)
    if not nb_adaptive or leaf.mc_correct_weight > leaf.nb_correct_weight:
        return fresh_majority(leaf)
    return False


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


class LeafSpy:
    """Stands in for the leaf that a tree's ``learn`` returns, and records
    the pair read from it with ``predict_pair`` at the same values."""

    def __init__(self, leaf, expected, seen):
        self._leaf, self._expected, self._seen = leaf, expected, seen

    @property
    def _answer(self):
        answer = self._leaf._answer
        if answer:
            self._seen.append((answer, self._expected))
        return answer

    def naive_bayes_distribution(self, values):
        pair = self._leaf.naive_bayes_distribution(values)
        self._seen.append((pair, self._expected))
        return pair


def boosting_reads(ens, examples, rng):
    """Teach ``ens`` ``examples`` of (values, label); return the pairs it
    read from the leaves its members trained, each with ``predict_pair``
    at the same values right after that learn, and the count of learns that
    split their leaf. A learn returns None exactly where its leaf split."""
    seen, splits = [], []
    learn = HoeffdingTree.learn

    def spied(tree, values, label, weight, pair=None):
        before = tree.n_splits
        leaf = learn(tree, values, label, weight, pair)
        assert (leaf is None) == (tree.n_splits > before)
        if leaf is None:
            splits.append(values)
            return None
        return LeafSpy(leaf, tree.predict_pair(values), seen)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HoeffdingTree, "learn", spied)
        for values, label in examples:
            ens.learn(values, label, rng)
    return seen, len(splits)


@settings(max_examples=80, deadline=None)
@given(ensemble_streams())
def test_boosting_takes_each_trained_members_pair_from_its_leaf(case):
    _, leaf_prediction, d, seed, examples = case
    params = HoeffdingTreeParams(grace_period=5, tie_threshold=0.9, leaf_prediction=leaf_prediction)
    ens = OnlineBoosting(d, 3, params)
    stream = [(values, label) for values, label, _ in examples]
    seen, _ = boosting_reads(ens, stream, np.random.default_rng(seed))
    for used, expected in seen:
        assert exact(used) == exact(expected)


@pytest.mark.parametrize("leaf_prediction", ["majority", "nb_adaptive"])
def test_boosting_routes_a_member_afresh_after_its_leaf_splits(leaf_prediction):
    # The stream splits leaves; the members that split are routed again by
    # predict_pair, and the lambdas equal the loop that routes every member.
    params = HoeffdingTreeParams(grace_period=5, tie_threshold=0.9, leaf_prediction=leaf_prediction)
    ens, reference = OnlineBoosting(2, 3, params), OnlineBoosting(2, 3, params)
    examples = gaussian_stream(np.random.default_rng(47), 200, np.zeros(2), np.full(2, 2.0))
    seen, splits = boosting_reads(ens, examples, np.random.default_rng(48))
    assert splits > 0 and len(seen) > 0
    assert all(exact(used) == exact(expected) for used, expected in seen)
    reference_rng = np.random.default_rng(48)
    for values, label in examples:
        reference_boosting_learn(reference, values, label, reference_rng)
    assert ens.lambda_correct.tobytes() == reference.lambda_correct.tobytes()
    assert ens.lambda_wrong.tobytes() == reference.lambda_wrong.tobytes()


@pytest.mark.parametrize("leaf_prediction", ["majority", "nb_adaptive"])
@pytest.mark.parametrize("handed", [False, True])
def test_boosting_keeps_its_post_learn_pass(monkeypatch, leaf_prediction, handed):
    # After a learn at values, the kept pass at them is the one a fresh
    # member pass gives, bit for bit, and reading it routes no tree. The
    # stream has members that drew 0, members that trained and members
    # whose leaf split in that learn.
    params = HoeffdingTreeParams(grace_period=1, tie_threshold=0.9, leaf_prediction=leaf_prediction)
    ens = OnlineBoosting(2, 4, params)
    rng = np.random.default_rng(49)
    routed, trained, split = [], [], []
    member_pairs, learn = learners._member_pairs, HoeffdingTree.learn

    def counted(trees, values):
        routed.extend(trees)
        return member_pairs(trees, values)

    def spied(tree, values, label, weight, pair=None):
        leaf = learn(tree, values, label, weight, pair)
        (trained if leaf is not None else split).append(tree)
        return leaf

    monkeypatch.setattr(HoeffdingTree, "learn", spied)
    seen = {"drew 0": 0, "trained": 0, "split": 0}
    for values, label in gaussian_stream(rng, 120, np.zeros(2), np.full(2, 2.0)):
        pairs = ens.member_pairs(values) if handed else None
        trained.clear()
        split.clear()
        ens.learn(values, label, rng, pairs)
        seen["drew 0"] += len(ens.sub_classifiers) - len(trained) - len(split)
        seen["trained"] += len(trained)
        seen["split"] += len(split)
        with monkeypatch.context() as patch:
            patch.setattr(learners, "_member_pairs", counted)
            kept = ens.memo_pairs(values)
        assert routed == []
        assert exact(kept) == exact(ens.member_pairs(values))
    assert all(seen.values()), seen


@settings(max_examples=80, deadline=None)
@given(ensemble_streams())
def test_learning_with_the_drift_check_pairs_equals_learning_without(case):
    kind, leaf_prediction, d, seed, examples = case
    handed, plain = learner_pair(kind, leaf_prediction, d)
    rng, plain_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for values, label, voted in examples:
        if voted:
            # A prediction's pass at equal values, -0.0 made +0.0, is the
            # one that the drift check then reuses.
            handed.memo_pairs([x + 0.0 for x in values])
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
                expected = reference_answer(leaf, leaf_prediction == "nb_adaptive")
                assert exact(leaf._answer) == exact(expected)
                assert exact(leaf.majority_distribution()) == exact(fresh_majority(leaf))


def test_a_handed_naive_bayes_pair_spares_the_leaf_an_evaluation(monkeypatch):
    rng = np.random.default_rng(31)
    tree = HoeffdingTree(2, HoeffdingTreeParams(grace_period=10_000))
    for values, label in gaussian_stream(rng, 40, np.array([0.0, 0.0]), np.array([3.0, 3.0])):
        tree.learn(values, label, 1.0)
    leaf = tree._root
    evaluations = []
    evaluate = _LeafNode.naive_bayes_distribution

    def counted(self, values):
        evaluations.append(values)
        return evaluate(self, values)

    monkeypatch.setattr(_LeafNode, "naive_bayes_distribution", counted)
    x = [1.0, 2.0]
    leaf.mc_correct_weight, leaf.nb_correct_weight = 1.0, 2.0  # predicts naive Bayes
    leaf._answer = reference_answer(leaf, True)
    tree.learn(x, POS, 1.0, tree.predict_pair(x))
    assert len(evaluations) == 1  # the prediction's
    leaf.mc_correct_weight, leaf.nb_correct_weight = 2.0, 1.0  # predicts its majority
    leaf._answer = reference_answer(leaf, True)
    tree.learn(x, POS, 1.0, tree.predict_pair(x))
    assert len(evaluations) == 2  # the nb-adaptive check's
    tree.learn(x, POS, 1.0)
    assert len(evaluations) == 3


# ----------------------------------------------------------------------
# The member pass as one loop, against the per-tree form
# ----------------------------------------------------------------------


def split_nodes(tree):
    found, nodes = [], [tree._root]
    while nodes:
        node = nodes.pop()
        if isinstance(node, _SplitNode):
            found.append(node)
            nodes += [node.left, node.right]
    return found


TALLIES = {"above": 1.0, "equal": 0.0, "below": -1.0}


@st.composite
def member_pass_cases(draw):
    """An ensemble kind, a leaf predictor, a dimension of 1 to 4, a seed,
    for each of three members an optional root split on a threshold from
    the training values, and rounds of a labelled list to learn (the
    other class possibly never seen), probes that may hold ±0.0, NaN and
    ±inf, and an optional relation (above, equal or below) to set every
    leaf's majority tally to against its naive-Bayes tally."""
    kind = draw(st.sampled_from(["bagging", "boosting"]))
    leaf_prediction = draw(st.sampled_from(["nb_adaptive", "majority"]))
    d = draw(st.integers(1, 4))
    learnt = st.one_of(
        st.integers(-2, 2).map(float), st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0)
    )
    probe = st.one_of(learnt, st.sampled_from([math.nan, math.inf, -math.inf]))
    roots = [
        draw(st.one_of(st.none(), st.tuples(st.integers(0, d - 1), st.integers(-2, 2).map(float))))
        for _ in range(3)
    ]
    labels = st.sampled_from([NEG, POS])
    if draw(st.booleans()):  # one class only
        labels = st.just(draw(labels))
    rounds = [
        (
            draw(st.lists(learnt, min_size=d, max_size=d)),
            draw(labels),
            draw(st.lists(st.lists(probe, min_size=d, max_size=d), min_size=1, max_size=3)),
            draw(st.one_of(st.none(), st.sampled_from(sorted(TALLIES)))),
        )
        for _ in range(draw(st.integers(1, 40)))
    ]
    return kind, leaf_prediction, d, draw(st.integers(0, 2**32 - 1)), roots, rounds


@settings(max_examples=100, deadline=None)
@given(member_pass_cases())
def test_the_member_pass_equals_the_per_tree_form_bit_for_bit(case):
    kind, leaf_prediction, d, seed, roots, rounds = case
    params = HoeffdingTreeParams(grace_period=4, tie_threshold=0.9, leaf_prediction=leaf_prediction)
    ensemble = make_ensemble(kind, d, 3, params)
    for tree, root in zip(ensemble.sub_classifiers, roots):
        if root is not None:
            tree._root = _SplitNode(*root, d, leaf_prediction == "nb_adaptive")
    rng = np.random.default_rng(seed)
    trees = ensemble.sub_classifiers
    for values, label, probes, tally in rounds:
        ensemble.learn(values, label, rng)
        if tally is not None:
            # Set by hand, the tallies take the answers that learn would write.
            for tree in trees:
                for leaf in tree_leaves(tree):
                    leaf.mc_correct_weight = leaf.nb_correct_weight + TALLIES[tally]
                    leaf._answer = reference_answer(leaf, leaf_prediction == "nb_adaptive")
        # Probes on every split's threshold as well, so that routing at a
        # threshold counts.
        for probe in list(probes):
            for tree in trees:
                for node in split_nodes(tree):
                    on_threshold = list(probe)
                    on_threshold[node.attribute] = node.threshold
                    probes.append(on_threshold)
        for probe in probes:
            expected = [exact(per_tree_pair(tree, probe)) for tree in trees]
            assert exact(ensemble.member_pairs(probe)) == expected
            assert [exact(tree.predict_pair(probe)) for tree in trees] == expected
