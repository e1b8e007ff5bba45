"""Tests for the MARLINE orchestrator: training loop, weighting, voting."""

from __future__ import annotations

import copy
import os
import pickle
import tempfile
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marline import learners
from marline.core import (
    MAX_ABS_FEATURE,
    NEG,
    POS,
    ConfigurationError,
    DataError,
    DimensionMismatchError,
    Example,
)
from marline.drift import DriftStatus
from marline.evaluation import APPROACHES, BaselineApproach
from marline.learners import (
    HoeffdingTree,
    HoeffdingTreeParams,
    _EnsembleBase,
    _LeafNode,
    mean_pair,
)
from marline.mapping import ConceptFrame, Reflections
from marline.model import (
    EPS_CLAMP,
    SNAPSHOT_HEADER,
    SNAPSHOT_VERSION,
    MarlineConfig,
    MarlineModel,
    sub_classifier_weights,
    update_performance_stats,
)
from reference import ReferenceModel


class StubLeaf:
    """Leaf answering a fixed distribution as its naive Bayes, so that every
    member pass evaluates it, and recording its inputs."""

    _answer = False  # answers by naive Bayes

    def __init__(self, distribution, seen_features):
        self.distribution = distribution
        self.seen_features = seen_features

    def naive_bayes_distribution(self, values):
        self.seen_features.append(np.asarray(values, dtype=float))
        return tuple(self.distribution.tolist())


class StubTree(HoeffdingTree):
    """Sub-classifier returning a fixed distribution, recording its inputs."""

    def __init__(self, distribution, n_features=2):
        super().__init__(n_features)
        self.distribution = np.asarray(distribution, dtype=float)
        self.seen_features = []
        self._root = StubLeaf(self.distribution, self.seen_features)

    def learn(self, values, label, weight, pair=None):
        pass


class StubDetector:
    """Fires drift at chosen update counts (counted since last reset)."""

    def __init__(self, fire_at=()):
        self.fire_at = set(fire_at)
        self.observed_count = 0
        self.status = DriftStatus.STABLE

    def update(self, prediction_correct):
        self.observed_count += 1
        self.status = (
            DriftStatus.DRIFT
            if self.observed_count in self.fire_at
            else DriftStatus.STABLE
        )
        return self.status

    def reset(self):
        self.observed_count = 0
        self.status = DriftStatus.STABLE


def small_config(**overrides):
    defaults = dict(
        n_features=2,
        ensemble_size=2,
        base_ensemble="bagging",
        detector="hddm_a",
        forgetting_factor=0.9,
        performance_index=0.0,
    )
    defaults.update(overrides)
    return MarlineConfig(**defaults)


def seed_tracker(tracker, c_neg=(0.0, 0.0), c_pos=(1.0, 1.0)):
    tracker.update(Example(np.array(c_neg, dtype=float), NEG))
    tracker.update(Example(np.array(c_pos, dtype=float), POS))


def install_stub_concept(model, stream_id, dists, c_neg=(0.0, 0.0), c_pos=(1.0, 1.0)):
    """Give ``stream_id`` a single concept with stubbed sub-classifiers."""
    assert len(dists) == model.config.ensemble_size
    pool = model.pools.get(stream_id)
    if pool is None:
        pool = model._new_concept(stream_id)
    concept = pool.current
    concept.ensemble.sub_classifiers = [StubTree(d, model.config.n_features) for d in dists]
    seed_tracker(concept.tracker, c_neg, c_pos)
    return concept


def set_performance(model, performance):
    """Write ``model.performance`` and the voting weights it gives, as the
    model's weight update does."""
    model.performance[:] = performance
    model._weights = sub_classifier_weights(model.performance, model.config.performance_index)


def alternating_stream(rng, n, mean_neg, mean_pos, std=1.0):
    out = []
    for t in range(n):
        mean = mean_pos if t % 2 else mean_neg
        out.append(Example(np.asarray(mean) + rng.standard_normal(2) * std, t % 2))
    return out


# ----------------------------------------------------------------------
# Performance-stats update
# ----------------------------------------------------------------------


def test_config_rejects_unknown_component_kinds_naming_the_choices():
    with pytest.raises(
        ConfigurationError, match=r"unknown detector kind 'x'; choose from \('ddm', 'hddm_a'\)"
    ):
        small_config(detector="x")
    with pytest.raises(
        ConfigurationError,
        match=r"base_ensemble must be one of \('bagging', 'boosting'\), got 'x'",
    ):
        small_config(base_ensemble="x")


def test_worked_update_example_against_exact_fractions():
    # Two fresh sub-classifiers, P(correct) = 0.8 and 0.4. Independent
    # oracle: the same recurrence evaluated in exact rational arithmetic.
    lam_c, lam_w, alpha, sc, sw = update_performance_stats(
        np.zeros(2),
        np.zeros(2),
        np.ones(2),
        np.array([0.8, 0.4]),
        forgetting_factor=0.9,
        eps_clamp=1e-10,
    )[:5]
    assert sc == pytest.approx(1.2, abs=1e-12)
    assert sw == pytest.approx(0.8, abs=1e-12)
    assert lam_c[0] == pytest.approx(float(Fraction(4, 9)), abs=1e-12)
    assert lam_w[0] == pytest.approx(float(Fraction(1, 6)), abs=1e-12)
    assert alpha[0] == pytest.approx(float(Fraction(8, 11)), abs=1e-12)
    assert lam_c[1] == pytest.approx(float(Fraction(2, 9)), abs=1e-12)
    assert lam_w[1] == pytest.approx(float(Fraction(1, 2)), abs=1e-12)
    assert alpha[1] == pytest.approx(float(Fraction(4, 13)), abs=1e-12)


def test_worked_update_example_through_the_model():
    model = MarlineModel(small_config())
    install_stub_concept(model, "T", [[0.2, 0.8], [0.6, 0.4]])
    model.update_weights(Example(np.array([0.5, 0.5]), POS))
    assert model.lambda_correct == pytest.approx([4 / 9, 2 / 9], abs=1e-12)
    assert model.lambda_wrong == pytest.approx([1 / 6, 1 / 2], abs=1e-12)
    assert model.performance == pytest.approx([8 / 11, 4 / 13], abs=1e-12)


def test_fully_confident_ensemble_barely_moves_the_stats():
    # All P(correct) = 1: SW clamps to eps, the example weight collapses,
    # and performances stay at their prior values.
    lam_c, lam_w, alpha, _, sw = update_performance_stats(
        np.zeros(3),
        np.zeros(3),
        np.ones(3),
        np.ones(3),
        forgetting_factor=1.0,
        eps_clamp=1e-10,
    )
    assert sw == pytest.approx(1e-10)
    assert np.all(lam_c < 1e-9)
    assert np.all(lam_w == 0.0)
    assert alpha == pytest.approx([1.0, 1.0, 1.0])


def test_consistently_better_classifier_ends_with_higher_alpha():
    for theta in (0.9, 1.0):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            lam_c = np.zeros(2)
            lam_w = np.zeros(2)
            alpha = np.ones(2)
            for _ in range(100):
                p_low = rng.uniform(0.0, 0.9)
                p_high = rng.uniform(p_low, 1.0)
                lam_c, lam_w, alpha, _, _ = update_performance_stats(
                    lam_c,
                    lam_w,
                    alpha,
                    np.array([p_high, p_low]),
                    forgetting_factor=theta,
                    eps_clamp=1e-10,
                )
            assert alpha[0] >= alpha[1] - 1e-12, f"theta={theta} seed={seed}"


def test_always_correct_beats_always_wrong_after_100_updates():
    lam_c = np.zeros(2)
    lam_w = np.zeros(2)
    alpha = np.ones(2)
    for _ in range(100):
        lam_c, lam_w, alpha, _, _ = update_performance_stats(
            lam_c, lam_w, alpha, np.array([1.0, 0.0]), 1.0, 1e-10
        )
    assert alpha[0] > alpha[1]
    assert alpha[0] > 0.9 and alpha[1] < 0.1


def reference_performance_stats(
    lambda_correct, lambda_wrong, performance, p_correct, forgetting_factor, eps_clamp
):
    """``update_performance_stats`` as first written, one numpy call per term."""
    p_correct = np.clip(p_correct, 0.0, 1.0)
    p_wrong = 1.0 - p_correct
    sc = max(float(np.sum(performance * p_correct)), eps_clamp)
    sw = max(float(np.sum(performance * p_wrong)), eps_clamp)
    example_weight = sw / sc
    new_correct = forgetting_factor * lambda_correct + example_weight * (
        performance * p_correct
    ) / sc
    new_wrong = forgetting_factor * lambda_wrong + example_weight * (
        performance * p_wrong
    ) / sw
    totals = new_correct + new_wrong
    new_performance = np.where(
        totals > 0.0, new_correct / np.where(totals > 0.0, totals, 1.0), 1.0
    )
    return new_correct, new_wrong, new_performance, sc, sw


@pytest.mark.parametrize("n", [5, 30, 110])
def test_performance_stats_equal_the_reference_formula_bit_for_bit(n):
    rng = np.random.default_rng(n)

    def uniform(high=1.0):
        return rng.uniform(0.0, high, n)

    cases = [
        (uniform(3.0), uniform(3.0), uniform(), uniform(), float(rng.uniform(0.5, 1.0)))
        for _ in range(200)
    ]
    # p outside [0, 1], and exact 0 and 1.
    outside = rng.uniform(-0.5, 1.5, n)
    outside[:2] = (0.0, 1.0)
    cases.append((uniform(), uniform(), uniform(), outside, 0.9))
    # All-zero performance: SC and SW fall to the EPS_CLAMP floor.
    cases.append((uniform(), uniform(), np.zeros(n), uniform(), 0.9))
    # Zero totals, everywhere or in every other member; all-confident members.
    cases.append((np.zeros(n), np.zeros(n), np.zeros(n), uniform(), 1.0))
    mixed = np.ones(n)
    mixed[::2] = 0.0
    cases.append((np.zeros(n), np.zeros(n), mixed, uniform(), 0.9))
    cases.append((np.zeros(n), np.zeros(n), np.ones(n), np.ones(n), 0.9))
    for lambda_c, lambda_w, performance, p, theta in cases:
        got = update_performance_stats(lambda_c, lambda_w, performance, p, theta, EPS_CLAMP)
        expected = reference_performance_stats(
            lambda_c, lambda_w, performance, p, theta, EPS_CLAMP
        )
        for g, e in zip(got[:3], expected[:3]):
            assert np.array_equal(g, e)
        assert got[3:] == expected[3:]


@st.composite
def performance_updates(draw):
    """Inputs of one update of 0 to 110 members: p outside [0, 1] and
    exactly 0 and 1, and either drawn stats or the stats just after a
    target drift's reset (zero lambdas, unit performance)."""
    n = draw(st.integers(0, 110))

    def array(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    if draw(st.booleans()):
        lambda_c, lambda_w, performance = np.zeros(n), np.zeros(n), np.ones(n)
    else:
        lambda_c = array(st.floats(0.0, 3.0))
        lambda_w = array(st.floats(0.0, 3.0))
        performance = array(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])))
    p = array(st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 1.0])))
    return lambda_c, lambda_w, performance, p, draw(st.floats(0.5, 1.0))


@settings(max_examples=300, deadline=None)
@given(performance_updates())
@example((np.zeros(0), np.zeros(0), np.ones(0), np.zeros(0), 0.9))
def test_performance_stats_equal_the_reference_formula_on_any_inputs(case):
    got = update_performance_stats(*case, EPS_CLAMP)
    expected = reference_performance_stats(*case, EPS_CLAMP)
    assert [g.tobytes() for g in got[:3]] == [e.tobytes() for e in expected[:3]]
    assert got[3:] == expected[3:]


# ----------------------------------------------------------------------
# Voting weights
# ----------------------------------------------------------------------


def test_weights_threshold_and_normalise():
    w = sub_classifier_weights(np.array([0.8, 0.5, 0.3]), 0.4)
    assert w == pytest.approx([0.8 / 1.3, 0.5 / 1.3, 0.0])


def test_weights_uniform_for_fresh_model():
    w = sub_classifier_weights(np.ones(8), 0.0)
    assert w == pytest.approx(np.full(8, 1 / 8))


def test_weights_all_zero_when_nothing_clears_the_index():
    assert sub_classifier_weights(np.array([0.2, 0.3]), 0.5) == pytest.approx([0.0, 0.0])


def test_weights_normalise_whenever_any_alpha_clears_the_index():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        alphas = rng.uniform(0.0, 1.0, n)
        sigma = float(rng.uniform(0.0, 1.0))
        w = sub_classifier_weights(alphas, sigma)
        assert np.all(w >= 0.0)
        assert np.all(w[alphas <= sigma] == 0.0)
        if (alphas > sigma).any():
            assert w.sum() == pytest.approx(1.0, abs=1e-9)
        else:
            assert w.sum() == 0.0


def where_weights(performances, performance_index):
    """``sub_classifier_weights`` as first written, with ``np.where``."""
    mask = performances > performance_index
    if not mask.any():
        return np.zeros_like(performances)
    total = float(performances[mask].sum())
    return np.where(mask, performances / total, 0.0)


@st.composite
def performances_and_index(draw):
    """1 to 110 performances in [0, 1], some equal to the index."""
    index = draw(st.floats(0.0, 1.0))
    value = st.one_of(st.floats(0.0, 1.0), st.just(index), st.sampled_from([0.0, 1.0]))
    n = draw(st.integers(1, 110))
    return np.array(draw(st.lists(value, min_size=n, max_size=n))), index


@settings(max_examples=300, deadline=None)
@given(performances_and_index())
@example((np.zeros(0), 0.4))
@example((np.zeros(0), 0.0))
def test_weights_sum_to_one_or_are_all_zero_and_equal_the_where_form(case):
    performances, index = case
    w = sub_classifier_weights(performances, index)
    expected = where_weights(performances, index)
    assert w.shape == expected.shape and w.dtype == expected.dtype
    assert w.tobytes() == expected.tobytes()
    if (performances > index).any():
        assert abs(float(w.sum()) - 1.0) <= 1e-12
    else:
        assert not w.any()


# ----------------------------------------------------------------------
# observe: pools, drift, resets, provenance
# ----------------------------------------------------------------------


def test_first_example_creates_a_fresh_pool():
    model = MarlineModel(small_config(ensemble_size=3))
    rng = np.random.default_rng(0)
    model.observe("S1", Example(np.zeros(2), NEG), rng)
    assert set(model.pools) == {"S1"}
    pool = model.pools["S1"]
    assert pool.concept_count == 1
    assert len(pool.current.ensemble.sub_classifiers) == 3
    assert model.performance == pytest.approx([1.0, 1.0, 1.0])
    assert model.lambda_correct == pytest.approx([0.0, 0.0, 0.0])


def test_target_drift_resets_every_stat_in_every_pool():
    model = MarlineModel(small_config())
    rng = np.random.default_rng(1)
    for ex in alternating_stream(rng, 40, (0.0, 0.0), (3.0, 3.0)):
        model.observe("S1", ex, rng)
        model.observe("T", ex, rng)
    # Stats have moved away from initialisation by now.
    assert model.lambda_correct.sum() > 0
    model.pools["T"].detector = StubDetector(fire_at={1})
    drift = model.observe("T", Example(np.array([9.0, 9.0]), POS), rng)
    assert drift
    assert model.pools["T"].concept_count == 2
    assert np.max(model.lambda_correct) == 0.0
    assert np.max(model.lambda_wrong) == 0.0
    assert np.min(model.performance) == 1.0


def test_source_drift_does_not_touch_other_pools():
    model = MarlineModel(small_config())
    rng = np.random.default_rng(2)
    for ex in alternating_stream(rng, 40, (0.0, 0.0), (3.0, 3.0)):
        model.observe("S1", ex, rng)
        model.observe("T", ex, rng)
    target_stats = model.lambda_correct[2:].copy()  # pools S1, T
    model.pools["S1"].detector = StubDetector(fire_at={1})
    model.observe("S1", Example(np.array([9.0, 9.0]), POS), rng)
    assert model.pools["S1"].concept_count == 2
    assert model.pools["T"].concept_count == 1
    assert np.array_equal(model.lambda_correct[4:], target_stats)


def test_streams_train_only_their_own_pools():
    model = MarlineModel(small_config())
    rng = np.random.default_rng(3)
    stream = alternating_stream(rng, 20, (0.0, 0.0), (3.0, 3.0))
    for ex in stream[:10]:
        model.observe("S1", ex, rng)
    for ex in stream[:7]:
        model.observe("T", ex, rng)
    assert model.pools["S1"].current.ensemble.trained_count == 10
    assert model.pools["T"].current.ensemble.trained_count == 7


def test_observe_rejects_dimension_mismatch():
    model = MarlineModel(small_config())
    with pytest.raises(DimensionMismatchError):
        model.observe("T", Example(np.zeros(5), NEG), np.random.default_rng(0))


def test_update_weights_rejects_dimension_mismatch():
    model = MarlineModel(small_config())
    install_stub_concept(model, "S1", [[0.2, 0.8], [0.6, 0.4]])
    install_stub_concept(model, "T", [[0.9, 0.1], [0.5, 0.5]])
    for features in (np.zeros(3), np.zeros(1)):
        with pytest.raises(DimensionMismatchError):
            model.update_weights(Example(features, POS))


def test_abrupt_target_stream_reaches_two_concepts():
    # Desk-scale version of the drift pipeline: clear abrupt drift must
    # produce a second target concept for most seeds.
    hits = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        model = MarlineModel(small_config(ensemble_size=5))
        first = alternating_stream(rng, 400, (2.0, 3.0), (7.0, 8.0))
        second = alternating_stream(rng, 400, (2.0, 9.0), (5.0, 4.0))
        for ex in first + second:
            model.observe("T", ex, rng)
        if model.pools["T"].concept_count == 2:
            hits += 1
    assert hits >= 4


# ----------------------------------------------------------------------
# predict
# ----------------------------------------------------------------------


def test_cold_start_prediction():
    model = MarlineModel(small_config())
    prediction = model.predict(np.zeros(2))
    assert prediction.cold_start
    assert prediction.label == NEG
    assert prediction.scores == pytest.approx([0.5, 0.5])


def test_uniform_weights_collapse_to_base_ensemble_mean():
    model = MarlineModel(small_config())
    install_stub_concept(model, "T", [[0.2, 0.8], [0.6, 0.4]])
    prediction = model.predict(np.array([0.3, 0.3]))
    assert prediction.scores == pytest.approx([0.4, 0.6])
    assert prediction.label == POS


def test_single_dominant_sub_classifier_decides_alone():
    model = MarlineModel(small_config(performance_index=0.5))
    install_stub_concept(model, "T", [[0.9, 0.1], [0.3, 0.7]])
    set_performance(model, [0.9, 0.2])  # only the first clears the index
    prediction = model.predict(np.array([0.3, 0.3]))
    assert prediction.label == NEG
    assert prediction.scores == pytest.approx([0.9, 0.1])


def test_scores_equal_explicit_double_sum_over_concepts():
    model = MarlineModel(small_config())
    install_stub_concept(model, "T", [[0.2, 0.8], [0.6, 0.4]])
    install_stub_concept(model, "S1", [[0.9, 0.1], [0.5, 0.5]])
    install_stub_concept(model, "S2", [[0.1, 0.9], [0.7, 0.3]])
    set_performance(model, [0.8, 0.6, 0.4, 0.2, 0.9, 0.1])  # pools T, S1, S2
    alphas = np.array([0.4, 0.2, 0.9, 0.1, 0.8, 0.6])  # pool insertion order
    dists = np.array(
        [[0.9, 0.1], [0.5, 0.5], [0.1, 0.9], [0.7, 0.3], [0.2, 0.8], [0.6, 0.4]]
    )
    weights = alphas / alphas.sum()  # sigma = 0, all clear the index
    expected = weights @ dists
    prediction = model.predict(np.array([0.5, 0.5]))
    assert prediction.scores == pytest.approx(expected, abs=1e-12)


@st.composite
def weighted_concept_passes(draw):
    """k in 1 to 40 members, the passes of a target and one to three source
    concepts, each source's pass kept as an array or not, and voting
    weights with zeros: none, some, or a whole concept's."""
    k = draw(st.integers(1, 40))
    n_concepts = draw(st.integers(2, 4))
    kept = [False] + [draw(st.booleans()) for _ in range(n_concepts - 1)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    passes = []
    for _ in range(n_concepts):
        pairs = rng.random((k, 2))
        # Majority leaves answer exact fractions such as (1, 0) and (0.5, 0.5).
        exact = rng.random(k) < draw(st.sampled_from([0.0, 0.5]))
        pairs[exact] = rng.choice([0.0, 0.5, 1.0], (int(exact.sum()), 2))
        passes.append([tuple(pair) for pair in pairs.tolist()])
    weights = rng.random(n_concepts * k)
    for i in range(n_concepts):
        share = draw(st.sampled_from([0.0, 0.3, 1.0]))
        block = weights[i * k : (i + 1) * k]
        block[rng.random(k) < share] = 0.0
    return k, passes, kept, weights


@settings(max_examples=200, deadline=None)
@given(weighted_concept_passes())
def test_the_per_concept_product_is_the_matmul_bit_for_bit(case):
    # The vote multiplies each weighted concept's weights into its pass,
    # whether a kept (k, 2) array or a member pass of tuples, and sums the
    # products in concept order. ``@`` on the same operands is the oracle.
    k, passes, kept, weights = case
    model = MarlineModel(small_config(ensemble_size=k))
    concepts = [
        install_stub_concept(model, stream_id, pairs)
        for stream_id, pairs in zip(("T", "S1", "S2", "S3"), passes)
    ]
    for concept, keep in zip(concepts, kept):
        if keep:
            for tree in concept.ensemble.sub_classifiers:
                tree._root._answer = tuple(tree.distribution.tolist())
        assert (concept.ensemble.fixed_pairs() is not None) == keep
    model._weights = weights
    neg = pos = 0.0
    for i, pairs in enumerate(passes):
        w = weights[i * k : (i + 1) * k]
        if not w.any():
            continue
        product = w @ np.asarray(pairs)
        assert np.dot(w, np.array(pairs)).tobytes() == product.tobytes()
        p_neg, p_pos = product.tolist()
        neg += p_neg
        pos += p_pos
    scores = model.predict(np.array([0.3, 0.4])).scores
    expected = np.array([neg, pos]) if neg != pos else np.array(mean_pair(passes[0]))
    assert scores.tobytes() == expected.tobytes()


def test_warmup_falls_back_to_target_ensemble():
    model = MarlineModel(small_config())
    pool = model._new_concept("T")
    pool.current.ensemble.sub_classifiers = [StubTree([0.7, 0.3]), StubTree([0.9, 0.1])]
    pool.current.tracker.update(Example(np.zeros(2), NEG))  # one class only
    prediction = model.predict(np.array([0.3, 0.3]))
    assert prediction.scores == pytest.approx([0.8, 0.2])
    assert prediction.label == NEG


def test_all_weights_zero_falls_back_to_target_ensemble():
    model = MarlineModel(small_config(performance_index=0.99))
    install_stub_concept(model, "T", [[0.1, 0.9], [0.3, 0.7]])
    set_performance(model, [0.5, 0.5])  # nothing clears the index
    prediction = model.predict(np.array([0.3, 0.3]))
    assert prediction.scores == pytest.approx([0.2, 0.8])
    assert prediction.label == POS


def test_exact_tie_falls_back_then_breaks_to_neg():
    model = MarlineModel(small_config())
    install_stub_concept(model, "T", [[0.5, 0.5], [0.5, 0.5]])
    prediction = model.predict(np.array([0.3, 0.3]))
    assert prediction.label == NEG


def test_duplicate_clone_concept_leaves_argmax_unchanged():
    # A source pool that is an exact clone of the target concept (same
    # centroids, same members) must not change any argmax decision.
    rng = np.random.default_rng(7)
    base = MarlineModel(small_config(ensemble_size=4))
    for ex in alternating_stream(rng, 300, (0.0, 0.0), (3.0, 3.0)):
        base.observe("T", ex, rng)
    cloned = copy.deepcopy(base)
    dup_pool = copy.deepcopy(cloned.pools["T"])
    cloned.pools["S_dup"] = dup_pool
    # Register the clone's concepts and a copy of the target's stats, and
    # their voting weights, as MarlineModel._new_concept would for a pool
    # seen after "T".
    cloned.concepts.extend(dup_pool.concepts)
    cloned.lambda_correct = np.tile(cloned.lambda_correct, 2)
    cloned.lambda_wrong = np.tile(cloned.lambda_wrong, 2)
    cloned.performance = np.tile(cloned.performance, 2)
    set_performance(cloned, cloned.performance)
    probes = np.random.default_rng(8).standard_normal((100, 2)) * 2 + 1.5
    for p in probes:
        assert base.predict(p).label == cloned.predict(p).label


def test_non_finite_features_are_rejected_before_touching_state():
    rng = np.random.default_rng(12)
    model = MarlineModel(small_config())
    for ex in alternating_stream(rng, 20, (0.0, 0.0), (3.0, 3.0)):
        model.observe("T", ex, rng)
        model.observe("S1", ex, rng)
    before = model.predict(np.array([7.0, 8.0]))
    with pytest.raises(DataError):
        model.observe("S1", Example(np.array([np.nan, 2.0]), POS), rng)
    after = model.predict(np.array([7.0, 8.0]))
    assert np.all(np.isfinite(after.scores))
    assert np.array_equal(before.scores, after.scores)
    for bad in ([np.inf, 0.0], [0.0, np.nan]):
        with pytest.raises(DataError):
            model.predict(np.array(bad))


@pytest.mark.parametrize(
    "features, error", [([np.nan, 2.0], DataError), ([1.0, 2.0, 3.0], DimensionMismatchError)]
)
@pytest.mark.parametrize("stream_id", ["S1", "S2"])
def test_bad_source_example_is_rejected_before_any_state_changes(features, error, stream_id):
    # S1 has a pool already; S2 would get its first one.
    rng = np.random.default_rng(12)
    model = MarlineModel(small_config())
    for ex in alternating_stream(rng, 20, (0.0, 0.0), (3.0, 3.0)):
        model.observe("T", ex, rng)
        model.observe("S1", ex, rng)
    snapshot, rng_state = pickle.dumps(model), rng.bit_generator.state
    with pytest.raises(error):
        model.observe(stream_id, Example(np.array(features), POS), rng)
    assert pickle.dumps(model) == snapshot
    assert rng.bit_generator.state == rng_state


def test_update_weights_rejects_non_finite_features_before_any_state_changes():
    # A NaN would turn every lambda into NaN and pin every performance at 1.
    rng = np.random.default_rng(13)
    model = MarlineModel(small_config(ensemble_size=3))
    for ex in alternating_stream(rng, 200, (0.0, 0.0), (3.0, 3.0)):
        model.observe("T", ex, rng)
    snapshot = pickle.dumps(model)
    for bad in ([np.nan, 1.0], [1.0, -np.inf]):
        with pytest.raises(DataError):
            model.update_weights(Example(np.array(bad), POS))
    assert pickle.dumps(model) == snapshot
    assert np.all(np.isfinite(model.lambda_correct))


@pytest.mark.parametrize("approach", ["base_plain", "base_detector_reset"])
def test_a_baseline_refuses_bad_features_before_any_state_changes(approach):
    # As the model does: a NaN, an infinity or a feature beyond the bound
    # raises DataError and leaves the ensemble, the detector and the
    # generator as they were.
    cls, reset_on_drift = APPROACHES[approach]
    rng = np.random.default_rng(44)
    baseline = cls(small_config(ensemble_size=3), "T", reset_on_drift, rng)
    for ex in alternating_stream(np.random.default_rng(45), 100, (0.0, 0.0), (3.0, 3.0)):
        baseline.predict(ex.features)
        baseline.observe("T", ex)

    def state():
        return (
            pickle.dumps(baseline.ensemble),
            pickle.dumps(baseline.detector),
            rng.bit_generator.state,
        )

    before, probe = state(), baseline.predict(np.array([1.4, 1.6]))
    for bad in ([np.nan, 1.0], [1e300, -1e300], [np.inf, 0.0], [1.0, 1e101]):
        with pytest.raises(DataError, match="BaselineApproach.observe"):
            baseline.observe("T", Example(np.array(bad), POS))
        with pytest.raises(DataError, match="BaselineApproach.predict"):
            baseline.predict(np.array(bad))
    assert state() == before
    assert baseline.predict(np.array([1.4, 1.6])) == probe


@pytest.mark.parametrize("bad", [1e101, -1e160, 1e300])
@pytest.mark.parametrize("stream_id", ["S1", "T"])
def test_a_feature_beyond_the_bound_is_rejected_before_any_state_changes(bad, stream_id):
    # Squared, such a feature would overflow the leaves' Gaussian statistics
    # and turn every later prediction NaN.
    rng = np.random.default_rng(35)
    model = MarlineModel(small_config(ensemble_size=3))
    for ex in alternating_stream(rng, 200, (0.0, 0.0), (3.0, 3.0)):
        model.observe("S1", ex, rng)
        model.observe("T", ex, rng)
    snapshot, rng_state = pickle.dumps(model), rng.bit_generator.state
    for features in ([bad, -bad], [1.0, bad]):
        example = Example(np.array(features), POS)
        with pytest.raises(DataError, match="within"):
            model.observe(stream_id, example, rng)
        with pytest.raises(DataError, match="within"):
            model.predict(example.features)
        with pytest.raises(DataError, match="within"):
            model.update_weights(example)
    assert pickle.dumps(model) == snapshot
    assert rng.bit_generator.state == rng_state


def test_features_at_the_bound_leave_later_predictions_finite():
    rng = np.random.default_rng(35)
    model = MarlineModel(small_config(ensemble_size=3))
    stream = alternating_stream(rng, 400, (0.0, 0.0), (3.0, 3.0))
    for t, ex in enumerate(stream):
        if t == 200:
            ex = Example(np.array([MAX_ABS_FEATURE, -MAX_ABS_FEATURE]), ex.label)
        model.observe("S1", ex, rng)
        model.predict(ex.features)
        model.observe("T", ex, rng)
        if t >= 200:
            assert np.all(np.isfinite(model.predict(ex.features).scores))
    assert np.all(np.isfinite(model.performance))


# ----------------------------------------------------------------------
# source weight ratio
# ----------------------------------------------------------------------


def test_ratio_zero_with_only_the_current_target_concept():
    model = MarlineModel(small_config())
    install_stub_concept(model, "T", [[0.2, 0.8], [0.6, 0.4]])
    assert model.source_weight_ratio() == 0.0


def test_ratio_one_when_all_weight_sits_on_a_source():
    model = MarlineModel(small_config(performance_index=0.5))
    install_stub_concept(model, "T", [[0.2, 0.8], [0.6, 0.4]])
    install_stub_concept(model, "S1", [[0.9, 0.1], [0.5, 0.5]])
    set_performance(model, [0.1, 0.2, 0.9, 0.3])  # pools T, S1
    assert model.source_weight_ratio() == pytest.approx(1.0)


def test_ratio_is_the_sum_over_non_current_concepts():
    model = MarlineModel(small_config())
    install_stub_concept(model, "T", [[0.2, 0.8], [0.6, 0.4]])
    install_stub_concept(model, "S1", [[0.9, 0.1], [0.5, 0.5]])
    install_stub_concept(model, "S2", [[0.1, 0.9], [0.7, 0.3]])
    set_performance(model, [0.5, 0.3, 0.25, 0.15, 0.2, 0.1])  # pools T, S1, S2
    total = 0.5 + 0.3 + 0.25 + 0.15 + 0.2 + 0.1
    expected = (0.25 + 0.15 + 0.2 + 0.1) / total
    assert model.source_weight_ratio() == pytest.approx(expected, abs=1e-12)
    assert 0.0 <= model.source_weight_ratio() <= 1.0


# ----------------------------------------------------------------------
# the whole model against the cache-free reference
# ----------------------------------------------------------------------


class ForcedDetector:
    """Wraps a pool's detector: every update goes through to it, and a drift
    is reported instead where the test forces one."""

    def __init__(self, detector):
        self.detector = detector
        self.force = False

    def update(self, prediction_correct):
        status = self.detector.update(prediction_correct)
        return DriftStatus.DRIFT if self.force else status

    def reset(self):
        self.detector.reset()


@st.composite
def model_streams(draw):
    """A config over both ensembles, both leaf rules and both detectors, and
    a short stream of (stream id, features, label, forced drift, probe)
    entries over a target and one to three sources; a probe of None is the
    entry's own features. Values are few, so that trees split and leaves
    answer by either rule."""
    d = draw(st.integers(1, 3))
    detector = draw(st.sampled_from(["ddm", "hddm_a"]))
    if detector == "ddm":
        detector_params = {"min_observations": draw(st.integers(2, 30))}
    else:
        confidence = draw(st.sampled_from([0.001, 0.05]))
        detector_params = {"drift_confidence": confidence, "warning_confidence": 2 * confidence}
    config = small_config(
        n_features=d,
        ensemble_size=draw(st.integers(1, 3)),
        base_ensemble=draw(st.sampled_from(["bagging", "boosting"])),
        detector=detector,
        detector_params=detector_params,
        forgetting_factor=draw(st.floats(0.05, 1.0)),
        performance_index=draw(st.sampled_from([0.0, 0.3, 0.5, 0.7])),
        tree=HoeffdingTreeParams(
            grace_period=draw(st.sampled_from([3, 10])),
            tie_threshold=0.9,
            leaf_prediction=draw(st.sampled_from(["majority", "nb_adaptive"])),
        ),
    )
    streams = ["T"] + [f"S{i}" for i in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        value = st.one_of(st.integers(-3, 3).map(float), st.floats(-4.0, 4.0))
    else:  # one or two values, so that centroids coincide and projections degenerate
        value = st.sampled_from(draw(st.lists(st.integers(-2, 2).map(float), min_size=1, max_size=2)))
    features = st.lists(value, min_size=d, max_size=d)
    entries = [
        (
            draw(st.sampled_from(streams)),
            draw(features),
            draw(st.sampled_from([NEG, POS])),
            draw(st.integers(0, 9)) == 0,
            draw(st.one_of(st.none(), features)),
        )
        for _ in range(draw(st.integers(1, 80)))
    ]
    return config, entries


@settings(max_examples=150, deadline=None)
@given(model_streams())
def test_the_model_equals_the_cache_free_reference_at_every_step(case):
    # Every kept value of the model (leaf answers and terms, kept and fixed
    # passes, frames, voting weights) must give the bits of rebuilding it.
    config, entries = case
    model = MarlineModel(config)
    reference = ReferenceModel(model)
    rng = np.random.default_rng(0)

    def check(features, ratio_first):
        ratio = model.source_weight_ratio() if ratio_first else None
        prediction = model.predict(features)
        if not ratio_first:
            ratio = model.source_weight_ratio()
        label, scores = reference.predict(features)
        assert prediction.label == label
        assert prediction.scores.tobytes() == scores.tobytes()
        assert ratio.hex() == reference.ratio().hex()

    for t, (stream_id, values, label, force, probe) in enumerate(entries):
        example = Example(np.array(values), label)
        check(np.array(values if probe is None else probe), t % 2 == 0)
        pool = model.pools.get(stream_id)
        if pool is not None:
            if not isinstance(pool.detector, ForcedDetector):
                pool.detector = ForcedDetector(pool.detector)
            pool.detector.force = force
        drift = model.observe(stream_id, example, rng)
        reference.observed(stream_id, example, drift)
        for i, name in enumerate(("lambda_correct", "lambda_wrong", "performance")):
            assert getattr(model, name).tobytes() == reference.flat(i).tobytes()
        check(example.features, t % 2 == 1)


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------


def test_snapshot_round_trip_preserves_predictions(tmp_path):
    rng = np.random.default_rng(9)
    model = MarlineModel(small_config(ensemble_size=3))
    stream = alternating_stream(rng, 300, (0.0, 0.0), (3.0, 3.0))
    for ex in stream[:200]:
        model.observe("S1", ex, rng)
        model.observe("T", ex, rng)
    path = str(tmp_path / "model.bin")
    model.save(path)
    restored = MarlineModel.load(path)
    probes = np.random.default_rng(10).standard_normal((50, 2)) * 2 + 1.5
    for p in probes:
        a, b = model.predict(p), restored.predict(p)
        assert a.label == b.label
        assert np.array_equal(a.scores, b.scores)
    assert restored.source_weight_ratio() == model.source_weight_ratio()


def leaves(model):
    """Every leaf of every tree of every concept of ``model``."""
    found = []
    for concept in model.concepts:
        for tree in concept.ensemble.sub_classifiers:
            nodes = [tree._root]
            while nodes:
                node = nodes.pop()
                if isinstance(node, _LeafNode):
                    found.append(node)
                else:
                    nodes += [node.left, node.right]
    return found


def test_snapshot_stores_no_concept_frames(tmp_path):
    import io
    import pickle

    rng = np.random.default_rng(12)
    model = MarlineModel(small_config(ensemble_size=3))
    stream = alternating_stream(rng, 120, (0.0, 0.0), (3.0, 3.0))
    for ex in stream:
        model.observe("S1", ex, rng)
        model.observe("T", ex, rng)
    probes = np.random.default_rng(13).standard_normal((20, 2)) * 2 + 1.5
    before = [model.predict(p) for p in probes]
    assert all(c.tracker._frame is not None for c in model.concepts)
    assert model.pools["T"].current.ensemble._memo is not None
    assert any(leaf._nb_terms is not None for leaf in leaves(model))

    found = []

    class Spy(pickle.Pickler):
        def persistent_id(self, obj):
            if isinstance(obj, ConceptFrame):
                found.append(obj)
            return None

    frames = [c.tracker.frame() for c in model.concepts]
    memos = [c.ensemble._memo for c in model.concepts]
    terms = [leaf._nb_terms for leaf in leaves(model)]
    path = tmp_path / "model.bin"
    model.save(str(path))
    Spy(io.BytesIO()).dump(model)
    assert found == []
    assert [c.tracker.frame() for c in model.concepts] == frames
    assert [c.ensemble._memo for c in model.concepts] == memos
    assert [leaf._nb_terms for leaf in leaves(model)] == terms
    restored = MarlineModel.load(str(path))
    assert all(c.tracker._frame is None for c in restored.concepts)
    assert all("_memo" not in vars(c.ensemble) for c in restored.concepts)
    # Leaf terms and voting weights are state, which snapshots store.
    assert [leaf._nb_terms for leaf in leaves(restored)] == terms
    assert restored._weights.tobytes() == model._weights.tobytes()
    for p, a in zip(probes, before):
        b = restored.predict(p)
        assert a.label == b.label
        assert np.array_equal(a.scores, b.scores)


def test_snapshot_bytes_do_not_change_with_what_a_round_builds():
    # A round of predict and update_weights builds frames and kept and fixed
    # passes; none of them reaches the snapshot bytes. predict writes no
    # leaf answer, leaf terms or voting weights.
    rng = np.random.default_rng(16)
    tree = HoeffdingTreeParams(grace_period=20, tie_threshold=0.5)
    model = MarlineModel(small_config(ensemble_size=3, tree=tree))
    # Classes that overlap, so that some nb-adaptive leaves answer by majority.
    stream = alternating_stream(rng, 300, (0.0, 0.0), (1.0, 1.0))
    shifted = alternating_stream(rng, 200, (1.0, -1.0), (-2.0, 2.0))
    for ex, other in zip(stream[:200], shifted):
        model.observe("S1", ex, rng)
        model.observe("S2", other, rng)
        model.observe("T", ex, rng)
    # Two restored copies, since a restored model can pickle to other bytes
    # than the model it was saved from (its attribute names are not shared).
    model, twin = pickle.loads(pickle.dumps(model)), pickle.loads(pickle.dumps(model))
    before = pickle.dumps(twin)
    for ex in stream[200:]:
        model.predict(ex.features)
    assert pickle.dumps(model) == before
    assert all(c.tracker._frame is not None for c in model.concepts)
    current = model.pools["T"].current
    assert current.ensemble._memo is not None
    assert all(c.ensemble._fixed is not None for c in model.concepts if c is not current)
    answers = [leaf._answer for leaf in leaves(model)]
    assert any(answers) and False in answers
    assert all(leaf._nb_terms is not None for leaf in leaves(model) if leaf._answer is False)
    for ex in stream[200:]:
        model.predict(ex.features)
        model.update_weights(ex)
        model.predict(ex.features)
        twin.update_weights(ex)
        assert pickle.dumps(model) == pickle.dumps(twin)


@settings(max_examples=25, deadline=None)
@given(
    base_ensemble=st.sampled_from(["bagging", "boosting"]),
    leaf_prediction=st.sampled_from(["nb_adaptive", "majority"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 150),
)
def test_snapshots_load_and_continue_identically(base_ensemble, leaf_prediction, seed, n):
    # A snapshot holds the leaf answers and terms and the voting weights but
    # no kept member pass, so the restored model rebuilds that pass and hands
    # the same pairs to learn. It predicts and learns as the model it was
    # saved from.
    tree = HoeffdingTreeParams(grace_period=20, tie_threshold=0.5, leaf_prediction=leaf_prediction)
    model = MarlineModel(small_config(ensemble_size=3, base_ensemble=base_ensemble, tree=tree))
    rng = np.random.default_rng(seed)
    for ex in alternating_stream(rng, n, (0.0, 0.0), (2.0, 2.0)):
        model.observe("S1", ex, rng)
        model.predict(ex.features)
        model.observe("T", ex, rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.bin")
        model.save(path)
        restored = MarlineModel.load(path)
    restored_rng = copy.deepcopy(rng)
    for ex in alternating_stream(np.random.default_rng(seed + 1), 60, (0.0, 0.0), (2.0, 2.0)):
        for stream_id in ("S1", "T"):
            scores = [m.predict(ex.features).scores.tobytes() for m in (model, restored)]
            assert scores[0] == scores[1]
            model.observe(stream_id, ex, rng)
            restored.observe(stream_id, ex, restored_rng)
        for name in ("lambda_correct", "lambda_wrong", "performance"):
            assert getattr(model, name).tobytes() == getattr(restored, name).tobytes()
    assert rng.bit_generator.state == restored_rng.bit_generator.state


# The attribute names that each class pickles at SNAPSHOT_VERSION, for the
# models of `layout_models`. A snapshot loads only at the version it was
# saved at, so a change to any of these names bumps the version.
PINNED_LAYOUTS = {
    6: {
        "marline.drift.DDM": (
            "drift_level",
            "error_sum",
            "min_observations",
            "observed_count",
            "p_min",
            "s_min",
            "status",
            "warning_level",
        ),
        "marline.drift.DriftStatus": (),
        "marline.drift.HddmA": (
            "c_min",
            "drift_confidence",
            "n_min",
            "observed_count",
            "status",
            "total_c",
            "warning_confidence",
        ),
        "marline.learners.GaussianEstimator": (
            "_m2",
            "max_value",
            "mean",
            "min_value",
            "weight_sum",
        ),
        "marline.learners.HoeffdingTree": ("_root", "n_features", "n_splits", "params"),
        "marline.learners.HoeffdingTreeParams": (
            "grace_period",
            "leaf_prediction",
            "split_confidence",
            "tie_threshold",
        ),
        "marline.learners.OnlineBagging": ("n_features", "sub_classifiers", "trained_count"),
        "marline.learners.OnlineBoosting": (
            "lambda_correct",
            "lambda_wrong",
            "n_features",
            "sub_classifiers",
            "trained_count",
        ),
        "marline.learners._LeafNode": (
            "_answer",
            "_nb_terms",
            "class_weights",
            "estimators",
            "mc_correct_weight",
            "nb_correct_weight",
            "weight_at_last_attempt",
        ),
        "marline.learners._SplitNode": ("attribute", "left", "right", "threshold"),
        "marline.mapping.CentroidTracker": (
            "forgetting_factor",
            "n_features",
            "normalizer",
            "seen",
            "sum_c",
        ),
        "marline.model.ConceptState": ("ensemble", "tracker"),
        "marline.model.MarlineConfig": (
            "base_ensemble",
            "detector",
            "detector_params",
            "ensemble_size",
            "forgetting_factor",
            "n_features",
            "performance_index",
            "tree",
        ),
        "marline.model.MarlineModel": (
            "_weights",
            "concepts",
            "config",
            "lambda_correct",
            "lambda_wrong",
            "performance",
            "pools",
            "target_id",
        ),
        "marline.model.StreamPool": ("concepts", "detector"),
    },
}


def layout_models():
    """Two small trained models that between them hold every class a
    snapshot stores: bagging with nb-adaptive leaves and HDDM_A, boosting
    with majority leaves and DDM, each with split trees."""
    models = []
    for base_ensemble, leaf_prediction, detector in (
        ("bagging", "nb_adaptive", "hddm_a"),
        ("boosting", "majority", "ddm"),
    ):
        tree = HoeffdingTreeParams(
            grace_period=20, tie_threshold=0.5, leaf_prediction=leaf_prediction
        )
        model = MarlineModel(
            small_config(base_ensemble=base_ensemble, detector=detector, tree=tree)
        )
        rng = np.random.default_rng(1)
        for ex in alternating_stream(rng, 200, (0.0, 0.0), (2.0, 2.0)):
            model.observe("S1", ex, rng)
            model.predict(ex.features)
            model.observe("T", ex, rng)
        models.append(model)
    return models


def pickled_layout(obj):
    """Per marline class met while pickling ``obj``, the sorted names of the
    attributes its pickled state holds."""
    import io

    layout = {}

    class Recorder(pickle.Pickler):
        def reducer_override(self, obj):
            cls = type(obj)
            if cls.__module__.startswith("marline."):
                reduced = obj.__reduce_ex__(pickle.DEFAULT_PROTOCOL)
                state = reduced[2] if len(reduced) > 2 else None
                # A slotted class without __getstate__ pickles (dict, slots).
                parts = state if isinstance(state, tuple) else (state,)
                names = tuple(sorted(name for part in parts if part for name in part))
                key = f"{cls.__module__}.{cls.__qualname__}"
                assert layout.setdefault(key, names) == names, f"{key} pickles two layouts"
            return NotImplemented

    Recorder(io.BytesIO()).dump(obj)
    return layout


def test_snapshot_layout_is_the_one_pinned_for_its_version():
    assert pickled_layout(layout_models()) == PINNED_LAYOUTS.get(SNAPSHOT_VERSION), (
        f"the pickled layout is not the one pinned for version {SNAPSHOT_VERSION}: "
        "a layout change bumps SNAPSHOT_VERSION and pins the new layout under it"
    )


def test_snapshot_rejects_other_versions_before_unpickling(tmp_path, monkeypatch):
    model = MarlineModel(small_config(ensemble_size=3))
    rng = np.random.default_rng(5)
    for ex in alternating_stream(rng, 40, (0.0, 0.0), (2.0, 2.0)):
        model.observe("T", ex, rng)

    def older_layout(*leaf_slots):
        """``model`` pickled without its voting weights and without the
        named leaf slots."""
        old = copy.deepcopy(model)
        del old._weights
        for leaf in leaves(old):
            for name in leaf_slots:
                delattr(leaf, name)
        return pickle.dumps(old)

    files = {
        f"v{version}": pickle.dumps(
            {"format": "marline-model", "version": version, "model": model}
        )
        for version in (1, 2, 3)
    }
    # Version 4 stored no leaf answers, and version 5 no leaf terms and no
    # voting weights; a model restored from either would fail when it
    # first predicted.
    files["v4"] = pickle.dumps(
        {"format": "marline-model", "version": 4, "model": older_layout("_nb_terms", "_answer")}
    )
    files["header-5"] = b"marline-model 5\n" + older_layout("_nb_terms")
    assert b"_answer" not in files["v4"] and b"_answer" in pickle.dumps(model)
    assert b"_nb_terms" not in files["header-5"] and b"_nb_terms" in pickle.dumps(model)
    for version in (4, 7):
        files[f"header-{version}"] = b"marline-model %d\n" % version + pickle.dumps(model)
    loads = []
    load = pickle.load

    def spy(fh):
        loads.append(fh)
        return load(fh)

    monkeypatch.setattr(pickle, "load", spy)
    for name, data in files.items():
        path = tmp_path / f"{name}.bin"
        path.write_bytes(data)
        with pytest.raises(DataError, match=f"not a model snapshot of version {SNAPSHOT_VERSION}"):
            MarlineModel.load(str(path))
        assert loads == [], name
    # The spy sees the one unpickling of a snapshot at this version.
    model.save(str(tmp_path / "current.bin"))
    MarlineModel.load(str(tmp_path / "current.bin"))
    assert len(loads) == 1


def test_snapshot_rejects_garbage(tmp_path):
    path = str(tmp_path / "bad.bin")
    with open(path, "wb") as fh:
        pickle.dump({"format": "something-else"}, fh)
    with pytest.raises(DataError, match="not a model snapshot"):
        MarlineModel.load(path)
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_HEADER)
        pickle.dump({"format": "something-else"}, fh)
    with pytest.raises(DataError, match="snapshot does not contain a model"):
        MarlineModel.load(path)


def test_a_truncated_snapshot_raises_data_error_at_every_cut(tmp_path):
    rng = np.random.default_rng(3)
    model = MarlineModel(small_config())
    for ex in alternating_stream(rng, 60, (0.0, 0.0), (2.0, 2.0)):
        model.observe("S1", ex, rng)
        model.observe("T", ex, rng)
    path = tmp_path / "model.bin"
    model.save(str(path))
    data = path.read_bytes()
    assert data.startswith(SNAPSHOT_HEADER)
    # Cuts inside the header line fail its check; later ones fail the unpickling.
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        if cut < len(SNAPSHOT_HEADER):
            match = f"not a model snapshot of version {SNAPSHOT_VERSION}"
        else:
            match = "not a model snapshot \\("
        with pytest.raises(DataError, match=match):
            MarlineModel.load(str(path))


# ----------------------------------------------------------------------
# member evaluations per step
# ----------------------------------------------------------------------


def count_tree_evaluations(monkeypatch):
    """Record every tree that a member pass or a ``predict_pair`` call
    evaluates; both go through ``learners._member_pairs``."""
    calls = []
    member_pairs = learners._member_pairs

    def counted(trees, values):
        calls.extend(trees)
        return member_pairs(trees, values)

    monkeypatch.setattr(learners, "_member_pairs", counted)
    return calls


def calls_until_detector_update(monkeypatch, detector, calls):
    """The number of calls made when ``detector`` is first updated, which
    is after the drift check's prediction and before any training."""
    marks = []
    update = detector.update

    def marked(correct):
        marks.append(len(calls))
        return update(correct)

    monkeypatch.setattr(detector, "update", marked)
    return marks


@pytest.mark.parametrize("path", ["weighted", "below_index", "tie"])
def test_target_step_evaluates_each_target_member_once(monkeypatch, path):
    rng = np.random.default_rng(16)
    index = 0.99 if path == "below_index" else 0.0
    model = MarlineModel(small_config(ensemble_size=3, performance_index=index))
    if path == "tie":
        # Untrained members all give (0.5, 0.5): the vote ties and falls back.
        seed_tracker(model._new_concept("T").current.tracker)
    else:
        for ex in alternating_stream(rng, 200, (0.0, 0.0), (3.0, 3.0)):
            model.observe("S1", ex, rng)
            model.observe("T", ex, rng)
    pool = model.pools["T"]
    members = pool.current.ensemble.sub_classifiers
    calls = count_tree_evaluations(monkeypatch)
    marks = calls_until_detector_update(monkeypatch, pool.detector, calls)

    x = np.array([1.2, 1.7])
    model.predict(x)
    voted = len(calls)
    model.observe("T", Example(x, POS), rng)
    expected = len(model.concepts) if path == "weighted" else 1
    assert voted == expected * len(members)
    target_calls = [tree for tree in calls[: marks[0]] if tree in members]
    assert sorted(map(id, target_calls)) == sorted(map(id, members))


def test_baseline_reset_step_evaluates_members_once(monkeypatch):
    rng = np.random.default_rng(17)
    approach = BaselineApproach(small_config(ensemble_size=3), "T", True, rng)
    for ex in alternating_stream(rng, 100, (0.0, 0.0), (3.0, 3.0)):
        approach.observe("T", ex)
    calls = count_tree_evaluations(monkeypatch)
    marks = calls_until_detector_update(monkeypatch, approach.detector, calls)
    x = np.array([1.2, 1.7])
    approach.predict(x)
    approach.observe("T", Example(x, POS))
    assert marks == [3]
    assert len(calls) == 3


def test_baseline_reset_observe_evaluates_each_member_once(monkeypatch):
    rng = np.random.default_rng(17)
    approach = BaselineApproach(small_config(ensemble_size=3), "T", True, rng)
    for ex in alternating_stream(rng, 100, (0.0, 0.0), (3.0, 3.0)):
        approach.observe("T", ex)
    members = approach.ensemble.sub_classifiers
    calls = count_tree_evaluations(monkeypatch)
    approach.observe("T", Example(np.array([1.2, 1.7]), POS))
    assert approach.ensemble.sub_classifiers is members
    assert sorted(map(id, calls)) == sorted(map(id, members))


def test_update_weights_after_predict_reuses_its_target_pass(monkeypatch):
    # A weight update right after a prediction at the same features reuses
    # the pass that the prediction kept on the current target concept; the
    # learn in observe drops it, so its weight update evaluates them again.
    rng = np.random.default_rng(18)
    model = MarlineModel(small_config(ensemble_size=3))
    for ex in alternating_stream(rng, 200, (0.0, 0.0), (3.0, 3.0)):
        model.observe("S1", ex, rng)
        model.observe("T", ex, rng)
    ensemble = model.pools["T"].current.ensemble
    members = ensemble.sub_classifiers
    calls = count_tree_evaluations(monkeypatch)

    def target_calls():
        found = sorted(id(tree) for tree in calls if tree in members)
        calls.clear()
        return found

    x = np.array([1.2, 1.7])
    model.predict(x)
    model.update_weights(Example(x, POS))
    assert target_calls() == sorted(map(id, members))
    model.observe("T", Example(x, POS), rng)
    assert model.pools["T"].current.ensemble is ensemble
    assert target_calls() == sorted(map(id, members))
    model.predict(x)
    model.update_weights(Example(x, POS))
    assert target_calls() == []


@pytest.mark.parametrize("leaf_prediction", ["majority", "nb_adaptive"])
def test_boosting_target_step_routes_each_target_member_once(monkeypatch, leaf_prediction):
    # The vote routes the current target concept's trees; the drift check
    # and training reuse that pass, and the weight update reuses the pass
    # that boosting's learn kept, so a step with no split routes each once.
    rng = np.random.default_rng(19)
    tree = HoeffdingTreeParams(leaf_prediction=leaf_prediction)
    model = MarlineModel(small_config(ensemble_size=3, base_ensemble="boosting", tree=tree))
    for ex in alternating_stream(rng, 120, (0.0, 0.0), (3.0, 3.0)):
        model.observe("S1", ex, rng)
        model.observe("T", ex, rng)
    ensemble = model.pools["T"].current.ensemble
    members = ensemble.sub_classifiers
    calls = count_tree_evaluations(monkeypatch)
    for ex in alternating_stream(rng, 20, (0.0, 0.0), (3.0, 3.0)):
        splits = sum(tree.n_splits for tree in members)
        model.predict(ex.features)
        model.observe("T", ex, rng)
        assert model.pools["T"].current.ensemble is ensemble
        assert sum(tree.n_splits for tree in members) == splits
        assert sorted(id(tree) for tree in calls if tree in members) == sorted(map(id, members))
        calls.clear()


@pytest.mark.parametrize("approach", ["marline_with_source", "base_detector_reset"])
@pytest.mark.parametrize("base_ensemble", ["bagging", "boosting"])
def test_duplicate_target_rows_end_as_with_no_kept_pass(monkeypatch, approach, base_ensemble):
    # Each target example arrives twice in a row, as duplicate CSV rows do,
    # and is predicted before each observe. The pass that a prediction keeps
    # serves only the drift check before the next learn, so the run ends as
    # one that never reuses a pass.
    def run():
        cls, flag = APPROACHES[approach]
        config = small_config(ensemble_size=3, base_ensemble=base_ensemble)
        learner = cls(config, "T", flag, np.random.default_rng(36))
        labels = []
        for ex in alternating_stream(np.random.default_rng(37), 150, (0.0, 0.0), (2.0, 2.0)):
            learner.observe("S1", ex)
            for _ in range(2):
                labels.append(learner.predict(ex.features))
                learner.observe("T", ex)
        return labels, pickle.dumps(learner)

    kept = run()
    monkeypatch.setattr(_EnsembleBase, "memo_pairs", _EnsembleBase.member_pairs)
    assert run() == kept


# ----------------------------------------------------------------------
# fixed passes
# ----------------------------------------------------------------------


def short_concept_model(base_ensemble, leaf_prediction, cut=15):
    """A model over a target and two sources. The S2 and target detectors
    fire every ``cut`` examples, so that frozen concepts of single leaves
    pile up; S1 keeps one concept, whose trees go on to split."""
    tree = HoeffdingTreeParams(grace_period=20, tie_threshold=0.5, leaf_prediction=leaf_prediction)
    model = MarlineModel(small_config(ensemble_size=3, base_ensemble=base_ensemble, tree=tree))
    for stream_id in ("S1", "S2", "T"):
        fire_at = () if stream_id == "S1" else {cut}
        model._new_concept(stream_id).detector = StubDetector(fire_at)
    return model


@pytest.mark.parametrize("base_ensemble", ["bagging", "boosting"])
def test_a_frozen_concept_of_single_majority_leaves_is_never_projected(
    monkeypatch, base_ensemble
):
    rng = np.random.default_rng(38)
    model = short_concept_model(base_ensemble, "majority", cut=8)
    stream = alternating_stream(np.random.default_rng(39), 300, (0.0, 0.0), (3.0, 3.0))
    for ex in stream[:200]:
        for stream_id in ("S1", "S2", "T"):
            model.observe(stream_id, ex, rng)
    frozen = model.pools["S2"].concepts[:-1]
    assert frozen and all(c.ensemble.fixed_pairs() is not None for c in frozen)
    assert all(c.tracker.frame() is not None for c in frozen)
    assert model.pools["S1"].current.ensemble.fixed_pairs() is None  # its trees split
    projected_from = []
    init = Reflections.__init__

    def spied(reflections, src, tgt):
        projected_from.append(src)
        init(reflections, src, tgt)

    monkeypatch.setattr(Reflections, "__init__", spied)
    for ex in stream[200:]:
        model.predict(ex.features)
        model.observe("T", ex, rng)
    assert model.pools["S1"].current.tracker.frame() in projected_from
    assert not any(c.tracker.frame() in projected_from for c in frozen)


def test_snapshots_store_no_fixed_pass(tmp_path):
    model = short_concept_model("boosting", "majority")
    rng = np.random.default_rng(42)
    for ex in alternating_stream(np.random.default_rng(43), 125, (0.0, 0.0), (3.0, 3.0)):
        for stream_id in ("S1", "S2", "T"):
            model.observe(stream_id, ex, rng)
    probes = np.random.default_rng(44).standard_normal((10, 2)) * 2 + 1.5
    before = [model.predict(p).scores.tobytes() for p in probes]
    kept = [vars(c.ensemble).get("_fixed") for c in model.concepts]
    assert any(isinstance(f, np.ndarray) for f in kept)
    assert any(f is False for f in kept)
    kept_path, bare_path = tmp_path / "kept.bin", tmp_path / "bare.bin"
    model.save(str(kept_path))
    for concept in model.concepts:
        vars(concept.ensemble).pop("_fixed", None)
    model.save(str(bare_path))
    assert kept_path.read_bytes() == bare_path.read_bytes()
    restored = MarlineModel.load(str(kept_path))
    assert all("_fixed" not in vars(c.ensemble) for c in restored.concepts)
    assert [restored.predict(p).scores.tobytes() for p in probes] == before


# ----------------------------------------------------------------------
# target frames
# ----------------------------------------------------------------------


def fixed_source_model(n_features=2):
    """A boosting model over majority leaves: a target, and a source whose
    detector fires every 8 examples, so that all its concepts stay fixed
    passes of single leaves. Returns it with its generator and stream."""
    tree = HoeffdingTreeParams(grace_period=20, leaf_prediction="majority")
    model = MarlineModel(small_config(ensemble_size=3, base_ensemble="boosting", tree=tree))
    model._new_concept("S1").detector = StubDetector({8})
    model._new_concept("T").detector = StubDetector()
    rng = np.random.default_rng(50)
    stream = alternating_stream(np.random.default_rng(51), 100, (0.0, 0.0), (3.0, 3.0))
    for ex in stream[:40]:
        model.observe("S1", ex, rng)
        model.observe("T", ex, rng)
    current = model.pools["T"].current
    assert len(model.pools["S1"].concepts) == 6
    assert all(c.ensemble.fixed_pairs() is not None for c in model.concepts if c is not current)
    return model, rng, stream[40:]


def count_frame_builds(monkeypatch):
    built = []
    init = ConceptFrame.__init__

    def counted(frame, vector, c_pos):
        built.append(frame)
        init(frame, vector, c_pos)

    monkeypatch.setattr(ConceptFrame, "__init__", counted)
    return built


def test_a_step_over_fixed_concepts_builds_no_frame(monkeypatch):
    model, rng, stream = fixed_source_model()
    built = count_frame_builds(monkeypatch)
    for ex in stream:
        assert model._weights.any()
        model.predict(ex.features)
        model.observe("T", ex, rng)
    assert built == []


def test_a_projecting_concept_builds_at_most_one_target_frame_per_step(monkeypatch):
    model, rng, stream = fixed_source_model()
    # A second source whose one concept has naive-Bayes leaves, which read
    # their input, so that it projects on every pass.
    params = HoeffdingTreeParams(leaf_prediction="nb_adaptive")
    source = model._new_concept("S2").current
    source.ensemble = learners.make_ensemble("boosting", 2, 3, params)
    for ex in stream[:40]:
        source.ensemble.learn(ex.features.tolist(), ex.label, rng)
        source.tracker.update(ex)
    assert source.ensemble.fixed_pairs() is None
    source_frame = source.tracker.frame()
    # The target frame as the weight update of a step before would build it.
    model.pools["T"].current.tracker.frame()
    projected = []
    init = Reflections.__init__

    def spied(reflections, src, tgt):
        projected.append(tgt)
        init(reflections, src, tgt)

    monkeypatch.setattr(Reflections, "__init__", spied)
    built = count_frame_builds(monkeypatch)
    for ex in stream[40:]:
        model.predict(ex.features)
        model.observe("T", ex, rng)
        assert len(built) <= 1
        assert built == [] or built[0] in projected
        built.clear()
    assert source.tracker.frame() is source_frame
    assert projected


def test_before_both_target_classes_predict_falls_back_and_weights_stay(monkeypatch):
    model, rng, stream = fixed_source_model()
    target = model._new_concept("T").current
    neg = [ex for ex in stream if ex.label == NEG]
    for ex in neg[:5]:
        target.ensemble.learn(ex.features.tolist(), ex.label, rng)
        target.tracker.update(ex)
    assert not target.tracker.both_classes_seen
    assert model._weights.any()
    stats = [a.tobytes() for a in (model.lambda_correct, model.lambda_wrong, model.performance)]
    built = count_frame_builds(monkeypatch)
    for ex in stream[:10]:
        values = ex.features.tolist()
        scores = model.predict(ex.features).scores
        assert scores.tolist() == list(mean_pair(target.ensemble.member_pairs(values)))
        model.update_weights(ex)
        assert [
            a.tobytes() for a in (model.lambda_correct, model.lambda_wrong, model.performance)
        ] == stats
    assert built == []


# ----------------------------------------------------------------------
# cost scaling
# ----------------------------------------------------------------------


def test_target_example_cost_scales_roughly_linearly_with_concepts():
    # Doubling the total concept count must not much more than double the
    # per-target-example processing time.
    def timed_model(n_sources):
        rng = np.random.default_rng(11)
        model = MarlineModel(small_config(ensemble_size=5))
        stream = alternating_stream(rng, 60, (0.0, 0.0), (3.0, 3.0))
        for ex in stream:
            for s in range(n_sources):
                model.observe(f"S{s}", ex, rng)
            model.observe("T", ex, rng)
        work = alternating_stream(rng, 400, (0.0, 0.0), (3.0, 3.0))
        start = time.perf_counter()
        for ex in work:
            model.observe("T", ex, rng)
        return time.perf_counter() - start

    timed_model(2)  # warm caches
    baseline = min(timed_model(2) for _ in range(3))  # 3 concepts
    doubled = min(timed_model(5) for _ in range(3))  # 6 concepts
    assert doubled / baseline <= 2.5


# ----------------------------------------------------------------------
# properties over random streams
# ----------------------------------------------------------------------


@st.composite
def interleaved_streams(draw):
    """A config, and a stream of (stream id, features, label) entries over a
    target and one to three sources, each entry flagged if its stream's
    detector is to fire on it. Features are any finite floats, drawn mostly
    from a few values so that trees split and centroids coincide."""
    sources = [f"S{i}" for i in range(draw(st.integers(1, 3)))]
    config = small_config(
        ensemble_size=draw(st.integers(1, 3)),
        base_ensemble=draw(st.sampled_from(["bagging", "boosting"])),
        forgetting_factor=draw(st.floats(0.05, 1.0)),
        performance_index=draw(st.floats(0.0, 1.0)),
    )
    value = st.one_of(
        st.integers(-3, 3).map(float), st.floats(allow_nan=False, allow_infinity=False)
    )
    entries = [
        (
            draw(st.sampled_from(["T", *sources])),
            draw(st.lists(value, min_size=2, max_size=2)),
            draw(st.sampled_from([NEG, POS])),
            draw(st.integers(0, 9)) == 0,
        )
        for _ in range(draw(st.integers(1, 60)))
    ]
    return config, entries


# Centroid sums that overflowed gave a concept vector of NaN norm, which the
# projection once took for a regular one and crashed on. Such features are
# now rejected.
OVERFLOWING_CENTROIDS = (
    small_config(ensemble_size=1),
    [("S0", [1e308, 1e308], t % 2, False) for t in range(4)]
    + [("T", [1e308, 1e308], t % 2, False) for t in range(2)],
)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(interleaved_streams())
@example(OVERFLOWING_CENTROIDS)
def test_source_weight_ratio_stays_in_the_unit_interval(case):
    config, entries = case
    model = MarlineModel(config)
    rng = np.random.default_rng(0)
    for stream_id, features, label, fire in entries:
        if stream_id in model.pools:
            model.pools[stream_id].detector = StubDetector({1} if fire else ())
        example = Example(np.array(features), label)
        if max(map(abs, features)) > MAX_ABS_FEATURE:
            with pytest.raises(DataError):
                model.observe(stream_id, example, rng)
            continue
        model.observe(stream_id, example, rng)
        assert 0.0 <= model.source_weight_ratio() <= 1.0
        model.predict(example.features)
